import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerlab.spectral import lex_negative
from eulerlab.trig import COS, SIN, TrigPoly

X = sympy.symbols("x1 x2 x3")


def sympy_of(poly):
    expr = sympy.Integer(0)
    for kind, k, c in poly.sorted_terms():
        phase = sum(ki * xi for ki, xi in zip(k, X))
        expr += c * (sympy.cos(phase) if kind == COS else sympy.sin(phase))
    return expr


def random_poly(gen, terms=4, kmax=2):
    p = TrigPoly()
    for _ in range(terms):
        k = tuple(int(x) for x in gen.integers(-kmax, kmax + 1, size=3))
        c = float(gen.uniform(-2, 2))
        if gen.uniform() < 0.5:
            p = p + TrigPoly.cos(k, c)
        else:
            p = p + TrigPoly.sin(k, c)
    return p


def eval_sympy(expr, pts):
    f = sympy.lambdify(X, expr, "numpy")
    vals = f(pts[:, 0], pts[:, 1], pts[:, 2])
    return np.broadcast_to(vals, (pts.shape[0],)).astype(float)


@pytest.fixture
def gen():
    return np.random.Generator(np.random.Philox(key=np.array([5, 1], dtype=np.uint64)))


def test_canonicalization_negated_wavevector():
    # cos(-k.x) = cos(k.x), sin(-k.x) = -sin(k.x)
    p = TrigPoly.cos((-1, 2, 0), 1.5)
    q = TrigPoly.cos((1, -2, 0), 1.5)
    assert p.terms == q.terms
    s = TrigPoly.sin((-1, 2, 0), 1.5)
    t = TrigPoly.sin((1, -2, 0), -1.5)
    assert s.terms == t.terms
    assert TrigPoly.sin((0, 0, 0), 3.0).is_zero()


def test_product_against_sympy(gen):
    pts = gen.uniform(0, 2 * np.pi, size=(20, 3))
    for _ in range(6):
        a = random_poly(gen)
        b = random_poly(gen)
        prod = a * b
        ref = eval_sympy(sympy.expand_trig(sympy_of(a) * sympy_of(b)), pts)
        assert np.max(np.abs(prod.eval(pts) - ref)) < 1e-12


def test_derivative_against_sympy(gen):
    pts = gen.uniform(0, 2 * np.pi, size=(20, 3))
    for axis in range(3):
        p = random_poly(gen)
        ref = eval_sympy(sympy.diff(sympy_of(p), X[axis]), pts)
        assert np.max(np.abs(p.deriv(axis).eval(pts) - ref)) < 1e-12


def test_integral_reads_constant_term(gen):
    vol = (2 * np.pi) ** 3
    p = TrigPoly.cos((1, 0, 2), 0.7)
    assert (p * p).integral() == pytest.approx(0.7 ** 2 * vol / 2, rel=1e-14)
    q = TrigPoly.const(1.25) + TrigPoly.sin((1, 1, 0), 3.0)
    assert q.integral() == pytest.approx(1.25 * vol, rel=1e-14)
    # sympy cross-check on a random product
    gen2 = np.random.Generator(np.random.Philox(key=np.array([5, 2], dtype=np.uint64)))
    a = random_poly(gen2, terms=3)
    b = random_poly(gen2, terms=3)
    ref = sympy.integrate(
        sympy_of(a) * sympy_of(b),
        (X[0], 0, 2 * sympy.pi), (X[1], 0, 2 * sympy.pi), (X[2], 0, 2 * sympy.pi),
    )
    assert (a * b).integral() == pytest.approx(float(ref), abs=1e-11)


def test_degree_and_axis_degrees():
    p = TrigPoly.cos((2, 0, 1)) + TrigPoly.sin((0, 3, 0))
    assert p.degree() == 3
    assert p.axis_degrees() == (2, 3, 1)
    assert TrigPoly().degree() == 0


def test_exact_cancellation():
    p = TrigPoly.cos((1, 0, 0), 2.0)
    q = TrigPoly.cos((1, 0, 0), -2.0)
    assert (p + q).is_zero()
    # sin^2 + cos^2 = 1 exactly in the term algebra
    s = TrigPoly.sin((1, 2, 3))
    c = TrigPoly.cos((1, 2, 3))
    one = s * s + c * c
    assert one.terms == {(COS, (0, 0, 0)): 1.0}


# raw (kind, k, c) terms, with k in either half of the lattice
TERMS = st.lists(
    st.tuples(st.sampled_from([COS, SIN]),
              st.tuples(*[st.integers(-2, 2)] * 3),
              st.floats(-2.0, 2.0, allow_nan=False)),
    max_size=5)
PTS = np.random.Generator(np.random.Philox(key=np.array([5, 3], dtype=np.uint64))).uniform(
    0, 2 * np.pi, size=(16, 3))


def _poly(spec):
    p = TrigPoly()
    for kind, k, c in spec:
        p = p + (TrigPoly.cos(k, c) if kind == COS else TrigPoly.sin(k, c))
    return p


def _pointwise(spec, axis=None):
    """The terms (or their derivative along axis) summed at PTS, without canonicalisation."""
    out = np.zeros(len(PTS))
    for kind, k, c in spec:
        ph = PTS @ np.array(k, dtype=float)
        if axis is None:
            out += c * (np.cos(ph) if kind == COS else np.sin(ph))
        else:
            out += c * k[axis] * (-np.sin(ph) if kind == COS else np.cos(ph))
    return out


@settings(max_examples=40, deadline=None)
@given(TERMS, TERMS, st.integers(0, 2))
def test_algebra_agrees_with_pointwise_evaluation(a_spec, b_spec, axis):
    a, b = _poly(a_spec), _poly(b_spec)
    fa, fb = _pointwise(a_spec), _pointwise(b_spec)
    assert np.allclose(a.eval(PTS), fa, rtol=0, atol=1e-12)
    assert np.allclose((a + b).eval(PTS), fa + fb, rtol=0, atol=1e-12)
    assert np.allclose((a * b).eval(PTS), fa * fb, rtol=0, atol=1e-11)
    assert np.allclose(a.deriv(axis).eval(PTS), _pointwise(a_spec, axis), rtol=0, atol=1e-11)
    for p in (a, a + b, a * b, a.deriv(axis)):
        assert not any(lex_negative(k) for (_, k) in p.terms)
