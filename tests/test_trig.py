"""The trig-polynomial algebra of the spectral fields: scalar fields built from
real cos/sin terms, multiplied by the one convolution kernel, against sympy
and pointwise oracles."""

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerlab import spectral as sp

COS, SIN = 0, 1
X = sympy.symbols("x1 x2 x3")


def term(kind, k, c=1.0):
    """The scalar field c cos(k.x) or c sin(k.x)."""
    k = tuple(int(x) for x in k)
    if k == (0, 0, 0):
        coeff = c if kind == COS else 0.0
    else:
        coeff = 0.5 * c if kind == COS else -0.5j * c
    return sp.ScalarSpectralField.from_pairs({k: coeff}, truncation_radius=max(map(abs, k)))


def zero():
    return sp.ScalarSpectralField(K=(), C=(), truncation_radius=0)


def product(a, b):
    return sp._convolve(a, b, np.multiply)


def deriv(f, axis):
    g = f.gradient()
    return sp.ScalarSpectralField(K=g.K, C=g.C[:, axis], truncation_radius=g.truncation_radius)


def integral(f):
    return sp.VOLUME * float(f.mode((0, 0, 0)).real)


def sympy_of(spec):
    expr = sympy.Integer(0)
    for kind, k, c in spec:
        phase = sum(ki * xi for ki, xi in zip(k, X))
        expr += c * (sympy.cos(phase) if kind == COS else sympy.sin(phase))
    return expr


def random_spec(gen, terms=4, kmax=2):
    return [(COS if gen.uniform() < 0.5 else SIN,
             tuple(int(x) for x in gen.integers(-kmax, kmax + 1, size=3)),
             float(gen.uniform(-2, 2))) for _ in range(terms)]


def field(spec):
    f = zero()
    for kind, k, c in spec:
        f = f + term(kind, k, c)
    return f


def eval_sympy(expr, pts):
    f = sympy.lambdify(X, expr, "numpy")
    vals = f(pts[:, 0], pts[:, 1], pts[:, 2])
    return np.broadcast_to(vals, (pts.shape[0],)).astype(float)


@pytest.fixture
def gen():
    return np.random.Generator(np.random.Philox(key=np.array([5, 1], dtype=np.uint64)))


def same(a, b):
    return np.array_equal(a.K, b.K) and np.array_equal(a.C, b.C)


def test_canonicalization_negated_wavevector():
    # cos(-k.x) = cos(k.x), sin(-k.x) = -sin(k.x)
    assert same(term(COS, (-1, 2, 0), 1.5), term(COS, (1, -2, 0), 1.5))
    assert same(term(SIN, (-1, 2, 0), 1.5), term(SIN, (1, -2, 0), -1.5))
    assert not (term(SIN, (0, 0, 0), 3.0) + zero()).K.size


def test_product_against_sympy(gen):
    pts = gen.uniform(0, 2 * np.pi, size=(20, 3))
    for _ in range(6):
        a, b = random_spec(gen), random_spec(gen)
        prod = product(field(a), field(b))
        ref = eval_sympy(sympy.expand_trig(sympy_of(a) * sympy_of(b)), pts)
        assert np.max(np.abs(prod.evaluate(pts) - ref)) < 1e-12


def test_derivative_against_sympy(gen):
    pts = gen.uniform(0, 2 * np.pi, size=(20, 3))
    for axis in range(3):
        p = random_spec(gen)
        ref = eval_sympy(sympy.diff(sympy_of(p), X[axis]), pts)
        assert np.max(np.abs(deriv(field(p), axis).evaluate(pts) - ref)) < 1e-12


def test_integral_reads_constant_term(gen):
    vol = (2 * np.pi) ** 3
    p = term(COS, (1, 0, 2), 0.7)
    assert integral(product(p, p)) == pytest.approx(0.7 ** 2 * vol / 2, rel=1e-14)
    q = term(COS, (0, 0, 0), 1.25) + term(SIN, (1, 1, 0), 3.0)
    assert integral(q) == pytest.approx(1.25 * vol, rel=1e-14)
    # sympy cross-check on a random product
    gen2 = np.random.Generator(np.random.Philox(key=np.array([5, 2], dtype=np.uint64)))
    a = random_spec(gen2, terms=3)
    b = random_spec(gen2, terms=3)
    ref = sympy.integrate(
        sympy_of(a) * sympy_of(b),
        (X[0], 0, 2 * sympy.pi), (X[1], 0, 2 * sympy.pi), (X[2], 0, 2 * sympy.pi),
    )
    assert integral(product(field(a), field(b))) == pytest.approx(float(ref), abs=1e-11)


def test_degree_and_axis_degrees():
    p = term(COS, (2, 0, 1)) + term(SIN, (0, 3, 0))
    assert p.degree() == 3
    assert tuple(np.max(np.abs(p.K), axis=0)) == (2, 3, 1)
    assert zero().degree() == 0
    # a stored zero coefficient does not count
    q = sp.ScalarSpectralField.from_pairs({(0, 0, 4): 0.0, (1, 0, 0): 1.0}, truncation_radius=4)
    assert q.degree() == 1


def test_exact_cancellation():
    p = term(COS, (1, 0, 0), 2.0)
    q = term(COS, (1, 0, 0), -2.0)
    assert not (p + q).K.size
    # sin^2 + cos^2 = 1 exactly in the product algebra
    s = term(SIN, (1, 2, 3))
    c = term(COS, (1, 2, 3))
    one = product(s, s) + product(c, c)
    assert one.K.tolist() == [[0, 0, 0]] and one.C.tolist() == [1.0]


# raw (kind, k, c) terms, with k in either half of the lattice
TERMS = st.lists(
    st.tuples(st.sampled_from([COS, SIN]),
              st.tuples(*[st.integers(-2, 2)] * 3),
              st.floats(-2.0, 2.0, allow_nan=False)),
    max_size=5)
PTS = np.random.Generator(np.random.Philox(key=np.array([5, 3], dtype=np.uint64))).uniform(
    0, 2 * np.pi, size=(16, 3))


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
    a, b = field(a_spec), field(b_spec)
    fa, fb = _pointwise(a_spec), _pointwise(b_spec)
    assert np.allclose(a.evaluate(PTS), fa, rtol=0, atol=1e-12)
    assert np.allclose((a + b).evaluate(PTS), fa + fb, rtol=0, atol=1e-12)
    assert np.allclose(product(a, b).evaluate(PTS), fa * fb, rtol=0, atol=1e-11)
    assert np.allclose(deriv(a, axis).evaluate(PTS), _pointwise(a_spec, axis), rtol=0, atol=1e-11)
    for p in (a, a + b, product(a, b), deriv(a, axis)):
        ks = [tuple(k) for k in p.K.tolist()]
        assert ks == sorted(set(ks)) and np.array_equal(p.K[::-1], -p.K)
        assert np.array_equal(p.C[::-1], np.conj(p.C))
        assert all(k >= (0, 0, 0) for k in ks[len(ks) // 2:])
