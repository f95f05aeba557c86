import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerlab import serialize as ser
from eulerlab import spectral as sp
from eulerlab.errors import MemoryBudgetExceeded, NoSuchEigenvalue, VanishingField

TWO_PI = 2 * np.pi

# r3(n) for n = 0..20 frozen from the brute-force enumeration oracle below
# (agrees with the classical sum-of-three-squares counts)
R3_TABLE = [1, 6, 12, 8, 6, 24, 24, 0, 12, 30, 24, 24, 8, 24, 48, 0, 6, 48, 36, 24, 24]


def brute_force_shell_count(n):
    m = math.isqrt(n) + 1
    count = 0
    for k1 in range(-m, m + 1):
        for k2 in range(-m, m + 1):
            for k3 in range(-m, m + 1):
                if k1 * k1 + k2 * k2 + k3 * k3 == n:
                    count += 1
    return count


def rng(*key):
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


def basis_fields(n):
    """The helicity basis of shell n as one field per basis vector, 2 r + t."""
    K, U = sp.helicity_basis(n)
    return [sp.SpectralVectorField.from_half(K[r:r + 1], U[r, t], np.max(np.abs(K)))
            for r in range(len(K)) for t in (0, 1)]


def grid_values(f, n):
    """The whole grid, shape (n, n, n) + f.SHAPE, from its slabs."""
    return np.concatenate(list(sp.grid_slabs(f, n)), axis=1)


def pressure(v):
    """The Euler pressure -Delta^{-1} Div(v . grad v), as steady_residual solves for it."""
    return sp._solve_poisson_divergence(sp.convective_spectral(v), -1.0)


class TestMakeABC:
    def test_point_value(self):
        v = sp.make_abc(sp.ABCParams(1.0, 0.5, 0.1))
        assert np.allclose(v.evaluate([0.0, 0.0, 0.0])[0], [0.1, 1.0, 0.5], atol=1e-14)

    def test_formula_on_random_points(self):
        A, B, C = 0.7, -1.3, 0.4
        v = sp.make_abc(sp.ABCParams(A, B, C))
        pts = rng(7, 1).uniform(0, TWO_PI, size=(40, 3))
        vals = v.evaluate(pts)
        x1, x2, x3 = pts[:, 0], pts[:, 1], pts[:, 2]
        expected = np.stack(
            [A * np.sin(x3) + C * np.cos(x2),
             B * np.sin(x1) + A * np.cos(x3),
             C * np.sin(x2) + B * np.cos(x1)], axis=-1)
        assert np.max(np.abs(vals - expected)) < 1e-13

    def test_six_modes_exactly(self):
        v = sp.make_abc(sp.ABCParams(1.0, 1.0, 1.0))
        assert set(map(tuple, v.K.tolist())) == {(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                                                 (0, 0, 1), (0, 0, -1)}

    def test_zero_amplitudes_give_zero_field(self):
        v = sp.make_abc(sp.ABCParams(0.0, 0.0, 0.0))
        pts = rng(7, 2).uniform(0, TWO_PI, size=(10, 3))
        assert np.max(np.abs(v.evaluate(pts))) == 0.0

    def test_curl_eigenvalue_one(self):
        for params in [(1, 1, 1), (1, 0.5, 0.1), (0.3, -2.0, 0.9)]:
            v = sp.make_abc(sp.ABCParams(*params))
            c = sp.curl_spectral(v)
            for k in v.K:
                assert np.array_equal(c.mode(k), v.mode(k))


class TestCurlDivergence:
    def test_curl_shear_symbolic_oracle(self):
        # v = (sin x2, 0, 0): curl v = (0, 0, -cos x2) by hand differentiation
        v = sp.SpectralVectorField.from_pairs(
            {(0, 1, 0): np.array([-0.5j, 0, 0])}, truncation_radius=1)
        c = sp.curl_spectral(v)
        pts = rng(7, 3).uniform(0, TWO_PI, size=(30, 3))
        expected = np.stack(
            [np.zeros(30), np.zeros(30), -np.cos(pts[:, 1])], axis=-1)
        assert np.max(np.abs(c.evaluate(pts) - expected)) < 1e-14

    def test_curl_of_constant_is_zero(self):
        v = sp.SpectralVectorField.from_pairs(
            {(0, 0, 0): np.array([1.0, 2.0, 3.0])}, truncation_radius=0)
        c = sp.curl_spectral(v)
        assert np.max(np.abs(c.mode((0, 0, 0)))) == 0.0

    def test_divergence_symbolic_oracle(self):
        # v = (cos x1, 0, 0): div v = -sin x1
        v = sp.SpectralVectorField.from_pairs(
            {(1, 0, 0): np.array([0.5, 0, 0])}, truncation_radius=1)
        d = sp.divergence_spectral(v)
        pts = rng(7, 4).uniform(0, TWO_PI, size=(30, 3))
        assert np.max(np.abs(d.evaluate(pts) + np.sin(pts[:, 0]))) < 1e-14

    def test_divergence_of_abc_zero(self):
        d = sp.divergence_spectral(sp.make_abc(sp.ABCParams(1.3, -0.2, 0.8)))
        assert d.norm_l2() == 0.0

    def test_curl_curl_equals_minus_laplacian_on_divergence_free(self):
        gen = rng(7, 5)
        for trial in range(100):
            pairs = {}
            for _ in range(4):
                k = tuple(int(x) for x in gen.integers(-2, 3, size=3))
                if k == (0, 0, 0):
                    continue
                c = gen.standard_normal(3) + 1j * gen.standard_normal(3)
                ka = np.array(k, dtype=float)
                c = c - ka * (ka @ c) / (ka @ ka)  # project transverse
                pairs[k] = c
            if not pairs:
                continue
            v = sp.SpectralVectorField.from_pairs(pairs, truncation_radius=2)
            cc = sp.curl_spectral(sp.curl_spectral(v))
            for k, c in zip(v.K, v.C):
                lap = (k[0] ** 2 + k[1] ** 2 + k[2] ** 2) * c
                assert np.max(np.abs(cc.mode(k) - lap)) < 1e-12


class TestLatticeShells:
    def test_frozen_r3_table(self):
        for n, expected in enumerate(R3_TABLE):
            assert len(sp.lattice_shell(n)) == expected

    def test_brute_force_oracle_to_100(self):
        for n in range(101):
            shell = sp.lattice_shell(n)
            assert len(shell) == brute_force_shell_count(n)
            assert shell.shape == (len(shell), 3) and shell.dtype == np.int64

    def test_shell_closed_under_negation_and_sorted(self):
        shell = [tuple(k) for k in sp.lattice_shell(9).tolist()]
        vecs = set(shell)
        assert all((-k[0], -k[1], -k[2]) in vecs for k in vecs)
        assert shell == sorted(shell)

    def test_examples(self):
        assert len(sp.lattice_shell(1)) == 6
        assert len(sp.lattice_shell(2)) == 12
        assert len(sp.lattice_shell(7)) == 0


class TestAdmissibility:
    def test_examples(self):
        assert sp.mod8_admissible(1) is True
        assert sp.mod8_admissible(7) is False

    def test_mod8_rule_vs_shell_nonemptiness_diverges_at_4(self):
        assert sp.mod8_admissible(4) is False
        assert len(sp.lattice_shell(4)) > 0

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            sp.mod8_admissible(0)
        with pytest.raises(ValueError):
            sp.lattice_shell(-1)

    def test_full_rule(self):
        for n in range(1, 65):
            assert sp.mod8_admissible(n) == (n % 8 in (1, 2, 3, 5, 6))


class TestHelicityBasis:
    def gram(self, fields):
        n = len(fields)
        G = np.empty((n, n))
        for i, u in enumerate(fields):
            for j, w in enumerate(fields):
                s = 0.0
                for k in {tuple(k) for k in np.concatenate([u.K, w.K]).tolist()}:
                    s += float(np.real(np.vdot(w.mode(k), u.mode(k))))
                G[i, j] = sp.VOLUME * s
        return G

    def test_shell_one_orthonormal_exact_eigenfields(self):
        basis = basis_fields(1)
        assert len(basis) == 6
        assert np.max(np.abs(self.gram(basis) - np.eye(6))) <= 1e-12
        for u in basis:
            cu = sp.curl_spectral(u)
            for k in u.K:
                # eigenvalue 1 is exact in floating point
                assert np.array_equal(cu.mode(k), u.mode(k))

    def test_higher_shell_residual_and_gram(self):
        for n in (2, 3, 5):
            basis = basis_fields(n)
            assert len(basis) == len(sp.lattice_shell(n))
            assert np.max(np.abs(self.gram(basis) - np.eye(len(basis)))) <= 1e-12
            lam = math.sqrt(n)
            for u in basis:
                cu = sp.curl_spectral(u)
                for k in u.K:
                    assert np.max(np.abs(cu.mode(k) - lam * u.mode(k))) <= 1e-14

    def test_abc_expands_with_zero_remainder(self):
        # least-squares projection oracle: project onto the basis and rebuild
        v = sp.make_abc(sp.ABCParams(1.0, 1.0, 1.0))
        basis = basis_fields(1)
        coeffs = []
        for u in basis:
            s = 0.0
            for k in {tuple(k) for k in np.concatenate([u.K, v.K]).tolist()}:
                s += float(np.real(np.vdot(u.mode(k), v.mode(k))))
            coeffs.append(sp.VOLUME * s)
        recon = {}
        for a, u in zip(coeffs, basis):
            for k, c in zip(map(tuple, u.K.tolist()), u.C):
                recon[k] = recon.get(k, np.zeros(3, dtype=complex)) + a * c
        for k in set(recon) | set(map(tuple, v.K.tolist())):
            assert np.max(np.abs(recon.get(k, 0) - v.mode(k))) < 1e-13

    def test_empty_shell_raises(self):
        with pytest.raises(NoSuchEigenvalue):
            sp.helicity_basis(7)


class TestRandomBeltrami:
    def test_exact_eigenfield(self):
        for n, seed in [(1, 0), (2, 3), (6, 11)]:
            v = sp.random_beltrami(n, seed)
            c = sp.curl_spectral(v)
            lam = math.sqrt(n)
            for k in v.K:
                assert np.max(np.abs(c.mode(k) - lam * v.mode(k))) <= 1e-12 * max(
                    1.0, float(np.max(np.abs(v.mode(k)))))

    def test_deterministic_bit_identical(self):
        a = sp.random_beltrami(3, 42)
        b = sp.random_beltrami(3, 42)
        assert np.array_equal(a.K, b.K)
        for k in a.K:
            assert np.array_equal(a.mode(k), b.mode(k))

    def test_distinct_seeds_differ(self):
        a = sp.random_beltrami(3, 1)
        b = sp.random_beltrami(3, 2)
        assert any(not np.array_equal(a.mode(k), b.mode(k)) for k in a.K)

    def test_monte_carlo_unit_expected_norm(self):
        # oracle: sample mean of ||v||^2 over 1e4 seeds; Var(||v||^2) = 2/N
        n, trials = 2, 10000
        mult = len(sp.lattice_shell(n))
        total = 0.0
        for seed in range(trials):
            total += sp.random_beltrami(n, seed).norm_l2() ** 2
        mean = total / trials
        se = math.sqrt(2.0 / mult / trials)
        assert abs(mean - 1.0) <= 3 * se


class TestPoissonSolves:
    def test_bernoulli_of_beltrami_is_zero(self):
        for v in [sp.make_abc(sp.ABCParams(1, 0.5, 0.1)), sp.random_beltrami(2, 9)]:
            F = sp.bernoulli(v)
            assert F.sup_norm() <= 1e-12

    def test_bernoulli_shear_symbolic_oracle(self):
        # v = (sin x2, 0, 0): Delta F = cos(2 x2), so F = -cos(2 x2)/4
        v = sp.SpectralVectorField.from_pairs(
            {(0, 1, 0): np.array([-0.5j, 0, 0])}, truncation_radius=1)
        F = sp.bernoulli(v)
        pts = rng(7, 8).uniform(0, TWO_PI, size=(50, 3))
        assert np.max(np.abs(F.evaluate(pts) + np.cos(2 * pts[:, 1]) / 4)) < 1e-14

    def test_bernoulli_zero_mean(self):
        F = sp.bernoulli(sp.random_beltrami(5, 2))
        assert F.mode((0, 0, 0)) == 0j

    def test_pressure_of_beltrami_identity(self):
        # oracle: for curl eigenfields v . grad v = grad(|v|^2 / 2), so
        # p + |v|^2/2 is constant; |v|^2 evaluated independently on a grid
        v = sp.make_abc(sp.ABCParams(1.0, 0.5, 0.1))
        p = pressure(v)
        n = 16
        vals = grid_values(v, n)
        half_speed = 0.5 * np.sum(vals * vals, axis=-1)
        total = grid_values(p, n) + half_speed
        assert np.max(total) - np.min(total) < 1e-13

    def test_pressure_constant_field(self):
        v = sp.SpectralVectorField.from_pairs(
            {(0, 0, 0): np.array([0.4, -1.0, 2.0])}, truncation_radius=0)
        assert pressure(v).norm_l2() == 0.0

    def test_pressure_shear_zero(self):
        v = sp.SpectralVectorField.from_pairs(
            {(0, 1, 0): np.array([-0.5j, 0, 0])}, truncation_radius=1)
        assert pressure(v).norm_l2() <= 1e-15


class TestSteadyResidual:
    def test_abc_is_steady(self):
        gen = rng(7, 9)
        for _ in range(5):
            v = sp.make_abc(sp.ABCParams(*gen.uniform(-2, 2, size=3)))
            r1, r2 = sp.steady_residual(v)
            assert r1 <= 1e-10 and r2 <= 1e-10

    def test_shear_is_steady(self):
        v = sp.SpectralVectorField.from_pairs(
            {(0, 1, 0): np.array([-0.5j, 0, 0])}, truncation_radius=1)
        r1, r2 = sp.steady_residual(v)
        assert r1 <= 1e-10 and r2 <= 1e-10

    def test_mixed_eigenvalues_not_steady(self):
        v = basis_fields(1)[0] + basis_fields(2)[0]
        _, r2 = sp.steady_residual(v)
        assert r2 > 0.01

    def test_products_built_once(self, monkeypatch):
        calls = {"convective_spectral": 0, "cross_spectral": 0}
        for name in calls:
            original = getattr(sp, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(sp, name, counted)
        sp.steady_residual(sp.make_abc(sp.ABCParams(1.0, 0.5, 0.3)))
        assert calls == {"convective_spectral": 1, "cross_spectral": 1}


class TestProportionalityFactor:
    def test_abc_unit_factor(self):
        rep = sp.proportionality_factor(sp.make_abc(sp.ABCParams(1, 0.5, 0.1)), 32)
        assert rep.gap <= 1e-10
        assert abs(rep.min_value - 1.0) <= 1e-10

    def test_scale_invariance(self):
        # doubling is exact in floating point, so the quotient is bitwise unchanged
        v = sp.make_abc(sp.ABCParams(1, 0.5, 0.1)) + sp.random_beltrami(2, 7)
        a = sp.proportionality_factor(v, 16)
        b = sp.proportionality_factor(v.scaled(2.0), 16)
        assert a.gap > 0.1
        assert np.array_equal(bits([a.gap, a.min_value, a.max_value]),
                              bits([b.gap, b.min_value, b.max_value]))

    def test_vanishing_field_raises(self):
        v = sp.SpectralVectorField.from_pairs(
            {(0, 1, 0): np.array([-0.5j, 0, 0])}, truncation_radius=1)
        with pytest.raises(VanishingField):
            sp.proportionality_factor(v, 16)


class TestMinNorm:
    def test_nonvanishing_regime(self):
        assert sp.min_norm(sp.make_abc(sp.ABCParams(1, 0.5, 0)), 64) > 0.1

    def test_stagnation_points_at_111(self):
        assert sp.min_norm(sp.make_abc(sp.ABCParams(1, 1, 1)), 64) <= 1e-3

    def test_zero_field(self):
        assert sp.min_norm(sp.SpectralVectorField(K=(), C=(), truncation_radius=0), 8) == 0.0

    def test_refinement_against_dense_grid_oracle(self):
        v = sp.make_abc(sp.ABCParams(1, 0.5, 0))
        coarse = sp.min_norm(v, 24)
        dense = sp.min_norm(v, 128)
        assert coarse <= dense + 1e-3


class TestEvaluate:
    def test_periodicity(self):
        v = sp.make_abc(sp.ABCParams(1.0, -0.3, 0.2))
        pts = rng(7, 10).uniform(0, TWO_PI, size=(10, 3))
        shifted = pts + np.array([TWO_PI, 0, 0])
        assert np.max(np.abs(v.evaluate(pts) - v.evaluate(shifted))) < 1e-12

    def test_matches_fft_grid_oracle(self):
        u = basis_fields(2)[0]
        n = 32
        grid_vals = grid_values(u, n)
        x = np.arange(n) * (TWO_PI / n)
        pts = np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1).reshape(-1, 3)
        direct = u.evaluate(pts).reshape(n, n, n, 3)
        assert np.max(np.abs(grid_vals - direct)) <= 1e-12

    def test_reality_of_constructed_fields(self):
        for v in [sp.make_abc(sp.ABCParams(0.2, 1.4, -0.7)), sp.random_beltrami(3, 5)]:
            for k, c in zip(v.K, v.C):
                assert np.array_equal(v.mode((-k[0], -k[1], -k[2])), np.conj(c))

    def test_reality_violation_rejected(self):
        with pytest.raises(ValueError):
            sp.SpectralVectorField(
                K=[(1, 0, 0)], C=[np.array([1.0 + 0j, 0, 0])], truncation_radius=1)


COEFF = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=30, deadline=None)
@given(st.dictionaries(st.tuples(*[st.integers(-2, 2)] * 3),
                       st.tuples(COEFF, COEFF, COEFF), max_size=8))
def test_divergence_of_curl_vanishes(pairs):
    v = sp.SpectralVectorField.from_pairs({k: np.array(c) for k, c in pairs.items()},
                                          truncation_radius=2)
    d = sp.divergence_spectral(sp.curl_spectral(v))
    assert max((abs(c) for c in d.C), default=0.0) <= 1e-12


WAVE = st.tuples(*[st.integers(-2, 2)] * 3)
VECTOR_PAIRS = st.dictionaries(WAVE, st.tuples(COEFF, COEFF, COEFF), max_size=8)
SCALAR_PAIRS = st.dictionaries(WAVE, COEFF, max_size=8)


def vector_field(pairs, trunc=2):
    return sp.SpectralVectorField.from_pairs({k: np.array(c) for k, c in pairs.items()},
                                             truncation_radius=trunc)


def assert_storage_invariants(f):
    ks = [tuple(k) for k in f.K.tolist()]
    assert ks == sorted(set(ks))
    assert np.array_equal(f.K[::-1], -f.K)
    assert np.array_equal(f.C[::-1], np.conj(f.C))
    assert f.C.shape == (len(ks),) + f.SHAPE


@settings(max_examples=40, deadline=None)
@given(VECTOR_PAIRS, SCALAR_PAIRS)
def test_from_pairs_gives_sorted_closed_conjugate_arrays(vpairs, spairs):
    v = vector_field(vpairs)
    f = sp.ScalarSpectralField.from_pairs(spairs, truncation_radius=2)
    for field, pairs in ((v, vpairs), (f, spairs)):
        assert_storage_invariants(field)
        expected = {}  # the conjugate at -k is implied; a later entry wins
        for k, c in pairs.items():
            c = np.array(c, dtype=complex)
            expected[k] = c.real + 0j if k == (0, 0, 0) else c
            expected[(-k[0], -k[1], -k[2])] = np.conj(expected[k])
        assert {tuple(k) for k in field.K.tolist()} == set(expected)
        for k, c in expected.items():
            assert np.array_equal(field.mode(k), c)


def fft_vector_from_grid(values, trunc):
    """Reference inverse transform: one FFT of grid values, the |k|_inf <= trunc
    box gathered and symmetrized to enforce reality."""
    n = values.shape[0]
    r = np.arange(-trunc, trunc + 1)
    K = np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3)
    H = (np.fft.fftn(values, axes=(0, 1, 2)) / n ** 3)[tuple((K % n).T)]
    return sp.SpectralVectorField(K=K, C=0.5 * (H + np.conj(H[::-1])), truncation_radius=trunc)


@settings(max_examples=30, deadline=None)
@given(VECTOR_PAIRS, st.integers(0, 3))
def test_grid_round_trip_returns_the_field(pairs, extra):
    v = vector_field(pairs)
    back = fft_vector_from_grid(grid_values(v, 5 + extra), 2)
    scale = max(1.0, float(np.max(np.abs(v.C), initial=0.0)))
    assert_storage_invariants(back)
    assert np.max(np.abs((back + v.scaled(-1.0)).C), initial=0.0) <= 1e-12 * scale


@settings(max_examples=30, deadline=None)
@given(VECTOR_PAIRS, SCALAR_PAIRS)
def test_json_round_trip_is_exact_for_both_classes(vpairs, spairs):
    f = sp.ScalarSpectralField.from_pairs(spairs, truncation_radius=2)
    for field in (vector_field(vpairs), f):
        doc = json.loads(ser.dump_json(ser.field_to_json(field)))
        back = ser.field_from_json(doc, type(field))
        assert type(back) is type(field)
        assert back.truncation_radius == field.truncation_radius
        assert np.array_equal(back.K, field.K) and np.array_equal(back.C, field.C)


@settings(max_examples=30, deadline=None)
@given(SCALAR_PAIRS)
def test_curl_of_gradient_vanishes(pairs):
    f = sp.ScalarSpectralField.from_pairs(pairs, truncation_radius=2)
    cg = sp.curl_spectral(f.gradient())
    assert cg.C.shape == (len(f.K), 3)
    assert np.max(np.abs(cg.C), initial=0.0) <= 1e-12 * np.max(np.abs(f.C), initial=0.0)


class TestStorageChecks:
    C1 = np.array([1.0 + 2j, 0, 0])

    def build(self, K, C, cls=sp.SpectralVectorField):
        return cls(K=K, C=C, truncation_radius=2)

    def test_valid_arrays_accepted(self):
        v = self.build([(-1, 0, 0), (1, 0, 0)], [np.conj(self.C1), self.C1])
        assert np.array_equal(v.mode((1, 0, 0)), self.C1)
        assert np.array_equal(v.mode((0, 1, 0)), np.zeros(3))

    def test_empty_field_keeps_its_trailing_shape(self):
        assert sp.SpectralVectorField(K=(), C=(), truncation_radius=1).C.shape == (0, 3)
        assert sp.ScalarSpectralField(K=(), C=(), truncation_radius=0).C.shape == (0,)

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            self.build([(1, 0, 0), (-1, 0, 0)], [self.C1, np.conj(self.C1)])

    def test_duplicated_rejected(self):
        with pytest.raises(ValueError):
            self.build([(-1, 0, 0), (0, 0, 0), (0, 0, 0), (1, 0, 0)],
                       [np.conj(self.C1), np.ones(3), np.ones(3), self.C1])

    def test_unpaired_rejected(self):
        with pytest.raises(ValueError):
            self.build([(-1, 0, 0), (0, 1, 0)], [np.conj(self.C1), self.C1])
        with pytest.raises(ValueError):
            self.build([(0, 1, 0)], [self.C1])

    def test_non_conjugate_rejected(self):
        with pytest.raises(ValueError):
            self.build([(-1, 0, 0), (1, 0, 0)], [self.C1, self.C1])
        with pytest.raises(ValueError):
            self.build([(0, 0, 0)], [0.5j], sp.ScalarSpectralField)

    def test_outside_truncation_rejected(self):
        with pytest.raises(ValueError):
            self.build([(-3, 0, 0), (3, 0, 0)], [np.conj(self.C1), self.C1])


def test_products_match_the_fft_route():
    # reference: products formed on a 2 (Kv + Kw) + 1 grid and transformed back
    v = sp.make_abc(sp.ABCParams(1.0, 0.5, 0.3)) + sp.random_beltrami(2, 3)
    w = sp.curl_spectral(v)
    n = 2 * (v.truncation_radius + w.truncation_radius) + 1
    cross_ref = fft_vector_from_grid(
        np.cross(grid_values(v, n), grid_values(w, n)), n // 2)
    conv_ref = fft_vector_from_grid(np.einsum(
        "...j,...ji->...i", grid_values(v, n), grid_values(v.gradient(), n)), n // 2)
    for got, ref in ((sp.cross_spectral(v, w), cross_ref), (sp.convective_spectral(v), conv_ref)):
        assert got.truncation_radius == ref.truncation_radius
        assert len(got.K) < len(ref.K)  # only the modes that pairs reach are stored
        assert np.max(np.abs(ref.C)) > 1e-3
        assert np.max(np.abs((got - ref).C)) <= 1e-15


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 9, 50])
def test_bernoulli_of_beltrami_fields_stores_no_modes(n):
    # v x curl v = sqrt(n) v x v vanishes exactly; rounding must not leave modes
    for s in range(3):
        v = sp.random_beltrami(n, s)
        assert not sp.cross_spectral(v, sp.curl_spectral(v)).K.size
        assert not sp.bernoulli(v).K.size
    for params in ((1.0, 0.5, 0.1), (0.3, -1.2, 0.7)):
        assert not sp.bernoulli(sp.make_abc(sp.ABCParams(*params))).K.size


def test_products_over_the_byte_ceiling_are_refused_before_pairing(monkeypatch):
    v = sp.random_beltrami(9, 0)
    w = sp.curl_spectral(v)
    # the coefficients of v x w (3 complex numbers), the summed wave vector,
    # the magnitude and the count of each of the m^2 pairs
    need = len(v.K) * len(w.K) * (16 * 3 + 24 + 8 + 8)
    monkeypatch.setattr(sp, "MAX_PRODUCT_BYTES", need)
    sp.cross_spectral(v, w)
    monkeypatch.setattr(sp, "MAX_PRODUCT_BYTES", need - 1)
    shapes = []

    def cross(x, y):
        shapes.append(x.shape[:2] + y.shape[:2])
        return np.cross(x, y)

    with pytest.raises(MemoryBudgetExceeded, match="bytes of mode pairs .* exceed the ceiling"):
        sp._convolve(v, w, cross)
    assert shapes == [(0, 1, 1, 0)]  # only the empty probe of the result shape


TENSOR_PAIRS = st.dictionaries(WAVE, st.tuples(*[COEFF] * 9), max_size=6)


@settings(max_examples=30, deadline=None)
@given(TENSOR_PAIRS, VECTOR_PAIRS)
def test_tensor_fields_evaluate_entrywise_and_contract_exactly(tpairs, vpairs):
    t = sp.SpectralTensorField.from_pairs(
        {k: np.array(c).reshape(3, 3) for k, c in tpairs.items()}, truncation_radius=2)
    v = vector_field(vpairs)
    assert_storage_invariants(t)
    pts = rng(7, 12).uniform(0, TWO_PI, size=(12, 3))
    T = t.evaluate(pts)
    assert T.shape == (12, 3, 3)
    scale = max(1.0, float(np.max(np.abs(t.C), initial=0.0)))
    for i in range(3):
        for j in range(3):
            entry = sp.ScalarSpectralField(K=t.K, C=t.C[:, i, j], truncation_radius=2)
            assert np.max(np.abs(entry.evaluate(pts) - T[:, i, j])) <= 1e-12 * scale
    x = np.arange(5) * (TWO_PI / 5)
    grid = np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1).reshape(-1, 3)
    assert np.max(np.abs(grid_values(t, 5).reshape(-1, 3, 3)
                         - t.evaluate(grid))) <= 1e-12 * scale
    tv = sp._convolve(t, v, lambda x, y: np.einsum("...ij,...j->...i", x, y))
    assert_storage_invariants(tv)
    scale *= max(1.0, float(np.max(np.abs(v.C), initial=0.0)))
    ref = np.einsum("pij,pj->pi", T, v.evaluate(pts))
    assert np.max(np.abs(tv.evaluate(pts) - ref)) <= 1e-11 * scale


# ---------------------------------------------------------------------------
# slow reference path: the per-vector construction of the curl eigenbasis


def reference_shell(n):
    """Shell |k|^2 = n by a loop over the (k1, k2) square, k3 from an integer square root."""
    m = math.isqrt(n)
    found = []
    for k1 in range(-m, m + 1):
        for k2 in range(-m, m + 1):
            rem = n - k1 * k1 - k2 * k2
            k3 = math.isqrt(rem) if rem >= 0 else -1
            if k3 * k3 == rem:
                found += [(k1, k2, 0)] if k3 == 0 else [(k1, k2, k3), (k1, k2, -k3)]
    return sorted(found)


def reference_basis(n):
    """One from_pairs field per basis vector, the transverse frame built per wave vector."""
    reps = [k for k in reference_shell(n) if k > (0, 0, 0)]
    gamma = 1.0 / math.sqrt(2.0 * sp.VOLUME)
    trunc = max(max(abs(c) for c in k) for k in reps)
    fields = []
    for k in reps:
        kv = np.array(k, dtype=float)
        a = np.array([0.0, 1.0, 0.0]) if k[1] == 0 and k[2] == 0 else np.array([1.0, 0.0, 0.0])
        w1 = np.cross(kv, a)
        e1 = w1 / np.linalg.norm(w1)
        e2 = np.cross(kv, e1) / np.linalg.norm(kv)
        hplus = (e1 + 1j * e2) / math.sqrt(2.0)
        for coef in (gamma * hplus, 1j * gamma * hplus):
            fields.append(sp.SpectralVectorField.from_pairs({k: coef}, truncation_radius=trunc))
    return fields


def reference_gram(fields):
    """Dense Gram matrix of the fields over the union of their modes."""
    K = np.concatenate([f.K for f in fields])
    owner = np.repeat(np.arange(len(fields)), [len(f.K) for f in fields])
    C = np.zeros((len(K), len(fields), 3), dtype=complex)
    C[np.arange(len(K)), owner] = np.concatenate([f.C for f in fields])
    flat = sp._merge(K, C)[1].transpose(1, 0, 2).reshape(len(fields), -1)
    return sp.VOLUME * (flat @ flat.conj().T).real


def reference_beltrami(n, seed):
    """Gaussian combination of the reference fields, summed mode-wise in basis order."""
    basis = reference_basis(n)
    scale = 1.0 / math.sqrt(len(basis))
    terms = [rng(seed, j).standard_normal() * scale * u.C for j, u in enumerate(basis)]
    K, C = sp._merge(np.concatenate([u.K for u in basis]), np.concatenate(terms))
    return sp.SpectralVectorField(K=K, C=C, truncation_radius=basis[0].truncation_radius)


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


NONEMPTY = [n for n in range(1, 101) if brute_force_shell_count(n)]


def test_shells_match_the_reference_loop():
    for n in range(300):
        shell = sp.lattice_shell(n)
        assert shell.dtype == np.int64 and shell.shape == (len(shell), 3)
        assert shell.tolist() == [list(k) for k in reference_shell(n)]


def test_basis_and_beltrami_fields_match_the_reference_bitwise():
    for n in [n for n in NONEMPTY if n <= 30]:
        K, U = sp.helicity_basis(n)
        ref = reference_basis(n)
        assert len(ref) == 2 * len(K)
        for j, u in enumerate(ref):
            assert np.array_equal(u.K, np.stack([-K[j // 2], K[j // 2]]))
            assert np.array_equal(bits(u.C[1]), bits(U[j // 2, j % 2]))
        for seed in range(3):
            v, w = sp.random_beltrami(n, seed), reference_beltrami(n, seed)
            half = len(w.K) // 2
            assert v.truncation_radius == w.truncation_radius
            assert np.array_equal(v.K, w.K) and np.array_equal(v.C, w.C)
            assert np.array_equal(bits(v.C[half:]), bits(w.C[half:]))


def test_defects_match_the_dense_reference():
    # fields on different +/-k pairs share no mode: off the 2x2 blocks the
    # dense Gram matrix is exactly zero
    for n in NONEMPTY:
        ref = reference_basis(n)
        G = reference_gram(ref)
        pair = np.arange(len(ref)) // 2
        assert not np.any(G[pair[:, None] != pair[None]])
        ref_resid = max(float(np.max(np.abs(sp.curl_spectral(u).C / math.sqrt(n) - u.C)))
                        for u in ref)
        gram_dev, resid = sp.eigenfamily_defects(n)
        assert resid == ref_resid
        assert abs(gram_dev - float(np.max(np.abs(G - np.eye(len(ref)))))) <= 1e-15


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 9, 50])
def test_field_hash_matches_the_reference(n):
    for seed in range(20):
        assert ser.field_hash(sp.random_beltrami(n, seed)) == ser.field_hash(
            reference_beltrami(n, seed))


# ---------------------------------------------------------------------------
# grid transforms and reductions against their all-at-once references


def reference_evaluate_on_grid(f, n):
    """All components in one dense complex array, each transformed out of place."""
    dense = np.zeros(f.SHAPE + (n, n, n), dtype=complex)
    dense[(..., *(f.K % n).T)] += np.moveaxis(f.C, 0, -1)
    out = np.empty((n, n, n) + f.SHAPE)
    for c in np.ndindex(f.SHAPE):
        out[(..., *c)] = (np.fft.ifftn(dense[c]) * n ** 3).real
    return out


def reference_min_norm(v, grid):
    n = max(grid, 2 * v.truncation_radius + 1)
    vals = reference_evaluate_on_grid(v, n)
    norms = np.sqrt(np.sum(vals * vals, axis=-1))
    idx = np.unravel_index(np.argmin(norms), norms.shape)
    best = float(norms[idx])
    x = np.array(idx, dtype=float) * (TWO_PI / n)
    offsets = np.linspace(-TWO_PI / n, TWO_PI / n, 21)
    for axis in range(3):
        cand = np.tile(x, (offsets.size, 1))
        cand[:, axis] += offsets
        local = np.linalg.norm(v.evaluate(cand), axis=1)
        x = cand[int(np.argmin(local))]
        best = min(best, float(local[int(np.argmin(local))]))
    return best


# the last field is (1 + cos x1 cos x2, 5e-7 (1 - cos x1) / 2, 0): on even grids
# |v| is 5e-7 at (pi, 0, x3), in the first slab, and 0 at (0, pi, x3), later
GRID_FIELDS = [sp.make_abc(sp.ABCParams(1, 0.5, 0.1)), sp.make_abc(sp.ABCParams(1, 1, 1)),
               sp.make_abc(sp.ABCParams(1, 0.5, 0)), sp.random_beltrami(9, 3),
               sp.SpectralVectorField.from_pairs({(0, 0, 0): np.array([1.0, 2.5e-7, 0.0]),
                                                  (1, -1, 0): np.array([0.25, 0.0, 0.0]),
                                                  (1, 0, 0): np.array([0.0, -1.25e-7, 0.0]),
                                                  (1, 1, 0): np.array([0.25, 0.0, 0.0])}, 1)]


@pytest.mark.parametrize("n", [64, 30, 17])
def test_grid_evaluation_matches_the_all_at_once_reference_bitwise(n):
    for v in GRID_FIELDS:
        first = sp.ScalarSpectralField(K=v.K, C=v.C[:, 0], truncation_radius=v.truncation_radius)
        for f in (first, v, v.gradient()):
            if n >= 2 * f.truncation_radius + 1:
                widths = [s.shape[1] for s in sp.grid_slabs(f, n)]
                assert max(widths) == sp.SLAB and sum(widths) == n
                assert np.array_equal(bits(grid_values(f, n)),
                                      bits(reference_evaluate_on_grid(f, n)))


def test_grid_slabs_keep_the_signed_zeros_of_untransformed_planes():
    # 89 is the smallest grid whose zero line transforms to some -0.0 entries;
    # grid_slabs enters the planes it does not transform as +0.0, and the
    # values must still be bitwise those of the dense transform
    empty = sp.ScalarSpectralField(K=(), C=(), truncation_radius=0)
    ref = reference_evaluate_on_grid(empty, 89)
    assert np.any(np.signbit(ref))
    assert np.array_equal(bits(grid_values(empty, 89)), bits(ref))
    first = GRID_FIELDS[3]
    first = sp.ScalarSpectralField(K=first.K, C=first.C[:, 0], truncation_radius=3)
    assert np.array_equal(bits(grid_values(first, 89)),
                          bits(reference_evaluate_on_grid(first, 89)))


@pytest.mark.parametrize("n", [64, 30, 17])
def test_grid_reductions_match_the_summed_reference_bitwise(n):
    for v in GRID_FIELDS:
        vv = reference_evaluate_on_grid(v, n)
        cc = reference_evaluate_on_grid(sp.curl_spectral(v), n)
        assert sp.min_norm(v, n) == reference_min_norm(v, n)
        norm2 = np.sum(vv * vv, axis=-1)
        mn = math.sqrt(float(np.min(norm2)))
        if mn <= 1e-6:
            with pytest.raises(VanishingField) as info:
                sp.proportionality_factor(v, n)
            assert str(info.value) == f"min |v| = {mn:.3e} at grid {n}"
            continue
        rep = sp.proportionality_factor(v, n)
        ref = np.sum(vv * cc, axis=-1) / norm2
        lo, hi = float(np.min(ref)), float(np.max(ref))
        assert np.array_equal(bits([rep.gap, rep.min_value, rep.max_value]),
                              bits([hi - lo, lo, hi]))


def test_min_norm_refines_from_the_first_grid_minimizer_in_c_order():
    # |v| = 2 + cos x1 cos x2 is 1 at the grid points (0, pi, x3) and (pi, 0, x3);
    # the first of them in C order lies in a later slab than (pi, 0, 0)
    seen = []

    class Recorded(sp.SpectralVectorField):
        def evaluate(self, points):
            seen.append(np.array(points))
            return super().evaluate(points)

    v = Recorded.from_pairs({(0, 0, 0): np.array([2.0, 0, 0]),
                             (1, 1, 0): np.array([0.25, 0, 0]),
                             (1, -1, 0): np.array([0.25, 0, 0])}, truncation_radius=1)
    norms = np.linalg.norm(reference_evaluate_on_grid(v, 16), axis=-1)
    assert norms[0, 8, 0] == norms[8, 0, 0] == np.min(norms)
    best = sp.min_norm(v, 16)
    got = seen[:]
    seen.clear()
    assert best == reference_min_norm(v, 16)
    assert np.all(got[0][:, 1:] == [np.pi, 0.0])
    assert len(got) == len(seen) == 3
    assert all(np.array_equal(bits(a), bits(b)) for a, b in zip(got, seen))


def test_dot_rounds_signed_zeros_as_the_summed_reference():
    a = np.array([[-0.0, 0.0, -0.0], [1.0, -0.0, 0.0], [1e16, 1.0, -1e16]])
    b = np.array([[1.0, -1.0, 2.0], [-0.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
    assert np.array_equal(bits(sp._dot(a, b)), bits(np.sum(a * b, axis=-1)))


def test_grid_diagnostics_peak_memory_at_grid_64():
    # no diagnostic holds a whole grid: per field, a vector slab of SLAB = 4
    # planes at grid 64 is 0.375 MiB beside its complex work block (0.25 MiB)
    # and the at most 2R + 1 transformed coefficient planes of each component
    # (3 x 3 x 64 KiB for an ABC field), so every peak grows as n^2, not n^3
    import tracemalloc

    from eulerlab import dynamics as dyn

    v = sp.make_abc(sp.ABCParams(1, 0.5, 0.1))
    w = v + sp.random_beltrami(2, 7)
    F = sp.bernoulli(w)
    assert F.K.size
    calls = {"factor": lambda n: sp.proportionality_factor(v, n),
             "min_norm": lambda n: sp.min_norm(v, n),
             "sup_norm": lambda n: F.sup_norm(n),
             "first_integral": lambda n: dyn.first_integral_report(w, F, n)}
    peaks = {}
    for name, call in calls.items():
        for n in (64, 128):
            call(n)
            tracemalloc.start()
            try:
                call(n)
                peaks[name, n] = tracemalloc.get_traced_memory()[1] / 2 ** 20
            finally:
                tracemalloc.stop()
    bounds = {"factor": 5.0, "min_norm": 2.5, "sup_norm": 1.5, "first_integral": 6.5}
    for name, bound in bounds.items():
        assert peaks[name, 64] <= bound, peaks
        assert peaks[name, 128] <= 4.5 * peaks[name, 64], peaks
