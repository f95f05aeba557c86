import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from eulerlab import contact as ct
from eulerlab import galerkin as gk
from eulerlab import spectral as sp
from eulerlab.errors import (
    ClusterLeakage,
    DegenerateDirection,
    IllConditionedContour,
    NotPositiveDefinite,
    WindowTouchesSpectrum,
)

TWO_PI = 2 * np.pi
VOL = TWO_PI ** 3


@pytest.fixture(scope="module")
def model():
    return ct.std_contact_t3()


@pytest.fixture(scope="module")
def beta():
    return ct.default_perturbation_form()


@pytest.fixture(scope="module")
def family(model, beta):
    contact, g = model
    return ct.metric_family(g, contact, beta, [-0.2, -0.1, -0.05, 0.05, 0.1, 0.2])


@pytest.fixture(scope="module")
def basis1():
    return gk.FormBasis(1)


@pytest.fixture(scope="module")
def flat1(model, basis1):
    _, g = model
    M = gk.assemble_mass(g, basis1)
    return gk.assemble_exterior(basis1, M.parts), M


def dense(matrix):
    """The D x D array of a block matrix."""
    out = np.zeros(matrix.shape)
    for idx, block in zip(matrix.parts, matrix.blocks):
        out[np.ix_(idx, idx)] = block
    return out


def single_part(basis):
    """The partition of range(D) into a single block."""
    return [np.arange(basis.dimension)]


def dense_quadrature(basis, nodes, weights):
    """Slow reference for the block quadrature: every entry gathered from
    the slot DFTs, M_ij = Re(u_i u_j F(k_i + k_j) + u_i conj(u_j) F(k_i - k_j)) / 2."""
    S = basis.n_scalar
    kk = np.zeros((S, 3), dtype=np.int64)
    kk[1::2] = kk[2::2] = basis.half_lattice

    def flat(m):
        m = m % nodes
        return (m[..., 0] * nodes + m[..., 1]) * nodes + m[..., 2]

    plus, minus = flat(kk[:, None] + kk[None]), flat(kk[:, None] - kk[None])
    u = np.ones(S, dtype=complex)
    u[2::2] = -1j
    W = weights.reshape(nodes, nodes, nodes, 3, 3)
    M = np.empty((basis.dimension, basis.dimension))
    for a in range(3):
        for b in range(a, 3):
            F = np.fft.fftn(W[..., a, b]).conj().ravel()
            block = 0.5 * (np.outer(u, u) * F[plus] + np.outer(u, u.conj()) * F[minus]).real
            M[a * S:(a + 1) * S, b * S:(b + 1) * S] = block
            M[b * S:(b + 1) * S, a * S:(a + 1) * S] = block.T
    return 0.5 * (M + M.T)


def reference_weights(metric, nodes, h=None):
    """Pointwise weights of M (or of dM along h) by np.linalg on the grid."""
    pts, w = ct.uniform_grid(nodes)
    G = metric.matrix(pts)
    Ginv = np.linalg.inv(G)
    if h is not None:
        H = h.entries.evaluate(pts)
        tr = np.einsum("pij,pij->p", Ginv, H)
        Ginv = -Ginv @ H @ Ginv + 0.5 * tr[:, None, None] * Ginv
    return Ginv * np.sqrt(np.linalg.det(G))[:, None, None] * w


def dense_rule_parts(B, *masses):
    """Components of the dense coupling rule: B_ij != 0 or |M_ij| > 1e-12 max|M|."""
    from scipy.sparse.csgraph import connected_components

    pattern = B != 0
    for M in masses:
        pattern |= np.abs(M) > 1e-12 * np.max(np.abs(M))
    n, labels = connected_components(pattern, directed=False)
    return [np.flatnonzero(labels == c) for c in range(n)]


def unit_shell_fields():
    """The helicity basis of shell 1 as one field per basis vector."""
    K, U = sp.helicity_basis(1)
    return [sp.SpectralVectorField.from_half(K[r:r + 1], U[r, t], 1)
            for r in range(len(K)) for t in (0, 1)]


def rng(*key):
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


def flat_gram_diagonal(basis):
    """Squared flat L2 norms of the basis elements: (2*pi)^3 for the constants,
    (2*pi)^3 / 2 for the cos and sin elements."""
    d = np.full(basis.dimension, 0.5 * VOL)
    d[::basis.n_scalar] = VOL
    return d


def element(basis, i):
    """Slot of basis element i and its scalar, cos(k.x) or sin(k.x), as a
    spectral field: scalar j = i % n_scalar is the constant for j = 0, else
    cos (j odd) or sin (j even) of half_lattice[(j - 1) // 2]."""
    slot, j = divmod(i, basis.n_scalar)
    k = (0, 0, 0) if j == 0 else tuple(basis.half_lattice[(j - 1) // 2].tolist())
    c = 1.0 if j == 0 else (0.5 if j % 2 else -0.5j)
    return slot, sp.ScalarSpectralField.from_pairs({k: c}, truncation_radius=max(map(abs, k)))


def cos_index(basis, slot, k):
    """Position of the basis element cos(k.x) dx_slot (the constant for k = 0)."""
    if not any(k):
        return slot * basis.n_scalar
    r = int(np.flatnonzero(np.all(basis.half_lattice == k, axis=1))[0])
    return slot * basis.n_scalar + 1 + 2 * r


def exterior_loop(basis):
    """Reference: B assembled by a Python loop over the half lattice."""
    S = basis.n_scalar
    B = np.zeros((basis.dimension, basis.dimension))
    half_vol = 0.5 * sp.VOLUME
    for r, k in enumerate(basis.half_lattice.tolist()):
        ic, isn = 1 + 2 * r, 2 + 2 * r
        for a in range(3):
            for b in range(3):
                if a == b:
                    continue
                c = 3 - a - b
                val = gk._EPS3[a, c, b] * k[c] * half_vol
                if val == 0.0:
                    continue
                B[a * S + ic, b * S + isn] += val
                B[a * S + isn, b * S + ic] += -val
    return B


class TestFormBasis:
    def test_dimension_count(self):
        assert gk.FormBasis(1).dimension == 81
        assert gk.FormBasis(2).dimension == 3 * 125

    def test_flat_gram_is_diagonal(self, flat1, basis1):
        M = dense(flat1[1])
        off = M - np.diag(np.diag(M))
        assert np.max(np.abs(off)) <= 1e-12
        assert np.max(np.abs(np.diag(M) - flat_gram_diagonal(basis1))) <= 1e-10

    def test_contains_contact_form_and_unit_shell_duals(self, model, basis1):
        contact, _ = model
        vec = basis1.form_to_vector(contact.alpha)
        assert np.count_nonzero(vec) == 2
        for u in unit_shell_fields():
            v = basis1.form_to_vector(u)
            assert np.count_nonzero(v) > 0

    def test_form_vector_round_trip(self, model, basis1):
        contact, _ = model
        vec = basis1.form_to_vector(contact.alpha)
        back = basis1.vector_to_form(vec)
        assert np.array_equal(back.K, contact.alpha.K)
        assert np.max(np.abs(back.C - contact.alpha.C)) <= 1e-15

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_half_lattice_is_the_sorted_positive_half(self, K):
        ref = sorted(k for k in itertools.product(range(-K, K + 1), repeat=3)
                     if k > (0, 0, 0))
        half = gk.FormBasis(K).half_lattice
        assert half.shape == (len(ref), 3)
        assert half.tolist() == [list(k) for k in ref]

    def test_rejects_terms_outside_truncation(self, basis1):
        form = sp.SpectralVectorField.from_pairs(  # cos(2 x1) dx1
            {(2, 0, 0): np.array([0.5, 0, 0], dtype=complex)}, truncation_radius=2)
        with pytest.raises(ValueError):
            basis1.form_to_vector(form)


class TestExteriorMatrix:
    def test_exactly_symmetric(self, flat1):
        B = dense(flat1[0])
        assert np.max(np.abs(B - B.T)) == 0.0

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_bitwise_equal_to_the_loop(self, K):
        # signed zeros included: every entry the loop skips stays +0.0, on
        # one block and on the fine blocks of the flat mass
        basis = gk.FormBasis(K)
        ref = exterior_loop(basis)
        flat = gk.assemble_mass(ct.std_contact_t3()[1], basis)
        for parts in (single_part(basis), flat.parts):
            B = dense(gk.assemble_exterior(basis, parts))
            assert np.array_equal(B.view(np.int64), ref.view(np.int64))

    def test_parts_that_split_a_coupled_pair_are_rejected(self, basis1):
        # cos(x3) dx1 couples to sin(x3) dx2: singletons split that pair
        with pytest.raises(ValueError, match="split a coupled pair"):
            gk.assemble_exterior(basis1, [np.array([i]) for i in range(basis1.dimension)])

    def test_exact_form_column_is_zero(self, basis1, flat1):
        # d(sin x1) = cos(x1) dx1 is a basis element with vanishing exterior
        # derivative column
        B = dense(flat1[0])
        j = cos_index(basis1, 0, (1, 0, 0))
        assert np.max(np.abs(B[:, j])) == 0.0

    def test_constant_forms_in_kernel(self, basis1, flat1):
        B = dense(flat1[0])
        for slot in range(3):
            j = cos_index(basis1, slot, (0, 0, 0))
            assert np.max(np.abs(B[:, j])) == 0.0

    def test_acts_as_identity_on_unit_shell_duals(self, basis1, flat1):
        B, M = flat1
        gram_diag = flat_gram_diagonal(basis1)
        for u in unit_shell_fields():
            v = basis1.form_to_vector(u)
            assert np.max(np.abs(B @ v - gram_diag * v)) <= 1e-12

    def test_entries_against_trig_integral_oracle(self, basis1):
        # independent oracle: expand e_i ^ d(e_j) by the exact product of
        # spectral fields and integrate (read off the constant term)
        B = dense(gk.assemble_exterior(basis1, single_part(basis1)))
        eps = [[(1, 2), (2, 0), (0, 1)], [(2, 1), (0, 2), (1, 0)]]
        gen = rng(19, 3)
        for _ in range(25):
            i = int(gen.integers(0, basis1.dimension))
            j = int(gen.integers(0, basis1.dimension))
            slot_i, phi_i = element(basis1, i)
            slot_j, phi_j = element(basis1, j)
            grad_j = phi_j.gradient()
            total = 0.0
            for c in range(3):
                sign = gk._EPS3[slot_i, c, slot_j]
                if sign == 0:
                    continue
                d_c = sp.ScalarSpectralField(K=grad_j.K, C=grad_j.C[:, c],
                                             truncation_radius=grad_j.truncation_radius)
                prod = sp._convolve(phi_i, d_c, np.multiply)
                total += sign * VOL * float(prod.mode((0, 0, 0)).real)
            assert B[i, j] == pytest.approx(total, abs=1e-12)


class TestMassMatrix:
    def test_family_member_against_gauss_legendre_oracle(self, family, basis1):
        from numpy.polynomial.legendre import leggauss

        member = family.member(0.15)
        M = dense(gk.assemble_mass(member, basis1))
        x, w = leggauss(24)
        x = (x + 1.0) * np.pi
        w = w * np.pi
        X1, X2, X3 = np.meshgrid(x, x, x, indexing="ij")
        pts = np.stack([X1.ravel(), X2.ravel(), X3.ravel()], axis=-1)
        W = (w[:, None, None] * w[None, :, None] * w[None, None, :]).ravel()
        G = member.matrix(pts)
        Ginv = np.linalg.inv(G)
        sqrt_det = np.sqrt(np.linalg.det(G))
        gen = rng(19, 5)
        for _ in range(8):
            i = int(gen.integers(0, basis1.dimension))
            j = int(gen.integers(0, basis1.dimension))
            slot_i, phi_i = element(basis1, i)
            slot_j, phi_j = element(basis1, j)
            ref = float(np.sum(phi_i.evaluate(pts) * phi_j.evaluate(pts)
                               * Ginv[:, slot_i, slot_j] * sqrt_det * W))
            assert M[i, j] == pytest.approx(ref, abs=1e-10)

    def test_derivative_matches_finite_differences(self, family, basis1):
        dM = dense(gk.mass_derivative(family.base, family.variation, basis1))
        eps = 1e-2

        def M(e):
            return dense(gk.assemble_mass(family.member(e), basis1))

        fd1 = (M(eps) - M(-eps)) / (2 * eps)
        fd2 = (M(eps / 2) - M(-eps / 2)) / eps
        fd = (4.0 * fd2 - fd1) / 3.0
        assert np.linalg.norm(fd - dM) / np.linalg.norm(dM) <= 1e-8

    def test_not_positive_definite(self, basis1, model):
        _, g = model
        bad = ct.MetricField(
            g_xi=g.g_xi.scaled(-3.0),
            alpha_sq=g.alpha_sq,
            inv_entries=ct.identity_tensor(),
            degree_hint=2,
        )
        with pytest.raises(NotPositiveDefinite):
            gk.assemble_mass(bad, basis1)


def pointwise_quadrature(basis, nodes, weights):
    """Slow reference for the mass quadrature: scalar basis values on the
    grid, one weighted Gram product per slot pair."""
    pts, _ = ct.uniform_grid(nodes)
    rows = np.empty((basis.n_scalar, pts.shape[0]))
    rows[0] = 1.0
    ph = pts @ np.array(basis.half_lattice, dtype=float).T
    rows[1::2] = np.cos(ph).T
    rows[2::2] = np.sin(ph).T
    S = basis.n_scalar
    M = np.empty((basis.dimension, basis.dimension))
    for a in range(3):
        for b in range(3):
            M[a * S:(a + 1) * S, b * S:(b + 1) * S] = (rows * weights[:, a, b]) @ rows.T
    return M


class TestMassAgainstPointwiseQuadrature:
    # default node count, an odd and an even one, and an aliased one (<= 2K);
    # mass_derivative always takes the default, so the derivative weights
    # meet the other node counts in the block quadrature it shares with M
    @pytest.mark.parametrize("K", [1, 2])
    @pytest.mark.parametrize("nodes", [None, 7, 8, "aliased"])
    def test_mass_and_derivative(self, family, K, nodes):
        basis = gk.FormBasis(K)
        member = family.member(0.2)
        cases = [(member, member.degree_hint, False),
                 (family.base, family.base.degree_hint + family.variation.entries.degree(), True)]
        for metric, hint, derivative in cases:
            n = {None: gk.default_mass_nodes(K, hint), "aliased": 2 * K}.get(nodes, nodes)
            weights = reference_weights(metric, n, family.variation if derivative else None)
            if not derivative:
                fast = gk.assemble_mass(metric, basis, nodes=n)
            elif nodes is None:
                fast = gk.mass_derivative(metric, family.variation, basis)
            else:
                fast = gk._block_quadrature(basis, n, weights)
            ref = pointwise_quadrature(basis, n, weights)
            assert np.max(np.abs(dense(fast) - ref)) <= 1e-13 * np.max(np.abs(ref))
            if nodes is None:  # n is the node count the default picks
                default = (gk.mass_derivative(metric, family.variation, basis) if derivative
                           else gk.assemble_mass(metric, basis))
                assert np.array_equal(dense(fast), dense(default))


@pytest.fixture(scope="module", params=[1, 2, 3], ids=["K1", "K2", "K3"])
def mass_cases(request, family):
    """(basis, [(name, block mass, dense reference)]) for the base metric,
    the eps = +-0.2 members and dM."""
    basis = gk.FormBasis(request.param)
    cases = []
    for name, metric in [("base", family.base), ("+0.2", family.member(0.2)),
                         ("-0.2", family.member(-0.2))]:
        nodes = gk.default_mass_nodes(basis.K, metric.degree_hint)
        cases.append((name, gk.assemble_mass(metric, basis),
                      dense_quadrature(basis, nodes, reference_weights(metric, nodes))))
    h = family.variation
    nodes = gk.default_mass_nodes(basis.K, family.base.degree_hint + h.entries.degree())
    cases.append(("dM", gk.mass_derivative(family.base, h, basis),
                  dense_quadrature(basis, nodes, reference_weights(family.base, nodes, h))))
    return basis, cases


def reference_operator(family, basis, eps):
    """A(eps) built as before the block-first mass: the dense M, split by
    the dense coupling rule, M^{-1/2} per component."""
    B = exterior_loop(basis)
    metric = family.member(eps)
    nodes = gk.default_mass_nodes(basis.K, metric.degree_hint)
    M = dense_quadrature(basis, nodes, reference_weights(metric, nodes))
    A = np.zeros_like(M)
    for idx in dense_rule_parts(B, M):
        ix = np.ix_(idx, idx)
        R = gk.matrix_inv_sqrt(M[ix])
        A[ix] = R @ B[ix] @ R
    return 0.5 * (A + A.T)


def reference_derivative(family, basis):
    """dA(0) as before the block-first mass: Daleckii-Krein on the dense
    M0 and dM, per component of their joint dense coupling rule."""
    B = exterior_loop(basis)
    base, h = family.member(0.0), family.variation
    nodes = gk.default_mass_nodes(basis.K, base.degree_hint)
    M0 = dense_quadrature(basis, nodes, reference_weights(base, nodes))
    nodes = gk.default_mass_nodes(basis.K, family.base.degree_hint + h.entries.degree())
    dM = dense_quadrature(basis, nodes, reference_weights(family.base, nodes, h))
    dA = np.zeros_like(M0)
    for idx in dense_rule_parts(B, M0, dM):
        ix = np.ix_(idx, idx)
        vals, V = np.linalg.eigh(M0[ix])
        s = np.sqrt(vals)
        L = -1.0 / (np.outer(s, s) * (s[:, None] + s))
        dR = V @ (L * (V.T @ dM[ix] @ V)) @ V.T
        half = dR @ B[ix] @ ((V / s) @ V.T)
        dA[ix] = half + half.T
    return dA


class TestBlockMassAgainstDense:
    def test_blocks_match_and_hold_every_coupling(self, mass_cases):
        basis, cases = mass_cases
        B = exterior_loop(basis)
        for name, blocks, ref in cases:
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(dense(blocks) - ref)) <= 1e-12 * scale, name
            inside = np.zeros(ref.shape, dtype=bool)
            for idx in blocks.parts:
                inside[np.ix_(idx, idx)] = True
            assert np.all(inside[np.abs(ref) > 1e-12 * scale]), name
            assert np.all(inside[B != 0]), name
            assert np.array_equal(np.sort(np.concatenate(blocks.parts)), np.arange(len(ref)))

    def test_pencil_eigenvalues_match_dense_eigh(self, mass_cases):
        basis, cases = mass_cases
        window = (0.8, 1.6)
        for name, blocks, ref in cases[:3]:
            B = gk.assemble_exterior(basis, blocks.parts)
            cl = gk.solve_pencil(B, blocks, window)
            vals = sla.eigh(dense(B), ref, eigvals_only=True)
            vals = vals[(vals > window[0]) & (vals < window[1])]
            assert cl.multiplicity == len(vals), name
            assert np.max(np.abs(cl.eigenvalues - vals)) <= 1e-12, name

    def test_blocks_of_a_family_member_are_sparse(self, family):
        import tracemalloc

        basis = gk.FormBasis(3)
        D = basis.dimension
        member = family.member(0.1)
        for assemble in (lambda: gk.assemble_mass(member, basis),
                         lambda: gk.mass_derivative(family.base, family.variation, basis)):
            blocks = assemble()  # warm: grid fields and gather indices
            assert sum(len(idx) ** 2 for idx in blocks.parts) < 0.1 * D * D
            tracemalloc.start()
            try:
                assemble()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * D * D  # below one D x D float array

    def test_operator_family_and_derivative_match_the_dense_construction(self, pi_family):
        fam, basis, A_of, dA, _ = pi_family
        for eps in (0.05, -0.05):
            ref = reference_operator(fam, basis, eps)
            assert np.max(np.abs(dense(A_of(eps)) - ref)) <= 1e-12 * np.max(np.abs(ref))
        ref = reference_derivative(fam, basis)
        assert np.max(np.abs(dense(dA) - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestRichardson:
    def test_three_one_sided_levels_of_a_quadratic(self):
        s, a, b = 0.7, -1.3, 2.9
        steps = (0.04, 0.02, 0.01)
        assert abs(gk.richardson([s + a * e + b * e * e for e in steps], steps) - s) <= 1e-12

    def test_two_central_levels_of_a_cubic(self):
        def cubic(x):
            return 0.3 - 1.1 * x + 0.7 * x ** 2 + 2.5 * x ** 3

        x0, exact = 0.4, -1.1 + 1.4 * 0.4 + 7.5 * 0.4 ** 2
        steps = (0.1, 0.05)
        diffs = [(cubic(x0 + h) - cubic(x0 - h)) / (2 * h) for h in steps]
        assert abs(gk.richardson(diffs, steps, order=2) - exact) <= 1e-12
        assert abs(gk.central_derivative(cubic, x0, 0.1) - exact) <= 1e-12

    def test_array_values_element_by_element(self):
        s = np.array([[0.7, -2.0], [1.5, 0.0]])
        a = np.array([[-1.3, 0.4], [2.2, 1.0]])
        b = np.array([[2.9, -0.6], [0.1, 3.0]])
        steps = (0.04, 0.02, 0.01)
        out = gk.richardson([s + a * e + b * e * e for e in steps], steps)
        assert out.shape == s.shape
        assert np.max(np.abs(out - s)) <= 1e-12
        for i, j in np.ndindex(s.shape):
            one = gk.richardson([s[i, j] + a[i, j] * e + b[i, j] * e * e for e in steps], steps)
            assert out[i, j] == one


class TestSolvePencil:
    def test_flat_spectrum_multiplicities(self, flat1):
        B, M = flat1
        assert gk.solve_pencil(B, M, (0.8, 1.2)).multiplicity == 6
        assert gk.solve_pencil(B, M, (1.3, 1.6)).multiplicity == 12
        assert gk.solve_pencil(B, M, (1.65, 1.8)).multiplicity == 8

    def test_kernel_counts_closed_forms(self, flat1):
        # closed 1-forms in the truncation: gradients of the (2K+1)^3 - 1
        # nonconstant scalars plus 3 constant forms
        B, M = flat1
        cl = gk.solve_pencil(B, M, (-0.5, 0.5))
        assert cl.multiplicity == 27 - 1 + 3

    def test_shells_fully_resolved_at_truncation(self, model):
        _, g = model
        K = 3
        basis = gk.FormBasis(K)
        M = gk.assemble_mass(g, basis)
        B = gk.assemble_exterior(basis, M.parts)
        windows = {1: (0.9, 1.1), 2: (1.3, 1.5), 3: (1.65, 1.8), 4: (1.9, 2.1)}
        for n, window in windows.items():
            expect = len(sp.lattice_shell(n))
            assert gk.solve_pencil(B, M, window).multiplicity == expect

    def test_vectors_are_mass_orthonormal(self, flat1):
        B, M = flat1
        cl = gk.solve_pencil(B, M, (0.8, 1.2))
        G = cl.vectors.T @ (M @ cl.vectors)
        assert np.max(np.abs(G - np.eye(cl.multiplicity))) <= 1e-12

    def test_reversed_window_rejected(self, flat1):
        B, M = flat1
        with pytest.raises(ValueError):
            gk.solve_pencil(B, M, (1.2, 0.8))

    def test_window_touching_spectrum_raises(self, flat1):
        B, M = flat1
        with pytest.raises(WindowTouchesSpectrum):
            gk.solve_pencil(B, M, (1.0, 1.2))

    @pytest.mark.parametrize("eps", [0.0, 0.1, -0.2])
    def test_blocks_match_dense_solve_on_family(self, family, eps):
        from scipy.sparse.csgraph import connected_components

        basis = gk.FormBasis(2)
        blocks = gk.assemble_mass(family.member(eps), basis)
        B = gk.assemble_exterior(basis, blocks.parts)
        M = dense(blocks)
        coupled = (dense(B) != 0) | (np.abs(M) > 1e-12 * np.max(np.abs(M)))
        assert connected_components(coupled, directed=False)[0] > 1
        window = (0.8, 1.6)
        cl = gk.solve_pencil(B, blocks, window)
        ref = sla.eigh(dense(B), M, eigvals_only=True)
        ref = ref[(ref > window[0]) & (ref < window[1])]
        assert cl.multiplicity == len(ref) > 6
        assert np.max(np.abs(cl.eigenvalues - ref)) <= 1e-12
        G = cl.vectors.T @ M @ cl.vectors
        assert np.max(np.abs(G - np.eye(cl.multiplicity))) <= 1e-12
        assert np.max(np.abs(B @ cl.vectors - (M @ cl.vectors) * cl.eigenvalues)) <= 1e-12

    def test_window_edge_in_a_later_component_raises(self):
        # two components: eigenvalues -1, 1 in the first and 1.5, 2.5 in the second
        parts = (np.arange(2), np.arange(2, 4))
        B = gk.BlockMatrix(parts, (np.array([[0.0, 1.0], [1.0, 0.0]]),
                                   np.array([[2.0, 0.5], [0.5, 2.0]])))
        M = gk.BlockMatrix(parts, (np.eye(2), np.eye(2)))
        cl = gk.solve_pencil(B, M, (0.0, 2.0))
        assert np.max(np.abs(cl.eigenvalues - [1.0, 1.5])) <= 1e-14
        assert np.array_equal(cl.vectors[2:, 0], [0.0, 0.0])
        assert np.array_equal(cl.vectors[:2, 1], [0.0, 0.0])
        with pytest.raises(WindowTouchesSpectrum):
            gk.solve_pencil(B, M, (0.0, 1.5))
        with pytest.raises(WindowTouchesSpectrum):
            gk.solve_pencil(B, M, (2.5, 3.0))

    def test_one_component_is_bitwise_the_dense_solve(self):
        gen = rng(31, 0)
        X = gen.standard_normal((40, 40))
        M = X @ X.T + 40.0 * np.eye(40)
        B = gen.standard_normal((40, 40))
        B = B + B.T
        vals, vecs = sla.eigh(B, M)
        lo, hi = 0.5 * (vals[9] + vals[10]), 0.5 * (vals[19] + vals[20])
        cl = gk.solve_pencil(gk.BlockMatrix.one_block(B), gk.BlockMatrix.one_block(M), (lo, hi))
        assert np.array_equal(cl.eigenvalues, vals[10:20])
        assert np.array_equal(cl.vectors, vecs[:, 10:20])


@pytest.fixture(scope="module")
def curves(family, model):
    contact, _ = model
    return gk.track_splitting(family, contact, (0.8, 1.2), 2)


class TestTrackSplitting:
    def test_sixfold_at_zero(self, curves):
        i0 = int(np.argmin(np.abs(curves.epsilons)))
        row = curves.curves[i0]
        assert len(row) == 6
        assert np.max(np.abs(row - 1.0)) <= 1e-10

    def test_fd_slopes_match_pairing_eigenvalues(self, curves):
        a, b = curves.fd_slopes, curves.pairing_eigenvalues
        assert np.all(np.abs(a - b) <= 1e-6 * np.maximum(np.abs(a), np.abs(b)) + 1e-10)

    def test_alpha_row_and_column_vanish(self, curves, family, model, basis2=None):
        contact, _ = model
        basis = gk.FormBasis(2)
        M0 = gk.assemble_mass(family.member(0.0), basis)
        cl = gk.solve_pencil(gk.assemble_exterior(basis, M0.parts), M0, (0.8, 1.2))
        av = basis.form_to_vector(contact.alpha)
        coeff = cl.vectors.T @ (M0 @ av)
        assert np.linalg.norm(curves.pairing_matrix @ coeff) <= 1e-13

    def test_alpha_curve_constant(self, curves):
        assert np.max(np.abs(curves.alpha_curve - 1.0)) <= 1e-9
        assert np.max(curves.alpha_residuals) <= 1e-12

    def test_splitting_gap(self, curves):
        assert curves.slope_gap() > 1e-4


class TestHellmannFeynman:
    def test_alpha_direction_flat(self, family, model):
        contact, _ = model
        basis = gk.FormBasis(2)
        av = basis.form_to_vector(contact.alpha)
        [(fd, pencil, pairing)], _ = gk.hellmann_feynman(family, [av], 1.0, basis, (0.8, 1.2))
        assert max(abs(fd), abs(pencil), abs(pairing)) <= 1e-8

    def test_beta_direction_three_routes(self, family, model, beta):
        contact, _ = model
        basis = gk.FormBasis(2)
        bv = basis.form_to_vector(beta)
        [(fd, pencil, pairing)], _ = gk.hellmann_feynman(family, [bv], 1.0, basis, (0.8, 1.2))
        ref = 0.5 * 41.0 / (64.0 * TWO_PI ** 3)
        assert pairing == pytest.approx(ref, rel=1e-12)
        assert fd == pytest.approx(pairing, rel=1e-6)
        assert pencil == pytest.approx(pairing, rel=1e-8)

    def test_directions_share_one_pencil(self, family, model, beta):
        # two directions in one call give the routes of two single calls, and
        # the returned Pi is the pencil matrix of the base cluster
        contact, _ = model
        basis = gk.FormBasis(2)
        vectors = [basis.form_to_vector(contact.alpha), basis.form_to_vector(beta)]
        routes, Pi = gk.hellmann_feynman(family, vectors, 1.0, basis, (0.8, 1.2))
        for u, joint in zip(vectors, routes):
            assert gk.hellmann_feynman(family, [u], 1.0, basis, (0.8, 1.2))[0] == [joint]
        M0 = gk.assemble_mass(family.base, basis)
        U0 = gk.solve_pencil(gk.assemble_exterior(basis, M0.parts), M0, (0.8, 1.2)).vectors
        dM = gk.mass_derivative(family.base, family.variation, basis)
        assert np.array_equal(Pi, -1.0 * (U0.T @ (dM @ U0)))

    def test_unadapted_direction_raises(self, family, model, beta):
        contact, _ = model
        basis = gk.FormBasis(2)
        M0 = gk.assemble_mass(family.base, basis)
        cl = gk.solve_pencil(gk.assemble_exterior(basis, M0.parts), M0, (0.8, 1.2))
        dM = gk.mass_derivative(family.base, family.variation, basis)
        Pi = -1.0 * (cl.vectors.T @ (dM @ cl.vectors))
        vals, vecs = np.linalg.eigh(Pi)
        mix = (cl.vectors @ (vecs[:, 0] + vecs[:, -1])) / math.sqrt(2.0)
        with pytest.raises(DegenerateDirection):
            gk.hellmann_feynman(family, [mix], 1.0, basis, (0.8, 1.2))

    def test_vector_outside_cluster_raises(self, family, model):
        basis = gk.FormBasis(2)
        stray = np.zeros(basis.dimension)
        stray[cos_index(basis, 0, (0, 0, 0))] = 1.0
        with pytest.raises(DegenerateDirection):
            gk.hellmann_feynman(family, [stray], 1.0, basis, (0.8, 1.2))


class TestSpectralProjector:
    def test_diagonal_example(self):
        P = dense(gk.spectral_projector(gk.BlockMatrix.one_block(np.diag([1.0, 2.0, 3.0])),
                                        2.0, 0.5))
        assert np.max(np.abs(P - np.diag([0.0, 1.0, 0.0]))) <= 1e-10

    def test_random_matrix_against_eigendecomposition(self):
        for j in range(5):
            gen = rng(23, j)
            dim = 60
            inside = gen.uniform(0.3, 0.7, size=4)
            outside = gen.uniform(2.0, 6.0, size=dim - 4)
            Q = np.linalg.qr(gen.standard_normal((dim, dim)))[0]
            A = (Q * np.concatenate([inside, outside])) @ Q.T
            P = dense(gk.spectral_projector(gk.BlockMatrix.one_block(A), 0.5, 1.0, 64))
            Pref = Q[:, :4] @ Q[:, :4].T
            assert np.max(np.abs(P - Pref)) <= 1e-8
            assert np.linalg.norm(P @ P - P) <= 1e-10
            assert np.linalg.norm(P @ A - A @ P) <= 1e-8
            assert np.trace(P) == pytest.approx(4.0, abs=1e-8)

    @pytest.mark.parametrize("nodes", [8, 9, 64])
    def test_half_contour_equals_full_trapezoid_sum(self, nodes):
        gen = rng(29, nodes)
        A = gk.random_two_band_symmetric(gen, 30, 3)
        center, radius = 0.5, 1.0
        full = np.zeros((30, 30), dtype=complex)
        for j in range(nodes):
            e = np.exp(1j * TWO_PI * j / nodes)
            full += (radius * e / nodes) * np.linalg.inv((center + radius * e) * np.eye(30) - A)
        full = 0.5 * (full.real + full.real.T)
        P = dense(gk.spectral_projector(gk.BlockMatrix.one_block(A), center, radius, nodes))
        assert np.max(np.abs(P - full)) <= 1e-14

    def test_eigenvalue_on_contour_raises(self):
        A = gk.BlockMatrix.one_block(np.diag([1.0, 2.0, 3.0]))
        with pytest.raises(IllConditionedContour):
            # circle through the eigenvalue at 1.0 (node at angle pi)
            gk.spectral_projector(A, 1.5, 0.5, 16)


def n_components(A):
    from scipy.sparse.csgraph import connected_components

    return connected_components(np.asarray(A) != 0, directed=False)[0]


def dense_operator_family(family, basis):
    """Reference A(eps) = M^{-1/2} B M^{-1/2} from one dense eigh of M."""
    B = exterior_loop(basis)

    def A_of(eps):
        w, V = np.linalg.eigh(dense(gk.assemble_mass(family.member(eps), basis)))
        R = (V / np.sqrt(w)) @ V.T
        A = R @ B @ R
        return 0.5 * (A + A.T)

    return A_of


def dense_projector(A, center, radius, nodes=64):
    """The contour projector solved whole at every node of the half contour."""
    D = A.shape[0]
    P = np.zeros((D, D))
    for j in range(nodes // 2 + 1):
        e = np.exp(1j * TWO_PI * j / nodes)
        R = np.linalg.solve((center + radius * e) * np.eye(D) - A, np.eye(D))
        weight = 1.0 if j == 0 or 2 * j == nodes else 2.0
        P += ((weight * radius / nodes) * e * R).real
    return 0.5 * (P + P.T)


@pytest.fixture(scope="module", params=[1, 2], ids=["K1", "K2"])
def operator_pair(request, model, beta):
    """Block and dense operator families of the pi-map galerkin run, and the
    exact derivative of the block family at 0."""
    contact, g = model
    fam = ct.metric_family(g, contact, beta, [-0.1, 0.1])
    basis = gk.FormBasis(request.param)
    return (gk.pencil_operator_family(fam, basis), dense_operator_family(fam, basis),
            gk.pencil_operator_derivative(fam, basis))


@pytest.fixture(scope="module", params=[1, 2, 3], ids=["K1", "K2", "K3"])
def pi_family(request, model, beta):
    """The pi-map galerkin family at eps = 0: (family, basis, A_of, exact dA,
    cluster of A(0))."""
    contact, g = model
    fam = ct.metric_family(g, contact, beta, [-0.1, 0.1])
    basis = gk.FormBasis(request.param)
    A_of = gk.pencil_operator_family(fam, basis)
    cluster = gk.matrix_cluster(A_of(0.0), contact.lambda0, 0.2)
    return fam, basis, A_of, gk.pencil_operator_derivative(fam, basis), cluster


class TestBlockOperatorPath:
    @pytest.mark.parametrize("eps", [0.05, -0.05])
    def test_operator_matches_dense(self, operator_pair, eps):
        A_of, dense_of, _ = operator_pair
        A, Ad = dense(A_of(eps)), dense_of(eps)
        assert n_components(A) > 1
        assert np.max(np.abs(A - Ad)) <= 1e-12 * np.max(np.abs(Ad))

    def test_projector_and_cluster_match_dense_eigh(self, operator_pair):
        A = operator_pair[0](0.05)
        w, V = np.linalg.eigh(dense(A))
        sel = np.abs(w - 1.0) < 0.2
        assert np.count_nonzero(sel) == 6
        P = dense(gk.spectral_projector(A, 1.0, 0.2))
        assert np.max(np.abs(P - V[:, sel] @ V[:, sel].T)) <= 1e-12
        cl = gk.matrix_cluster(A, 1.0, 0.2)
        assert np.max(np.abs(cl.eigenvalues - w[sel])) <= 1e-12
        assert np.max(np.abs(cl.vectors.T @ cl.vectors - np.eye(6))) <= 1e-12
        assert np.max(np.abs(A @ cl.vectors - cl.vectors * cl.eigenvalues)) <= 1e-12

    def test_certificate_matches_dense_pi_map(self, operator_pair):
        # a fixed rotation makes every A(eps) one dense component with the
        # same spectrum, which enters pi_map as one block; the dense route
        # takes its derivative by finite differences of A
        A_of, dense_of, dA = operator_pair
        Ad = dense_of(0.0)
        Q = np.linalg.qr(rng(47, len(Ad)).standard_normal(Ad.shape))[0]

        def rotated_of(eps):
            return Q @ dense_of(eps) @ Q.T

        assert n_components(rotated_of(0.0)) == 1
        whole = gk.BlockMatrix.one_block
        dense_cluster = gk.matrix_cluster(whole(rotated_of(0.0)), 1.0, 0.2)
        cluster = gk.matrix_cluster(A_of(0.0), 1.0, 0.2)
        dense_rep = gk.pi_map(whole(rotated_of(0.05)), dense_cluster)
        rep = gk.pi_map(A_of(0.05), cluster)
        assert np.max(np.abs(dense(rep.projector) - Q.T @ dense(dense_rep.projector) @ Q)) <= 1e-12
        assert rep.sigma_match_defect <= 1e-9
        assert rep.projector_idempotency <= 1e-10
        cert = gk.splitting_certificate(gk.pi_derivative(dA, cluster.vectors))
        dense_prime = gk.pi_derivative(whole(gk.central_derivative(rotated_of, 0.0, 1e-2)),
                                       dense_cluster.vectors)
        assert cert == pytest.approx(gk.splitting_certificate(dense_prime), rel=1e-6)
        assert np.allclose(np.linalg.eigvalsh(rep.pi), np.linalg.eigvalsh(dense_rep.pi),
                           rtol=0.0, atol=1e-12)

    def test_exact_derivative_matches_finite_difference(self, operator_pair):
        # the slow reference: central differences of A, Richardson-extrapolated
        A_of, _, dA = operator_pair
        assert n_components(dense(dA)) > 1
        fd = gk.central_derivative(lambda eps: dense(A_of(eps)), 0.0, 1e-2)
        assert np.max(np.abs(dense(dA) - fd)) <= 1e-11

    @pytest.mark.parametrize("offset", [1e-7, 0.0])
    def test_guard_sees_eigenvalues_of_skipped_blocks(self, offset):
        # blocks {0.4, 0.6, 3} and {lam, 4}, lam just outside the circle next
        # to the node at angle 0, interleaved by a permutation
        center, radius = 0.5, 1.0
        lam = center + radius * (1.0 + offset)
        gen = rng(41, 1)
        Q1 = np.linalg.qr(gen.standard_normal((3, 3)))[0]
        Q2 = np.linalg.qr(gen.standard_normal((2, 2)))[0]
        A = sla.block_diag((Q1 * [0.4, 0.6, 3.0]) @ Q1.T, (Q2 * [lam, 4.0]) @ Q2.T)
        perm = gen.permutation(5)
        A = A[np.ix_(perm, perm)]
        keep, skip = np.sort(np.argsort(perm)[:3]), np.sort(np.argsort(perm)[3:])
        assert n_components(A) == 2
        Q = np.linalg.qr(gen.standard_normal((5, 5)))[0]
        rotated = Q @ A @ Q.T
        assert n_components(rotated) == 1

        def blocks(A):
            parts = sorted((keep, skip), key=lambda idx: idx[0])
            return gk.BlockMatrix(tuple(parts), tuple(A[np.ix_(idx, idx)] for idx in parts))

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for matrix in (blocks(A), gk.BlockMatrix.one_block(rotated)):
                with pytest.raises(IllConditionedContour):
                    gk.spectral_projector(matrix, center, radius)
            # away from the nodes the skipped block contributes an exact zero
            A[np.ix_(skip, skip)] += 0.5 * np.eye(2)
            P = dense(gk.spectral_projector(blocks(A), center, radius))
        w, V = np.linalg.eigh(A)
        assert np.max(np.abs(P - V[:, :2] @ V[:, :2].T)) <= 1e-12
        assert np.all(P[skip] == 0.0)

    def test_one_component_is_bitwise_the_dense_projector(self):
        A = gk.random_two_band_symmetric(rng(43, 0), 40, 3)
        assert n_components(A) == 1
        whole = gk.BlockMatrix.one_block(A)
        assert np.array_equal(dense(gk.spectral_projector(whole, 0.5, 1.0)),
                              dense_projector(A, 0.5, 1.0))
        w, V = np.linalg.eigh(A)
        cl = gk.matrix_cluster(whole, 0.5, 1.0)
        assert np.array_equal(cl.eigenvalues, w[:3])
        assert np.array_equal(cl.vectors, V[:, :3])

    def test_empty_cluster_raises(self):
        with pytest.raises(ClusterLeakage, match=r"no eigenvalue inside window \(5, 6\)"):
            gk.matrix_cluster(gk.BlockMatrix.one_block(np.diag([1.0, 2.0])), 5.5, 0.5)


class TestPiMap:
    def synthetic_cluster(self):
        A0 = np.diag([1.0, 1.0, 5.0])
        return A0, gk.matrix_cluster(gk.BlockMatrix.one_block(A0), 1.0, 0.5)

    def test_base_point_is_scalar_matrix(self):
        A0, cluster = self.synthetic_cluster()
        rep = gk.pi_map(gk.BlockMatrix.one_block(A0), cluster)
        assert np.max(np.abs(rep.pi - np.eye(2))) <= 1e-12
        assert rep.identity_deviation <= 1e-12

    def test_linear_diagonal_family_exact(self):
        A0, cluster = self.synthetic_cluster()
        rep = gk.pi_map(gk.BlockMatrix.one_block(A0 + 0.1 * np.diag([1.0, -1.0, 0.0])), cluster)
        assert np.allclose(np.sort(np.linalg.eigvalsh(rep.pi)), [0.9, 1.1], atol=1e-11)
        assert rep.sigma_match_defect <= 1e-11
        assert rep.projector_idempotency <= 1e-10

    def test_random_family_sigma_match(self):
        gen = rng(29, 1)
        dim = 24
        inside = gen.uniform(0.4, 0.6, size=3)
        outside = gen.uniform(2.0, 5.0, size=dim - 3)
        Q = np.linalg.qr(gen.standard_normal((dim, dim)))[0]
        A0 = (Q * np.concatenate([inside, outside])) @ Q.T
        S1 = gen.standard_normal((dim, dim))
        S1 = 0.5 * (S1 + S1.T)
        S1 /= np.linalg.norm(S1, 2)
        cluster = gk.matrix_cluster(gk.BlockMatrix.one_block(A0), 0.5, 1.0)
        for q in (0.02, 0.05, 0.1):
            rep = gk.pi_map(gk.BlockMatrix.one_block(A0 + q * S1), cluster)
            assert rep.sigma_match_defect <= 1e-9

    def test_cluster_leakage_detected(self):
        A0 = np.diag([1.0, 1.0, 1.6])
        cluster = gk.matrix_cluster(gk.BlockMatrix.one_block(A0), 1.0, 0.5)
        # moving the third eigenvalue into the contour changes the rank
        with pytest.raises(ClusterLeakage):
            gk.pi_map(gk.BlockMatrix.one_block(A0 + 0.2 * np.diag([0.0, 0.0, -1.0])), cluster)


class TestPiDerivative:
    def test_identity_direction(self):
        gen = rng(31, 1)
        U = np.linalg.qr(gen.standard_normal((10, 3)))[0]
        out = gk.pi_derivative(gk.BlockMatrix.one_block(np.eye(10)), U)
        assert np.max(np.abs(out - np.eye(3))) <= 1e-12

    def test_matches_finite_differences_of_pi(self):
        gen = rng(31, 2)
        dim = 20
        inside = gen.uniform(0.4, 0.6, size=3)
        outside = gen.uniform(2.0, 5.0, size=dim - 3)
        Q = np.linalg.qr(gen.standard_normal((dim, dim)))[0]
        A0 = (Q * np.concatenate([inside, outside])) @ Q.T
        S1 = gen.standard_normal((dim, dim))
        S1 = 0.5 * (S1 + S1.T)
        S1 /= np.linalg.norm(S1, 2)
        whole = gk.BlockMatrix.one_block
        cluster = gk.matrix_cluster(whole(A0), 0.5, 1.0)
        fd = gk.central_derivative(lambda q: gk.pi_map(whole(A0 + q * S1), cluster, nodes=96).pi,
                                   0.0, 1e-3)
        prime = gk.pi_derivative(whole(S1), cluster.vectors)
        assert np.max(np.abs(fd - prime)) <= 1e-6

    def test_galerkin_direction_not_scalar(self, family, model, beta):
        contact, g = model
        basis = gk.FormBasis(1)
        A_of = gk.pencil_operator_family(family, basis)
        A0 = A_of(0.0)
        DA = gk.BlockMatrix.one_block(gk.central_derivative(lambda e: dense(A_of(e)), 0.0, 0.02))
        M0 = gk.assemble_mass(g, basis)
        sqrtM = gk.BlockMatrix(M0.parts, tuple(gk.matrix_sqrt(block) for block in M0.blocks))
        av = sqrtM @ basis.form_to_vector(contact.alpha)
        av /= np.linalg.norm(av)
        bv = sqrtM @ basis.form_to_vector(beta)
        bv -= (av @ bv) * av
        bv /= np.linalg.norm(bv)
        cluster = gk.matrix_cluster(A0, 1.0, 0.2)
        rest = cluster.vectors
        rest = rest - np.outer(av, av @ rest) - np.outer(bv, bv @ rest)
        u_rest = np.linalg.svd(rest, full_matrices=False)[0][:, :4]
        U = np.concatenate([av[:, None], bv[:, None], u_rest], axis=1)
        prime = gk.pi_derivative(DA, U)
        assert abs(prime[0, 0]) <= 1e-8
        assert prime[1, 1] > 1e-4
        assert gk.splitting_certificate(prime) > 0.0


class TestExactFirstOrderCompression:
    def test_pencil_identity_on_the_cluster(self, pi_family, model):
        # U0' dA U0 = -lambda0 X' dM X with X = M0^{-1/2} U0, per block
        fam, basis, _, dA, cluster = pi_family
        M0 = gk.assemble_mass(fam.member(0.0), basis)
        R = gk.BlockMatrix(M0.parts, tuple(gk.matrix_inv_sqrt(block) for block in M0.blocks))
        X = R @ cluster.vectors
        dM = gk.mass_derivative(fam.base, fam.variation, basis)
        pencil = -model[0].lambda0 * (X.T @ (dM @ X))
        compressed = cluster.vectors.T @ dA @ cluster.vectors
        assert np.max(np.abs(pencil - compressed)) <= 1e-14 * np.max(np.abs(compressed))

    def test_eigenvalues_match_the_variation_pairing(self, pi_family, model):
        fam, basis, _, dA, cluster = pi_family
        curves = gk.track_splitting(fam, model[0], (0.8, 1.2), basis.K)
        prime = gk.pi_derivative(dA, cluster.vectors)
        assert np.max(np.abs(np.linalg.eigvalsh(prime) - curves.pairing_eigenvalues)) <= 1e-16


class TestSplittingCertificate:
    def test_scalar_matrix_gives_zero(self):
        assert gk.splitting_certificate(3.0 * np.eye(4)) == 0.0

    def test_diag_01(self):
        assert gk.splitting_certificate(np.diag([0.0, 1.0])) == pytest.approx(
            1.0 / math.sqrt(2.0), rel=1e-14)

    def test_conjugation_invariance(self):
        gen = rng(37, 1)
        P = gen.standard_normal((5, 5))
        P = 0.5 * (P + P.T)
        Q = np.linalg.qr(gen.standard_normal((5, 5)))[0]
        a = gk.splitting_certificate(P)
        b = gk.splitting_certificate(Q @ P @ Q.T)
        assert a == pytest.approx(b, rel=1e-12)
