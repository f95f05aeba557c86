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
    MemoryBudgetExceeded,
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


EPSILONS = [-0.2, -0.1, -0.05, 0.05, 0.1, 0.2]  # where the family below is swept


@pytest.fixture(scope="module")
def family(model, beta):
    contact, g = model
    return ct.MetricFamily(g, contact, beta)


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

    def test_gather_index_ceiling(self):
        # 16 (h + 1)^2 bytes: 97 MB at K = 8 is under the ceiling, 188 MB at K = 9 is not
        assert gk.FormBasis(8).dimension == 3 * 17 ** 3
        for K in (9, 40):
            with pytest.raises(MemoryBudgetExceeded, match=f"K = {K} "):
                gk.FormBasis(K)

    def test_exterior_entries_once_per_basis(self, basis1):
        entries = basis1._exterior_entries
        assert basis1._exterior_entries is entries
        assert all(not a.flags.writeable for a in entries)
        B = gk.assemble_exterior(basis1, single_part(basis1))
        assert np.array_equal(dense(B)[entries[0], entries[1]], entries[2])

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


def scipy_parts(D, rows, cols):
    """The parts of connected_components' labels, as `_partition` orders them."""
    from scipy.sparse import coo_array
    from scipy.sparse.csgraph import connected_components

    graph = coo_array((np.ones(len(rows)), (rows, cols)), shape=(D, D))
    n_parts, labels = connected_components(graph.tocsr(), directed=False)
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.cumsum(np.bincount(labels, minlength=n_parts))[:-1])


def random_graph(seed):
    """Edges among D vertices: random pairs, some repeated and some
    reversed, self-loops, and vertices that no edge meets."""
    gen = rng(seed, 41)
    D = int(gen.integers(1, 600))
    edges = gen.integers(0, D, size=(int(gen.integers(0, 2 * D)), 2))
    repeated = edges[gen.integers(0, len(edges), size=len(edges) // 3)] if len(edges) else edges
    loops = np.repeat(gen.integers(0, D, size=(D // 10, 1)), 2, axis=1)
    edges = np.concatenate([edges, repeated, repeated[:, ::-1], loops])
    return D, edges[:, 0], edges[:, 1]


class TestPartition:
    """`_partition` labels components in numpy; scipy's csgraph is the reference."""

    @staticmethod
    def check(D, rows, cols):
        rows, cols = (np.asarray(a, dtype=np.int64) for a in (rows, cols))
        parts = gk._partition(D, rows, cols)
        ref = scipy_parts(D, rows, cols)
        assert len(parts) == len(ref)
        for got, want in zip(parts, ref):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        return parts

    @pytest.mark.parametrize("seed", range(12))
    def test_random_graphs(self, seed):
        D, rows, cols = random_graph(seed)
        parts = self.check(D, rows, cols)
        touched = np.zeros(D, dtype=bool)
        touched[rows[rows != cols]] = touched[cols[rows != cols]] = True
        if not touched.all():  # an isolated vertex is a part of its own
            assert [int(np.flatnonzero(~touched)[0])] in [p.tolist() for p in parts]

    def test_empty_edge_list(self):
        parts = self.check(7, [], [])
        assert [p.tolist() for p in parts] == [[i] for i in range(7)]

    @pytest.mark.parametrize("D", [1, 2, 257])
    def test_long_chains(self, D):
        # a path listed from its far end, two interleaved paths, and a cycle
        # through a random order: the smallest vertex must reach every vertex
        v = np.arange(D)
        self.check(D, v[1:][::-1], v[:-1][::-1])
        self.check(D, v[2:][::-1], v[:-2][::-1])
        perm = rng(D, 42).permutation(D)
        self.check(D, perm, np.roll(perm, 1))

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_block_quadrature_graphs(self, family, eps):
        # chains through the parts of a K = 2 mass matrix give back its parts
        basis = gk.FormBasis(2)
        M = gk.assemble_mass(family.member(eps), basis)
        rows = np.concatenate([idx[:-1] for idx in M.parts])
        cols = np.concatenate([idx[1:] for idx in M.parts])
        parts = self.check(basis.dimension, rows, cols)
        assert [p.tolist() for p in parts] == [p.tolist() for p in M.parts]


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

    @pytest.mark.parametrize("K", [1, 3])
    def test_derivative_from_the_family_cache_is_bitwise_the_base(self, model, beta, K):
        # the member at eps = 0 reads the grid fields the family's mass assembly cached
        contact, g = model
        fam = ct.MetricFamily(g, contact, beta)
        basis = gk.FormBasis(K)
        ref = gk.mass_derivative(g, ct.variation_tensor(beta, contact, g), basis)
        gk.assemble_mass(fam.member(0.0), basis)
        for _ in range(2):
            dM = gk.mass_derivative(fam.member(0.0), fam.variation, basis)
            assert len(dM.parts) == len(ref.parts)
            assert all(np.array_equal(a, b) for a, b in zip(dM.parts, ref.parts))
            assert all(a.tobytes() == b.tobytes() for a, b in zip(dM.blocks, ref.blocks))

    @pytest.mark.parametrize("derivative", [False, True], ids=["M", "dM"])
    def test_non_positive_determinant_refused_before_the_square_root(self, model, beta,
                                                                      derivative):
        # at eps = 1e10 the positivity guard passes on rounding noise, but
        # det g is negative at some quadrature points
        contact, g = model
        fam = ct.MetricFamily(g, contact, beta)
        fam.check_positive([1e10])
        member, basis = fam.member(1e10), gk.FormBasis(1)
        with np.errstate(invalid="raise"), pytest.raises(
                NotPositiveDefinite, match=r"^metric not positive definite: determinant -\S+ "
                                           r"on the quadrature grid$"):
            if derivative:
                gk.mass_derivative(member, fam.variation, basis)
            else:
                gk.assemble_mass(member, basis)

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


def basis_on_grid(K, nodes):
    """A basis whose matrices are integrated on nodes^3 points instead of its
    own grid: the grid is set before its gather indices are built."""
    basis = gk.FormBasis(K)
    basis.nodes = nodes
    return basis


class TestMassAgainstPointwiseQuadrature:
    # the basis grid, an odd and an even count and an aliased one (<= 2K),
    # each set on a fresh basis; M and dM meet every count in the block
    # quadrature they share
    @pytest.mark.parametrize("K", [1, 2])
    @pytest.mark.parametrize("nodes", [None, 7, 8, "aliased"])
    def test_mass_and_derivative(self, family, K, nodes):
        n = {None: gk.FormBasis(K).nodes, "aliased": 2 * K}.get(nodes, nodes)
        basis = basis_on_grid(K, n)
        for metric, h in [(family.member(0.2), None), (family.base, family.variation)]:
            fast = (gk.assemble_mass(metric, basis) if h is None
                    else gk.mass_derivative(metric, h, basis))
            ref = pointwise_quadrature(basis, n, reference_weights(metric, n, h))
            assert np.max(np.abs(dense(fast) - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("K", [1, 2, 3])
def test_the_basis_grid_agrees_with_the_smallest_exact_grid(family, K):
    # the base metric's weight has degree 2 and dM's degree 6, so 2K + 3 and
    # 2K + 7 nodes integrate them exactly; the basis grid has more nodes, so
    # it must give the same blocks and the same entries up to rounding
    h = family.variation
    for degree, build, weights_h in [(2, lambda b: gk.assemble_mass(family.base, b), None),
                                     (6, lambda b: gk.mass_derivative(family.base, h, b), h)]:
        basis = gk.FormBasis(K)
        fine, coarse = build(basis), build(basis_on_grid(K, 2 * K + degree + 1))
        assert len(fine.parts) == len(coarse.parts)
        assert all(np.array_equal(a, b) for a, b in zip(fine.parts, coarse.parts))
        for n in (basis.nodes, 2 * K + degree + 1):
            ref = dense_quadrature(basis, n, reference_weights(family.base, n, weights_h))
            assert np.max(np.abs(dense(fine) - ref)) <= 1e-15 * np.max(np.abs(ref)), (degree, n)


@pytest.fixture(scope="module", params=[1, 2, 3], ids=["K1", "K2", "K3"])
def mass_cases(request, family):
    """(basis, [(name, block mass, dense reference)]) for the base metric,
    the eps = +-0.2 members and dM."""
    basis = gk.FormBasis(request.param)
    cases = []
    nodes = basis.nodes
    for name, metric in [("base", family.base), ("+0.2", family.member(0.2)),
                         ("-0.2", family.member(-0.2))]:
        cases.append((name, gk.assemble_mass(metric, basis),
                      dense_quadrature(basis, nodes, reference_weights(metric, nodes))))
    h = family.variation
    cases.append(("dM", gk.mass_derivative(family.base, h, basis),
                  dense_quadrature(basis, nodes, reference_weights(family.base, nodes, h))))
    return basis, cases


def reference_operator(family, basis, eps):
    """A(eps) built as before the block-first mass: the dense M, split by
    the dense coupling rule, M^{-1/2} per component."""
    B = exterior_loop(basis)
    M = dense_quadrature(basis, basis.nodes, reference_weights(family.member(eps), basis.nodes))
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
    base, h, nodes = family.member(0.0), family.variation, basis.nodes
    M0 = dense_quadrature(basis, nodes, reference_weights(base, nodes))
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


def every_block_solved(parts, solved, select):
    """The slow reference of the window-first eigensolve: every block solved
    whole, the selected pairs merged by a stable sort and scattered to full
    length as solve_pencil and matrix_cluster do; (eigenvalues, vectors)."""
    vals = np.concatenate([w for w, _ in solved])
    keep = np.flatnonzero(select(vals))
    keep = keep[np.argsort(vals[keep], kind="stable")]
    columns = [(idx, vecs[:, j]) for idx, (_, vecs) in zip(parts, solved) for j in range(len(idx))]
    vectors = np.zeros((len(vals), len(keep)))
    for col, t in enumerate(keep):
        rows, vec = columns[t]
        vectors[rows, col] = vec
    return vals[keep], vectors


def sweep_epsilons():
    """Every epsilon track_splitting solves on EPSILONS."""
    levels = {s * e for e in gk.SPLIT_FD_LEVELS for s in (1.0, -1.0)}
    return sorted(set(EPSILONS) | {0.0} | levels)


class TestWindowFirstEigensolve:
    @pytest.mark.parametrize("K", [2, 3])
    def test_sweep_pencils_are_bitwise_every_block_solved(self, family, K):
        basis = gk.FormBasis(K)
        lo, hi = 0.8, 1.2
        for eps in sweep_epsilons():
            M = gk.assemble_mass(family.member(eps), basis)
            B = gk.assemble_exterior(basis, M.parts)
            cl = gk.solve_pencil(B, M, (lo, hi))
            vals, vectors = every_block_solved(
                M.parts, [sla.eigh(Bb, Mb) for Bb, Mb in zip(B.blocks, M.blocks)],
                lambda w: (w > lo) & (w < hi))
            assert cl.multiplicity == 6
            assert np.array_equal(cl.eigenvalues, vals)
            assert np.array_equal(cl.vectors, vectors)

    def test_operator_cluster_is_bitwise_every_block_solved(self, pi_family):
        # the pi-map galerkin A(0), on the joint parts of M0 and dM
        fam, basis = pi_family[:2]
        A0, _ = gk.pencil_operator_derivative(fam, basis)
        cl = gk.matrix_cluster(A0, 1.0, 0.2)
        vals, vectors = every_block_solved(A0.parts, [np.linalg.eigh(Ab) for Ab in A0.blocks],
                                           lambda w: np.abs(w - 1.0) < 0.2)
        assert cl.multiplicity == 6
        assert np.array_equal(cl.eigenvalues, vals)
        assert np.array_equal(cl.vectors, vectors)

    @pytest.mark.parametrize("edge", ["lo", "hi"])
    @pytest.mark.parametrize("outside, raises",
                             [(0.5e-8, True), (1e-8 - 1e-15, True), (2e-8, False), (3e-8, False)])
    def test_guard_sees_an_eigenvalue_just_outside_the_window(self, edge, outside, raises):
        # block 0 holds the cluster; block 1's only eigenvalue near the window
        # sits just outside one edge, in a rotated 2 x 2 pencil; at 1e-8 - 1e-15
        # the guard fires even where bisection rounds it to just past 1e-8
        lo, hi = 0.8, 1.2
        near = lo - outside if edge == "lo" else hi + outside
        Q = np.linalg.qr(rng(53, 0).standard_normal((2, 2)))[0]
        parts = (np.arange(2), np.arange(2, 4))
        B = gk.BlockMatrix(parts, (np.diag([1.0, 5.0]), (Q * [near, 3.0]) @ Q.T))
        M = gk.BlockMatrix(parts, (np.eye(2), np.eye(2)))
        if raises:
            with pytest.raises(WindowTouchesSpectrum):
                gk.solve_pencil(B, M, (lo, hi))
        else:
            cl = gk.solve_pencil(B, M, (lo, hi))
            assert np.array_equal(cl.eigenvalues, [1.0])
            assert np.array_equal(cl.vectors[:, 0], [1.0, 0.0, 0.0, 0.0])

    def test_non_finite_pencil_block_raises_as_eigh_does(self):
        # the block has no eigenvalue near the window and is not solved, but is checked
        parts = (np.arange(2), np.arange(2, 4))
        B = gk.BlockMatrix(parts, (np.diag([1.0, 5.0]), np.diag([np.nan, 3.0])))
        M = gk.BlockMatrix(parts, (np.eye(2), np.eye(2)))
        with pytest.raises(ValueError, match="infs or NaNs"):
            gk.solve_pencil(B, M, (0.8, 1.2))

    def test_only_blocks_with_window_eigenvalues_are_solved_whole(self, family, monkeypatch):
        basis = gk.FormBasis(3)
        M = gk.assemble_mass(family.member(0.05), basis)
        B = gk.assemble_exterior(basis, M.parts)
        lo, hi = 0.8 - 2e-8, 1.2 + 2e-8
        counts = [np.count_nonzero((w > lo) & (w < hi))
                  for w in (sla.eigvalsh(Bb, Mb) for Bb, Mb in zip(B.blocks, M.blocks))]
        solved, eigh = [], sla.eigh
        monkeypatch.setattr(gk.sla, "eigh", lambda a, b=None, **kw: solved.append(a) or eigh(a, b, **kw))
        gk.solve_pencil(B, M, (0.8, 1.2))
        assert len(B.blocks) == 16
        assert [any(Bb is a for a in solved) for Bb in B.blocks] == [c > 0 for c in counts]
        assert sorted(map(len, solved)) == [36, 36, 54]


def bisection_count(A, M, lo, hi):
    """Slow reference of gk._window_count: LAPACK's bisection count of the
    eigenvalues in (lo, hi], ?sygvx for the pencil and ?syevr for a matrix."""
    if M is None:
        return sla.lapack.dsyevr(A, compute_v=0, range="V", vl=lo, vu=hi)[2]
    return sla.lapack.dsygvx(A, M, jobz="N", range="V", vl=lo, vu=hi)[2]


# the window of the sweeps and a narrow one that cuts through their cluster
COUNT_WINDOWS = [(0.8, 1.2), (0.9999, 1.0002)]


class TestInertiaCounts:
    @pytest.mark.parametrize("K", [1, 2, 3])
    @pytest.mark.parametrize("window", COUNT_WINDOWS, ids=["default", "narrow"])
    def test_pencil_counts_equal_bisection_on_every_sweep_member(self, family, K, window):
        basis = gk.FormBasis(K)
        lo, hi = window[0] - 2e-8, window[1] + 2e-8  # as _block_eigh counts
        totals = []
        for eps in sweep_epsilons():
            M = gk.assemble_mass(family.member(eps), basis)
            totals.append(0)
            for Bb, Mb in zip(gk.assemble_exterior(basis, M.parts).blocks, M.blocks):
                count = gk._window_count(Bb, Mb, lo, hi)
                assert count == bisection_count(Bb, Mb, lo, hi)
                totals[-1] += count
        # the whole cluster of 6 at eps = 0; the narrow window loses some elsewhere
        assert max(totals) == 6
        assert (min(totals) < 6) == (window == COUNT_WINDOWS[1])

    @pytest.mark.parametrize("window", COUNT_WINDOWS, ids=["default", "narrow"])
    def test_matrix_counts_equal_bisection_on_the_pi_map_operators(self, pi_family, window):
        fam, basis, A_of, _, _ = pi_family
        lo, hi = window[0] - 2e-8, window[1] + 2e-8
        operators = [gk.pencil_operator_derivative(fam, basis)[0], A_of(0.1), A_of(-0.05)]
        for A in operators:
            for Ab in A.blocks:
                assert gk._window_count(Ab, None, lo, hi) == bisection_count(Ab, None, lo, hi)

    @pytest.mark.parametrize("seed", range(5))
    def test_two_by_two_pivots_count_one(self, seed):
        # a zero diagonal makes Bunch-Kaufman take 2 x 2 pivots
        S = rng(71, seed).standard_normal((12, 12))
        A = S + S.T
        np.fill_diagonal(A, 0.0)
        assert np.any(sla.lapack.dsytrf(A)[1] < 0)
        w = np.linalg.eigvalsh(A)
        for lo, hi in [(-1.0, 1.0), (-50.0, 0.5), (0.0, 50.0), (w[3] - 1e-9, w[8] + 1e-9)]:
            assert gk._window_count(A, None, lo, hi) == np.count_nonzero((w >= lo) & (w < hi))

    def test_singular_shift_is_not_counted(self):
        assert gk._window_count(np.diag([0.5, 2.0]), None, 0.5, 1.0) is None
        assert gk._window_count(np.diag([0.5, 2.0]), np.eye(2), 0.0, 2.0) is None

    def test_not_positive_definite_mass_block_raises_as_eigh_does(self):
        # block 1 has no eigenvalue near the window, but its M fails Cholesky
        parts = (np.arange(2), np.arange(2, 4))
        B = gk.BlockMatrix(parts, (np.diag([1.0, 5.0]), np.diag([3.0, 4.0])))
        M = gk.BlockMatrix(parts, (np.eye(2), np.diag([1.0, -1.0])))
        assert gk._window_count(M.blocks[1] * 0.0, M.blocks[1], 0.8, 1.2) is None
        with pytest.raises(np.linalg.LinAlgError):
            gk.solve_pencil(B, M, (0.8, 1.2))


def sweep_order():
    """The epsilons in track_splitting's order, that of |eps|."""
    return sorted(sweep_epsilons(), key=abs)


def same_blocks(a, b):
    return (len(a.parts) == len(b.parts)
            and all(np.array_equal(p, q) for p, q in zip(a.parts, b.parts))
            and all(x.tobytes() == y.tobytes() for x, y in zip(a.blocks, b.blocks)))


class TestQuadraturePlan:
    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_blocks_of_a_reused_plan_are_bitwise_a_fresh_build(self, family, K):
        basis = gk.FormBasis(K)
        plans = []
        for eps in sweep_order():
            M = gk.assemble_mass(family.member(eps), basis)
            assert same_blocks(M, gk.assemble_mass(family.member(eps), gk.FormBasis(K)))
            plans.append(basis.quadrature_plan)
        # eps = 0 has its own plan and every other member gathers by one
        assert plans[0].gathers is not plans[1].gathers
        assert all(plan.gathers is plans[1].gathers for plan in plans[1:])
        for _ in range(2):  # dM has the members' partition and gathers by their plan
            dM = gk.mass_derivative(family.member(0.0), family.variation, basis)
            fresh = gk.mass_derivative(family.member(0.0), family.variation, gk.FormBasis(K))
            assert same_blocks(dM, fresh)
            assert basis.quadrature_plan.gathers is plans[1].gathers

    def test_a_perturb_run_builds_five_partitions_and_two_plans(self, tmp_path, monkeypatch):
        from eulerlab import runner

        linked, links = [], gk._links
        monkeypatch.setattr(gk, "_links", lambda *a: linked.append(a) or links(*a))
        built, partition = [], gk._partition
        monkeypatch.setattr(gk, "_partition", lambda *a: built.append(a) or partition(*a))
        gathered, plan = [], gk._quadrature_plan
        monkeypatch.setattr(gk, "_quadrature_plan", lambda *a: gathered.append(a) or plan(*a))
        rec = runner.run(runner.load_config({"kind": "perturb", "params": {"K": 3}}),
                         out_dir=str(tmp_path / "run"))
        assert rec.ok
        # eps = 0, the first member at |eps| = 0.01, 0.02 and 0.04, dM: the
        # others meet the support of the member before them
        assert len(linked) == len(built) == 5
        assert len(gathered) == 2  # the members after eps = 0 and dM share one partition

    def test_cluster_leakage_names_the_first_epsilon_in_order(self, family, monkeypatch):
        # the clusters at -0.04 and 0.01 lose an eigenvalue; the message names
        # the smaller, though the sweep solves in order of |eps|
        current, assemble, solve = [], gk.assemble_mass, gk.solve_pencil

        def assemble_mass(metric, basis):
            current.append(metric.xi_scale_eps)
            return assemble(metric, basis)

        def solve_pencil(B, M, window):
            cl = solve(B, M, window)
            if current[-1] in (0.01, -0.04):
                cl = gk.EigenCluster(cl.center, cl.radius, cl.eigenvalues[1:], cl.vectors[:, 1:])
            return cl

        monkeypatch.setattr(gk, "assemble_mass", assemble_mass)
        monkeypatch.setattr(gk, "solve_pencil", solve_pencil)
        with pytest.raises(ClusterLeakage,
                           match=r"^cluster size changed from 6 to 5 at eps=-0\.04$"):
            gk.track_splitting(family, EPSILONS, (0.8, 1.2), 1)


@pytest.fixture(scope="module")
def curves(family):
    return gk.track_splitting(family, EPSILONS, (0.8, 1.2), 2)


def reference_form_slopes(family, K):
    """The separate route to the slopes of alpha and beta: each member at
    +-0.02 and +-0.01 assembled and solved again, the eigenvalue matched by
    overlap with the M-normalized form, then central_derivative."""
    basis = gk.FormBasis(K)
    M0 = gk.assemble_mass(family.member(0.0), basis)
    units = [u / math.sqrt(u @ (M0 @ u)) for u in
             (basis.form_to_vector(f) for f in (family.contact.alpha, family.beta))]

    def matched(eps):
        M = gk.assemble_mass(family.member(eps), basis)
        cl = gk.solve_pencil(gk.assemble_exterior(basis, M.parts), M, (0.8, 1.2))
        return np.array([cl.eigenvalues[np.argmax(np.abs(cl.vectors.T @ (M @ u)))]
                         for u in units])

    return gk.central_derivative(matched, 0.0, 0.02)


def base_cluster(family, basis):
    """(M0, cluster) of the family's member at eps = 0, solved on its own."""
    M0 = gk.assemble_mass(family.member(0.0), basis)
    return M0, gk.solve_pencil(gk.assemble_exterior(basis, M0.parts), M0, (0.8, 1.2))


class TestTrackSplitting:
    def test_sixfold_at_zero(self, curves):
        i0 = int(np.argmin(np.abs(curves.epsilons)))
        row = curves.curves[i0]
        assert len(row) == 6
        assert np.max(np.abs(row - 1.0)) <= 1e-10

    def test_fd_slopes_match_pairing_eigenvalues(self, curves):
        a, b = curves.fd_slopes, curves.pairing_eigenvalues
        assert np.all(np.abs(a - b) <= 1e-6 * np.maximum(np.abs(a), np.abs(b)) + 1e-10)

    def test_alpha_row_and_column_vanish(self, curves, family, model):
        contact, _ = model
        basis = gk.FormBasis(2)
        M0, cl = base_cluster(family, basis)
        coeff = cl.vectors.T @ (M0 @ basis.form_to_vector(contact.alpha))
        assert np.linalg.norm(curves.pairing_matrix @ coeff) <= 1e-13

    def test_alpha_curve_constant(self, curves):
        assert np.max(np.abs(curves.alpha_curve - 1.0)) <= 1e-9
        assert np.max(curves.alpha_residuals) <= 1e-12

    def test_splitting_gap(self, curves):
        assert curves.slope_gap() > 1e-4

    @pytest.mark.parametrize("K", [1, 2])
    def test_form_slopes_are_bitwise_the_separate_route(self, family, curves, K):
        swept = curves if K == 2 else gk.track_splitting(family, EPSILONS, (0.8, 1.2), K)
        fd = np.array([swept.alpha_routes[0], swept.beta_routes[0]])
        assert np.array_equal(fd, reference_form_slopes(family, K))

    def test_pencil_eigenvalues_match_the_other_routes(self, curves):
        for other in (curves.fd_slopes, curves.pairing_eigenvalues):
            a, b = curves.pencil_eigenvalues, other
            assert np.all(np.abs(a - b) <= 1e-6 * np.maximum(np.abs(a), np.abs(b)) + 1e-10)
        assert np.array_equal(curves.pencil_eigenvalues,
                              np.sort(np.linalg.eigvalsh(curves.pencil_matrix)))


class TestHellmannFeynman:
    """The pencil formula -lambda0 u' dM u / u' M0 u (the Hellmann-Feynman
    slope of the pencil) against the other routes, per form of the family."""

    def test_alpha_direction_flat(self, curves, family):
        pairing = ct.variation_pairing([family.contact.alpha], family.variation, family.base, 1.0)
        assert max(map(abs, curves.alpha_routes)) <= 1e-8
        assert abs(pairing[0, 0]) <= 1e-8

    def test_beta_direction_three_routes(self, curves, family):
        fd, pencil = curves.beta_routes
        pairing = ct.variation_pairing([family.beta], family.variation, family.base, 1.0)[0, 0]
        ref = 0.5 * 41.0 / (64.0 * TWO_PI ** 3)
        assert pairing == pytest.approx(ref, rel=1e-12)
        assert fd == pytest.approx(pairing, rel=1e-6)
        assert pencil == pytest.approx(pairing, rel=1e-8)

    def test_directions_share_one_pencil(self, curves, family):
        # the pencil matrix of the sweep is the one of a separate base solve
        basis = gk.FormBasis(2)
        U0 = base_cluster(family, basis)[1].vectors
        dM = gk.mass_derivative(family.base, family.variation, basis)
        assert np.array_equal(curves.pencil_matrix, -1.0 * (U0.T @ (dM @ U0)))

    def test_unadapted_direction_raises(self, model):
        # beta mixes two unit-eigenvalue fields and is not an eigenvector of its own
        # pencil matrix; its slope is not defined
        s = TWO_PI ** -1.5
        extra = sp.SpectralVectorField.from_pairs(
            {(0, 1, 0): np.array([0.15 * s, 0.0, -0.15j * s])}, truncation_radius=1)
        contact, g = model
        family = ct.MetricFamily(g, contact, ct.default_perturbation_form() + extra)
        with pytest.raises(DegenerateDirection, match="not an eigenvector"):
            gk.track_splitting(family, [-0.1, 0.1], (0.8, 1.2), 1)

    def test_vector_outside_cluster_raises(self, model):
        # cos(x1 + x2) dx3 has curl eigenvalues of modulus sqrt(2), outside the window
        s = TWO_PI ** -1.5
        extra = sp.SpectralVectorField.from_pairs(
            {(1, 1, 0): np.array([0.0, 0.0, 0.5 * s])}, truncation_radius=1)
        contact, g = model
        family = ct.MetricFamily(g, contact, extra)
        with pytest.raises(DegenerateDirection, match="does not lie in the cluster"):
            gk.track_splitting(family, [-0.1, 0.1], (0.8, 1.2), 1)


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

    def test_singular_node_raises(self):
        # the node at angle 0 is exactly 2.0, an eigenvalue of the solved block
        A = gk.BlockMatrix.one_block(np.diag([1.9, 2.0, 3.0]))
        with pytest.raises(IllConditionedContour, match="resolvent singular at node 0"):
            gk.spectral_projector(A, 1.5, 0.5, 16)

    def test_one_by_one_block_matches_the_dense_projector(self):
        parts = (np.array([1]), np.array([0, 2]))
        A = gk.BlockMatrix(parts, (np.array([[0.4]]), np.array([[3.0, 1.0], [1.0, 5.0]])))
        P = dense(gk.spectral_projector(A, 0.5, 1.0))
        assert np.max(np.abs(P - dense_projector(dense(A), 0.5, 1.0))) <= 1e-14
        assert np.max(np.abs(P - np.diag([0.0, 1.0, 0.0]))) <= 1e-14


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
    """The slow reference of the projector: a dense solve of the whole matrix
    at every node of the half contour."""
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
    block family's A(0) with its exact derivative at 0."""
    contact, g = model
    fam = ct.MetricFamily(g, contact, beta)
    basis = gk.FormBasis(request.param)
    return (gk.pencil_operator_family(fam, basis), dense_operator_family(fam, basis),
            *gk.pencil_operator_derivative(fam, basis))


@pytest.fixture(scope="module", params=[1, 2, 3], ids=["K1", "K2", "K3"])
def pi_family(request, model, beta):
    """The pi-map galerkin family at eps = 0: (family, basis, A_of, exact dA,
    cluster of A(0)), A(0) and dA from one call as in the run."""
    contact, g = model
    fam = ct.MetricFamily(g, contact, beta)
    basis = gk.FormBasis(request.param)
    A0, dA = gk.pencil_operator_derivative(fam, basis)
    cluster = gk.matrix_cluster(A0, contact.lambda0, 0.2)
    return fam, basis, gk.pencil_operator_family(fam, basis), dA, cluster


class TestBlockOperatorPath:
    @pytest.mark.parametrize("eps", [0.05, -0.05])
    def test_operator_matches_dense(self, operator_pair, eps):
        A_of, dense_of, _, _ = operator_pair
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
        A_of, dense_of, _, dA = operator_pair
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
        A_of, _, _, dA = operator_pair
        assert n_components(dense(dA)) > 1
        fd = gk.central_derivative(lambda eps: dense(A_of(eps)), 0.0, 1e-2)
        assert np.max(np.abs(dense(dA) - fd)) <= 1e-11

    def test_joint_base_operator_matches_the_family_at_zero(self, operator_pair):
        # A(0) on the joint parts of M0 and dM, from the eigh that dA uses
        A_of, _, A0, dA = operator_pair
        assert len(A0.parts) == len(dA.parts)
        assert all(np.array_equal(a, b) for a, b in zip(A0.parts, dA.parts))
        ref = dense(A_of(0.0))
        assert np.max(np.abs(dense(A0) - ref)) <= 1e-14 * np.max(np.abs(ref))

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
            rotated = Q @ A @ Q.T
            P_rotated = dense(gk.spectral_projector(gk.BlockMatrix.one_block(rotated),
                                                    center, radius))
        w, V = np.linalg.eigh(A)
        assert np.max(np.abs(P - V[:, :2] @ V[:, :2].T)) <= 1e-12
        assert np.all(P[skip] == 0.0)
        # the solved block and the rotated matrix against a dense solve per node
        block = dense_projector(A[np.ix_(keep, keep)], center, radius)
        assert np.max(np.abs(P[np.ix_(keep, keep)] - block)) <= 1e-14
        assert np.max(np.abs(P_rotated - dense_projector(rotated, center, radius))) <= 1e-14

    def test_one_component_matches_the_dense_projector(self):
        # the tridiagonal route differs from a dense solve per node by rounding
        A = gk.random_two_band_symmetric(rng(43, 0), 40, 3)
        assert n_components(A) == 1
        whole = gk.BlockMatrix.one_block(A)
        P = dense(gk.spectral_projector(whole, 0.5, 1.0))
        assert np.max(np.abs(P - dense_projector(A, 0.5, 1.0))) <= 1e-14
        w, V = np.linalg.eigh(A)
        cl = gk.matrix_cluster(whole, 0.5, 1.0)
        assert np.array_equal(cl.eigenvalues, w[:3])
        assert np.array_equal(cl.vectors, V[:, :3])

    @pytest.mark.parametrize("j", range(10))
    def test_criterion_8_matrices_match_the_dense_projector(self, j):
        # the first ten random matrices of criterion 8, as it draws them
        gen = np.random.Generator(np.random.Philox(key=np.array([301, j], dtype=np.uint64)))
        dim = int(gen.integers(20, 201))
        A = gk.random_two_band_symmetric(gen, dim, int(gen.integers(2, min(8, dim - 2))))
        P = dense(gk.spectral_projector(gk.BlockMatrix.one_block(A), 0.5, 1.0, 64))
        assert np.max(np.abs(P - dense_projector(A, 0.5, 1.0, 64))) <= 1e-14

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

    def test_eigenvalues_match_the_variation_pairing(self, pi_family):
        fam, basis, _, dA, cluster = pi_family
        curves = gk.track_splitting(fam, [-0.1, 0.1], (0.8, 1.2), basis.K)
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
