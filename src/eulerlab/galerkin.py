"""Fourier-Galerkin discretization of the curl-type operator on 1-forms.

The operator star_g d is discretized as a symmetric matrix pencil (B, M):
B_ij = integral of e_i ^ d(e_j) is metric-independent and assembled exactly
by term matching, M(g)_ij = <e_i, e_j>_g is a grid quadrature with node
counts above the Nyquist bound of the integrand.  Each kernel uses the
Fourier structure of the basis.  M and dM are block-first: their coupling
partition comes from the support of the six weight DFTs and B's cos/sin
pairs before any D x D array exists (16 blocks of at most 96, 6.9% of D^2,
at K = 3 and eps != 0; 183 of at most 6 at eps = 0), and only the entries
inside the blocks are gathered into a BlockMass.  The pencil, the
symmetric family A = M^{-1/2} B M^{-1/2} and its exact derivative work on
those blocks; A's cluster eigensolve and contour projector work per
component of A's nonzero pattern; the projector solves only
blocks with an eigenvalue inside its circle, at half the nodes (the rest are
complex conjugates).  Eigenvalue clusters are tracked along metric families,
first-order splitting is cross-checked against the variation pairing, and
the contour projector / compression machinery reduces A(q) near a cluster
to a small symmetric matrix whose spectrum reproduces the nearby
eigenvalues; its first-order term is the exact dA compressed onto the
cluster.

Closed forms span a large kernel of B; windows exclude it rather than
constructing a coexact complement, since coexactness is metric-dependent.
The inner product is frozen by symmetrizing the pencil as
M^{-1/2} B M^{-1/2} wherever the compression machinery needs a plain
symmetric family.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .contact import (
    MetricFamily,
    MetricField,
    VariationTensor,
    inverse_and_det,
    require_positive,
    uniform_grid,
)
from .errors import (
    ClusterLeakage,
    DegenerateDirection,
    IllConditionedContour,
    NotPositiveDefinite,
    WindowTouchesSpectrum,
)
from .spectral import TWO_PI, VOLUME, SpectralVectorField

_EPS3 = np.zeros((3, 3, 3))
for _i, _j, _k, _s in [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                       (0, 2, 1, -1), (2, 1, 0, -1), (1, 0, 2, -1)]:
    _EPS3[_i, _j, _k] = _s


class FormBasis:
    """Realified trig 1-form basis: (cos|sin)(k.x) dx_slot, |k|_inf <= K.

    `half_lattice` is the (h, 3) int array of the lexicographically positive
    wave vectors with |k|_inf <= K, in ascending lexicographic order.
    Element i of the basis is scalar j = i % n_scalar in slot i // n_scalar:
    scalar 0 is the constant, scalars 2r + 1 and 2r + 2 are the cos and sin
    of half_lattice[r].  Elements are L2-orthogonal under the flat metric
    with squared norms (2*pi)^3 for constants and (2*pi)^3 / 2 otherwise.
    """

    def __init__(self, K: int):
        if K < 1:
            raise ValueError("K must be at least 1")
        self.K = K
        n = 2 * K + 1
        # the cube in lexicographic order; the vectors after k = 0 are the positive ones
        cube = np.indices((n, n, n)).reshape(3, -1).T - K
        self.half_lattice = cube[n ** 3 // 2 + 1:]
        self.n_scalar = 1 + 2 * len(self.half_lattice)
        self.dimension = 3 * self.n_scalar
        self._gather_cache = {}

    def gather_indices(self, nodes: int):
        """Indices of k_v + k_w and k_v - k_w (mod nodes) into a flattened
        nodes^3 DFT array, one (h + 1, h + 1) array each over the wave
        vectors v, w of k = 0 and the half lattice; scalar j has wave (j + 1) // 2."""
        if nodes not in self._gather_cache:
            kk = np.concatenate([np.zeros((1, 3), dtype=np.int64), self.half_lattice])

            def flat(m):
                m = m % nodes
                return (m[..., 0] * nodes + m[..., 1]) * nodes + m[..., 2]

            self._gather_cache[nodes] = (flat(kk[:, None] + kk[None]), flat(kk[:, None] - kk[None]))
        return self._gather_cache[nodes]

    def form_to_vector(self, form: SpectralVectorField):
        """Exact coefficient vector of a 1-form (must fit in K): the canonical
        half gathered into the cos/sin slots, c at k = 0 and 2 Re c, -2 Im c
        at the slots of k != 0."""
        half = len(form.K) // 2
        nonzero = np.any(form.C[half:] != 0, axis=1)
        K, C = form.K[half:][nonzero], form.C[half:][nonzero]
        if np.any(np.abs(K) > self.K):
            raise ValueError(f"form has modes outside basis truncation K={self.K}")
        n = 2 * self.K + 1
        j = (K[:, 0] * n + K[:, 1]) * n + K[:, 2]  # position in the half lattice, from 1
        C = np.where(j > 0, 2.0, 1.0)[:, None] * C
        vec = np.zeros((3, self.n_scalar))
        vec[:, np.maximum(2 * j - 1, 0)] = C.real.T
        vec[:, 2 * j[j > 0]] = -C.imag[j > 0].T
        return vec.ravel()

    def vector_to_form(self, vec) -> SpectralVectorField:
        """The 1-form of a coefficient vector; all-zero modes are left out."""
        V = np.asarray(vec, dtype=float).reshape(3, self.n_scalar)
        C = np.concatenate([V[:, :1].T, 0.5 * (V[:, 1::2] - 1j * V[:, 2::2]).T])
        K = np.concatenate([np.zeros((1, 3), dtype=np.int64), self.half_lattice])
        keep = np.any(C != 0, axis=1)
        return SpectralVectorField.from_half(K[keep], C[keep], truncation_radius=self.K)


def _exterior_couplings(basis: FormBasis):
    """(a, b, values over the half lattice) of B's entries between
    cos(k.x) dx_a and sin(k.x) dx_b, a != b; a value is 0 where k_c = 0."""
    for a, b in itertools.permutations(range(3), 2):
        c = 3 - a - b
        yield a, b, _EPS3[a, c, b] * basis.half_lattice[:, c] * (0.5 * VOLUME)


def assemble_exterior(basis: FormBasis) -> np.ndarray:
    """Exact matrix B_ij = integral of e_i ^ d(e_j).

    Only cos/sin pairs of the same wave vector in different slots couple;
    every entry is an integer or half-integer multiple of (2*pi)^3.
    """
    S = basis.n_scalar
    B = np.zeros((basis.dimension, basis.dimension))
    cos = 1 + 2 * np.arange(len(basis.half_lattice))
    sin = cos + 1
    for a, b, val in _exterior_couplings(basis):
        # added onto +0.0, so an entry with k_c = 0 stays +0.0, never -0.0
        B[a * S + cos, b * S + sin] += val
        B[a * S + sin, b * S + cos] += -val
    return B


def default_mass_nodes(K: int, degree_hint: int) -> int:
    return 2 * K + degree_hint + 1


@dataclass(frozen=True)
class BlockMass:
    """Symmetric D x D matrix that is zero outside its diagonal blocks.

    `parts` are ascending index arrays that partition range(D) and `blocks`
    the symmetric matrices on them; `@` applies it to a vector or a D x k
    matrix.
    """

    parts: tuple
    blocks: tuple

    def __matmul__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        for idx, block in zip(self.parts, self.blocks):
            out[idx] = block @ x[idx]
        return out


def _partition(D: int, rows, cols) -> list:
    """Ascending index arrays of the connected components of the graph on
    range(D) with the edges rows[e] ~ cols[e], ordered by their first index."""
    from scipy.sparse import coo_array
    from scipy.sparse.csgraph import connected_components

    graph = coo_array((np.ones(len(rows)), (rows, cols)), shape=(D, D))
    n_parts, labels = connected_components(graph.tocsr(), directed=False)
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.cumsum(np.bincount(labels, minlength=n_parts))[:-1])


# slot pairs (a, b), a <= b, of the six weight DFTs, and the DFT that (a, b) reads
_SLOT_PAIRS = [(a, b) for a in range(3) for b in range(a, 3)]
_PAIR_OF = np.zeros((3, 3), dtype=np.int64)
for _p, (_a, _b) in enumerate(_SLOT_PAIRS):
    _PAIR_OF[_a, _b] = _PAIR_OF[_b, _a] = _p


def _block_quadrature(basis: FormBasis, nodes: int, weights: np.ndarray) -> BlockMass:
    """Symmetric matrix of integrals W_ab(x) e_i(x) e_j(x) over the nodes^3 grid.

    `weights` holds a symmetric 3x3 weight W per point of `uniform_grid`,
    quadrature weight included; the slot pair (a, b) of e_i, e_j picks its
    entry.  The grid sum of W e^{i m.x} is F(m) = conj(fftn(W))[m mod nodes],
    and with the scalars written as Re(u e^{i k.x}), u = 1 for cos and -i
    for sin, the product-to-sum rules give the same discrete sum, aliasing
    included, as M_ij = Re(u_i u_j F(k_i + k_j) + u_i conj(u_j) F(k_i - k_j)) / 2.

    So |M_ij| <= max(|F(k_i + k_j)|, |F(k_i - k_j)|), and the blocks are
    the components of the graph that links e_i ~ e_j where either exceeds
    1e-12 max|F|, or where B_ij != 0; only entries inside them are
    gathered.  For positive definite weights max|F| = max_a F_aa(0), a
    diagonal entry, so no entry above 1e-12 max|M| lies outside the blocks.
    """
    S = basis.n_scalar
    W = weights.reshape(nodes, nodes, nodes, 3, 3)
    F = np.stack([np.fft.fftn(W[..., a, b]).conj().ravel() for a, b in _SLOT_PAIRS])
    plus, minus = basis.gather_indices(nodes)
    magnitude = np.abs(F)
    support = magnitude > 1e-12 * np.max(magnitude)

    # wave v of slot a links both its scalars to those of wave w of slot b;
    # a wave with any link also joins its own cos and sin
    cos = np.maximum(2 * np.arange(len(plus)) - 1, 0)
    rows, cols, linked = [], [], np.zeros((3, len(plus)), dtype=bool)
    for p, (a, b) in enumerate(_SLOT_PAIRS):
        v, w = np.nonzero(support[p][plus] | support[p][minus])
        rows.append(a * S + cos[v])
        cols.append(b * S + cos[w])
        linked[a, v] = linked[b, w] = True
    a, v = np.nonzero(linked[:, 1:])
    rows.append(a * S + 2 * v + 1)
    cols.append(a * S + 2 * v + 2)
    for a, b, val in _exterior_couplings(basis):
        r = np.flatnonzero(val)
        rows.append(a * S + 2 * r + 1)
        cols.append(b * S + 2 * r + 2)
    parts = _partition(basis.dimension, np.concatenate(rows), np.concatenate(cols))

    u = np.ones(S, dtype=complex)
    u[2::2] = -1j
    blocks = []
    for idx in parts:
        slot, j = np.divmod(idx, S)
        pair, wave = _PAIR_OF[slot[:, None], slot], (j + 1) // 2
        plus_ij, minus_ij = plus[wave[:, None], wave], minus[wave[:, None], wave]
        uj = u[j]
        block = 0.5 * (np.outer(uj, uj) * F[pair, plus_ij]
                       + np.outer(uj, uj.conj()) * F[pair, minus_ij]).real
        blocks.append(0.5 * (block + block.T))
    return BlockMass(tuple(parts), tuple(blocks))


def assemble_mass(metric: MetricField, basis: FormBasis, nodes=None) -> BlockMass:
    """Mass matrix M_ij = integral of g(e_i#, e_j#) vol_g by grid quadrature,
    on the blocks of `_block_quadrature`.

    Raises NotPositiveDefinite when the metric fails positivity on the
    quadrature grid.
    """
    if nodes is None:
        nodes = default_mass_nodes(basis.K, metric.degree_hint)
    _, w = uniform_grid(nodes)
    G = metric.grid_matrix(nodes)
    Ginv, det = inverse_and_det(G)
    require_positive(G, det, "the quadrature grid")
    return _block_quadrature(basis, nodes, Ginv * (np.sqrt(det) * w)[:, None, None])


def mass_derivative(metric: MetricField, h: VariationTensor, basis: FormBasis) -> BlockMass:
    """Exact first-order mass matrix along the variation tensor h.

    dM_ij = -integral of [h(e_i#, e_j#) - Tr_g(h) g(e_i#, e_j#)/2] vol_g.
    """
    nodes = default_mass_nodes(basis.K, metric.degree_hint + h.entries.degree())
    pts, w = uniform_grid(nodes)
    Ginv, det = inverse_and_det(metric.grid_matrix(nodes))
    H = h.entries.evaluate(pts)
    HS = np.einsum("pij,pjk,pkl->pil", Ginv, H, Ginv)
    tr = np.einsum("pij,pij->p", Ginv, H)
    core = -HS + 0.5 * tr[:, None, None] * Ginv
    return _block_quadrature(basis, nodes, core * (np.sqrt(det) * w)[:, None, None])


@dataclass(frozen=True)
class EigenCluster:
    """Eigenpairs inside a window, vectors as columns: M-orthonormal for the
    pencil (solve_pencil), orthonormal for a symmetric matrix (matrix_cluster)."""

    center: float
    radius: float
    eigenvalues: np.ndarray
    vectors: np.ndarray

    @property
    def multiplicity(self):
        return len(self.eigenvalues)


def _components(pattern) -> list:
    """Index arrays of the connected components of a symmetric boolean matrix."""
    if pattern.all():
        return [np.arange(len(pattern))]
    return _partition(len(pattern), *np.nonzero(pattern))


def _block_eigh(parts, solved, select):
    """Eigenpairs by blocks, `solved` holding (eigenvalues, vectors) of the
    block on each index array of `parts`: every eigenvalue (block order),
    the indices of those with `select(vals)` in a stable ascending sort, and
    their vectors scattered to full length."""
    vals = np.concatenate([w for w, _ in solved])
    keep = np.flatnonzero(select(vals))
    keep = keep[np.argsort(vals[keep], kind="stable")]
    columns = [(idx, vecs[:, j]) for idx, (_, vecs) in zip(parts, solved) for j in range(len(idx))]
    # column-major like a dense eigh's selected columns: one block stays bitwise dense
    vectors = np.zeros((len(vals), len(keep)), order="F")
    for col, (rows, vec) in enumerate(columns[t] for t in keep):
        vectors[rows, col] = vec
    return vals, keep, vectors


def solve_pencil(B: np.ndarray, M: BlockMass, window) -> EigenCluster:
    """Generalized symmetric eigensolve; returns the pairs inside (lo, hi).

    The pencil is solved on each block of M, whose partition also holds
    the couplings of B (see `_block_quadrature`): found from the support
    of the weight DFTs before assembly, it has 16 blocks of at most 96 at
    K = 3 for the x2-independent family metric at eps != 0, and 183 of at
    most 6 at eps = 0.  Eigenvalues are merged by a stable sort and vectors
    scattered into full length; a pencil that forms one block gets exactly
    the dense solve.

    Raises WindowTouchesSpectrum when any eigenvalue sits within 1e-8 of a
    window endpoint (the window no longer isolates a cluster).
    """
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError("window must be an increasing interval")
    solved = [sla.eigh(B[np.ix_(idx, idx)], block) for idx, block in zip(M.parts, M.blocks)]
    vals, keep, vectors = _block_eigh(M.parts, solved, lambda w: (w > lo) & (w < hi))
    if np.any(np.abs(vals - lo) < 1e-8) or np.any(np.abs(vals - hi) < 1e-8):
        raise WindowTouchesSpectrum(f"eigenvalue within 1e-8 of window ({lo}, {hi})")
    return EigenCluster(0.5 * (lo + hi), 0.5 * (hi - lo), vals[keep], vectors)


@dataclass(frozen=True)
class SplittingCurves:
    """Eigenvalue curves of the pencil along the metric family."""

    epsilons: np.ndarray
    curves: np.ndarray          # (n_eps, k), sorted per epsilon
    alpha_curve: np.ndarray     # eigenvalue matched to the contact form
    alpha_residuals: np.ndarray
    pairing_matrix: np.ndarray  # k x k first-order matrix from the variation pairing
    pairing_eigenvalues: np.ndarray
    fd_slopes: np.ndarray       # Richardson-extrapolated sorted slopes at 0
    fit_slopes: np.ndarray      # least-squares slope of each sorted curve
    window: tuple
    K: int

    def slope_gap(self):
        return float(np.max(self.fit_slopes) - np.min(self.fit_slopes))


def _match_by_overlap(cluster: EigenCluster, M: BlockMass, target):
    overlaps = cluster.vectors.T @ (M @ target)
    idx = int(np.argmax(np.abs(overlaps)))
    return idx, float(cluster.eigenvalues[idx])


# finite-difference steps: one-sided levels of the splitting sweep and the
# central step of hellmann_feynman
SPLIT_FD_LEVELS = (0.04, 0.02, 0.01)
SLOPE_FD_DELTA = 0.02


def richardson(values, steps, order=1):
    """Extrapolate f(e) = f0 + a e^p + b e^2p + ... to e = 0 from f at the given steps.

    With x_i = e_i^p (p = `order`) each level combines neighbours into
    (x_i f_{i+1} - x_{i+1} f_i) / (x_i - x_{i+1}) and continues with the
    steps x_i x_{i+1}; n levels cancel the first n - 1 error terms.  Values
    may be arrays, extrapolated element by element.
    """
    f = list(values)
    x = [float(e) ** order for e in steps]
    while len(f) > 1:
        f = [(x[i] * f[i + 1] - x[i + 1] * f[i]) / (x[i] - x[i + 1]) for i in range(len(f) - 1)]
        x = [x[i] * x[i + 1] for i in range(len(x) - 1)]
    return f[0]


def central_derivative(fn, x0, delta):
    """Derivative of fn at x0 from central differences at delta and delta/2,
    Richardson-extrapolated in delta^2 (error O(delta^4))."""
    steps = (delta, 0.5 * delta)
    diffs = [(np.asarray(fn(x0 + h)) - np.asarray(fn(x0 - h))) / (2 * h) for h in steps]
    return richardson(diffs, steps, order=2)


def track_splitting(family: MetricFamily, contact, window, K: int,
                    nodes=None) -> SplittingCurves:
    """Eigenvalue curves of (B, M(g_eps)) near the cluster inside the window.

    The contact form's coefficient vector is matched by eigenvector overlap
    at every epsilon; finite-difference slopes at 0 are cross-checked
    against the eigenvalues of the pairing matrix Pi built from the
    variation pairing of the cluster eigenvectors.
    """
    from .contact import variation_pairing

    basis = FormBasis(K)
    B = assemble_exterior(basis)
    alpha_vec = basis.form_to_vector(contact.alpha)
    lam0 = contact.lambda0

    eps_list = sorted(set(float(e) for e in family.epsilon_grid) | {0.0})
    solve_at = sorted(set(eps_list) | {s * e for e in SPLIT_FD_LEVELS for s in (1.0, -1.0)})

    clusters = {}
    masses = {}
    for eps in solve_at:
        M = assemble_mass(family.member(eps), basis, nodes)
        clusters[eps] = solve_pencil(B, M, window)
        masses[eps] = M
    k = clusters[0.0].multiplicity
    for eps, cl in clusters.items():
        if cl.multiplicity != k:
            raise ClusterLeakage(
                f"cluster size changed from {k} to {cl.multiplicity} at eps={eps}"
            )

    curves = np.array([np.sort(clusters[e].eigenvalues) for e in eps_list])
    alpha_curve = []
    alpha_residuals = []
    for e in eps_list:
        _, lam = _match_by_overlap(clusters[e], masses[e], alpha_vec)
        alpha_curve.append(lam)
        m_alpha = masses[e] @ alpha_vec
        r = B @ alpha_vec - lam0 * m_alpha
        alpha_residuals.append(float(np.linalg.norm(r) / np.linalg.norm(m_alpha)))

    base = clusters[0.0]
    U0 = base.vectors
    forms = [basis.vector_to_form(U0[:, i]) for i in range(k)]
    Pi = variation_pairing(forms, family.variation, family.base, lam0)

    # sorting at a fixed sign of epsilon tracks branches consistently, so the
    # one-sided quotients (sorted(lam(e)) - lam0)/e extrapolate to the slopes
    lam_center = float(np.mean(base.eigenvalues))
    fd_plus = richardson([(np.sort(clusters[e].eigenvalues) - lam_center) / e
                          for e in SPLIT_FD_LEVELS], SPLIT_FD_LEVELS)
    fd_minus = richardson([(np.sort(-clusters[-e].eigenvalues) + lam_center) / e
                           for e in SPLIT_FD_LEVELS], SPLIT_FD_LEVELS)
    fd = 0.5 * (np.sort(fd_plus) + np.sort(fd_minus))

    # fit each sorted curve on the nonnegative half of the grid, where
    # sorting is branch-consistent
    eps_arr = np.array(eps_list)
    pos = eps_arr >= 0.0
    A = np.stack([eps_arr[pos], np.ones(int(np.count_nonzero(pos)))], axis=1)
    fit = np.empty(k)
    for i in range(k):
        fit[i] = np.linalg.lstsq(A, curves[pos, i], rcond=None)[0][0]

    return SplittingCurves(
        epsilons=eps_arr,
        curves=curves,
        alpha_curve=np.array(alpha_curve),
        alpha_residuals=np.array(alpha_residuals),
        pairing_matrix=Pi,
        pairing_eigenvalues=np.sort(np.linalg.eigvalsh(Pi)),
        fd_slopes=np.sort(fd),
        fit_slopes=fit,
        window=(float(window[0]), float(window[1])),
        K=K,
    )


def hellmann_feynman(family: MetricFamily, directions, lam: float, basis: FormBasis, window):
    """Three routes to the eigenvalue slope along the family for each direction.

    Returns (routes, Pi): routes[i] is (finite-difference slope, pencil
    formula -lam u' dM u / u' M u, variation-pairing quadrature) for
    directions[i], and Pi = -lam U0' dM U0 is the pencil matrix over the
    M-orthonormal eigenvectors U0 of the cluster at eps = 0.  Each direction
    u must be adapted to the cluster: an eigenvector of Pi, otherwise its
    slope is not well defined and DegenerateDirection is raised.  The
    pencil and the finite-difference members are solved once for all
    directions.
    """
    from .contact import variation_pairing

    B = assemble_exterior(basis)
    M0 = assemble_mass(family.base, basis)
    U0 = solve_pencil(B, M0, window).vectors
    dM = mass_derivative(family.base, family.variation, basis)
    Pi = -lam * (U0.T @ (dM @ U0))
    units = []
    for u in directions:
        u = np.asarray(u, dtype=float)
        u = u / math.sqrt(float(u @ (M0 @ u)))
        coeff = U0.T @ (M0 @ u)
        if abs(float(coeff @ coeff) - 1.0) > 1e-8:
            raise DegenerateDirection("vector does not lie in the requested cluster")
        resid = Pi @ coeff - (coeff @ Pi @ coeff) * coeff
        if np.linalg.norm(resid) > 1e-8 * max(1.0, np.linalg.norm(Pi)):
            raise DegenerateDirection("vector is not an eigenvector of the splitting matrix")
        units.append(u)

    def matched_eigenvalues(eps):
        Ms = assemble_mass(family.member(eps), basis)
        cluster = solve_pencil(B, Ms, window)
        return np.array([_match_by_overlap(cluster, Ms, u)[1] for u in units])

    fd = central_derivative(matched_eigenvalues, 0.0, SLOPE_FD_DELTA)
    routes = []
    for i, u in enumerate(units):
        # one pairing per direction: a joint call contracts in another order
        pairing = variation_pairing([basis.vector_to_form(u)], family.variation, family.base, lam)
        routes.append((float(fd[i]), -lam * float(u @ (dM @ u)), float(pairing[0, 0])))
    return routes, Pi


# ---------------------------------------------------------------------------
# contour projector and cluster compression


def spectral_projector(A: np.ndarray, center: float, radius: float, nodes: int = 64) -> np.ndarray:
    """Contour projector (1/2*pi*i) oint (z - A)^{-1} dz on a circle.

    Trapezoidal quadrature converges exponentially for resolvents that are
    analytic near the contour; a Frobenius-norm guard flags eigenvalues
    within about 1e-6 * radius of the circle (conservatively).  A is real
    symmetric, so R(conj z) = conj R(z) and the nodes at theta and
    2*pi - theta contribute complex conjugates: only nodes j <= nodes/2 are
    solved, each but j = 0 and j = nodes/2 counted twice in the real part.

    Only the components of A's nonzero pattern with an eigenvalue inside
    are solved; the others give an exact zero and enter the guard by their
    eigenvalues, as the 1/|z - lambda|^2 terms of the Frobenius norm.
    """
    A = np.asarray(A, dtype=float)
    solved, skipped = _components(A != 0), np.empty(0)
    if len(solved) > 1:
        spectra = [np.linalg.eigvalsh(A[np.ix_(idx, idx)]) for idx in solved]
        inside = [bool(np.any(np.abs(w - center) < radius)) for w in spectra]
        skipped = np.concatenate([w for w, s in zip(spectra, inside) if not s] + [skipped])
        solved = [idx for idx, s in zip(solved, inside) if s]
    blocks = [(Ab, np.eye(len(Ab)), np.zeros_like(Ab)) for Ab in (A[np.ix_(i, i)] for i in solved)]
    guard = 1e6 / radius
    for j in range(nodes // 2 + 1):
        theta = TWO_PI * j / nodes
        z = center + radius * np.exp(1j * theta)
        try:
            resolvents = [np.linalg.solve(z * eye - Ab, eye) for Ab, eye, _ in blocks]
        except np.linalg.LinAlgError as exc:
            raise IllConditionedContour(f"resolvent singular at node {j}") from exc
        with np.errstate(divide="ignore"):
            norm = math.hypot(*map(np.linalg.norm, resolvents), *(1.0 / np.abs(z - skipped)))
        if norm > guard:
            raise IllConditionedContour(
                f"resolvent norm exceeds {guard:.2e} at node {j}; eigenvalue near contour"
            )
        weight = 1.0 if j == 0 or 2 * j == nodes else 2.0
        for (_, _, Pb), R in zip(blocks, resolvents):
            Pb += ((weight * radius / nodes) * np.exp(1j * theta) * R).real
    P = np.zeros_like(A)
    for idx, (_, _, Pb) in zip(solved, blocks):
        P[np.ix_(idx, idx)] = Pb
    return 0.5 * (P + P.T)


def _positive_eigh(M: np.ndarray):
    """eigh of a symmetric matrix; NotPositiveDefinite below eigenvalue 1e-12."""
    vals, vecs = np.linalg.eigh(M)
    if np.min(vals) <= 1e-12:
        raise NotPositiveDefinite(f"matrix eigenvalue {np.min(vals):.3e} below 1e-12")
    return vals, vecs


def matrix_inv_sqrt(M: np.ndarray) -> np.ndarray:
    vals, vecs = _positive_eigh(M)
    return (vecs * (1.0 / np.sqrt(vals))) @ vecs.T


def matrix_sqrt(M: np.ndarray) -> np.ndarray:
    vals, vecs = _positive_eigh(M)
    return (vecs * np.sqrt(vals)) @ vecs.T


def pencil_operator_family(family: MetricFamily, basis: FormBasis):
    """Symmetric operator family A(eps) = M(eps)^{-1/2} B M(eps)^{-1/2}.

    Shares the pencil's spectrum while keeping a fixed (Euclidean) inner
    product, which is what the compression machinery expects.  It is formed
    per block of M(eps), exactly zero between.
    """
    B = assemble_exterior(basis)

    def A_of(eps):
        M = assemble_mass(family.member(eps), basis)
        A = np.zeros_like(B)
        for idx, block in zip(M.parts, M.blocks):
            ix = np.ix_(idx, idx)
            R = matrix_inv_sqrt(block)
            A[ix] = R @ B[ix] @ R
        return 0.5 * (A + A.T)

    return A_of


def _coarsen(mass: BlockMass, parts) -> list:
    """The matrices of `mass` on the blocks of `parts`, each a union of its blocks."""
    owner, pos = np.empty((2, sum(map(len, parts))), dtype=int)
    for c, idx in enumerate(parts):
        owner[idx], pos[idx] = c, np.arange(len(idx))
    out = [np.zeros((len(idx), len(idx))) for idx in parts]
    for idx, block in zip(mass.parts, mass.blocks):
        out[owner[idx[0]]][np.ix_(pos[idx], pos[idx])] = block
    return out


def pencil_operator_derivative(family: MetricFamily, basis: FormBasis) -> np.ndarray:
    """Exact dA(0) of pencil_operator_family: dR B R + R B dR, R = M0^{-1/2}.

    dR is the Frechet derivative of M^{-1/2} along dM = mass_derivative, in
    each block's eigenbasis M0 = V diag(s^2) V' the Daleckii-Krein form
    V (L * V' dM V) V' with L_ij = -1 / (s_i s_j (s_i + s_j)) (N. J. Higham,
    Functions of Matrices, SIAM 2008, 3.2).  Blocks join those of M0 and dM:
    dM couples blocks of M0.
    """
    B = assemble_exterior(basis)
    M0 = assemble_mass(family.member(0.0), basis)
    dM = mass_derivative(family.base, family.variation, basis)
    chains = [idx for mass in (M0, dM) for idx in mass.parts]
    parts = _partition(basis.dimension, np.concatenate([idx[:-1] for idx in chains]),
                       np.concatenate([idx[1:] for idx in chains]))
    dA = np.zeros_like(B)
    for idx, M0b, dMb in zip(parts, _coarsen(M0, parts), _coarsen(dM, parts)):
        ix = np.ix_(idx, idx)
        vals, V = _positive_eigh(M0b)
        s = np.sqrt(vals)
        L = -1.0 / (np.outer(s, s) * (s[:, None] + s))
        dR = V @ (L * (V.T @ dMb @ V)) @ V.T
        half = dR @ B[ix] @ ((V / s) @ V.T)
        dA[ix] = half + half.T  # B and R are symmetric, so R B dR = half'
    return dA


def matrix_cluster(A: np.ndarray, center: float, radius: float) -> EigenCluster:
    """Eigenpairs with |lambda - center| < radius, solved per component of
    A's nonzero pattern as in solve_pencil; ClusterLeakage if there are none."""
    parts = _components(A != 0)
    vals, keep, vectors = _block_eigh(
        parts, [np.linalg.eigh(A[np.ix_(idx, idx)]) for idx in parts],
        lambda w: np.abs(w - center) < radius)
    if len(keep) == 0:
        raise ClusterLeakage(
            f"no eigenvalue inside window ({center - radius:g}, {center + radius:g})")
    return EigenCluster(float(center), float(radius), vals[keep], vectors)


def random_two_band_symmetric(gen, dim: int, n_inside: int) -> np.ndarray:
    """Random symmetric matrix with n_inside eigenvalues in [0.3, 0.7], the rest in [2, 6]."""
    inside = gen.uniform(0.3, 0.7, size=n_inside)
    outside = gen.uniform(2.0, 6.0, size=dim - n_inside)
    Q = np.linalg.qr(gen.standard_normal((dim, dim)))[0]
    return (Q * np.concatenate([inside, outside])) @ Q.T


def random_unit_symmetric(gen, dim: int) -> np.ndarray:
    """Random symmetric direction of unit spectral norm."""
    S = gen.standard_normal((dim, dim))
    S = 0.5 * (S + S.T)
    return S / np.linalg.norm(S, 2)


@dataclass(frozen=True)
class PiMapReport:
    """Compression of an operator onto a frozen eigencluster frame."""

    projector: np.ndarray
    pi: np.ndarray
    sigma_match_defect: float
    identity_deviation: float
    projector_idempotency: float


def pi_map(Aq: np.ndarray, cluster: EigenCluster, nodes: int = 64) -> PiMapReport:
    """Symmetric compression pi(q) of the matrix A(q) onto the cluster frame.

    pi(q) = S^{-1/2} V' A(q) V S^{-1/2} with V the projected frame
    P_gamma(q) U0 and S its Gram matrix, so the spectrum of pi(q) equals
    the spectrum of A(q) inside the contour.  That check and |P P - P| go
    per component of A(q) != 0; one component gives the dense values.
    """
    U0 = cluster.vectors
    k = U0.shape[1]
    Aq = np.asarray(Aq, dtype=float)
    P = spectral_projector(Aq, cluster.center, cluster.radius, nodes)
    tr = float(np.trace(P))
    if abs(tr - k) > 1e-6:
        raise ClusterLeakage(f"projector rank {tr:.6f} != cluster size {k}")
    V = P @ U0
    S = V.T @ V
    Sinv_half = matrix_inv_sqrt(S)
    pi = Sinv_half @ (V.T @ Aq @ V) @ Sinv_half
    pi = 0.5 * (pi + pi.T)

    blocks = [np.ix_(idx, idx) for idx in _components(Aq != 0)]
    vals_pi = np.sort(np.linalg.eigvalsh(pi))
    vals_A = np.concatenate([np.linalg.eigvalsh(Aq[ix]) for ix in blocks])
    inside = np.sort(vals_A[np.abs(vals_A - cluster.center) < cluster.radius])
    if len(inside) != k:
        raise ClusterLeakage(f"{len(inside)} eigenvalues inside contour, cluster size {k}")
    sigma_defect = float(np.max(np.abs(vals_pi - inside)))
    idempotency = math.hypot(*(np.linalg.norm(Pb @ Pb - Pb) for Pb in (P[ix] for ix in blocks)))

    return PiMapReport(
        projector=P,
        pi=pi,
        sigma_match_defect=sigma_defect,
        identity_deviation=splitting_certificate(pi),
        projector_idempotency=float(idempotency),
    )


def pi_derivative(DA_h: np.ndarray, eigenbasis: np.ndarray) -> np.ndarray:
    """First-order compression: entries <DA[h] u_m, u_l> over the cluster basis."""
    U = np.asarray(eigenbasis, dtype=float)
    out = U.T @ np.asarray(DA_h, dtype=float) @ U
    return 0.5 * (out + out.T)


def splitting_certificate(pi_prime: np.ndarray) -> float:
    """Frobenius distance of pi_prime from multiples of the identity.

    Strictly positive values certify a direction that splits the cluster.
    """
    P = np.asarray(pi_prime, dtype=float)
    k = P.shape[0]
    return float(np.linalg.norm(P - (np.trace(P) / k) * np.eye(k)))
