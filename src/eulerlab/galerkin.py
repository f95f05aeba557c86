"""Fourier-Galerkin discretization of the curl-type operator on 1-forms.

The operator star_g d is discretized as a symmetric matrix pencil (B, M):
B_ij = integral of e_i ^ d(e_j) is metric-independent and exact in closed
form, M(g)_ij = <e_i, e_j>_g is a quadrature on one grid per basis, above
the Nyquist bound of every integrand.  Every D x D matrix is a BlockMatrix,
zero outside diagonal blocks, and none is ever dense.  The partition is
found before assembly, from the support of the six weight DFTs and B's
cos/sin pairs (16 blocks of at most 96, 6.9% of D^2, at K = 3 and eps !=
0; 183 of at most 6 at eps = 0), and kept on the basis with its gather
indices as a quadrature plan, looked up by support; supports of one
partition share a plan.  `form_basis(K)` is one basis per K per process,
so a K = 3 sweep builds five partitions and two sets of gather indices
once, and every later sweep none.  It also keeps each metric family's
base pencil (weakly keyed, read-only): M0, dM, and A(0) with dA, each
built on first use, so a later sweep, `pi-map` galerkin run or criterion
8 assembles only its eps != 0 members.  M, dM and B are
gathered onto it, and the pencil, A = M^{-1/2} B M^{-1/2}, A(0) with its
exact derivative (on the joint parts of M and dM), A's cluster and the
contour projector keep it.  One windowed LAPACK call per block (?sygvx,
or ?syevr for a matrix) selects the eigenvalues in a window and their
vectors, on only the pencil blocks that M's flat bounds leave one by
inertia (42 of 375 in a K = 3 sweep); the projector goes only on blocks
with one inside its circle, tridiagonalized once, at half the nodes.

Eigenvalue clusters are tracked along metric families; one sweep gives
their first-order splitting by finite differences, the pencil formula and
the variation pairing.  The compression map reduces A(q) near a cluster
to a small symmetric matrix with the same nearby spectrum; its
first-order term is the exact dA compressed onto the cluster.  Closed
forms span a large kernel of B; windows exclude it rather than
constructing a coexact complement, since coexactness is metric-dependent.
"""

from __future__ import annotations

import functools
import itertools
import math
import weakref
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla

from .contact import (
    MetricFamily,
    MetricField,
    VariationTensor,
    positive_inverse,
)
from .errors import (
    ClusterLeakage,
    DegenerateDirection,
    IllConditionedContour,
    MemoryBudgetExceeded,
    NotPositiveDefinite,
    WindowTouchesSpectrum,
)
from .spectral import TWO_PI, VOLUME, SpectralVectorField

_EPS3 = np.zeros((3, 3, 3))
for _i, _j, _k, _s in [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                       (0, 2, 1, -1), (2, 1, 0, -1), (1, 0, 2, -1)]:
    _EPS3[_i, _j, _k] = _s

# most bytes of a basis's gather indices, the first allocation that fails
# at large K: 16 (h + 1)^2 admits K <= 8 (97 MB) and refuses K = 9 (188 MB)
MAX_GATHER_BYTES = 2 ** 27


class FormBasis:
    """Realified trig 1-form basis: (cos|sin)(k.x) dx_slot, |k|_inf <= K.

    `half_lattice` is the (h, 3) int array of the lexicographically positive
    wave vectors with |k|_inf <= K, in ascending lexicographic order.
    Element i of the basis is scalar j = i % n_scalar in slot i // n_scalar:
    scalar 0 is the constant, scalars 2r + 1 and 2r + 2 are the cos and sin
    of half_lattice[r].  Elements are L2-orthogonal under the flat metric
    with squared norms (2*pi)^3 for constants and (2*pi)^3 / 2 otherwise.
    `plans` maps each weight-DFT support met, packed, to its quadrature plan
    (`_block_quadrature`), and `pencils` each metric family met, weakly, to
    its base pencil on this basis (`_kept`).  MemoryBudgetExceeded when its
    gather indices would pass MAX_GATHER_BYTES.  `form_basis(K)` is the one
    per process.
    """

    def __init__(self, K: int):
        if K < 1:
            raise ValueError("K must be at least 1")
        gather_bytes = 16 * (((2 * K + 1) ** 3 - 1) // 2 + 1) ** 2
        if gather_bytes > MAX_GATHER_BYTES:
            raise MemoryBudgetExceeded(
                f"the gather indices of K = {K} need an estimated {gather_bytes:.3g} bytes, "
                f"over the ceiling of {MAX_GATHER_BYTES:.3g}")
        self.K = K
        n = 2 * K + 1
        # the cube in lexicographic order; the vectors after k = 0 are the positive ones
        cube = np.indices((n, n, n)).reshape(3, -1).T - K
        self.half_lattice = cube[n ** 3 // 2 + 1:]
        self.n_scalar = 1 + 2 * len(self.half_lattice)
        self.dimension = 3 * self.n_scalar
        # the nodes^3 grid of every matrix on this basis: above the Nyquist bound
        # 2K + d + 1 of each weight degree d it meets (the base metric's 2, dM's 6
        # and the family members' hint 12), so M, dM and M0 share its gather indices
        self.nodes = 2 * K + 13
        self.plans = {}
        self.pencils = weakref.WeakKeyDictionary()

    @functools.cached_property
    def gather_indices(self):
        """Indices of k_v + k_w and k_v - k_w (mod nodes) into a flattened
        nodes^3 DFT array, one (h + 1, h + 1) array each over the wave
        vectors v, w of k = 0 and the half lattice; scalar j has wave (j + 1) // 2."""
        kk = np.concatenate([np.zeros((1, 3), dtype=np.int64), self.half_lattice])

        def flat(sign):  # one coordinate at a time: no (h + 1, h + 1, 3) temporaries
            out = np.zeros((len(kk), len(kk)), dtype=np.int64)
            for c in range(3):
                out *= self.nodes
                out += (kk[:, None, c] + sign * kk[None, :, c]) % self.nodes
            return out

        return flat(1), flat(-1)

    @functools.cached_property
    def _exterior_entries(self):
        """Rows, columns and values of B's nonzeros, read-only: cos(k.x) dx_a
        couples to sin(k.x) dx_b, a != b, by eps_acb k_c (2*pi)^3 / 2 where
        k_c != 0, and back by its negative."""
        S = self.n_scalar
        cos = 1 + 2 * np.arange(len(self.half_lattice))
        rows, cols, vals = [], [], []
        for a, b in itertools.permutations(range(3), 2):
            val = _EPS3[a, 3 - a - b, b] * self.half_lattice[:, 3 - a - b] * (0.5 * VOLUME)
            rows += [a * S + cos, a * S + cos + 1]
            cols += [b * S + cos + 1, b * S + cos]
            vals += [val, -val]
        rows, cols, vals = map(np.concatenate, (rows, cols, vals))
        entries = rows[vals != 0], cols[vals != 0], vals[vals != 0]
        for a in entries:
            a.flags.writeable = False
        return entries

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


@functools.cache
def form_basis(K: int) -> FormBasis:
    """The basis of truncation K for this process, with its plans: the basis is fixed."""
    return FormBasis(K)


def _take(x, idx, axis):
    """x at idx along axis, laid out as x: with every index, products are bitwise x's."""
    shape = list(x.shape)
    shape[axis] = len(idx)
    return np.take(x, idx, axis=axis, out=np.empty_like(x, shape=shape))


@dataclass(frozen=True)
class BlockMatrix:
    """D x D matrix that is zero outside its diagonal blocks.

    `parts` are ascending index arrays that partition range(D), `blocks` the
    matrices on them; `A @ x` and `x @ A` of one block are the dense products.
    `flat_bounds`, M's only: c1, c2 and each element's |k| and block (`assemble_mass`).
    """

    parts: tuple
    blocks: tuple
    flat_bounds: tuple | None = None
    __array_ufunc__ = None  # ndarray @ BlockMatrix calls __rmatmul__

    @classmethod
    def one_block(cls, A):
        """A dense square matrix as a single block."""
        A = np.asarray(A, dtype=float)
        return cls((np.arange(len(A)),), (A,))

    @property
    def shape(self):
        return (sum(map(len, self.parts)),) * 2

    @functools.cached_property
    def spectra(self):
        """Each symmetric block's eigenvalues, ascending, taken once: blocks do not change."""
        return [np.linalg.eigvalsh(block) for block in self.blocks]

    def __matmul__(self, x):
        out = np.empty(np.shape(x))
        for idx, block in zip(self.parts, self.blocks):
            out[idx] = block @ _take(x, idx, 0)
        return out

    def __rmatmul__(self, x):
        out = np.empty(np.shape(x))
        for idx, block in zip(self.parts, self.blocks):
            out[..., idx] = _take(x, idx, -1) @ block
        return out


def _positions(parts):
    """The part of each index and its position in that part."""
    part, pos = np.empty((2, sum(map(len, parts))), dtype=int)
    for c, idx in enumerate(parts):
        part[idx], pos[idx] = c, np.arange(len(idx))
    return part, pos


def assemble_exterior(basis: FormBasis, parts) -> BlockMatrix:
    """Exact matrix B_ij = integral of e_i ^ d(e_j) on the blocks of `parts`:
    its nonzero entries scattered into zero blocks, so the others are +0.0.
    ValueError if `parts` split a coupled pair (`_block_quadrature`'s never do)."""
    rows, cols, vals = basis._exterior_entries
    part, pos = _positions(parts)
    if np.any(part[rows] != part[cols]):
        raise ValueError("the parts split a coupled pair of B")
    sizes = np.array([len(idx) for idx in parts])
    start = np.cumsum(sizes ** 2) - sizes ** 2
    flat = np.zeros(sizes @ sizes)
    flat[start[part[rows]] + pos[rows] * sizes[part[rows]] + pos[cols]] = vals
    blocks = (flat[s:s + n * n].reshape(n, n) for s, n in zip(start, sizes))
    return BlockMatrix(tuple(parts), tuple(blocks))


def _partition(D: int, rows, cols) -> list:
    """Ascending index arrays of the connected components of the graph on
    range(D) with the edges rows[e] ~ cols[e], ordered by their first index.

    Each vertex points at a smaller or equal vertex of its component (at
    first itself).  Every round hooks the larger root of each edge whose
    ends have different roots onto the smaller, then jumps pointers until
    each vertex points at a root; when no edge joins two roots, every
    vertex points at the smallest vertex of its component."""
    label = np.arange(D)
    while True:
        lr, lc = label[rows], label[cols]
        if np.array_equal(lr, lc):
            break
        np.minimum.at(label, np.maximum(lr, lc), np.minimum(lr, lc))
        while not np.array_equal(jumped := label[label], label):
            label = jumped
    order = np.argsort(label, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(label[order])) + 1)


# slot pairs (a, b), a <= b, of the six weight DFTs, and the DFT that (a, b) reads
_SLOT_PAIRS = [(a, b) for a in range(3) for b in range(a, 3)]
_PAIR_OF = np.zeros((3, 3), dtype=np.int64)
for _p, (_a, _b) in enumerate(_SLOT_PAIRS):
    _PAIR_OF[_a, _b] = _PAIR_OF[_b, _a] = _p


def _links(basis: FormBasis, support):
    """Rows and columns of the edges that join basis elements into blocks:
    wave v of slot a links both its scalars to those of wave w of slot b
    where the support of their slot pair's DFT has k_v + k_w or k_v - k_w,
    a wave with any link joins its own cos and sin, and B's nonzeros."""
    S = basis.n_scalar
    plus, minus = basis.gather_indices
    cos = np.maximum(2 * np.arange(len(plus)) - 1, 0)
    rows, cols, linked = [], [], np.zeros((3, len(plus)), dtype=bool)
    for p, (a, b) in enumerate(_SLOT_PAIRS):
        v, w = np.nonzero(support[p][plus] | support[p][minus])
        rows.append(a * S + cos[v])
        cols.append(b * S + cos[w])
        linked[a, v] = linked[b, w] = True
    a, v = np.nonzero(linked[:, 1:])
    b_rows, b_cols, _ = basis._exterior_entries
    return (np.concatenate(rows + [a * S + 2 * v + 1, b_rows]),
            np.concatenate(cols + [a * S + 2 * v + 2, b_cols]))


@dataclass(frozen=True)
class _QuadraturePlan:
    """What `_block_quadrature` derives from a partition of the basis: the
    parts, each entry's two terms (int32 indices into the real view of the
    DFTs, int8 signs), each block's offset, the (start, stop, size) of each run
    of blocks of one size, and each element's |k| and block."""

    parts: tuple
    gathers: tuple
    offsets: np.ndarray
    runs: tuple
    waves: tuple


def _quadrature_plan(basis: FormBasis, parts) -> _QuadraturePlan:
    plus, minus = basis.gather_indices
    slot, j = np.divmod(np.arange(basis.dimension), basis.n_scalar)
    state, wave = 2 * slot + ((j > 0) & (j % 2 == 0)), (j + 1) // 2  # slot and whether a sine
    # u = 1 or -i: Re(u_i u_j F) is Re F, Im F with one sine, -Re F with two;
    # Re(u_i conj(u_j) F) is Re F, -Im F where only j is a sine, Im F where only i is
    a, b = np.arange(6)[:, None], np.arange(6)  # the term and signs of each pair of states
    term = (2 * basis.nodes ** 3 * _PAIR_OF[a // 2, b // 2] + (a % 2 ^ b % 2)).ravel()
    sign = 1 - 2 * np.array([a % 2 & b % 2, (1 - a % 2) & b % 2], dtype=np.int8).reshape(2, -1)
    sizes = np.array([len(idx) for idx in parts])
    order, runs = np.argsort(sizes, kind="stable"), []
    offsets = (np.cumsum(sizes[order] ** 2) - sizes[order] ** 2)[np.argsort(order)]
    gathers, signs = np.empty((2, sizes @ sizes), np.int32), np.empty((2, sizes @ sizes), np.int8)
    for m in np.unique(sizes):  # about 2^14 entries at a time
        same, step = np.flatnonzero(sizes == m), max(1, 2 ** 14 // (m * m))
        runs.append((offsets[same[0]], offsets[same[0]] + len(same) * m * m, m))
        for c in range(0, len(same), step):
            idx = np.array([parts[p] for p in same[c:c + step]])
            at = slice(offsets[same[c]], offsets[same[c]] + idx.size * m)
            pairs, w = (6 * state[idx][..., None] + state[idx][:, None]).ravel(), wave[idx]
            gathers[0, at] = 2 * plus[w[..., None], w[:, None]].ravel() + term[pairs]
            gathers[1, at] = 2 * minus[w[..., None], w[:, None]].ravel() + term[pairs]
            signs[:, at] = np.take(sign, pairs, axis=1)
    norms = np.linalg.norm(np.concatenate([np.zeros((1, 3)), basis.half_lattice]), axis=1)[wave]
    return _QuadraturePlan(tuple(parts), (*gathers, *signs), offsets, tuple(runs),
                           (norms, _positions(parts)[0]))


def _weight_dfts(weights, n):
    """The (6, n^3) stack conj(fftn(W_ab)): n delta(m) along each axis where W is constant."""
    axes = tuple(a for a in range(3) if weights.shape[a] == n)
    plane = tuple(slice(None) if a in axes else slice(1) for a in range(3))
    F = np.zeros((len(_SLOT_PAIRS), n, n, n), dtype=complex)
    for p, (a, b) in enumerate(_SLOT_PAIRS):
        F[p][plane] = np.fft.fftn(weights[..., a, b] * n ** (3 - len(axes)), axes=axes).conj()
    return F.reshape(len(_SLOT_PAIRS), -1)


def _block_quadrature(basis: FormBasis, weights: np.ndarray):
    """Symmetric matrix of integrals W_ab(x) e_i(x) e_j(x) over the basis grid,
    and the plan it was gathered by.

    `weights` is a symmetric 3x3 weight W per point of `uniform_grid`,
    quadrature weight included, given on a sub-grid (`contact._on_grid`)
    that broadcasts to (nodes, nodes, nodes, 3, 3); the slot pair (a, b) of
    e_i, e_j picks its entry.  The grid sum of W e^{i m.x} over all nodes^3
    points is F(m) = conj(fftn(W))[m mod nodes]; along an axis where W is
    constant it is nodes delta(m), so `_weight_dfts` transforms each entry
    only along the axes its sub-grid spans.  With the
    scalars written as Re(u e^{i k.x}), u = 1 for cos and -i for sin, the
    product-to-sum rules give the same discrete sum, aliasing included, as
    M_ij = Re(u_i u_j F(k_i + k_j) + u_i conj(u_j) F(k_i - k_j)) / 2.
    So |M_ij| <= max(|F(k_i + k_j)|, |F(k_i - k_j)|); the blocks are the
    components of the graph that links e_i ~ e_j where either exceeds
    1e-12 max|F| = 1e-12 max_a F_aa(0) (a diagonal entry of M, W being
    positive definite), or where B_ij != 0 (`_links`), and only entries
    inside them are gathered.

    The partition and the gathers depend on the weights only through that
    support, so the basis keeps a plan (`_QuadraturePlan`) per support it
    has met, and a new support of a known partition shares that plan.
    """
    F = _weight_dfts(weights, basis.nodes)
    magnitude = np.abs(F)
    support = magnitude > 1e-12 * np.max(magnitude)
    key = np.packbits(support).tobytes()
    plan = basis.plans.get(key)
    if plan is None:
        parts = _partition(basis.dimension, *_links(basis, support))
        known = (p for p in basis.plans.values()
                 if len(p.parts) == len(parts) and all(map(np.array_equal, parts, p.parts)))
        plan = basis.plans[key] = next(known, None) or _quadrature_plan(basis, parts)

    G, (plus, minus, plus_sign, minus_sign) = F.view(float).ravel(), plan.gathers
    flat = 0.5 * (G[plus] * plus_sign + G[minus] * minus_sign)
    for start, stop, m in plan.runs:  # the blocks of one size symmetrized as one stack
        half = flat[start:stop].reshape(-1, m, m)
        flat[start:stop] = (0.5 * (half + half.transpose(0, 2, 1))).ravel()
    return BlockMatrix(plan.parts, tuple(flat[o:o + len(idx) ** 2].reshape(len(idx), -1)
                                         for idx, o in zip(plan.parts, plan.offsets))), plan


def _volume_weights(det, nodes):
    """sqrt(det g) times the cell weight (2*pi / nodes)^3 of uniform_grid.  Raises
    NotPositiveDefinite before the square root where some det <= 0: a
    member at a huge eps can pass the positivity guard on rounding noise."""
    if not np.all(det > 0.0):
        raise NotPositiveDefinite(
            f"metric not positive definite: determinant {np.min(det):.3e} on the quadrature grid")
    return np.sqrt(det) * (TWO_PI / nodes) ** 3


def assemble_mass(metric: MetricField, basis: FormBasis) -> BlockMatrix:
    """Mass matrix M_ij = integral of g(e_i#, e_j#) vol_g by quadrature on
    the basis grid, on the blocks of `_block_quadrature`, with its flat bounds:
    M sums q W(x)(e_i(x), e_j(x)), W = sqrt(det g) g^{-1}, over the grid, so
    c1 D <= M <= c2 D for the flat Gram matrix D (diagonal, exact here) with
    c1, c2 Gershgorin's bounds of W's spectrum, widened by a relative 1e-9.
    Raises NotPositiveDefinite when the metric fails positivity or has a
    determinant <= 0 on the quadrature grid.
    """
    Ginv, det = positive_inverse(metric.grid_matrix(basis.nodes), "the quadrature grid")
    W = Ginv * _volume_weights(det, basis.nodes)[..., None, None]
    (M, plan), rows = _block_quadrature(basis, W), np.sum(np.abs(W), -1)
    q = (TWO_PI / basis.nodes) ** 3
    c1, c2 = np.min(2 * np.diagonal(W, axis1=-2, axis2=-1) - rows) / q, np.max(rows) / q
    return replace(M, flat_bounds=(c1 * (1 - 1e-9), c2 * (1 + 1e-9), *plan.waves))


def mass_derivative(metric: MetricField, h: VariationTensor, basis: FormBasis) -> BlockMatrix:
    """Exact first-order mass matrix along the variation tensor h.

    dM_ij = -integral of [h(e_i#, e_j#) - Tr_g(h) g(e_i#, e_j#)/2] vol_g.
    Raises NotPositiveDefinite as assemble_mass does.
    """
    Ginv, det = positive_inverse(metric.grid_matrix(basis.nodes), "the quadrature grid")
    H = h.entries_on_grid(basis.nodes)
    HS = Ginv @ H @ Ginv
    tr = np.einsum("...ij,...ij->...", Ginv, H)
    core = -HS + 0.5 * tr[..., None, None] * Ginv
    return _block_quadrature(basis, core * _volume_weights(det, basis.nodes)[..., None, None])[0]


def _kept(family: MetricFamily, basis: FormBasis, name, build):
    """Entry `name` of the family's base pencil on the basis: `build()` on
    first use, its blocks made read-only and kept for the family's lifetime
    (a family and its basis fix it); a build that raises keeps nothing."""
    if name not in basis.pencils.get(family, ()):
        matrices = build()  # may keep other entries first
        for matrix in matrices if isinstance(matrices, tuple) else (matrices,):
            for block in matrix.blocks:
                block.flags.writeable = False
        basis.pencils.setdefault(family, {})[name] = matrices
    return basis.pencils[family][name]


def base_mass(family: MetricFamily, basis: FormBasis) -> BlockMatrix:
    """M0 = M(g_0) of the family, assembled once per family and basis."""
    return _kept(family, basis, "M0", lambda: assemble_mass(family.member(0.0), basis))


def base_mass_derivative(family: MetricFamily, basis: FormBasis) -> BlockMatrix:
    """dM at g_0 along the family's variation, built once per family and basis."""
    return _kept(family, basis, "dM",
                 lambda: mass_derivative(family.member(0.0), family.variation, basis))


@dataclass(frozen=True)
class EigenCluster:
    """Eigenpairs inside a window, vectors as columns: M-orthonormal for the
    pencil (solve_pencil), orthonormal for a symmetric matrix (matrix_cluster)."""

    center: float
    radius: float
    eigenvalues: np.ndarray
    vectors: np.ndarray
    blocks: tuple  # (solved by LAPACK, all) to find them

    @property
    def multiplicity(self):
        return len(self.eigenvalues)


def _block_eigh(A: BlockMatrix, M: BlockMatrix | None, window):
    """Eigenpairs of A, or of the pencil (A, M), by blocks: one LAPACK call
    per block, ?syevr for a matrix and ?sygvx for the pencil, selects the
    eigenvalues in (lo - 2e-8, hi + 2e-8] and computes their vectors, so
    solve_pencil sees every eigenvalue within 1e-8 of an edge.  Given M's flat
    bounds c1 D <= M <= c2 D, c1 > 0, inertia and Weyl's monotonicity leave a
    block no more eigenvalues in (a, b] than its flat ones {0, +-|k|} in
    (min(c1 a, c2 a), max(c1 b, c2 b)] (Parlett, The Symmetric Eigenvalue
    Problem, ch. 3, 15); a block with none there, if that excludes 0, is only
    checked finite.  Raises LinAlgError where LAPACK fails, as for an M block
    that is not positive definite.  Returns the selected eigenvalues (block
    order), the indices of those inside the open window in a stable ascending
    sort, their vectors at full length and the blocks (solved, all)."""
    lo, hi = window[0] - 2e-8, window[1] + 2e-8
    solve = np.ones(len(A.parts), dtype=bool)
    if getattr(M, "flat_bounds", None) and M.flat_bounds[0] > 0 and lo * hi > 0:
        c1, c2, norms, label = M.flat_bounds  # c2 >= c1 > 0: the scaled window misses 0
        near = (norms >= c1 * min(abs(lo), abs(hi))) & (norms <= c2 * max(abs(lo), abs(hi)))
        solve = np.bincount(label, near, len(A.parts)) > 0
    solved, Ms = [], itertools.repeat(None) if M is None else map(np.asarray_chkfinite, M.blocks)
    for idx, Ab, Mb, s in zip(A.parts, map(np.asarray_chkfinite, A.blocks), Ms, solve):
        if not s:
            continue
        w, vecs, m, _, info = (sla.lapack.dsyevr(Ab, range="V", vl=lo, vu=hi) if Mb is None else
                               sla.lapack.dsygvx(Ab, Mb, range="V", vl=lo, vu=hi))
        if info:
            raise np.linalg.LinAlgError(f"windowed eigensolve of a block of {len(idx)} failed: "
                                        f"LAPACK info {info}")
        solved.append((idx, w[:m], vecs[:, :m]))
    vals = np.concatenate([w for _, w, _ in solved] + [np.empty(0)])
    keep = np.flatnonzero((vals > window[0]) & (vals < window[1]))
    keep = keep[np.argsort(vals[keep], kind="stable")]
    columns = [(idx, vec) for idx, _, vecs in solved for vec in vecs.T]
    # column-major like LAPACK's vectors: one block stays bitwise its dense windowed solve
    vectors = np.zeros((A.shape[0], len(keep)), order="F")
    for col, (rows, vec) in enumerate(columns[t] for t in keep):
        vectors[rows, col] = vec
    return vals, keep, vectors, (int(np.count_nonzero(solve)), len(solve))


def solve_pencil(B: BlockMatrix, M: BlockMatrix, window) -> EigenCluster:
    """Generalized symmetric eigensolve; returns the pairs inside (lo, hi).

    B and M are on the same parts; `_block_eigh` makes one windowed LAPACK
    call (?sygvx) per block that M's flat bounds do not rule out, so a pencil
    of one block gets exactly the dense windowed solve and the check below
    sees every eigenvalue within 1e-8 of an edge.

    Raises WindowTouchesSpectrum when any eigenvalue sits within 1e-8 of a
    window endpoint (the window no longer isolates a cluster).
    """
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError("window must be an increasing interval")
    vals, keep, vectors, solved = _block_eigh(B, M, (lo, hi))
    if np.any(np.abs(vals - lo) < 1e-8) or np.any(np.abs(vals - hi) < 1e-8):
        raise WindowTouchesSpectrum(f"eigenvalue within 1e-8 of window ({lo}, {hi})")
    return EigenCluster(0.5 * (lo + hi), 0.5 * (hi - lo), vals[keep], vectors, solved)


@dataclass(frozen=True)
class SplittingCurves:
    """Eigenvalue curves of the pencil along the metric family, and the
    first-order splitting of its cluster by three routes."""

    epsilons: np.ndarray
    curves: np.ndarray          # (n_eps, k), sorted per epsilon
    alpha_curve: np.ndarray     # eigenvalue matched to the contact form
    alpha_residuals: np.ndarray
    pairing_matrix: np.ndarray  # k x k first-order matrix from the variation pairing
    pairing_eigenvalues: np.ndarray
    pencil_matrix: np.ndarray   # -lambda0 U0' dM U0 over the base cluster
    pencil_eigenvalues: np.ndarray
    fd_slopes: np.ndarray       # Richardson-extrapolated sorted slopes at 0
    fit_slopes: np.ndarray      # least-squares slope of each sorted curve
    alpha_routes: tuple         # (central FD slope, pencil slope) of the contact form
    beta_routes: tuple          # the same for the perturbing form
    pencil_blocks: tuple        # (solved by LAPACK, total) over the sweep's pencils

    def slope_gap(self):
        return float(np.max(self.fit_slopes) - np.min(self.fit_slopes))


def _match_by_overlap(cluster: EigenCluster, m_target) -> float:
    """The eigenvalue whose vector overlaps most with a target, given as M @ target."""
    overlaps = cluster.vectors.T @ m_target
    return float(cluster.eigenvalues[int(np.argmax(np.abs(overlaps)))])


# one-sided finite-difference levels of the splitting sweep; the central
# slopes of the two forms use the middle one and its half
SPLIT_FD_LEVELS = (0.04, 0.02, 0.01)


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


def track_splitting(family: MetricFamily, epsilons, window, K: int) -> SplittingCurves:
    """Eigenvalue curves of (B, M(g_eps)) near the cluster inside the window,
    at eps = 0 and the given epsilons.

    The family's contact form alpha and perturbing form beta are matched
    to an eigenvalue by eigenvector overlap at every epsilon.  The slopes
    at 0 come by three routes: finite differences of the sorted curves, the
    eigenvalues of the pencil matrix -lambda0 U0' dM U0 over the
    M-orthonormal base cluster U0, and those of the variation pairing of
    U0.  Each form gets its central-difference slope and its pencil slope
    -lambda0 u' dM u / u' M0 u; DegenerateDirection if it is not in the
    base cluster or not an eigenvector of the pencil matrix, where its
    slope is not defined.  M0 and dM are the family's kept ones
    (`base_mass`, `base_mass_derivative`), so a later sweep builds neither.
    """
    from .contact import variation_pairing

    basis = form_basis(K)
    lam0 = family.contact.lambda0
    vectors = [basis.form_to_vector(f) for f in (family.contact.alpha, family.beta)]

    eps_list = sorted(set(float(e) for e in epsilons) | {0.0})
    solve_at = sorted(set(eps_list) | {s * e for e in SPLIT_FD_LEVELS for s in (1.0, -1.0)})

    # per epsilon: the cluster, the eigenvalues matched to alpha and beta, and
    # the relative residual of alpha; only the kept base mass outlives its solve
    clusters, matched, alpha_residuals = {}, {}, {}
    for eps in solve_at:
        M = base_mass(family, basis) if eps == 0.0 else assemble_mass(family.member(eps), basis)
        B = assemble_exterior(basis, M.parts)
        clusters[eps] = solve_pencil(B, M, window)
        m_forms = [M @ u for u in vectors]
        matched[eps] = np.array([_match_by_overlap(clusters[eps], m) for m in m_forms])
        r = B @ vectors[0] - lam0 * m_forms[0]
        alpha_residuals[eps] = float(np.linalg.norm(r) / np.linalg.norm(m_forms[0]))
    del M, B  # the last pencil goes before dM is built
    k = clusters[0.0].multiplicity
    for eps in solve_at:
        if clusters[eps].multiplicity != k:
            raise ClusterLeakage(
                f"cluster size changed from {k} to {clusters[eps].multiplicity} at eps={eps}"
            )

    curves = np.array([np.sort(clusters[e].eigenvalues) for e in eps_list])

    base = clusters[0.0]
    U0 = base.vectors
    Pi = variation_pairing([basis.vector_to_form(U0[:, i]) for i in range(k)],
                           family.variation, family.base, lam0)
    dM = base_mass_derivative(family, basis)
    pencil = -lam0 * (U0.T @ (dM @ U0))

    fd_forms = central_derivative(lambda e: matched[e], 0.0, SPLIT_FD_LEVELS[1])
    M0 = base_mass(family, basis)
    routes = []
    for u, fd in zip(vectors, fd_forms):
        u = u / math.sqrt(float(u @ (M0 @ u)))
        coeff = U0.T @ (M0 @ u)
        if abs(float(coeff @ coeff) - 1.0) > 1e-8:
            raise DegenerateDirection("form does not lie in the cluster at eps = 0")
        resid = pencil @ coeff - (coeff @ pencil @ coeff) * coeff
        if np.linalg.norm(resid) > 1e-8 * max(1.0, np.linalg.norm(pencil)):
            raise DegenerateDirection("form is not an eigenvector of the pencil matrix")
        routes.append((float(fd), -lam0 * float(u @ (dM @ u))))

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
        alpha_curve=np.array([matched[e][0] for e in eps_list]),
        alpha_residuals=np.array([alpha_residuals[e] for e in eps_list]),
        pairing_matrix=Pi,
        pairing_eigenvalues=np.sort(np.linalg.eigvalsh(Pi)),
        pencil_matrix=pencil,
        pencil_eigenvalues=np.sort(np.linalg.eigvalsh(pencil)),
        fd_slopes=np.sort(fd),
        fit_slopes=fit,
        alpha_routes=routes[0],
        beta_routes=routes[1],
        pencil_blocks=tuple(map(sum, zip(*(c.blocks for c in clusters.values())))),
    )


# ---------------------------------------------------------------------------
# contour projector and cluster compression


def spectral_projector(A: BlockMatrix, center: float, radius: float,
                       nodes: int = 64) -> BlockMatrix:
    """Contour projector (1/2*pi*i) oint (z - A)^{-1} dz on a circle, on A's parts.

    Trapezoidal quadrature converges exponentially for resolvents that are
    analytic near the contour; a Frobenius-norm guard flags eigenvalues
    within about 1e-6 * radius of the circle (conservatively).  A is real
    symmetric, so R(conj z) = conj R(z) and the nodes at theta and
    2*pi - theta contribute complex conjugates: only nodes j <= nodes/2 are
    solved, each but j = 0 and j = nodes/2 counted twice in the real part.
    Blocks without an eigenvalue inside get an exact zero and enter the
    guard by their eigenvalues, as the 1/|z - lambda|^2 terms of the norm.
    The others are reduced once to tridiagonal T = Q' A_b Q (Golub and Van
    Loan, 8.3): each node solves z - T, whose inverse has the norm of (z - A_b)^{-1}.
    """
    inside = [bool(np.any(np.abs(w - center) < radius)) for w in A.spectra]
    skipped = np.concatenate([w for w, s in zip(A.spectra, inside) if not s] + [np.empty(0)])
    solved = []  # per block with an eigenvalue inside: Q, the three diagonals of -T, I and P_T
    for Ab in itertools.compress(A.blocks, inside):
        T, Q = sla.hessenberg(Ab, calc_q=True)
        # f2py takes no empty off-diagonal; zgtsv reads none when len(T) = 1
        dl, du = (-np.diag(T, k).astype(complex) if len(T) > 1 else np.zeros(1, complex)
                  for k in (-1, 1))
        diagonals = (dl, -np.diag(T).astype(complex), du)
        solved.append((Q, diagonals, np.eye(len(T), dtype=complex), np.zeros(T.shape)))
    guard = 1e6 / radius
    for j in range(nodes // 2 + 1):
        theta = TWO_PI * j / nodes
        z = center + radius * np.exp(1j * theta)
        # LAPACK zgtsv on z - T: (sub, main, super diagonal, right-hand sides) -> (..., X, info)
        solves = [sla.lapack.zgtsv(dl, z + d, du, eye) for _, (dl, d, du), eye, _ in solved]
        if any(info for *_, info in solves):
            raise IllConditionedContour(f"resolvent singular at node {j}")
        resolvents = [X for *_, X, _ in solves]
        with np.errstate(divide="ignore"):
            norm = math.hypot(*map(np.linalg.norm, resolvents), *(1.0 / np.abs(z - skipped)))
        if norm > guard:
            raise IllConditionedContour(
                f"resolvent norm exceeds {guard:.2e} at node {j}; eigenvalue near contour"
            )
        weight = 1.0 if j == 0 or 2 * j == nodes else 2.0
        for (_, _, _, PT), R in zip(solved, resolvents):
            PT += ((weight * radius / nodes) * np.exp(1j * theta) * R).real
    P = iter(Q @ PT @ Q.T for Q, _, _, PT in solved)
    P = [next(P) if s else np.zeros(Ab.shape) for Ab, s in zip(A.blocks, inside)]
    return BlockMatrix(A.parts, tuple(0.5 * (Pb + Pb.T) for Pb in P))


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

    Shares the pencil's spectrum with the fixed (Euclidean) inner product
    that the compression machinery expects; on the blocks of M(eps).
    """
    def A_of(eps):
        M = assemble_mass(family.member(eps), basis)
        R = [matrix_inv_sqrt(Mb) for Mb in M.blocks]
        A = [Rb @ Bb @ Rb for Rb, Bb in zip(R, assemble_exterior(basis, M.parts).blocks)]
        return BlockMatrix(M.parts, tuple(0.5 * (Ab + Ab.T) for Ab in A))

    return A_of


def _coarsen(mass: BlockMatrix, parts) -> list:
    """The matrices of `mass` on the blocks of `parts`, each a union of its blocks."""
    part, pos = _positions(parts)
    out = [np.zeros((len(idx), len(idx))) for idx in parts]
    for idx, block in zip(mass.parts, mass.blocks):
        out[part[idx[0]]][np.ix_(pos[idx], pos[idx])] = block
    return out


def pencil_operator_derivative(family: MetricFamily, basis: FormBasis):
    """A(0) of pencil_operator_family and its exact derivative dA(0) =
    dR B R + R B dR, R = M0^{-1/2}, both from one eigh per block of M0.

    In each block's eigenbasis M0 = V diag(s^2) V', R = V diag(1/s) V' and
    dR, the Frechet derivative of M^{-1/2} along dM = mass_derivative, is
    the Daleckii-Krein form V (L * V' dM V) V' with L_ij = -1 / (s_i s_j
    (s_i + s_j)) (N. J. Higham, Functions of Matrices, SIAM 2008, 3.2).
    Both are on the parts that join those of M0 and dM: dM couples blocks
    of M0.  Returns (A0, dA), built once per family and basis, from the
    kept M0 and dM.
    """
    return _kept(family, basis, "A0, dA", lambda: _operator_derivative(
        base_mass(family, basis), base_mass_derivative(family, basis), basis))


def _operator_derivative(M0: BlockMatrix, dM: BlockMatrix, basis: FormBasis):
    chains = [idx for mass in (M0, dM) for idx in mass.parts]
    parts = _partition(basis.dimension, np.concatenate([idx[:-1] for idx in chains]),
                       np.concatenate([idx[1:] for idx in chains]))
    A0, dA = [], []
    B = assemble_exterior(basis, parts).blocks
    for Bb, M0b, dMb in zip(B, _coarsen(M0, parts), _coarsen(dM, parts)):
        vals, V = _positive_eigh(M0b)
        s = np.sqrt(vals)
        L = -1.0 / (np.outer(s, s) * (s[:, None] + s))
        dR = V @ (L * (V.T @ dMb @ V)) @ V.T
        R = (V / s) @ V.T
        A = R @ Bb @ R
        A0.append(0.5 * (A + A.T))
        half = dR @ Bb @ R
        dA.append(half + half.T)  # B and R are symmetric, so R B dR = half'
    return BlockMatrix(tuple(parts), tuple(A0)), BlockMatrix(tuple(parts), tuple(dA))


def matrix_cluster(A: BlockMatrix, center: float, radius: float) -> EigenCluster:
    """Eigenpairs inside (center - radius, center + radius), solved per block
    of A as in solve_pencil; ClusterLeakage if there are none."""
    vals, keep, vectors, solved = _block_eigh(A, None, (center - radius, center + radius))
    if len(keep) == 0:
        raise ClusterLeakage(
            f"no eigenvalue inside window ({center - radius:g}, {center + radius:g})")
    return EigenCluster(float(center), float(radius), vals[keep], vectors, solved)


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

    projector: BlockMatrix
    pi: np.ndarray
    sigma_match_defect: float
    identity_deviation: float
    projector_idempotency: float
    projector_blocks: tuple  # (solved: with an eigenvalue inside, all); the others are zero


def pi_map(Aq: BlockMatrix, cluster: EigenCluster, nodes: int = 64) -> PiMapReport:
    """Symmetric compression pi(q) of the matrix A(q) onto the cluster frame.

    pi(q) = S^{-1/2} V' A(q) V S^{-1/2} with V the projected frame
    P_gamma(q) U0 and S its Gram matrix, so the spectrum of pi(q) equals
    the spectrum of A(q) inside the contour.  That check and |P P - P| go
    per block of A(q); one block gives the dense values.
    """
    U0 = cluster.vectors
    k = U0.shape[1]
    P = spectral_projector(Aq, cluster.center, cluster.radius, nodes)
    tr = float(sum(np.trace(Pb) for Pb in P.blocks))
    if abs(tr - k) > 1e-6:
        raise ClusterLeakage(f"projector rank {tr:.6f} != cluster size {k}")
    V = P @ U0
    S = V.T @ V
    Sinv_half = matrix_inv_sqrt(S)
    pi = Sinv_half @ (V.T @ Aq @ V) @ Sinv_half
    pi = 0.5 * (pi + pi.T)

    vals_pi = np.sort(np.linalg.eigvalsh(pi))
    vals_A = np.concatenate(Aq.spectra)  # the projector's: taken once per matrix
    inside = np.sort(vals_A[np.abs(vals_A - cluster.center) < cluster.radius])
    if len(inside) != k:
        raise ClusterLeakage(f"{len(inside)} eigenvalues inside contour, cluster size {k}")
    sigma_defect = float(np.max(np.abs(vals_pi - inside)))
    idempotency = math.hypot(*(np.linalg.norm(Pb @ Pb - Pb) for Pb in P.blocks))

    return PiMapReport(
        projector=P,
        pi=pi,
        sigma_match_defect=sigma_defect,
        identity_deviation=splitting_certificate(pi),
        projector_idempotency=float(idempotency),
        projector_blocks=(sum(bool(np.any(Pb)) for Pb in P.blocks), len(P.blocks)),
    )


def pi_derivative(DA_h: BlockMatrix, eigenbasis: np.ndarray) -> np.ndarray:
    """First-order compression: entries <DA[h] u_m, u_l> over the cluster basis."""
    U = np.asarray(eigenbasis, dtype=float)
    out = U.T @ DA_h @ U
    return 0.5 * (out + out.T)


def splitting_certificate(pi_prime: np.ndarray) -> float:
    """Frobenius distance of pi_prime from multiples of the identity.

    Strictly positive values certify a direction that splits the cluster.
    """
    P = np.asarray(pi_prime, dtype=float)
    k = P.shape[0]
    return float(np.linalg.norm(P - (np.trace(P) / k) * np.eye(k)))
