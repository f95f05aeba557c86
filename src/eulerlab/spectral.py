"""Truncated Fourier representation of fields on the flat 3-torus.

Scalar, vector and 3x3 tensor fields live as sorted arrays of integer wave
vectors and complex coefficients, subject to the reality condition
coeff(-k) = conj(coeff(k)); they are the one trig-polynomial algebra of the
package, so the contact model's 1-forms (as their flat duals), metrics and
variation tensors are such fields too.  Curl and divergence act mode by
mode, lattice shells |k|^2 = n enumerate curl eigenspaces, and every
product (v x curl v, v . grad v, the contact model's algebra) is one exact
pairwise convolution of mode arrays, `_convolve`, which drops the
coefficients that its own rounding bound cannot tell from zero.
Wave vectors are ordered lexicographically; the canonical representative of
a +/-k pair is the lexicographically positive one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MemoryBudgetExceeded, NoSuchEigenvalue, VanishingField

TWO_PI = 2.0 * np.pi
VOLUME = TWO_PI ** 3
SLAB = 4  # grid planes per slab of grid_slabs
MAX_PRODUCT_BYTES = 2 ** 30  # ceiling on the per-pair arrays of one product, `_convolve`


def _as_points(points):
    """Points as an (n, 3) array reduced to [0, 2*pi); by floor, which is several
    times faster than np.mod and as good for evaluating trig sums."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    return pts - TWO_PI * np.floor(pts / TWO_PI)


@dataclass(frozen=True)
class ABCParams:
    """Amplitudes of the three-parameter family of unit-eigenvalue curl eigenfields."""

    A: float
    B: float
    C: float


@dataclass(frozen=True)
class _SpectralField:
    """Real field on T^3 as sorted mode arrays; shared by the vector and scalar classes.

    K is an (m, 3) integer array of distinct wave vectors with |k|_inf <=
    truncation_radius, in lexicographic order and closed under k -> -k; C
    holds the coefficients, shape (m,) + SHAPE.  Negation reverses the
    lexicographic order of such a set, so closure reads K[::-1] == -K,
    reality reads C[::-1] == conj(C) (the k = 0 coefficient is real), and
    the canonical half, k = 0 when present and then the lexicographically
    positive vectors, is K[m // 2:].
    """

    K: np.ndarray
    C: np.ndarray
    truncation_radius: int

    SHAPE = ()

    def __post_init__(self):
        K = np.asarray(self.K, dtype=np.int64).reshape(-1, 3)
        C = np.asarray(self.C, dtype=complex).reshape((len(K),) + self.SHAPE)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "C", C)
        if len(K) and np.max(np.abs(K)) > self.truncation_radius:
            raise ValueError(f"mode outside truncation {self.truncation_radius}")
        step = np.diff(K, axis=0)  # the first nonzero entry of each step must be positive
        if np.any(step[np.arange(len(step)), np.argmax(step != 0, axis=1)] <= 0):
            raise ValueError("wave vectors not sorted and distinct")
        if not np.array_equal(K[::-1], -K):
            raise ValueError("mode stored without its negation")
        if not np.array_equal(C[::-1], np.conj(C), equal_nan=True):
            raise ValueError("reality violated")

    @classmethod
    def from_half(cls, K, C, truncation_radius):
        """Build from the canonical half: k = 0 first when present (its imaginary
        part is dropped), then lexicographically positive vectors in order."""
        K = np.asarray(K, dtype=np.int64).reshape(-1, 3)
        C = np.asarray(C, dtype=complex).reshape((len(K),) + cls.SHAPE)
        low = 1 if len(K) and not K[0].any() else 0
        return cls(K=np.concatenate([-K[low:][::-1], K]),
                   C=np.concatenate([np.conj(C[low:][::-1]), C.real[:low], C[low:]]),
                   truncation_radius=int(truncation_radius))

    @classmethod
    def from_pairs(cls, pairs, truncation_radius):
        """Build from {k: coefficient}; the conjugate at -k is implied, later entries win."""
        full = {}
        for k, c in pairs.items():
            k = tuple(int(x) for x in k)
            c = np.asarray(c, dtype=complex)
            if k == (0, 0, 0):
                full[k] = c.real.astype(complex)
            else:
                full[k], full[(-k[0], -k[1], -k[2])] = c, np.conj(c)
        ks = sorted(full)
        return cls(K=ks, C=[full[k] for k in ks], truncation_radius=int(truncation_radius))

    def mode(self, k):
        """Coefficient at wave vector k, zero when k is not stored."""
        hit = np.flatnonzero(np.all(self.K == np.asarray(k), axis=1))
        return self.C[hit[0]] if hit.size else np.zeros(self.SHAPE, dtype=complex)[()]

    def evaluate(self, points):
        """Exact trig-sum evaluation at points of shape (..., 3) or (3,); returns
        (number of points,) + SHAPE.  The canonical half is summed as real cosines
        and sines, each k != 0 weighted 2 for the pair +/-k."""
        half = len(self.K) // 2
        K = self.K[half:]
        C = self.C[half:].reshape(len(K), math.prod(self.SHAPE))
        C = np.where(K.any(axis=1), 2.0, 1.0)[:, None] * C
        phase = _as_points(points) @ K.T
        return (np.cos(phase) @ C.real - np.sin(phase) @ C.imag).reshape((-1,) + self.SHAPE)

    def degree(self):
        """Largest |k|_inf over the modes with a nonzero coefficient (0 when there are none)."""
        return int(np.max(np.abs(self.K[_nonzero(self.C)]), initial=0))

    def gradient(self):
        """Gradient by the mode rule i k (x) fhat(k): a vector field for a scalar
        field, the tensor d_j v_i at index (j, i) for a vector field."""
        C = 1j * self.K.reshape((-1, 3) + (1,) * len(self.SHAPE)) * self.C[:, None]
        return _FIELD_CLASSES[C.shape[1:]](K=self.K, C=C,
                                           truncation_radius=self.truncation_radius)

    def norm_l2(self):
        return math.sqrt(VOLUME * float(np.sum(np.abs(self.C) ** 2)))

    def scaled(self, a):
        return type(self)(K=self.K, C=a * self.C, truncation_radius=self.truncation_radius)

    def __add__(self, other):
        """Sum; modes whose coefficients cancel exactly are dropped."""
        K, C = _merge(np.concatenate([self.K, other.K]), np.concatenate([self.C, other.C]))
        keep = _nonzero(C)
        return type(self)(K=K[keep], C=C[keep],
                          truncation_radius=max(self.truncation_radius, other.truncation_radius))

    def __sub__(self, other):
        return self + other.scaled(-1.0)


def _nonzero(C):
    """Mask of the modes with a nonzero coefficient."""
    return np.any(C != 0, axis=tuple(range(1, C.ndim)))


def _merge(K, *values):
    """Distinct rows of K in lexicographic order, with each array of values
    summed over equal rows in input order."""
    r = int(np.max(np.abs(K), initial=0))
    n = 2 * r + 1
    key = ((K[:, 0] + r) * n + K[:, 1] + r) * n + K[:, 2] + r  # increasing in lexicographic order
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    sums = []
    for v in values:
        out = np.zeros((len(first),) + v.shape[1:], dtype=v.dtype)
        np.add.at(out, inverse, v)
        sums.append(out)
    return (K[first], *sums)


def _l1(C):
    """Sum of the moduli of each mode's coefficient entries."""
    return np.abs(C).sum(axis=tuple(range(1, C.ndim)))


def _convolve(a, b, combine):
    """Exact product of two fields: combine(C_a[p], C_b[q]) at K_a[p] + K_b[q],
    summed over the pairs (p, q) that reach each wave vector.

    `combine` is bilinear, takes the coefficient arrays broadcast against each
    other as shapes (m_a, 1) + a.SHAPE and (1, m_b) + b.SHAPE and returns
    (m_a, m_b) + the shape of the result, which picks its class.  The sum over
    n pairs rounds by at most about n eps sum |C_a[p]|_1 |C_b[q]|_1, which one
    more convolution of the magnitudes gives; every real or imaginary part at
    or below (n + 2) times that (the 2 for the operations inside one combine)
    cannot be told from zero and is set to zero, and modes left all zero are
    dropped.  The canonical half is kept and mirrored, so the result is
    exactly real.  MemoryBudgetExceeded comes before the per-pair arrays (C,
    K, magnitudes, counts) when they are estimated above MAX_PRODUCT_BYTES.
    """
    pairs = len(a.K) * len(b.K)
    per_pair = 16 * math.prod(combine(a.C[:0, None], b.C[None, :0]).shape[2:]) + 40
    if pairs * per_pair > MAX_PRODUCT_BYTES:
        raise MemoryBudgetExceeded(
            f"an estimated {pairs * per_pair:.3g} bytes of mode pairs ({len(a.K)} x {len(b.K)} "
            f"modes x {per_pair} bytes) exceed the ceiling of {MAX_PRODUCT_BYTES:.3g}")
    C = combine(a.C[:, None], b.C[None])
    K, C, mag, n = _merge((a.K[:, None] + b.K[None]).reshape(-1, 3),
                          C.reshape((-1,) + C.shape[2:]),
                          np.outer(_l1(a.C), _l1(b.C)).ravel(), np.ones(len(a.K) * len(b.K)))
    half = len(K) // 2
    K, C = K[half:], C[half:]
    bound = ((n[half:] + 2.0) * np.finfo(float).eps * mag[half:]).reshape(
        (-1,) + (1,) * (C.ndim - 1))
    C = (np.where(np.abs(C.real) > bound, C.real, 0.0)
         + 1j * np.where(np.abs(C.imag) > bound, C.imag, 0.0))
    keep = _nonzero(C)
    return _FIELD_CLASSES[C.shape[1:]].from_half(K[keep], C[keep],
                                                 a.truncation_radius + b.truncation_radius)


class ScalarSpectralField(_SpectralField):
    """Scalar field: C has shape (m,); the mean at k = 0 is real."""

    def sup_norm(self, grid=32):
        n = max(grid, 2 * self.truncation_radius + 1)
        return float(np.max([np.max(np.abs(s)) for s in grid_slabs(self, n)]))


class SpectralVectorField(_SpectralField):
    """Vector field: C has shape (m, 3); also the flat dual of a 1-form."""

    SHAPE = (3,)


class SpectralTensorField(_SpectralField):
    """3x3 tensor field: C has shape (m, 3, 3); metrics and variation tensors."""

    SHAPE = (3, 3)


_FIELD_CLASSES = {cls.SHAPE: cls for cls in
                  (ScalarSpectralField, SpectralVectorField, SpectralTensorField)}


@dataclass(frozen=True)
class ScalarGridReport:
    """Range of a scalar diagnostic on a uniform grid."""

    grid: int
    gap: float
    min_value: float
    max_value: float


# ---------------------------------------------------------------------------
# constructors


def make_abc(params: ABCParams) -> SpectralVectorField:
    """Field (A sin x3 + C cos x2, B sin x1 + A cos x3, C sin x2 + B cos x1).

    Exactly the six modes +/-e1, +/-e2, +/-e3 are populated.
    """
    A, B, C = float(params.A), float(params.B), float(params.C)
    pairs = {
        (1, 0, 0): np.array([0.0, -0.5j * B, 0.5 * B], dtype=complex),
        (0, 1, 0): np.array([0.5 * C, 0.0, -0.5j * C], dtype=complex),
        (0, 0, 1): np.array([-0.5j * A, 0.5 * A, 0.0], dtype=complex),
    }
    return SpectralVectorField.from_pairs(pairs, truncation_radius=1)


# ---------------------------------------------------------------------------
# mode-wise calculus


def curl_spectral(v: SpectralVectorField) -> SpectralVectorField:
    """Curl by the mode rule (curl v)^(k) = i k x vhat(k)."""
    return SpectralVectorField(K=v.K, C=1j * np.cross(v.K, v.C),
                               truncation_radius=v.truncation_radius)


def divergence_spectral(v: SpectralVectorField) -> ScalarSpectralField:
    """Divergence by the mode rule i k . vhat(k); the mean is exactly zero."""
    div = 1j * np.einsum("mi,mi->m", v.K, v.C)
    if len(div) % 2:  # k = 0 sits in the middle
        div[len(div) // 2] = 0.0
    return ScalarSpectralField(K=v.K, C=div, truncation_radius=v.truncation_radius)


# ---------------------------------------------------------------------------
# lattice shells


def lattice_shell(n: int) -> np.ndarray:
    """All k in Z^3 with |k|^2 = n as an (m, 3) int64 array in lexicographic
    order: each (k1, k2) of the square |k1|, |k2| <= sqrt(n) whose remainder
    n - k1^2 - k2^2 is a perfect square k3^2 gives (k1, k2, -k3) and
    (k1, k2, k3), or one row when k3 = 0.  The square is scanned one k1 at a
    time, so memory stays O(sqrt(n)) beyond the shell itself."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    m = math.isqrt(n)
    k2 = np.arange(-m, m + 1)
    rows = [np.empty((0, 3), dtype=np.int64)]
    for k1 in range(-m, m + 1):
        rem = n - k1 * k1 - k2 * k2
        k3 = np.sqrt(np.maximum(rem, 0)).astype(np.int64)  # exact on squares below 2**53
        hit = np.flatnonzero(k3 * k3 == rem)
        if hit.size:
            pair = np.repeat(hit, np.where(k3[hit] > 0, 2, 1))
            first = np.r_[True, pair[1:] != pair[:-1]]
            rows.append(np.stack([np.full(len(pair), k1), k2[pair],
                                  np.where(first, -1, 1) * k3[pair]], axis=1))
    return np.concatenate(rows)


def mod8_admissible(n: int) -> bool:
    """Admissibility by residue: n mod 8 in {1, 2, 3, 5, 6}.

    Stricter than shell nonemptiness: e.g. n = 4 has a nonempty shell but is
    not admissible.  Reports expose both predicates side by side.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return n % 8 in (1, 2, 3, 5, 6)


def helicity_basis(n: int):
    """L2-orthonormal real fields spanning the curl eigenspace with eigenvalue sqrt(n).

    Returns (K, U): K holds the lexicographically positive half of the shell,
    U of shape (len(K), 2, 3) the coefficients at K[r] of its cosine-type and
    sine-type field (their conjugates sit at -K[r]).  Both are gamma h+ and
    i gamma h+ on the positive-helicity vector h+ = (e1 + i e2) / sqrt(2) of
    the frame e1 = k x a / |k x a|, e2 = k x e1 / |k|, with a the e1-axis
    unless k is parallel to it, then the e2-axis; (e1, e2, khat) is right-handed.
    """
    if n < 1:
        raise NoSuchEigenvalue(f"no positive curl eigenvalue for n = {n}")
    shell = lattice_shell(n)
    if not len(shell):
        raise NoSuchEigenvalue(f"empty lattice shell for n = {n}")
    K = shell[len(shell) // 2:]
    kv = K.astype(float)
    a = np.zeros_like(kv)
    a[np.arange(len(K)), np.where(K[:, 1:].any(axis=1), 0, 1)] = 1.0
    w1 = np.cross(kv, a)
    e1 = w1 / np.linalg.norm(w1, axis=1)[:, None]
    e2 = np.cross(kv, e1) / np.linalg.norm(kv, axis=1)[:, None]
    hplus = (e1 + 1j * e2) / math.sqrt(2.0)
    gamma = 1.0 / math.sqrt(2.0 * VOLUME)
    return K, np.stack([gamma * hplus, 1j * gamma * hplus], axis=1)


def eigenfamily_defects(n: int):
    """(Gram deviation from the identity, curl eigen-residual) of helicity_basis(n).

    Both are sup-norms over the coefficients; the residual is that of the
    normalized equation curl u / sqrt(n) = u for each basis field u, whose
    rounding does not grow with |k| = sqrt(n).  Fields on different +/-k
    pairs share no mode, so the Gram matrix is one 2x2 block per pair, and
    the negative half of every field holds the exact conjugates of the
    positive half, so both are taken on the positive half.
    """
    K, U = helicity_basis(n)
    gram = 2.0 * VOLUME * np.einsum("rai,rbi->rab", U, U.conj()).real
    resid = 0.0
    for t in (0, 1):  # all cosine-type, then all sine-type fields, summed into one field
        u = SpectralVectorField.from_half(K, U[:, t], np.max(np.abs(K)))
        resid = max(resid, float(np.max(np.abs(curl_spectral(u).C / math.sqrt(n) - u.C))))
    return float(np.max(np.abs(gram - np.eye(2)))), resid


def random_beltrami(n: int, seed: int) -> SpectralVectorField:
    """Seeded Gaussian combination of the helicity basis of shell n.

    Coefficients are independent standard normals from a counter-based
    generator keyed by (seed, basis index 2 r + t), so draws are
    order-independent; the normalization makes the expected squared L2 norm
    equal to 1.
    """
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    K, U = helicity_basis(n)
    scale = 1.0 / math.sqrt(2 * len(K))
    g = np.array([np.random.Generator(np.random.Philox(key=np.array([seed, j], dtype=np.uint64)))
                  .standard_normal() * scale for j in range(2 * len(K))]).reshape(-1, 2, 1)
    # summed onto +0, mode by mode in basis order, so that no zero part is -0.0
    C = (np.zeros_like(U[:, 0]) + g[:, 0] * U[:, 0]) + g[:, 1] * U[:, 1]
    return SpectralVectorField.from_half(K, C, np.max(np.abs(K)))


# ---------------------------------------------------------------------------
# grid transforms and exact products


def grid_slabs(f, n: int):
    """Values on the uniform n^3 grid x_j = 2*pi*j/n, as consecutive slabs of
    at most SLAB planes along the middle axis, each of shape (n, b, n) + f.SHAPE.

    Every value is that of np.fft.ifftn on the dense coefficient cube, times
    n^3: the same 1-D inverse transforms run in the same order, last axis
    first.  The last two axes are transformed only on the planes of the first
    wave-vector component that hold a coefficient (at most 2R + 1 of them);
    the others enter the first-axis transform as zeros, which gives the values
    of transforming them, signed zeros included (the tests compare with
    ifftn bitwise).  The first axis is transformed one slab at a time, so
    memory is O((2R + 1) n^2 + SLAB n^2) per component instead of O(n^3)."""
    if n < 2 * f.truncation_radius + 1:
        raise ValueError("grid too small for the truncation radius")
    idx = f.K % n
    C = f.C.reshape(len(f.K), math.prod(f.SHAPE))
    planes, plane = np.unique(idx[:, 0], return_inverse=True)
    compact = np.zeros((C.shape[1], len(planes), n, n), dtype=complex)
    compact[:, plane, idx[:, 1], idx[:, 2]] += C.T
    np.fft.ifft(compact, out=compact)
    np.fft.ifft(compact, axis=2, out=compact)
    work = np.empty((n, SLAB, n), dtype=complex)
    for j in range(0, n, SLAB):
        block = work[:, :min(SLAB, n - j)]
        out = np.empty(block.shape + (C.shape[1],))
        for c in range(C.shape[1]):
            block.fill(0.0)
            block[planes] = compact[c, :, j:j + SLAB]
            np.fft.ifft(block, axis=0, out=block)
            block *= n ** 3
            out[..., c] = block.real
        yield out.reshape(block.shape + f.SHAPE)


def cross_spectral(v: SpectralVectorField, w: SpectralVectorField) -> SpectralVectorField:
    """Pointwise cross product v x w, exact."""
    return _convolve(v, w, np.cross)


def convective_spectral(v: SpectralVectorField) -> SpectralVectorField:
    """v . grad v, exact: v_j contracted with the gradient tensor d_j v_i."""
    return _convolve(v, v.gradient(), lambda a, g: np.einsum("...j,...ji->...i", a, g))


def _solve_poisson_divergence(w: SpectralVectorField, sign: float) -> ScalarSpectralField:
    """Zero-mean solution f of Delta f = sign * Div w."""
    div = divergence_spectral(w)
    k2 = np.sum(div.K * div.K, axis=1)
    C = np.divide(-sign * div.C, k2, out=np.zeros_like(div.C), where=k2 > 0)
    return ScalarSpectralField(K=div.K, C=C, truncation_radius=w.truncation_radius)


def bernoulli(v: SpectralVectorField) -> ScalarSpectralField:
    """Zero-mean solution F of Delta F = Div(v x curl v)."""
    w = cross_spectral(v, curl_spectral(v))
    return _solve_poisson_divergence(w, sign=1.0)


def steady_residual(v: SpectralVectorField):
    """(||v.grad v + grad p||_L2, ||v x curl v - grad F||_L2) for the two Poisson solves."""
    conv = convective_spectral(v)
    p = _solve_poisson_divergence(conv, sign=-1.0)
    w = cross_spectral(v, curl_spectral(v))
    F = _solve_poisson_divergence(w, sign=1.0)
    return (conv + p.gradient()).norm_l2(), (w - F.gradient()).norm_l2()


# ---------------------------------------------------------------------------
# pointwise diagnostics


def _dot(a, b):
    """a . b over the last axis, one component at a time; rounds as np.sum(a * b, axis=-1)."""
    out = np.zeros(a.shape[:-1])
    for i in range(a.shape[-1]):
        out += a[..., i] * b[..., i]
    return out


def proportionality_factor(v: SpectralVectorField, grid: int) -> ScalarGridReport:
    """Range of the pointwise (v . curl v)/|v|^2 on a uniform grid, with its constancy gap.

    Raises VanishingField when min |v| on the grid is at or below 1e-6,
    since the quotient stops being trustworthy there.
    """
    low, lo, hi = np.inf, np.inf, -np.inf  # min |v|^2 and the range of the quotient
    for vv, cc in zip(grid_slabs(v, grid), grid_slabs(curl_spectral(v), grid)):
        norm2 = _dot(vv, vv)
        low = np.minimum(low, np.min(norm2))
        if not math.sqrt(float(low)) <= 1e-6:  # the quotient is dropped once v vanishes
            f = _dot(vv, cc)
            f /= norm2
            lo, hi = np.minimum(lo, np.min(f)), np.maximum(hi, np.max(f))
    mn = math.sqrt(float(low))
    if mn <= 1e-6:
        raise VanishingField(f"min |v| = {mn:.3e} at grid {grid}")
    lo, hi = float(lo), float(hi)
    return ScalarGridReport(grid=grid, gap=hi - lo, min_value=lo, max_value=hi)


def min_norm(v: SpectralVectorField, grid: int) -> float:
    """Minimum of |v| over the uniform grid plus one local refinement pass.

    The grid minimizer is the first in C order among equal minima, as
    np.argmin picks it.  The refinement is a single deterministic
    coordinate-descent sweep around it, sampling each axis at one tenth of
    the grid spacing.
    """
    n = max(grid, 2 * v.truncation_radius + 1)
    found = []  # (C-order index, |v|) of each slab's first minimum
    start = 0
    for vals in grid_slabs(v, n):
        norms = _dot(vals, vals)
        np.sqrt(norms, out=norms)
        i0, i1, i2 = np.unravel_index(np.argmin(norms), norms.shape)
        found.append(((i0 * n + start + i1) * n + i2, norms[i0, i1, i2]))
        start += norms.shape[1]
    flat, values = zip(*sorted(found, key=lambda item: item[0]))
    pick = int(np.argmin(values))
    best = float(values[pick])
    x = np.array(np.unravel_index(flat[pick], (n, n, n)), dtype=float) * (TWO_PI / n)
    spacing = TWO_PI / n
    offsets = np.linspace(-spacing, spacing, 21)
    for axis in range(3):
        cand = np.tile(x, (offsets.size, 1))
        cand[:, axis] += offsets
        local = np.linalg.norm(v.evaluate(cand), axis=1)
        j = int(np.argmin(local))
        x = cand[j]
        best = min(best, float(local[j]))
    return best
