"""Truncated Fourier representation of fields on the flat 3-torus.

Vector and scalar fields live as maps from integer wave vectors to complex
coefficients, subject to the reality condition coeff(-k) = conj(coeff(k)).
Curl and divergence act mode by mode, lattice shells |k|^2 = n enumerate
curl eigenspaces, and quadratic nonlinearities (v x curl v, v . grad v) are
formed on grids large enough that no aliasing can reach the retained modes.
Wave vectors are ordered lexicographically; the canonical representative of
a +/-k pair is the lexicographically positive one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoSuchEigenvalue, VanishingField

TWO_PI = 2.0 * np.pi
VOLUME = TWO_PI ** 3


def lex_negative(k):
    for c in k:
        if c > 0:
            return False
        if c < 0:
            return True
    return False


def canonical_rep(k):
    """Lexicographically positive representative of the pair {k, -k}."""
    return (-k[0], -k[1], -k[2]) if lex_negative(k) else tuple(k)


def _neg(k):
    return (-k[0], -k[1], -k[2])


def _as_points(points):
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    return np.mod(pts.reshape(-1, 3), TWO_PI)


@dataclass(frozen=True)
class ABCParams:
    """Amplitudes of the three-parameter family of unit-eigenvalue curl eigenfields."""

    A: float
    B: float
    C: float


@dataclass(frozen=True)
class SpectralVectorField:
    """Vector field as {wave vector: complex 3-vector} with |k|_inf <= truncation_radius.

    The stored map always contains both members of each +/-k pair with
    exactly conjugate coefficients; the k = 0 coefficient is real.
    """

    coeffs: dict
    truncation_radius: int

    def __post_init__(self):
        for k, c in self.coeffs.items():
            if max(abs(x) for x in k) > self.truncation_radius:
                raise ValueError(f"mode {k} outside truncation {self.truncation_radius}")
            mk = _neg(k)
            if mk not in self.coeffs:
                raise ValueError(f"mode {k} stored without its negation")
            if not np.array_equal(np.conj(self.coeffs[mk]), c, equal_nan=True):
                raise ValueError(f"reality violated at mode {k}")

    @classmethod
    def from_pairs(cls, pairs, truncation_radius):
        """Build from one complex 3-vector per canonical representative."""
        coeffs = {}
        for k, c in pairs.items():
            k = tuple(int(x) for x in k)
            c = np.asarray(c, dtype=complex)
            if k == (0, 0, 0):
                coeffs[k] = c.real.astype(complex)
                continue
            if lex_negative(k):
                k, c = _neg(k), np.conj(c)
            coeffs[k] = c
            coeffs[_neg(k)] = np.conj(c)
        return cls(coeffs=coeffs, truncation_radius=int(truncation_radius))

    def mode(self, k):
        return self.coeffs.get(tuple(k), np.zeros(3, dtype=complex))

    def mode_arrays(self):
        """(wavevectors (m,3) float, coefficients (m,3) complex) in lexicographic order."""
        ks = sorted(self.coeffs)
        if not ks:
            return np.zeros((0, 3)), np.zeros((0, 3), dtype=complex)
        K = np.array(ks, dtype=float)
        C = np.array([self.coeffs[k] for k in ks], dtype=complex)
        return K, C

    def evaluate(self, points):
        """Exact trig-sum evaluation at arbitrary points (shape (..., 3) or (3,))."""
        K, C = self.mode_arrays()
        return (np.exp(1j * (_as_points(points) @ K.T)) @ C).real

    def norm_l2(self):
        return math.sqrt(VOLUME * sum(float(np.sum(np.abs(c) ** 2)) for c in self.coeffs.values()))

    def scaled(self, a):
        return SpectralVectorField(
            coeffs={k: a * c for k, c in self.coeffs.items()},
            truncation_radius=self.truncation_radius,
        )

    def __add__(self, other):
        keys = set(self.coeffs) | set(other.coeffs)
        coeffs = {k: self.mode(k) + other.mode(k) for k in keys}
        return SpectralVectorField(
            coeffs=coeffs,
            truncation_radius=max(self.truncation_radius, other.truncation_radius),
        )


@dataclass(frozen=True)
class ScalarSpectralField:
    """Scalar field as {wave vector: complex coefficient}; real mean at k = 0."""

    coeffs: dict
    truncation_radius: int

    def __post_init__(self):
        for k, c in self.coeffs.items():
            if max(abs(x) for x in k) > self.truncation_radius:
                raise ValueError(f"mode {k} outside truncation {self.truncation_radius}")
            mk = _neg(k)
            if mk not in self.coeffs or np.conj(self.coeffs[mk]) != c:
                raise ValueError(f"reality violated at mode {k}")
        z = self.coeffs.get((0, 0, 0))
        if z is not None and z.imag != 0.0:
            raise ValueError("mean coefficient must be real")

    @classmethod
    def from_pairs(cls, pairs, truncation_radius):
        coeffs = {}
        for k, c in pairs.items():
            k = tuple(int(x) for x in k)
            c = complex(c)
            if k == (0, 0, 0):
                coeffs[k] = complex(c.real)
                continue
            if lex_negative(k):
                k, c = _neg(k), c.conjugate()
            coeffs[k] = c
            coeffs[_neg(k)] = c.conjugate()
        return cls(coeffs=coeffs, truncation_radius=int(truncation_radius))

    def mode(self, k):
        return self.coeffs.get(tuple(k), 0j)

    def mode_arrays(self):
        ks = sorted(self.coeffs)
        if not ks:
            return np.zeros((0, 3)), np.zeros(0, dtype=complex)
        return np.array(ks, dtype=float), np.array([self.coeffs[k] for k in ks], dtype=complex)

    def evaluate(self, points):
        K, C = self.mode_arrays()
        return (np.exp(1j * (_as_points(points) @ K.T)) @ C).real

    def norm_l2(self):
        return math.sqrt(VOLUME * sum(abs(c) ** 2 for c in self.coeffs.values()))

    def gradient(self):
        """Gradient as a vector field: mode rule i*k*fhat(k)."""
        coeffs = {k: 1j * np.array(k, dtype=float) * c for k, c in self.coeffs.items()}
        return SpectralVectorField(coeffs=coeffs, truncation_radius=self.truncation_radius)

    def sup_norm(self, grid=32):
        n = max(grid, 2 * self.truncation_radius + 1)
        return float(np.max(np.abs(evaluate_scalar_on_grid(self, n))))


@dataclass(frozen=True)
class EigenShell:
    """Lattice shell |k|^2 = n: the mode set of the curl eigenvalue sqrt(n)."""

    n: int
    vectors: tuple
    multiplicity: int


@dataclass(frozen=True)
class ScalarGridReport:
    """Pointwise values of a scalar diagnostic on a uniform grid."""

    grid: int
    values: np.ndarray
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


def zero_vector_field(truncation_radius=0):
    return SpectralVectorField(coeffs={}, truncation_radius=truncation_radius)


# ---------------------------------------------------------------------------
# mode-wise calculus


def curl_spectral(v: SpectralVectorField) -> SpectralVectorField:
    """Curl by the mode rule (curl v)^(k) = i k x vhat(k)."""
    coeffs = {}
    for k, c in v.coeffs.items():
        ka = np.array(k, dtype=float)
        coeffs[k] = 1j * np.cross(ka, c)
    return SpectralVectorField(coeffs=coeffs, truncation_radius=v.truncation_radius)


def divergence_spectral(v: SpectralVectorField) -> ScalarSpectralField:
    """Divergence by the mode rule i k . vhat(k)."""
    coeffs = {}
    for k, c in v.coeffs.items():
        val = 1j * complex(np.dot(np.array(k, dtype=float), c))
        if k == (0, 0, 0):
            val = 0j
        coeffs[k] = val
    return ScalarSpectralField(coeffs=coeffs, truncation_radius=v.truncation_radius)


def derivative_field(v: SpectralVectorField, axis: int) -> SpectralVectorField:
    """Componentwise partial derivative d/dx_axis."""
    coeffs = {k: 1j * k[axis] * c for k, c in v.coeffs.items()}
    return SpectralVectorField(coeffs=coeffs, truncation_radius=v.truncation_radius)


# ---------------------------------------------------------------------------
# lattice shells


def lattice_shell(n: int) -> EigenShell:
    """All k in Z^3 with |k|^2 = n, enumerated within |k|_inf <= ceil(sqrt(n))."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    m = math.isqrt(n)
    if m * m < n:
        m += 1
    found = []
    for k1 in range(-m, m + 1):
        for k2 in range(-m, m + 1):
            rem = n - k1 * k1 - k2 * k2
            if rem < 0:
                continue
            k3 = math.isqrt(rem)
            if k3 * k3 != rem:
                continue
            if k3 == 0:
                found.append((k1, k2, 0))
            else:
                found.append((k1, k2, k3))
                found.append((k1, k2, -k3))
    found.sort()
    return EigenShell(n=n, vectors=tuple(found), multiplicity=len(found))


def mod8_admissible(n: int) -> bool:
    """Admissibility by residue: n mod 8 in {1, 2, 3, 5, 6}.

    Stricter than shell nonemptiness: e.g. n = 4 has a nonempty shell but is
    not admissible.  Reports expose both predicates side by side.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return n % 8 in (1, 2, 3, 5, 6)


def _helicity_frame(k):
    """Deterministic orthonormal transverse frame (e1, e2) for a lattice vector.

    e1 = normalized k x a with a = e1-axis unless k is parallel to it, then
    the e2-axis; e2 = khat x e1, so (e1, e2, khat) is right-handed.
    """
    kv = np.array(k, dtype=float)
    if k[1] == 0 and k[2] == 0:
        a = np.array([0.0, 1.0, 0.0])
    else:
        a = np.array([1.0, 0.0, 0.0])
    w1 = np.cross(kv, a)
    e1 = w1 / np.linalg.norm(w1)
    e2 = np.cross(kv, e1) / np.linalg.norm(kv)
    return e1, e2


def helicity_basis(n: int):
    """L2-orthonormal real fields spanning the curl eigenspace with eigenvalue sqrt(n).

    One cosine-type and one sine-type field per +/-k pair of the shell, built
    on the positive-helicity frame; returns shell-multiplicity many fields.
    """
    if n < 1:
        raise NoSuchEigenvalue(f"no positive curl eigenvalue for n = {n}")
    shell = lattice_shell(n)
    if shell.multiplicity == 0:
        raise NoSuchEigenvalue(f"empty lattice shell for n = {n}")
    reps = sorted({canonical_rep(k) for k in shell.vectors})
    gamma = 1.0 / math.sqrt(2.0 * VOLUME)
    trunc = max(max(abs(c) for c in k) for k in reps)
    fields = []
    for k in reps:
        e1, e2 = _helicity_frame(k)
        hplus = (e1 + 1j * e2) / math.sqrt(2.0)
        for coef in (gamma * hplus, 1j * gamma * hplus):
            fields.append(SpectralVectorField.from_pairs({k: coef}, truncation_radius=trunc))
    return fields


def _shell_gram(fields):
    """Full Gram matrix of spectral fields via their stacked coefficients."""
    modes = sorted({k for f in fields for k in f.coeffs})
    index = {k: i for i, k in enumerate(modes)}
    X = np.zeros((len(fields), len(modes), 3), dtype=complex)
    for i, f in enumerate(fields):
        for k, c in f.coeffs.items():
            X[i, index[k]] = c
    flat = X.reshape(len(fields), -1)
    return VOLUME * (flat @ flat.conj().T).real


def eigenfamily_defects(n: int):
    """(Gram deviation from the identity, curl eigen-residual) of helicity_basis(n).

    Both are sup-norms over the coefficients; the residual is that of
    curl u = sqrt(n) u for each basis field u.
    """
    basis = helicity_basis(n)
    lam = math.sqrt(n)
    gram_dev = float(np.max(np.abs(_shell_gram(basis) - np.eye(len(basis)))))
    resid = 0.0
    for u in basis:
        cu = curl_spectral(u)
        for k in u.coeffs:
            resid = max(resid, float(np.max(np.abs(cu.mode(k) - lam * u.mode(k)))))
    return gram_dev, resid


def random_beltrami(n: int, seed: int) -> SpectralVectorField:
    """Seeded Gaussian combination of the helicity basis of shell n.

    Coefficients are independent standard normals from a counter-based
    generator keyed by (seed, mode index), so draws are order-independent;
    the normalization makes the expected squared L2 norm equal to 1.
    """
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    basis = helicity_basis(n)
    m = len(basis)
    scale = 1.0 / math.sqrt(m)
    coeffs = {}
    trunc = basis[0].truncation_radius
    for j, u in enumerate(basis):
        gen = np.random.Generator(np.random.Philox(key=np.array([seed, j], dtype=np.uint64)))
        a = gen.standard_normal() * scale
        for k, c in u.coeffs.items():
            coeffs[k] = coeffs.get(k, np.zeros(3, dtype=complex)) + a * c
        trunc = max(trunc, u.truncation_radius)
    return SpectralVectorField(coeffs=coeffs, truncation_radius=trunc)


# ---------------------------------------------------------------------------
# grid transforms and alias-free products


def evaluate_on_grid(v: SpectralVectorField, n: int) -> np.ndarray:
    """Values on the uniform n^3 grid x_j = 2*pi*j/n, shape (n, n, n, 3)."""
    if n < 2 * v.truncation_radius + 1:
        raise ValueError("grid too small for the truncation radius")
    out = np.empty((n, n, n, 3))
    for comp in range(3):
        dense = np.zeros((n, n, n), dtype=complex)
        for k, c in v.coeffs.items():
            dense[k[0] % n, k[1] % n, k[2] % n] += c[comp]
        out[..., comp] = (np.fft.ifftn(dense) * n ** 3).real
    return out


def evaluate_scalar_on_grid(f: ScalarSpectralField, n: int) -> np.ndarray:
    if n < 2 * f.truncation_radius + 1:
        raise ValueError("grid too small for the truncation radius")
    dense = np.zeros((n, n, n), dtype=complex)
    for k, c in f.coeffs.items():
        dense[k[0] % n, k[1] % n, k[2] % n] += c
    return (np.fft.ifftn(dense) * n ** 3).real


def _vector_from_grid(values: np.ndarray, trunc: int) -> SpectralVectorField:
    """Exact inverse transform of grid values, keeping |k|_inf <= trunc.

    The grid must satisfy n >= 2*trunc + 1 so no retained mode aliases;
    coefficients are symmetrized to enforce the reality invariant exactly.
    """
    n = values.shape[0]
    hat = [np.fft.fftn(values[..., comp]) / n ** 3 for comp in range(3)]
    pairs = {}
    rng = range(-trunc, trunc + 1)
    for k1 in rng:
        for k2 in rng:
            for k3 in rng:
                k = (k1, k2, k3)
                if lex_negative(k):
                    continue
                mk = _neg(k)
                c = np.array(
                    [hat[comp][k1 % n, k2 % n, k3 % n] for comp in range(3)], dtype=complex
                )
                cm = np.array(
                    [hat[comp][mk[0] % n, mk[1] % n, mk[2] % n] for comp in range(3)],
                    dtype=complex,
                )
                pairs[k] = 0.5 * (c + np.conj(cm))
    return SpectralVectorField.from_pairs(pairs, truncation_radius=trunc)


def cross_spectral(v: SpectralVectorField, w: SpectralVectorField) -> SpectralVectorField:
    """Pointwise cross product v x w, exact up to the combined truncation.

    Grid size 2*(Kv + Kw) + 1 keeps every retained coefficient alias-free,
    which is stronger than the 3/2-rule requirement for quadratic terms.
    """
    trunc = v.truncation_radius + w.truncation_radius
    n = 2 * trunc + 1
    vals = np.cross(evaluate_on_grid(v, n), evaluate_on_grid(w, n))
    return _vector_from_grid(vals, trunc)


def convective_spectral(v: SpectralVectorField) -> SpectralVectorField:
    """Alias-free pseudo-spectral v . grad v."""
    trunc = 2 * v.truncation_radius
    n = 2 * trunc + 1
    vg = evaluate_on_grid(v, n)
    out = np.zeros_like(vg)
    for j in range(3):
        dj = evaluate_on_grid(derivative_field(v, j), n)
        out += vg[..., j : j + 1] * dj
    return _vector_from_grid(out, trunc)


def _solve_poisson_divergence(w: SpectralVectorField, sign: float) -> ScalarSpectralField:
    """Zero-mean solution f of Delta f = sign * Div w."""
    coeffs = {k: -sign * div / (k[0] * k[0] + k[1] * k[1] + k[2] * k[2])
              for k, div in divergence_spectral(w).coeffs.items() if k != (0, 0, 0)}
    coeffs[(0, 0, 0)] = 0j
    return ScalarSpectralField(coeffs=coeffs, truncation_radius=w.truncation_radius)


def bernoulli(v: SpectralVectorField) -> ScalarSpectralField:
    """Zero-mean solution F of Delta F = Div(v x curl v)."""
    w = cross_spectral(v, curl_spectral(v))
    return _solve_poisson_divergence(w, sign=1.0)


def pressure(v: SpectralVectorField) -> ScalarSpectralField:
    """Zero-mean pressure p = -Delta^{-1} Div(v . grad v)."""
    conv = convective_spectral(v)
    return _solve_poisson_divergence(conv, sign=-1.0)


def steady_residual(v: SpectralVectorField):
    """(||v.grad v + grad p||_L2, ||v x curl v - grad F||_L2) for the two Poisson solves."""
    conv = convective_spectral(v)
    p = _solve_poisson_divergence(conv, sign=-1.0)
    w = cross_spectral(v, curl_spectral(v))
    F = _solve_poisson_divergence(w, sign=1.0)
    return (conv + p.gradient()).norm_l2(), (w + F.gradient().scaled(-1.0)).norm_l2()


# ---------------------------------------------------------------------------
# pointwise diagnostics


def proportionality_factor(v: SpectralVectorField, grid: int, threshold=1e-6) -> ScalarGridReport:
    """Pointwise (v . curl v)/|v|^2 on a uniform grid, with its constancy gap.

    Raises VanishingField when min |v| on the grid is at or below the
    threshold, since the quotient stops being trustworthy there.
    """
    vv = evaluate_on_grid(v, grid)
    cc = evaluate_on_grid(curl_spectral(v), grid)
    norm2 = np.sum(vv * vv, axis=-1)
    mn = math.sqrt(float(np.min(norm2)))
    if mn <= threshold:
        raise VanishingField(f"min |v| = {mn:.3e} at grid {grid}")
    f = np.sum(vv * cc, axis=-1) / norm2
    return ScalarGridReport(
        grid=grid,
        values=f,
        gap=float(np.max(f) - np.min(f)),
        min_value=float(np.min(f)),
        max_value=float(np.max(f)),
    )


def min_norm(v: SpectralVectorField, grid: int) -> float:
    """Minimum of |v| over the uniform grid plus one local refinement pass.

    The refinement is a single deterministic coordinate-descent sweep around
    the grid minimizer, sampling each axis at one tenth of the grid spacing.
    """
    n = max(grid, 2 * v.truncation_radius + 1)
    vals = evaluate_on_grid(v, n)
    norms = np.sqrt(np.sum(vals * vals, axis=-1))
    idx = np.unravel_index(np.argmin(norms), norms.shape)
    best = float(norms[idx])
    x = np.array(idx, dtype=float) * (TWO_PI / n)
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
