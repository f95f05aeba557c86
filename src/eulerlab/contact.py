"""Explicit contact model on the flat 3-torus and its compatible metrics.

The model contact form is alpha = cos(x3) dx1 - sin(x3) dx2 with Reeb field
R = (cos x3, -sin x3, 0); the flat metric is compatible with it in the sense
that |alpha|_g = 1 and star_g d(alpha) = lambda0 * alpha with lambda0 = 1,
and the Riemannian volume equals (1/lambda0) alpha ^ d(alpha).  On top of
the model sit the volume-preserving perturbation family g_eps driven by a
1-form beta, its traceless first-order variation tensor h, and the
quadrature pairing that measures how h moves curl-type eigenvalues.

Every closed-form object is a field of `spectral`, the one trig-polynomial
algebra: a 1-form is its flat dual, a SpectralVectorField, so the vector
proxy of d(alpha) is curl alpha; tensors are SpectralTensorFields; and the
products below (pairing, outer product, tensor . form, trace pairing and
scalar times field) are the exact convolution `spectral._convolve`.
Family members carry an additional pointwise square-root factor and are
evaluated on grids.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import NotPositiveDefinite
from .spectral import (
    TWO_PI,
    ScalarSpectralField,
    SpectralTensorField,
    SpectralVectorField,
    _convolve,
    curl_spectral,
)


def uniform_grid(n):
    """Uniform tensor grid on [0, 2*pi)^3: points (n^3, 3) and cell weight."""
    x = np.arange(n) * (TWO_PI / n)
    g = np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1).reshape(-1, 3)
    return g, (TWO_PI / n) ** 3


def _on_grid(cache: dict, nodes, evaluate):
    """evaluate(points of uniform_grid(nodes)), an array or a tuple of arrays
    and None, kept read-only in `cache` per node count."""
    if nodes not in cache:
        value = evaluate(uniform_grid(nodes)[0])
        for a in value if isinstance(value, tuple) else (value,):
            if a is not None:
                a.flags.writeable = False
        cache[nodes] = value
    return cache[nodes]


# ---------------------------------------------------------------------------
# exact products


def dot(a: SpectralVectorField, b: SpectralVectorField) -> ScalarSpectralField:
    """Pointwise pairing a . b of two 1-forms or vector fields."""
    return _convolve(a, b, lambda x, y: np.einsum("...i,...i->...", x, y))


def outer(a: SpectralVectorField) -> SpectralTensorField:
    """Pointwise tensor a (x) a."""
    return _convolve(a, a, lambda x, y: x[..., :, None] * y[..., None, :])


def contract(t: SpectralTensorField, a: SpectralVectorField) -> SpectralVectorField:
    """Row contraction (t . a)_i = sum_j t_ij a_j."""
    return _convolve(t, a, lambda x, y: np.einsum("...ij,...j->...i", x, y))


def trace_pairing(s: SpectralTensorField, t: SpectralTensorField) -> ScalarSpectralField:
    """Pointwise trace sum_ij s_ij t_ij of two tensor fields."""
    return _convolve(s, t, lambda x, y: np.einsum("...ij,...ij->...", x, y))


def multiply(f: ScalarSpectralField, a):
    """Pointwise product of a scalar field with a scalar, vector or tensor field."""
    return _convolve(f, a, lambda s, x: s.reshape(s.shape + (1,) * (x.ndim - s.ndim)) * x)


def identity_tensor() -> SpectralTensorField:
    return SpectralTensorField(K=[(0, 0, 0)], C=[np.eye(3)], truncation_radius=0)


def inverse_and_det(G):
    """Inverse and determinant of symmetric 3x3 matrices G (..., 3, 3) in
    closed form: the cofactor matrix over det G = g00 c00 + g01 c01 + g02 c02,
    read from the upper triangle."""
    g00, g01, g02 = G[..., 0, 0], G[..., 0, 1], G[..., 0, 2]
    g11, g12, g22 = G[..., 1, 1], G[..., 1, 2], G[..., 2, 2]
    c00 = g11 * g22 - g12 * g12
    c01 = g02 * g12 - g01 * g22
    c02 = g01 * g12 - g02 * g11
    c11 = g00 * g22 - g02 * g02
    c12 = g01 * g02 - g00 * g12
    c22 = g00 * g11 - g01 * g01
    det = g00 * c00 + g01 * c01 + g02 * c02
    C = np.stack([c00, c01, c02, c01, c11, c12, c02, c12, c22], axis=-1)
    return (C / det[..., None]).reshape(G.shape), det


def require_positive(G, det, where):
    """Raise NotPositiveDefinite if some matrix of G (m, 3, 3) has a non-finite
    entry or its smallest eigenvalue (by eigvalsh) at or below 1e-12.

    A matrix is certified without an eigensolve when its leading minors
    g00 and g00 g11 - g01^2 are positive and the bound
    lambda_min >= 4 det / tr^2 (the other two eigenvalues have product at
    most (tr / 2)^2) clears 1e-12 by a rounding margin of 256 ulp of its
    largest entry; eigvalsh decides the others.
    """
    G = G.reshape(-1, 3, 3)
    if not np.all(np.isfinite(G)):
        raise NotPositiveDefinite(f"metric not positive definite: non-finite entries on {where}")
    size = np.max(np.abs(G.reshape(-1, 9)), axis=1)
    margin = 256.0 * np.finfo(float).eps * size
    tr = G[:, 0, 0] + G[:, 1, 1] + G[:, 2, 2]
    minor = G[:, 0, 0] * G[:, 1, 1] - G[:, 0, 1] * G[:, 0, 1]
    bound = 4.0 * det.ravel() / (tr * tr)
    sure = (G[:, 0, 0] > 0.0) & (minor > margin * size) & (bound > 1e-12 + margin)
    if not np.all(sure):
        low = float(np.min(np.linalg.eigvalsh(G[~sure])))
        if low <= 1e-12:
            raise NotPositiveDefinite(f"metric eigenvalue {low:.3e} on {where}")


@np.errstate(all="ignore")  # require_positive refuses a singular or non-finite G
def positive_inverse(G, where):
    """inverse_and_det(G), once require_positive(G, det, where) has passed."""
    Ginv, det = inverse_and_det(G)
    require_positive(G, det, where)
    return Ginv, det


@dataclass(frozen=True)
class MetricField:
    """Metric of the shape scale(x) * g_xi + alpha (x) alpha + eps * extra.

    `g_xi` annihilates the Reeb direction and `alpha_sq` is the rank-one
    block along the contact form.  Family members carry eps = xi_scale_eps,
    extra = b_xi (x) b_xi and the pointwise square-root rescaling
    scale = sqrt(1 + eps^2 q^2 / 4) - eps q / 2 of g_xi, q = xi_scale_norm2;
    the base metric has none and its entries stay exact trig polynomials.
    On the uniform grids a metric reads its eps-independent fields from
    `grid_fields`, one read-only entry per node count; the members of a
    family share one such cache.
    """

    g_xi: SpectralTensorField
    alpha_sq: SpectralTensorField
    inv_entries: SpectralTensorField | None = None
    extra: SpectralTensorField | None = None
    xi_scale_eps: float | None = None
    xi_scale_norm2: ScalarSpectralField | None = None
    degree_hint: int = 2
    grid_fields: dict = field(default_factory=dict, compare=False, repr=False)

    def _fields(self, points):
        return tuple(None if f is None else f.evaluate(points)
                     for f in (self.g_xi, self.alpha_sq, self.extra, self.xi_scale_norm2))

    @np.errstate(over="ignore", invalid="ignore")  # a huge eps gives inf and nan, refused later
    def _combine(self, g_xi, alpha_sq, extra, norm2):
        m = g_xi
        if self.xi_scale_eps is not None:
            s = self.xi_scale_eps * norm2
            m = m * (np.sqrt(1.0 + 0.25 * s * s) - 0.5 * s)[:, None, None]
        m = m + alpha_sq
        if extra is not None:
            m = m + self.xi_scale_eps * extra
        return m

    def matrix(self, points):
        return self._combine(*self._fields(points))

    def grid_matrix(self, nodes):
        """The matrix at the points of uniform_grid(nodes)."""
        return self._combine(*_on_grid(self.grid_fields, nodes, self._fields))


@dataclass(frozen=True)
class ContactForm:
    """Contact form (as its flat dual), its Reeb field, and the curl-type
    eigenvalue of the model."""

    alpha: SpectralVectorField
    reeb: SpectralVectorField
    lambda0: float
    grid_fields: dict = field(default_factory=dict, compare=False, repr=False)

    def on_grid(self, nodes):
        """alpha and curl alpha at the points of uniform_grid(nodes), once per node count."""
        return _on_grid(self.grid_fields, nodes, lambda pts: (
            self.alpha.evaluate(pts), curl_spectral(self.alpha).evaluate(pts)))


@dataclass(frozen=True)
class VariationTensor:
    """Traceless first-order direction h = b_xi (x) b_xi - |b_xi|^2 g_xi / 2."""

    entries: SpectralTensorField
    beta_xi: SpectralVectorField
    norm2: ScalarSpectralField  # |beta_xi|_g^2 as an exact trig polynomial
    grid_fields: dict = field(default_factory=dict, compare=False, repr=False)

    def entries_on_grid(self, nodes):
        """h's entries at the points of uniform_grid(nodes), once per node count."""
        return _on_grid(self.grid_fields, nodes, self.entries.evaluate)


@dataclass(frozen=True)
class CompatibilityReport:
    """Sup-norm defects of the three compatibility identities on a grid."""

    unit_norm_defect: float
    star_defect: float
    volume_defect: float
    nodes: int

    def max_defect(self):
        return max(self.unit_norm_defect, self.star_defect, self.volume_defect)


class MetricFamily:
    """Volume-preserving family g_eps = g + eps b (x) b + [...] g_xi.

    The bracket factor sqrt(1 + eps^2 |b_xi|^4 / 4) - eps |b_xi|^2 / 2 - 1
    rescales g_xi so that det(g_eps) = det(g) pointwise; the derivative at
    eps = 0 is the variation tensor of `beta`.  The family holds no
    epsilons: a sweep passes those it samples, and `check_positive` refuses
    a member that is not a metric.  The eps-independent fields of the
    members are evaluated once per uniform grid and kept for all of them,
    as is `collinear_fraction`.
    """

    def __init__(self, base: MetricField, contact: ContactForm, beta: SpectralVectorField):
        self.base = base
        self.contact = contact
        self.beta = beta
        self.variation = variation_tensor(beta, contact, base)
        self._outer = outer(self.variation.beta_xi)
        self._grid_fields = {}  # nodes -> fields on uniform_grid(nodes), see MetricField
        self._collinear = {}  # (grid, tol) -> collinear_fraction

    def check_positive(self, epsilons):
        """Raise NotPositiveDefinite unless the member at every epsilon is
        positive definite on the 12^3 grid."""
        for eps in epsilons:
            positive_inverse(self.member(eps).grid_matrix(12), "the 12^3 grid")

    def collinear_fraction(self, grid, tol) -> float:
        """noncollinearity_measure of the contact form and beta, computed
        once per (grid, tol) for this family."""
        if (grid, tol) not in self._collinear:
            self._collinear[grid, tol] = noncollinearity_measure(self.contact.alpha, self.beta,
                                                                 grid, tol)
        return self._collinear[grid, tol]

    def member(self, eps) -> MetricField:
        eps = float(eps)
        return MetricField(
            g_xi=self.base.g_xi,
            alpha_sq=self.base.alpha_sq,
            inv_entries=None,
            extra=self._outer,
            xi_scale_eps=eps,
            xi_scale_norm2=self.variation.norm2,
            degree_hint=12,
            grid_fields=self._grid_fields,
        )


# ---------------------------------------------------------------------------
# the standard model


def std_contact_t3():
    """Standard contact model: alpha = cos(x3) dx1 - sin(x3) dx2, flat metric.

    Returns (ContactForm, MetricField) with lambda0 = 1; the Reeb field is
    (cos x3, -sin x3, 0), a unit-eigenvalue curl eigenfield, and under the
    flat metric it is the dual of alpha: one and the same field.
    """
    alpha = SpectralVectorField.from_pairs(
        {(0, 0, 1): np.array([0.5, 0.5j, 0.0], dtype=complex)}, truncation_radius=1
    )
    alpha_sq = outer(alpha)
    metric = MetricField(
        g_xi=identity_tensor() - alpha_sq,
        alpha_sq=alpha_sq,
        inv_entries=identity_tensor(),
        degree_hint=2,
    )
    return ContactForm(alpha=alpha, reeb=alpha, lambda0=1.0), metric


def default_perturbation_form():
    """Default splitting direction: unit-L2 dual of (0, sin x1, cos x1).

    Lies in the unit-eigenvalue curl eigenspace, is L2-orthogonal to the
    model contact form, and is generically noncollinear with it.
    """
    s = TWO_PI ** -1.5
    return SpectralVectorField.from_pairs(
        {(1, 0, 0): np.array([0.0, -0.5j * s, 0.5 * s], dtype=complex)}, truncation_radius=1
    )


@functools.cache
def standard_family() -> MetricFamily:
    """The model family, built once per process: std_contact_t3's metric
    perturbed along default_perturbation_form.  Every run shares it, with
    its grid caches (one read-only entry per node count that a run meets,
    none depending on an epsilon or a config) and the collinear fraction
    that a run asks for."""
    contact, g = std_contact_t3()
    return MetricFamily(g, contact, default_perturbation_form())


# ---------------------------------------------------------------------------
# operations


def check_compatibility(g: MetricField, contact: ContactForm) -> CompatibilityReport:
    """Sup-norm defects of |alpha|_g = 1, star_g d(alpha) = lambda0 alpha,
    and vol_g = (1/lambda0) alpha ^ d(alpha) over a uniform grid."""
    nodes = max(24, 2 * (g.degree_hint + contact.alpha.degree()) + 1)
    G = g.grid_matrix(nodes)
    Ginv, det = inverse_and_det(G)
    sqrt_det = np.sqrt(det)
    A, w = contact.on_grid(nodes)  # w is the vector proxy of d(alpha)

    norm = np.sqrt(np.einsum("pi,pij,pj->p", A, Ginv, A))
    unit_defect = float(np.max(np.abs(norm - 1.0)))

    star = np.einsum("pij,pj->pi", G, w) / sqrt_det[:, None]
    star_defect = float(np.max(np.abs(star - contact.lambda0 * A)))

    wedge = np.einsum("pi,pi->p", A, w)
    volume_defect = float(np.max(np.abs(sqrt_det - wedge / contact.lambda0)))

    return CompatibilityReport(
        unit_norm_defect=unit_defect,
        star_defect=star_defect,
        volume_defect=volume_defect,
        nodes=nodes,
    )


# grid of the pointwise det(g_eps) = det(g) check of family_compatibility
DET_GRID = 20


def family_compatibility(family: MetricFamily, epsilons):
    """Compatibility of the family's member at every epsilon.

    Returns ({eps: CompatibilityReport}, worst pointwise relative deviation
    of det(g_eps) from det(g) on the DET_GRID^3 grid).
    """
    det0 = inverse_and_det(family.base.grid_matrix(DET_GRID))[1]
    reports = {}
    worst_det = 0.0
    for eps in map(float, epsilons):
        member = family.member(eps)
        reports[eps] = check_compatibility(member, family.contact)
        det = inverse_and_det(member.grid_matrix(DET_GRID))[1]
        worst_det = max(worst_det, float(np.max(np.abs(det - det0) / np.abs(det0))))
    return reports, worst_det


def xi_projection(beta: SpectralVectorField, contact: ContactForm) -> SpectralVectorField:
    """Projection beta_xi = beta - beta(R) alpha onto the contact planes (metric-independent)."""
    return beta - multiply(dot(beta, contact.reeb), contact.alpha)


def variation_tensor(beta: SpectralVectorField, contact: ContactForm,
                     g: MetricField) -> VariationTensor:
    """h = beta_xi (x) beta_xi - |beta_xi|_g^2 g_xi / 2, exact in trig terms.

    Requires a metric with exact polynomial inverse entries (the model
    metric has the identity).
    """
    if g.inv_entries is None:
        raise ValueError("variation_tensor needs a metric with exact inverse entries")
    bxi = xi_projection(beta, contact)
    norm2 = dot(bxi, contract(g.inv_entries, bxi))
    h = outer(bxi) - multiply(norm2.scaled(0.5), g.g_xi)
    return VariationTensor(entries=h, beta_xi=bxi, norm2=norm2)


def noncollinearity_measure(alpha: SpectralVectorField, beta: SpectralVectorField,
                            grid: int, tol: float) -> float:
    """Fraction of grid points where the pointwise norm of alpha ^ beta is below tol."""
    pts, _ = uniform_grid(grid)
    A = alpha.evaluate(pts)
    B = beta.evaluate(pts)
    wedge = np.cross(A, B)
    norms = np.linalg.norm(wedge, axis=1)
    return float(np.mean(norms < tol))


def variation_pairing(forms, h: VariationTensor, g: MetricField, lam: float) -> np.ndarray:
    """Pairing matrix of a list of 1-forms: entry (m, l) is the quadrature of
    lam*h(a_m#, a_l#) - (lam/2) Tr_g(h) g(a_m#, a_l#) over vol_g.

    The metric, h and every form are evaluated once on one grid and the
    symmetric k x k matrix comes from one contraction.  The node count lies
    strictly above the Nyquist bound of the widest pair's trig degree, so
    every entry is exact for polynomial metrics.
    """
    widest = max(a.degree() for a in forms)
    nodes = max(16, h.entries.degree() + 2 * widest + g.degree_hint + 1)
    pts, w = uniform_grid(nodes)
    G = g.grid_matrix(nodes)
    Ginv, det = inverse_and_det(G)
    sqrt_det = np.sqrt(det)
    sharp = np.einsum("pij,kpj->kpi", Ginv, np.stack([a.evaluate(pts) for a in forms]))
    H = h.entries_on_grid(nodes)
    tr = np.einsum("pij,pij->p", Ginv, H)
    core = (lam * w) * (H - 0.5 * tr[:, None, None] * G) * sqrt_det[:, None, None]
    Pi = np.einsum("mpi,pij,lpj->ml", sharp, core, sharp, optimize=True)
    return 0.5 * (Pi + Pi.T)
