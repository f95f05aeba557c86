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

from dataclasses import dataclass

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


@dataclass(frozen=True)
class MetricField:
    """Metric of the shape scale(x) * g_xi + alpha (x) alpha + extra.

    `g_xi` annihilates the Reeb direction and `alpha_sq` is the rank-one
    block along the contact form.  Family members carry the pointwise
    square-root rescaling of g_xi through (xi_scale_eps, xi_scale_norm2);
    the base metric has none and its entries stay exact trig polynomials.
    """

    g_xi: SpectralTensorField
    alpha_sq: SpectralTensorField
    inv_entries: SpectralTensorField | None = None
    extra: SpectralTensorField | None = None
    xi_scale_eps: float | None = None
    xi_scale_norm2: ScalarSpectralField | None = None
    degree_hint: int = 2

    def xi_scale(self, points):
        """Pointwise factor sqrt(1 + eps^2 q^2 / 4) - eps q / 2 on g_xi."""
        if self.xi_scale_eps is None:
            return None
        s = self.xi_scale_eps * self.xi_scale_norm2.evaluate(points)
        return np.sqrt(1.0 + 0.25 * s * s) - 0.5 * s

    def matrix(self, points):
        m = self.g_xi.evaluate(points)
        fac = self.xi_scale(points)
        if fac is not None:
            m *= fac[:, None, None]
        m += self.alpha_sq.evaluate(points)
        if self.extra is not None:
            m += self.extra.evaluate(points)
        return m

    def check_positive(self):
        pts, _ = uniform_grid(12)
        mn = float(np.min(np.linalg.eigvalsh(self.matrix(pts))))
        if mn <= 1e-12:
            raise NotPositiveDefinite(f"min metric eigenvalue {mn:.3e} on 12^3 grid")
        return mn


@dataclass(frozen=True)
class ContactForm:
    """Contact form (as its flat dual), its Reeb field, and the curl-type
    eigenvalue of the model."""

    alpha: SpectralVectorField
    reeb: SpectralVectorField
    lambda0: float


@dataclass(frozen=True)
class VariationTensor:
    """Traceless first-order direction h = b_xi (x) b_xi - |b_xi|^2 g_xi / 2."""

    entries: SpectralTensorField
    beta_xi: SpectralVectorField
    norm2: ScalarSpectralField  # |beta_xi|_g^2 as an exact trig polynomial


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
    eps = 0 is the variation tensor of `beta`.
    """

    def __init__(self, base: MetricField, contact: ContactForm, beta: SpectralVectorField,
                 epsilon_grid):
        self.base = base
        self.contact = contact
        self.beta = beta
        self.epsilon_grid = list(float(e) for e in epsilon_grid)
        self.variation = variation_tensor(beta, contact, base)
        self._outer = outer(self.variation.beta_xi)
        for eps in self.epsilon_grid:
            self.member(eps).check_positive()

    def member(self, eps) -> MetricField:
        eps = float(eps)
        return MetricField(
            g_xi=self.base.g_xi,
            alpha_sq=self.base.alpha_sq,
            inv_entries=None,
            extra=self._outer.scaled(eps),
            xi_scale_eps=eps,
            xi_scale_norm2=self.variation.norm2,
            degree_hint=12,
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


# ---------------------------------------------------------------------------
# operations


def check_compatibility(g: MetricField, contact: ContactForm) -> CompatibilityReport:
    """Sup-norm defects of |alpha|_g = 1, star_g d(alpha) = lambda0 alpha,
    and vol_g = (1/lambda0) alpha ^ d(alpha) over a uniform grid."""
    nodes = max(24, 2 * (g.degree_hint + contact.alpha.degree()) + 1)
    pts, _ = uniform_grid(nodes)
    G = g.matrix(pts)
    Ginv = np.linalg.inv(G)
    det = np.linalg.det(G)
    sqrt_det = np.sqrt(det)
    A = contact.alpha.evaluate(pts)
    lam = contact.lambda0

    norm = np.sqrt(np.einsum("pi,pij,pj->p", A, Ginv, A))
    unit_defect = float(np.max(np.abs(norm - 1.0)))

    w = curl_spectral(contact.alpha).evaluate(pts)  # vector proxy of d(alpha)
    star = np.einsum("pij,pj->pi", G, w) / sqrt_det[:, None]
    star_defect = float(np.max(np.abs(star - lam * A)))

    wedge = np.einsum("pi,pi->p", A, w)
    volume_defect = float(np.max(np.abs(sqrt_det - wedge / lam)))

    return CompatibilityReport(
        unit_norm_defect=unit_defect,
        star_defect=star_defect,
        volume_defect=volume_defect,
        nodes=nodes,
    )


# grid of the pointwise det(g_eps) = det(g) check of family_compatibility
DET_GRID = 20


def family_compatibility(family: MetricFamily):
    """Compatibility of every member of the family's epsilon grid.

    Returns ({eps: CompatibilityReport}, worst pointwise relative deviation
    of det(g_eps) from det(g) on the DET_GRID^3 grid).
    """
    pts, _ = uniform_grid(DET_GRID)
    det0 = np.linalg.det(family.base.matrix(pts))
    reports = {}
    worst_det = 0.0
    for eps in family.epsilon_grid:
        member = family.member(eps)
        reports[eps] = check_compatibility(member, family.contact)
        det = np.linalg.det(member.matrix(pts))
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


def metric_family(g: MetricField, contact: ContactForm, beta: SpectralVectorField,
                  epsilons) -> MetricFamily:
    """Volume-preserving compatible family along beta; positivity is checked
    on every epsilon of the grid at construction."""
    return MetricFamily(base=g, contact=contact, beta=beta, epsilon_grid=epsilons)


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
    pts, w = uniform_grid(max(16, h.entries.degree() + 2 * widest + g.degree_hint + 1))
    G = g.matrix(pts)
    Ginv = np.linalg.inv(G)
    sqrt_det = np.sqrt(np.linalg.det(G))
    sharp = np.einsum("pij,kpj->kpi", Ginv, np.stack([a.evaluate(pts) for a in forms]))
    H = h.entries.evaluate(pts)
    tr = np.einsum("pij,pij->p", Ginv, H)
    core = (lam * w) * (H - 0.5 * tr[:, None, None] * G) * sqrt_det[:, None, None]
    Pi = np.einsum("mpi,pij,lpj->ml", sharp, core, sharp, optimize=True)
    return 0.5 * (Pi + Pi.T)
