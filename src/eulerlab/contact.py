"""Explicit contact model on the flat 3-torus and its compatible metrics.

The model contact form is alpha = cos(x3) dx1 - sin(x3) dx2 with Reeb field
R = (cos x3, -sin x3, 0); the flat metric is compatible with it in the sense
that |alpha|_g = 1 and star_g d(alpha) = lambda0 * alpha with lambda0 = 1,
and the Riemannian volume equals (1/lambda0) alpha ^ d(alpha).  On top of
the model sit the volume-preserving perturbation family g_eps driven by a
1-form beta, its traceless first-order variation tensor h, and the
quadrature pairing that measures how h moves curl-type eigenvalues.

All closed-form objects are exact trig polynomials; family members carry an
additional pointwise square-root factor and are evaluated on grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefinite
from .spectral import TWO_PI, SpectralVectorField
from .trig import TrigPoly


def uniform_grid(n):
    """Uniform tensor grid on [0, 2*pi)^3: points (n^3, 3) and cell weight."""
    x = np.arange(n) * (TWO_PI / n)
    g = np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1).reshape(-1, 3)
    return g, (TWO_PI / n) ** 3


def trig_components(field: SpectralVectorField):
    """Exact conversion of a spectral vector field into three trig polynomials."""
    comps = [TrigPoly(), TrigPoly(), TrigPoly()]
    half = len(field.K) // 2
    for k, c in zip(field.K[half:].tolist(), field.C[half:]):
        w = 1.0 if k == [0, 0, 0] else 2.0  # the canonical half stands for both of +-k
        for a in range(3):
            comps[a] = comps[a] + TrigPoly.cos(k, w * c[a].real) + TrigPoly.sin(k, -w * c[a].imag)
    return tuple(comps)


@dataclass(frozen=True)
class OneForm:
    """1-form with trig-polynomial coefficient functions."""

    comps: tuple

    @classmethod
    def from_polys(cls, a1, a2, a3):
        return cls(comps=(a1, a2, a3))

    def eval(self, points):
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        return np.stack([c.eval(pts) for c in self.comps], axis=-1)

    def pair_field(self, r_comps):
        """Pointwise pairing with a vector given by trig components (exact)."""
        out = TrigPoly()
        for a in range(3):
            out = out + self.comps[a] * r_comps[a]
        return out

    def exterior_vector(self):
        """Vector proxy w of the 2-form d(self): w_l = eps_{lij} d_i a_j."""
        a1, a2, a3 = self.comps
        return (
            a3.deriv(1) - a2.deriv(2),
            a1.deriv(2) - a3.deriv(0),
            a2.deriv(0) - a1.deriv(1),
        )

    def degree(self):
        return max(c.degree() for c in self.comps)

    def __add__(self, other):
        return OneForm(comps=tuple(a + b for a, b in zip(self.comps, other.comps)))

    def __sub__(self, other):
        return OneForm(comps=tuple(a - b for a, b in zip(self.comps, other.comps)))

    def scaled(self, s):
        return OneForm(comps=tuple(c.scaled(s) for c in self.comps))


@dataclass(frozen=True)
class TensorPoly:
    """Symmetric 3x3 tensor with trig-polynomial entries."""

    entries: tuple  # tuple of 3 tuples of TrigPoly

    @classmethod
    def identity(cls):
        one = TrigPoly.const(1.0)
        z = TrigPoly()
        return cls(entries=((one, z, z), (z, one, z), (z, z, one)))

    @classmethod
    def outer(cls, form: OneForm):
        e = [[form.comps[i] * form.comps[j] for j in range(3)] for i in range(3)]
        return cls(entries=tuple(tuple(row) for row in e))

    def eval_matrix(self, points):
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        out = np.empty((pts.shape[0], 3, 3))
        for i in range(3):
            for j in range(3):
                out[:, i, j] = self.entries[i][j].eval(pts)
        return out

    def __add__(self, other):
        return TensorPoly(
            entries=tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.entries, other.entries)
            )
        )

    def __sub__(self, other):
        return self + other.scaled(-1.0)

    def scaled(self, s):
        return TensorPoly(
            entries=tuple(tuple(e.scaled(s) for e in row) for row in self.entries)
        )

    def scaled_by_poly(self, p: TrigPoly):
        return TensorPoly(
            entries=tuple(tuple(e * p for e in row) for row in self.entries)
        )

    def apply_form(self, form: OneForm):
        """Row contraction: (T . a)_i = sum_j T_ij a_j, exact."""
        rows = []
        for i in range(3):
            acc = TrigPoly()
            for j in range(3):
                acc = acc + self.entries[i][j] * form.comps[j]
            rows.append(acc)
        return tuple(rows)

    def trace_against(self, inv: "TensorPoly"):
        """Exact trace sum_ij inv_ij T_ij (both symmetric)."""
        acc = TrigPoly()
        for i in range(3):
            for j in range(3):
                acc = acc + inv.entries[i][j] * self.entries[i][j]
        return acc

    def degree(self):
        return max(e.degree() for row in self.entries for e in row)


@dataclass(frozen=True)
class MetricField:
    """Metric of the shape scale(x) * g_xi + alpha (x) alpha + extra.

    `g_xi` annihilates the Reeb direction and `alpha_sq` is the rank-one
    block along the contact form.  Family members carry the pointwise
    square-root rescaling of g_xi through (xi_scale_eps, xi_scale_norm2);
    the base metric has none and its entries stay exact trig polynomials.
    """

    g_xi: TensorPoly
    alpha_sq: TensorPoly
    inv_entries: TensorPoly | None = None
    extra: TensorPoly | None = None
    xi_scale_eps: float | None = None
    xi_scale_norm2: TrigPoly | None = None
    degree_hint: int = 2

    def xi_scale(self, points):
        """Pointwise factor sqrt(1 + eps^2 q^2 / 4) - eps q / 2 on g_xi."""
        if self.xi_scale_eps is None:
            return None
        s = self.xi_scale_eps * self.xi_scale_norm2.eval(np.asarray(points, dtype=float).reshape(-1, 3))
        return np.sqrt(1.0 + 0.25 * s * s) - 0.5 * s

    def matrix(self, points):
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        m = self.g_xi.eval_matrix(pts)
        fac = self.xi_scale(pts)
        if fac is not None:
            m *= fac[:, None, None]
        m += self.alpha_sq.eval_matrix(pts)
        if self.extra is not None:
            m += self.extra.eval_matrix(pts)
        return m

    def check_positive(self, nodes=12, floor=1e-12):
        pts, _ = uniform_grid(nodes)
        mn = float(np.min(np.linalg.eigvalsh(self.matrix(pts))))
        if mn <= floor:
            raise NotPositiveDefinite(f"min metric eigenvalue {mn:.3e} on {nodes}^3 grid")
        return mn


@dataclass(frozen=True)
class ContactForm:
    """Contact form, its Reeb field, and the curl-type eigenvalue of the model."""

    alpha: OneForm
    reeb: SpectralVectorField
    lambda0: float

    def reeb_components(self):
        return trig_components(self.reeb)


@dataclass(frozen=True)
class VariationTensor:
    """Traceless first-order direction h = b_xi (x) b_xi - |b_xi|^2 g_xi / 2."""

    entries: TensorPoly
    beta_xi: OneForm
    norm2: TrigPoly  # |beta_xi|_g^2 as an exact trig polynomial


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

    def __init__(self, base: MetricField, contact: ContactForm, beta: OneForm,
                 epsilon_grid):
        self.base = base
        self.contact = contact
        self.beta = beta
        self.epsilon_grid = list(float(e) for e in epsilon_grid)
        self.variation = variation_tensor(beta, contact, base)
        self._outer = TensorPoly.outer(self.variation.beta_xi)
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
    (cos x3, -sin x3, 0), a unit-eigenvalue curl eigenfield.
    """
    e3 = (0, 0, 1)
    alpha = OneForm.from_polys(TrigPoly.cos(e3), TrigPoly.sin(e3, -1.0), TrigPoly())
    reeb = SpectralVectorField.from_pairs(
        {e3: np.array([0.5, 0.5j, 0.0], dtype=complex)}, truncation_radius=1
    )
    alpha_sq = TensorPoly.outer(alpha)
    g_xi = TensorPoly.identity() - alpha_sq
    metric = MetricField(
        g_xi=g_xi,
        alpha_sq=alpha_sq,
        inv_entries=TensorPoly.identity(),
        degree_hint=2,
    )
    return ContactForm(alpha=alpha, reeb=reeb, lambda0=1.0), metric


def default_perturbation_form():
    """Default splitting direction: unit-L2 dual of (0, sin x1, cos x1).

    Lies in the unit-eigenvalue curl eigenspace, is L2-orthogonal to the
    model contact form, and is generically noncollinear with it.
    """
    s = TWO_PI ** -1.5
    e1 = (1, 0, 0)
    return OneForm.from_polys(TrigPoly(), TrigPoly.sin(e1, s), TrigPoly.cos(e1, s))


# ---------------------------------------------------------------------------
# operations


def check_compatibility(g: MetricField, contact: ContactForm, nodes=None) -> CompatibilityReport:
    """Sup-norm defects of |alpha|_g = 1, star_g d(alpha) = lambda0 alpha,
    and vol_g = (1/lambda0) alpha ^ d(alpha) over a uniform grid."""
    if nodes is None:
        nodes = max(24, 2 * (g.degree_hint + contact.alpha.degree()) + 1)
    pts, _ = uniform_grid(nodes)
    G = g.matrix(pts)
    Ginv = np.linalg.inv(G)
    det = np.linalg.det(G)
    sqrt_det = np.sqrt(det)
    A = contact.alpha.eval(pts)
    lam = contact.lambda0

    norm = np.sqrt(np.einsum("pi,pij,pj->p", A, Ginv, A))
    unit_defect = float(np.max(np.abs(norm - 1.0)))

    w = np.stack([c.eval(pts) for c in contact.alpha.exterior_vector()], axis=-1)
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


def xi_projection(beta: OneForm, contact: ContactForm) -> OneForm:
    """Projection beta_xi = beta - beta(R) alpha onto the contact planes (metric-independent)."""
    br = beta.pair_field(contact.reeb_components())
    correction = OneForm(comps=tuple(c * br for c in contact.alpha.comps))
    return beta - correction


def variation_tensor(beta: OneForm, contact: ContactForm, g: MetricField) -> VariationTensor:
    """h = beta_xi (x) beta_xi - |beta_xi|_g^2 g_xi / 2, exact in trig terms.

    Requires a metric with exact polynomial inverse entries (the model
    metric has the identity).
    """
    if g.inv_entries is None:
        raise ValueError("variation_tensor needs a metric with exact inverse entries")
    bxi = xi_projection(beta, contact)
    sharp = g.inv_entries.apply_form(bxi)
    norm2 = TrigPoly()
    for a in range(3):
        norm2 = norm2 + bxi.comps[a] * sharp[a]
    h = TensorPoly.outer(bxi) - g.g_xi.scaled_by_poly(norm2.scaled(0.5))
    return VariationTensor(entries=h, beta_xi=bxi, norm2=norm2)


def metric_family(g: MetricField, contact: ContactForm, beta: OneForm,
                  epsilons) -> MetricFamily:
    """Volume-preserving compatible family along beta; positivity is checked
    on every epsilon of the grid at construction."""
    return MetricFamily(base=g, contact=contact, beta=beta, epsilon_grid=epsilons)


def noncollinearity_measure(alpha: OneForm, beta: OneForm, grid: int, tol: float) -> float:
    """Fraction of grid points where the pointwise norm of alpha ^ beta is below tol."""
    pts, _ = uniform_grid(grid)
    A = alpha.eval(pts)
    B = beta.eval(pts)
    wedge = np.cross(A, B)
    norms = np.linalg.norm(wedge, axis=1)
    return float(np.mean(norms < tol))


def variation_pairing(forms, h: VariationTensor, g: MetricField, lam: float,
                      nodes=None) -> np.ndarray:
    """Pairing matrix of a list of 1-forms: entry (m, l) is the quadrature of
    lam*h(a_m#, a_l#) - (lam/2) Tr_g(h) g(a_m#, a_l#) over vol_g.

    The metric, h and every form are evaluated once on one grid and the
    symmetric k x k matrix comes from one contraction.  Node counts default
    to strictly above the Nyquist bound of the widest pair's trig degree, so
    every entry is exact for polynomial metrics.
    """
    if nodes is None:
        widest = max(a.degree() for a in forms)
        nodes = max(16, h.entries.degree() + 2 * widest + g.degree_hint + 1)
    pts, w = uniform_grid(nodes)
    G = g.matrix(pts)
    Ginv = np.linalg.inv(G)
    sqrt_det = np.sqrt(np.linalg.det(G))
    sharp = np.einsum("pij,kpj->kpi", Ginv, np.stack([a.eval(pts) for a in forms]))
    H = h.entries.eval_matrix(pts)
    tr = np.einsum("pij,pij->p", Ginv, H)
    core = (lam * w) * (H - 0.5 * tr[:, None, None] * G) * sqrt_det[:, None, None]
    Pi = np.einsum("mpi,pij,lpj->ml", sharp, core, sharp, optimize=True)
    return 0.5 * (Pi + Pi.T)
