"""Exact trigonometric polynomials on the 2*pi-periodic 3-torus.

A :class:`TrigPoly` is a finite real combination of cos(k.x) and sin(k.x)
with integer wave vectors k.  Products are expanded with the
product-to-sum identities, so the algebra stays closed without touching a
grid; integrals reduce to reading off the constant term.
"""

from __future__ import annotations

import numpy as np

from .spectral import VOLUME, lex_negative

COS = 0
SIN = 1


class TrigPoly:
    """Real trig polynomial, stored as {(kind, k): coefficient}.

    Keys are canonical: k is the lexicographically positive representative
    of {k, -k} (sin coefficients flip sign on negation, cos ones do not)
    and sin terms with k = 0 are dropped.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for (kind, k), c in terms.items():
                self._accumulate(kind, k, c)

    # -- construction -------------------------------------------------

    @classmethod
    def const(cls, c):
        p = cls()
        p._accumulate(COS, (0, 0, 0), float(c))
        return p

    @classmethod
    def cos(cls, k, c=1.0):
        p = cls()
        p._accumulate(COS, tuple(int(x) for x in k), float(c))
        return p

    @classmethod
    def sin(cls, k, c=1.0):
        p = cls()
        p._accumulate(SIN, tuple(int(x) for x in k), float(c))
        return p

    def _accumulate(self, kind, k, c):
        if c == 0.0:
            return
        if lex_negative(k):
            k = (-k[0], -k[1], -k[2])
            if kind == SIN:
                c = -c
        if k == (0, 0, 0) and kind == SIN:
            return
        key = (kind, k)
        new = self.terms.get(key, 0.0) + c
        if new == 0.0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    # -- algebra -------------------------------------------------------

    def __add__(self, other):
        out = TrigPoly()
        out.terms = dict(self.terms)
        for (kind, k), c in other.terms.items():
            out._accumulate(kind, k, c)
        return out

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        out = TrigPoly()
        out.terms = {key: -c for key, c in self.terms.items()}
        return out

    def scaled(self, a):
        a = float(a)
        out = TrigPoly()
        if a != 0.0:
            out.terms = {key: a * c for key, c in self.terms.items()}
        return out

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return self.scaled(other)
        out = TrigPoly()
        for (k1kind, k1), c1 in self.terms.items():
            for (k2kind, k2), c2 in other.terms.items():
                c = 0.5 * c1 * c2
                ksum = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2])
                kdif = (k1[0] - k2[0], k1[1] - k2[1], k1[2] - k2[2])
                if k1kind == COS and k2kind == COS:
                    out._accumulate(COS, kdif, c)
                    out._accumulate(COS, ksum, c)
                elif k1kind == SIN and k2kind == SIN:
                    out._accumulate(COS, kdif, c)
                    out._accumulate(COS, ksum, -c)
                elif k1kind == SIN and k2kind == COS:
                    out._accumulate(SIN, ksum, c)
                    out._accumulate(SIN, kdif, c)
                else:  # cos * sin
                    out._accumulate(SIN, ksum, c)
                    out._accumulate(SIN, kdif, -c)
        return out

    __rmul__ = __mul__

    def deriv(self, axis):
        """Partial derivative along the given coordinate axis (0, 1 or 2)."""
        out = TrigPoly()
        for (kind, k), c in self.terms.items():
            ka = k[axis]
            if ka == 0:
                continue
            if kind == COS:
                out._accumulate(SIN, k, -c * ka)
            else:
                out._accumulate(COS, k, c * ka)
        return out

    # -- evaluation and integration -------------------------------------

    def eval(self, points):
        """Evaluate at points of shape (..., 3); returns an array of shape (...)."""
        pts = np.asarray(points, dtype=float)
        flat = pts.reshape(-1, 3)
        out = np.zeros(flat.shape[0])
        cos_keys = [(k, c) for (kind, k), c in self.terms.items() if kind == COS]
        sin_keys = [(k, c) for (kind, k), c in self.terms.items() if kind == SIN]
        if cos_keys:
            kk = np.array([k for k, _ in cos_keys], dtype=float)
            cc = np.array([c for _, c in cos_keys])
            out += np.cos(flat @ kk.T) @ cc
        if sin_keys:
            kk = np.array([k for k, _ in sin_keys], dtype=float)
            cc = np.array([c for _, c in sin_keys])
            out += np.sin(flat @ kk.T) @ cc
        return out.reshape(pts.shape[:-1])

    def integral(self):
        """Integral over the whole torus (volume (2*pi)^3)."""
        return VOLUME * self.terms.get((COS, (0, 0, 0)), 0.0)

    def mean(self):
        return self.terms.get((COS, (0, 0, 0)), 0.0)

    # -- metadata --------------------------------------------------------

    def degree(self):
        """Max over terms of the max absolute wave-vector component."""
        if not self.terms:
            return 0
        return max(max(abs(c) for c in k) for (_, k) in self.terms)

    def axis_degrees(self):
        deg = [0, 0, 0]
        for (_, k) in self.terms:
            for a in range(3):
                deg[a] = max(deg[a], abs(k[a]))
        return tuple(deg)

    def is_zero(self):
        return not self.terms

    def max_abs_coeff(self):
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def sorted_terms(self):
        """Deterministic term listing: (kind, k, coeff) sorted by (k, kind)."""
        return sorted(
            ((kind, k, c) for (kind, k), c in self.terms.items()),
            key=lambda t: (t[1], t[0]),
        )

    def allclose(self, other, tol=1e-12):
        keys = set(self.terms) | set(other.terms)
        return all(
            abs(self.terms.get(key, 0.0) - other.terms.get(key, 0.0)) <= tol
            for key in keys
        )

    def __repr__(self):
        n = len(self.terms)
        return f"TrigPoly({n} term{'s' if n != 1 else ''}, degree {self.degree()})"
