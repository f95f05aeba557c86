"""Deterministic JSON/CSV serialization for fields, tensors, matrices and runs.

All writers emit byte-stable output: JSON with sorted keys and shortest
round-trip floats, CSV with repr-formatted values and LF newlines.  Fields
store one representative per +/-k pair.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .spectral import SpectralVectorField

__all__ = [
    "field_to_json",
    "field_from_json",
    "section_csv",
    "lyapunov_csv",
    "matrix_csv",
    "splitting_curves_csv",
    "dump_json",
    "sha256_of_file",
    "sha256_of_text",
    "field_hash",
]


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def sha256_of_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_of_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# spectral fields


def field_to_json(f) -> dict:
    """Schema: {truncation_radius, modes: [{k: [int x3], re, im}]}, one mode entry per
    +/-k pair: k = 0 when stored, then the lexicographically positive representatives.
    re and im are floats for a scalar field, lists of three floats for a vector field
    and three such lists for a tensor field."""
    half = len(f.K) // 2
    modes = [{"k": k, "re": c.real.tolist(), "im": c.imag.tolist()}
             for k, c in zip(f.K[half:].tolist(), f.C[half:])]
    return {"truncation_radius": f.truncation_radius, "modes": modes}


def field_from_json(doc: dict, cls=SpectralVectorField):
    """Inverse of field_to_json; cls is the field class that was written."""
    pairs = {tuple(m["k"]): np.vectorize(complex)(m["re"], m["im"]) for m in doc["modes"]}
    return cls.from_pairs(pairs, truncation_radius=doc["truncation_radius"])


def field_hash(v: SpectralVectorField) -> str:
    return sha256_of_text(dump_json(field_to_json(v)))


# ---------------------------------------------------------------------------
# CSV emitters


def _csv(header, columns) -> str:
    """CSV text of equal-length columns; str of a float is its shortest round-trip repr."""
    cells = [map(str, np.asarray(col).tolist()) for col in columns]
    return "\n".join([",".join(header)] + [",".join(row) for row in zip(*cells)]) + "\n"


def section_csv(section) -> str:
    return _csv(("s1", "s2"), np.reshape(section.points, (-1, 2)).T)


def lyapunov_csv(estimate) -> str:
    return _csv(("t", "estimate"), np.reshape(estimate.history, (-1, 2)).T)


def matrix_csv(M) -> str:
    M = np.asarray(M, dtype=float)
    i, j = np.nonzero(M)
    return _csv(("row", "col", "value"), [i, j, M[i, j]])


def splitting_curves_csv(curves) -> str:
    k = curves.curves.shape[1]
    header = ("epsilon",) + tuple(f"lambda_{i + 1}" for i in range(k))
    return _csv(header, [np.asarray(curves.epsilons, dtype=float), *curves.curves.T])
