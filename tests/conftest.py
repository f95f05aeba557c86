import functools
import os

# one BLAS thread, as perfbench and scripts/bench.py run: set before anything
# imports numpy; an explicit setting in the environment still wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import pytest  # noqa: E402


@pytest.fixture
def gather_builds(monkeypatch):
    """The K of each basis whose gather indices are built from now on."""
    from eulerlab import galerkin as gk  # loads scipy: only in the tests that count

    builds = []
    build = gk.FormBasis.gather_indices.func
    counted = functools.cached_property(lambda basis: builds.append(basis.K) or build(basis))
    counted.__set_name__(gk.FormBasis, "gather_indices")
    monkeypatch.setattr(gk.FormBasis, "gather_indices", counted)
    return builds
