"""Acceptance gate: one test per criterion, at the pinned tolerances.

Criteria 1-3 and 5-9 are executed once through the quick verify suite (a
session fixture) and asserted individually; criterion 4 runs the full-level
chaos battery and is the long pole of the suite.
"""

from collections import Counter

import numpy as np
import pytest

from eulerlab import acceptance
from eulerlab import galerkin as gk


@pytest.fixture(scope="session")
def quick_suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify-quick")
    return acceptance.run_suite(level="quick", out_dir=str(out))


def _criterion(suite, number):
    for entry in suite["criteria"]:
        if entry["criterion"] == number:
            return entry
    raise AssertionError(f"criterion {number} missing from suite results")


def _report(entry):
    print(f"criterion {entry['criterion']}: "
          f"{'PASS' if entry['passed'] else 'FAIL'} - {entry['name']}")
    for key, val in entry["details"].items():
        if isinstance(val, float):
            print(f"    {key} = {val:.3e}")


def test_criterion_1_curl_eigenfamily(quick_suite):
    entry = _criterion(quick_suite, 1)
    _report(entry)
    d = entry["details"]
    assert d["multiplicity_1"] == 6
    assert d["max_gram_deviation"] <= 1e-12
    assert d["max_curl_residual"] <= 1e-14
    assert entry["elapsed"] < 10.0
    assert entry["passed"]


def test_criterion_2_steady_pipeline(quick_suite):
    entry = _criterion(quick_suite, 2)
    _report(entry)
    d = entry["details"]
    assert d["max_euler_residual"] <= 1e-10
    assert d["max_bernoulli_residual"] <= 1e-10
    assert d["max_bernoulli_sup"] <= 1e-11
    assert d["factor_gap"] <= 1e-10
    assert entry["elapsed"] < 30.0
    assert entry["passed"]


def test_criterion_3_nonvanishing(quick_suite):
    entry = _criterion(quick_suite, 3)
    _report(entry)
    d = entry["details"]
    assert d["min_norm_B05"] > 0.1
    assert d["min_norm_B05_C01"] > 0.05
    assert d["min_norm_111"] <= 1e-3
    assert entry["elapsed"] < 10.0
    assert entry["passed"]


@pytest.mark.slow
def test_criterion_4_chaos_proxy():
    import time

    t0 = time.time()
    details, passed = acceptance.check_chaos_proxy()
    elapsed = time.time() - t0
    print(f"criterion 4: {'PASS' if passed else 'FAIL'} - chaos proxy "
          f"(baseline {details['baseline_max_abs']:.2e}, "
          f"chaos {details['chaos_max']:.3f} vs theta {details['threshold']:.3f}, "
          f"{details['chaos_hits']} hits)")
    assert details["baseline_max_abs"] <= 5e-3
    assert details["chaos_max"] >= details["threshold"]
    assert elapsed < 180.0
    assert passed


def test_criterion_5_compatible_metrics(quick_suite):
    entry = _criterion(quick_suite, 5)
    _report(entry)
    d = entry["details"]
    assert d["max_compatibility_defect"] <= 1e-10
    assert d["max_det_relative_deviation"] <= 1e-12
    assert d["trace_sup"] <= 1e-12
    assert entry["elapsed"] < 30.0
    assert entry["passed"]


def test_criterion_6_variation_identities(quick_suite):
    entry = _criterion(quick_suite, 6)
    _report(entry)
    d = entry["details"]
    fd = np.array(d["fd_slopes"])
    pairing = np.array(d["pairing_eigenvalues"])
    pencil = np.array(d["pencil_eigenvalues"])
    for a, b in ((fd, pairing), (fd, pencil), (pencil, pairing)):
        assert np.all(np.abs(a - b) <= 1e-6 * np.maximum(np.abs(a), np.abs(b)) + 1e-10)
    assert max(abs(x) for x in d["alpha_routes"]) <= 1e-8
    ref = d["beta_pairing_reference"]
    assert abs(d["beta_pairing"] - ref) <= 1e-8 * abs(ref)
    assert abs(d["alpha_pairing"]) <= 1e-8
    assert entry["elapsed"] + quick_suite["shared_sweep_seconds"] < 120.0
    assert entry["passed"]


def _count_builds(monkeypatch):
    """Counter of the mass assemblies, pencil solves and dM builds from now on."""
    calls = Counter()
    for name in ("assemble_mass", "solve_pencil", "mass_derivative"):
        def counted(*args, _fn=getattr(gk, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(gk, name, counted)
    return calls


def test_criterion_6_builds_the_family_pencil_once(monkeypatch, gather_builds):
    fam = acceptance._family_context()
    calls = _count_builds(monkeypatch)
    curves = gk.track_splitting(fam, (0.8, 1.2), 2)
    # the grid's 7 members and the 6 finite-difference members, and dM once,
    # all on the one grid of the sweep's basis
    assert calls == {"assemble_mass": 13, "solve_pencil": 13, "mass_derivative": 1}
    assert gather_builds == [2]
    calls.clear()
    _, passed = acceptance.check_variation_identities(fam, curves)
    assert passed
    assert calls == {}


def test_criterion_8_assembles_the_base_mass_twice(monkeypatch, gather_builds):
    # A(0) and dA share one assembly; the other maps the forms into the A frame;
    # M0, dM and the base mass share the grid of one basis
    calls = _count_builds(monkeypatch)
    _, passed = acceptance.check_compression_machinery(acceptance._family_context())
    assert passed
    assert calls == {"assemble_mass": 2, "mass_derivative": 1}
    assert gather_builds == [acceptance.SWEEP_K]


def test_criterion_7_splitting(quick_suite):
    entry = _criterion(quick_suite, 7)
    _report(entry)
    d = entry["details"]
    assert d["cluster_size"] == 6
    assert d["fitted_slope_gap"] > 0.0
    assert d["alpha_eigenvalue_deviation"] <= 1e-9
    assert entry["elapsed"] + quick_suite["shared_sweep_seconds"] < 300.0
    assert entry["passed"]


def test_criterion_8_compression_machinery(quick_suite):
    entry = _criterion(quick_suite, 8)
    _report(entry)
    d = entry["details"]
    assert d["max_projector_error"] <= 1e-8
    assert d["max_idempotency_defect"] <= 1e-10
    assert d["max_sigma_match_defect"] <= 1e-9
    assert d["max_pi_prime_fd_defect"] <= 1e-6
    assert d["galerkin_certificate"] > 0.0
    assert entry["elapsed"] < 120.0
    assert entry["passed"]


def test_criterion_9_reproducibility(quick_suite):
    entry = _criterion(quick_suite, 9)
    _report(entry)
    assert entry["details"]["identical"] is True
    assert quick_suite["elapsed_seconds"] < 300.0
    assert entry["passed"]


def test_quick_suite_all_green(quick_suite):
    assert quick_suite["all_passed"]
    assert quick_suite["level"] == "quick"
