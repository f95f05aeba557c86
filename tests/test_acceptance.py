"""Acceptance gate: one test per criterion, at the pinned tolerances.

Criteria 1-3 and 5-9 are executed once through the quick verify suite (a
session fixture) and asserted individually; criterion 4 runs the full-level
chaos battery and is the long pole of the suite.
"""

from collections import Counter

import numpy as np
import pytest

from eulerlab import acceptance, runner
from eulerlab import contact as ct
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
    details, records = acceptance.check_chaos_proxy()
    elapsed = time.time() - t0
    passed = all(r["passed"] for r in records)
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
    fam = ct.standard_family()
    calls = _count_builds(monkeypatch)
    curves = gk.track_splitting(fam, acceptance.SWEEP_EPSILONS, (0.8, 1.2), 2)
    # the grid's 7 members and the 6 finite-difference members, and dM once,
    # all on the one grid of the sweep's basis
    assert calls == {"assemble_mass": 13, "solve_pencil": 13, "mass_derivative": 1}
    assert gather_builds == [2]
    # a second sweep in the process builds nothing new on the basis
    again = gk.track_splitting(fam, acceptance.SWEEP_EPSILONS, (0.8, 1.2), 2)
    assert np.array_equal(again.curves, curves.curves)
    assert gather_builds == [2]
    calls.clear()
    _, records = acceptance.check_variation_identities(fam, curves)
    assert all(r["passed"] for r in records)
    assert calls == {}


def test_criterion_8_assembles_the_base_mass_once(monkeypatch, gather_builds):
    # A(0), dA and the map of the forms into the A frame share the kept M0;
    # M0 and dM share the grid of one basis
    calls = _count_builds(monkeypatch)
    _, records = acceptance.check_compression_machinery(
        ct.standard_family())
    assert all(r["passed"] for r in records)
    assert calls == {"assemble_mass": 1, "mass_derivative": 1}
    assert gather_builds == [acceptance.SWEEP_K]


def test_criterion_8_after_the_shared_sweep_builds_no_base_mass(monkeypatch, gather_builds):
    # the shared K = 3 sweep keeps M0 and dM on the family's base pencil;
    # criterion 8 reads them and writes a cold run's details
    fam = ct.standard_family()
    cold, _ = acceptance.check_compression_machinery(fam)
    gk.form_basis.cache_clear()  # a cold basis: the sweep builds its pencil
    gk.track_splitting(fam, acceptance.SWEEP_EPSILONS, (0.8, 1.2), acceptance.SWEEP_K)
    calls = _count_builds(monkeypatch)
    details, records = acceptance.check_compression_machinery(fam)
    assert all(r["passed"] for r in records)
    assert calls == {}
    assert details == cold


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


# one tiny run of every kind, and the bounds-table names its records carry
TINY_RUNS = {
    "spectrum": {"n": 3},
    "abc": {"A": 1.0, "B": 0.5, "C": 0.1, "grid": 16},
    "bernoulli": {"source": {"shell": {"n": 1}}, "grid": 8},
    "lyapunov": {"A": 1.0, "B": 0.5, "C": 0.0, "T": 4.0, "renorm": 2.0, "tol": 1e-8},
    "poincare": {"A": 1.0, "B": 0.5, "C": 0.0, "x0": [0.2, 0.0, 1.3], "count": 2,
                 "max_time": 100.0},
    "perturb": {"K": 1, "epsilons": [-0.1, 0.1]},
    "pi-map": {"mode": "galerkin", "K": 1},  # synthetic mode applies no certificate floor
}


def test_runs_and_criteria_apply_one_table_of_shared_bounds(quick_suite, tmp_path, monkeypatch):
    def shared(records):
        for r in records:
            if r["name"] in runner.BOUNDS:  # a relative bound records its scale
                assert r["threshold"] == runner.BOUNDS[r["name"]] * r.get("scale", 1.0), r
        return {r["name"] for r in records} & set(runner.BOUNDS)

    configs = {kind: runner.load_config({"kind": kind, "params": params})
               for kind, params in TINY_RUNS.items()}
    in_runs = set()
    for kind, cfg in configs.items():
        record = runner.run(cfg, out_dir=str(tmp_path / kind))
        assert record.ok, kind
        in_runs |= shared(record.assertions)
    in_criteria = set()
    for entry in quick_suite["criteria"]:
        assert entry["passed"] == all(r["passed"] for r in entry["records"])
        in_criteria |= shared(entry["records"])
    # every bound of the table is applied by a run and by a criterion
    assert in_runs == in_criteria == set(runner.BOUNDS)

    # moving one shared bound moves the run assertion and the criterion with it
    monkeypatch.setitem(runner.BOUNDS, "curl_residual", -1.0)
    record = runner.run(configs["spectrum"], out_dir=str(tmp_path / "spectrum"))
    assert [a["name"] for a in record.assertions if not a["passed"]] == ["curl_residual"]
    _, records = acceptance.check_curl_eigenfamily()
    assert [r["name"] for r in records if not r["passed"]] == ["curl_residual"]
    # and the certificate floor, a fraction of max|dA|, in a run and in criterion 8
    monkeypatch.setitem(runner.BOUNDS, "certificate_positive", 1e9)
    record = runner.run(configs["pi-map"], out_dir=str(tmp_path / "pi-map"))
    assert [a["name"] for a in record.assertions if not a["passed"]] == ["certificate_positive"]
    _, records = acceptance.check_compression_machinery(ct.standard_family())
    assert [r["name"] for r in records if not r["passed"]] == ["certificate_positive"]
