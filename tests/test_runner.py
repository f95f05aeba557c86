import copy
import json
import os
import random
import resource
import subprocess
import sys
import time
import types
from importlib import resources

import jsonschema
import numpy as np
import pytest

import eulerlab
from eulerlab import cli, runner
from eulerlab import spectral as sp
from eulerlab.errors import ComputeFailure, ConfigInvalid


def test_load_config_applies_defaults():
    cfg = runner.load_config({"kind": "abc", "params": {"A": 1, "B": 0.5, "C": 0.1}})
    assert cfg.params["grid"] == 64
    assert cfg.seed == 0


def test_load_config_rejects_missing_and_unknown_keys():
    with pytest.raises(ConfigInvalid):
        runner.load_config({"kind": "spectrum", "params": {}})
    with pytest.raises(ConfigInvalid):
        runner.load_config({"kind": "spectrum", "params": {"n": 1, "extra": 2}})
    with pytest.raises(ConfigInvalid):
        runner.load_config({"kind": "nope", "params": {}})


def test_config_hash_depends_on_content():
    a = runner.load_config({"kind": "spectrum", "params": {"n": 1}})
    b = runner.load_config({"kind": "spectrum", "params": {"n": 2}})
    c = runner.load_config({"kind": "spectrum", "seed": 0, "params": {"n": 1}})
    assert a.config_hash != b.config_hash
    assert a.config_hash == c.config_hash  # defaulted seed is canonicalized


def test_spectrum_run_reports_both_predicates(tmp_path):
    cfg = runner.load_config({"kind": "spectrum", "params": {"n": 1}})
    rec = runner.run(cfg, out_dir=str(tmp_path / "s1"))
    assert rec.ok
    report = json.load(open(tmp_path / "s1" / "report.json"))
    assert report["multiplicity"] == 6
    assert report["admissible_mod8"] is True
    assert report["config_hash"] == cfg.config_hash
    assert report["version"] == rec.tool_version

    cfg7 = runner.load_config({"kind": "spectrum", "params": {"n": 7}})
    rec7 = runner.run(cfg7, out_dir=str(tmp_path / "s7"))
    assert rec7.ok  # empty shell reported, no assertion fails
    report7 = json.load(open(tmp_path / "s7" / "report.json"))
    assert report7["shell_nonempty"] is False
    assert report7["multiplicity"] == 0

    cfg4 = runner.load_config({"kind": "spectrum", "params": {"n": 4}})
    rec4 = runner.run(cfg4, out_dir=str(tmp_path / "s4"))
    report4 = json.load(open(tmp_path / "s4" / "report.json"))
    assert report4["admissible_mod8"] is False
    assert report4["shell_nonempty"] is True


def test_abc_run_with_stagnation_points(tmp_path):
    cfg = runner.load_config(
        {"kind": "abc", "params": {"A": 1, "B": 1, "C": 1, "grid": 32}})
    rec = runner.run(cfg, out_dir=str(tmp_path))
    assert rec.ok  # residual assertions still pass
    report = json.load(open(tmp_path / "report.json"))
    assert report["factor_gap"] is None
    assert "factor_note" in report


def test_manifest_hashes(tmp_path):
    cfg = runner.load_config({"kind": "spectrum", "params": {"n": 2}})
    rec = runner.run(cfg, out_dir=str(tmp_path))
    from eulerlab import serialize as ser

    for entry in rec.files:
        assert ser.sha256_of_file(os.path.join(rec.out_dir, entry["name"])) == entry["sha256"]
    assert "shell.csv" in {entry["name"] for entry in rec.files}


def test_rerun_is_byte_identical(tmp_path):
    config = {"kind": "bernoulli", "seed": 5,
              "params": {"source": {"shell": {"n": 2, "seed": 5}}}}
    recs = []
    for tag in ("a", "b"):
        cfg = runner.load_config(config)
        recs.append(runner.run(cfg, out_dir=str(tmp_path / tag)))
    h0 = {f["name"]: f["sha256"] for f in recs[0].files}
    h1 = {f["name"]: f["sha256"] for f in recs[1].files}
    assert h0 == h1


def test_lyapunov_run_with_assertions(tmp_path):
    cfg = runner.load_config({
        "kind": "lyapunov",
        "params": {"A": 1.0, "B": 0.5, "C": 0.0, "T": 200.0, "renorm": 2.0,
                   "tol": 1e-8, "seeds": 2, "assert_all_below": 0.05},
    })
    rec = runner.run(cfg, out_dir=str(tmp_path))
    assert rec.ok
    names = {f["name"] for f in rec.files}
    assert {"lyapunov_history_00.csv", "lyapunov_history_01.csv"} <= names
    report = json.load(open(tmp_path / "report.json"))
    assert "field_hash" in report and len(report["x0s"]) == len(report["estimates"]) == 2
    assert report["config"]["seed"] == 0
    assert {"tol": 1e-8, "T": 200.0}.items() <= report["config"]["params"].items()


def test_rerun_into_same_out_removes_files_of_the_previous_manifest(tmp_path):
    def lyapunov(seeds):
        return runner.load_config({
            "kind": "lyapunov",
            "params": {"A": 1.0, "B": 0.5, "C": 0.0, "T": 4.0, "renorm": 2.0,
                       "tol": 1e-8, "seeds": seeds},
        })

    runner.run(lyapunov(3), out_dir=str(tmp_path))
    (tmp_path / "notes.txt").write_text("not in any manifest\n")
    rec = runner.run(lyapunov(1), out_dir=str(tmp_path))
    listed = {f["name"] for f in rec.files}
    assert listed == {"report.json", "lyapunov_history_00.csv"}
    assert set(os.listdir(tmp_path)) == listed | {"run_record.json", "notes.txt"}
    from eulerlab import serialize as ser

    assert all(ser.sha256_of_file(tmp_path / f["name"]) == f["sha256"] for f in rec.files)


def test_abc_rerun_removes_the_grid_csv_of_an_older_run(tmp_path):
    """A run directory left by a version whose abc run wrote factor.csv and
    listed it in its manifest: the rerun deletes the file and lists only
    what it wrote."""
    (tmp_path / "factor.csv").write_text("x1,x2,x3,value\n0.0,0.0,0.0,1.0\n")
    (tmp_path / "run_record.json").write_text(json.dumps(
        {"files": [{"name": "factor.csv", "sha256": "0" * 64}]}))
    rec = runner.run(runner.load_config(TINY["abc"]), out_dir=str(tmp_path))
    assert rec.ok
    assert not (tmp_path / "factor.csv").exists()
    manifest = json.loads((tmp_path / "run_record.json").read_text())["files"]
    assert {f["name"] for f in manifest} == {"report.json", "field.json"}


def test_poincare_run_sidecar(tmp_path):
    cfg = runner.load_config({
        "kind": "poincare",
        "params": {"A": 1.0, "B": 0.5, "C": 0.0, "x0": [0.2, 0.0, 1.3],
                   "count": 5, "max_time": 500.0},
    })
    rec = runner.run(cfg, out_dir=str(tmp_path))
    assert rec.ok
    section = open(tmp_path / "section.csv").read()
    assert section.startswith("s1,s2\n")
    report = json.load(open(tmp_path / "report.json"))
    assert "field_hash" in report and report["config"]["seed"] == 0
    assert {"tol": 1e-10, "max_time": 500.0}.items() <= report["config"]["params"].items()


@pytest.mark.parametrize("doc, expected, check", [
    ({"kind": "poincare", "params": {"A": 1.0, "B": 0.5, "C": 0.1, "x0": [0.2, 0.0, 1.3],
                                     "count": 5, "max_time": 500.0}},
     {"bernoulli_range_gap": 0.0, "bernoulli_derivative_sup": 0.0},
     ("bernoulli_first_integral", "bernoulli_range_gap")),
    # 128 of the 32^3 grid points, where cos x1 = cos x3 = 0, have alpha ^ beta = 0
    ({"kind": "perturb", "params": {"K": 1, "epsilons": [-0.1, 0.1]}},
     {"alpha_beta_collinear_fraction": 0.00390625,
      # test_serialize.py pins the text of this hash
      "metric_hash": "edeba732bb0549fe5c5ed1d2cb3976cb41e0c39d436a95a0c1b4ad4e504a7f3d"},
     ("alpha_beta_collinear_fraction", "alpha_beta_collinear_fraction")),
], ids=["poincare", "perturb"])
def test_runs_report_the_paper_checks(tmp_path, doc, expected, check):
    hashes = []
    for tag in ("a", "b"):
        rec = runner.run(runner.load_config(doc), out_dir=str(tmp_path / tag))
        assert rec.ok
        hashes.append({f["name"]: f["sha256"] for f in rec.files})
        report = json.load(open(tmp_path / tag / "report.json"))
        assert {key: report[key] for key in expected} == expected
        # check: the name of the new run assertion and the report key it bounds
        [record] = [a for a in rec.assertions if a["name"] == check[0]]
        assert record["passed"] and record["value"] == report[check[1]]
    assert hashes[0] == hashes[1]


def test_cli_run_exit_codes(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"kind": "spectrum", "params": {"n": 3}}))
    assert cli.main(["run", "--config", str(good), "--out", str(tmp_path / "out")]) == 0

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "spectrum", "params": {}}))
    out_bad = tmp_path / "outbad"
    assert cli.main(["run", "--config", str(bad), "--out", str(out_bad)]) == 2
    assert not out_bad.exists()  # no files written on config failure

    missing = tmp_path / "missing.json"
    assert cli.main(["run", "--config", str(missing)]) == 2


def _python(*args, preexec_fn=None, timeout=120):
    """Run a fresh interpreter that imports eulerlab from this checkout."""
    src = os.path.dirname(os.path.dirname(eulerlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=timeout, preexec_fn=preexec_fn)


def _cap_address_space(limit=2 << 30):
    """At most `limit` bytes (2 GB) of address space, so a run that asks for more fails alone."""
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("doc, code", [
    ({"kind": "spectrum", "params": {"n": 200966}}, 0),
    # v x curl v of a shell with 12,384 modes would take 6.86 GiB in one
    # array; the product ceiling refuses its 1.35e10 bytes of mode pairs
    ({"kind": "bernoulli", "params": {"source": {"shell": {"n": 1000001, "seed": 0}}}}, 1),
], ids=["spectrum-large-shell", "bernoulli-out-of-memory"])
def test_large_shells_compute_or_fail_typed_under_a_memory_cap(tmp_path, doc, code):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps(doc))
    out = tmp_path / "o"
    start = time.perf_counter()
    proc = _python("-m", "eulerlab.cli", "run", "--config", str(cfgfile), "--out", str(out),
                   preexec_fn=_cap_address_space)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code:
        assert time.perf_counter() - start < 5.0
        assert len(proc.stderr.strip().splitlines()) == 1
        assert "compute error" in proc.stderr
        assert "bytes of mode pairs" in proc.stderr and "exceed the ceiling" in proc.stderr
        assert not out.exists()
    else:
        assert json.loads((out / "report.json").read_text())["multiplicity"] > 0


def test_abc_run_at_grid_256_fits_in_512_mib(tmp_path):
    # the grid diagnostics reduce slab by slab; one (256, 256, 256, 3) grid
    # of v alone would be 384 MiB
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps(
        {"kind": "abc", "params": {"A": 1.0, "B": 0.5, "C": 0.1, "grid": 256}}))
    out = tmp_path / "o"
    proc = _python("-m", "eulerlab.cli", "run", "--config", str(cfgfile), "--out", str(out),
                   preexec_fn=lambda: _cap_address_space(512 << 20))
    assert proc.returncode == 0, proc.stderr
    report = json.loads((out / "report.json").read_text())
    assert report["factor_gap"] <= 1e-10 and report["min_norm"] > 0.4


def test_spectrum_run_passes_at_large_shells(tmp_path):
    # the residual of curl u / sqrt(n) = u does not grow with |k| by rounding;
    # that of curl u = sqrt(n) u was 1.42e-14 here, above the 1e-14 bound
    record = runner.run(runner.load_config({"kind": "spectrum", "params": {"n": 1000001}}),
                        out_dir=str(tmp_path / "o"))
    assert record.ok, record.assertions
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["multiplicity"] > 0 and report["curl_residual"] <= 1e-16


def test_cli_rejects_lyapunov_T_not_above_renorm(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({
        "kind": "lyapunov",
        "params": {"A": 1.0, "B": 0.5, "C": 0.1, "T": 5.0, "renorm": 5.0},
    }))
    out = tmp_path / "o"
    proc = _python("-m", "eulerlab.cli", "run", "--config", str(cfgfile), "--out", str(out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "T > renorm" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("T", [13.0, 12.4])
def test_cli_rejects_lyapunov_T_not_a_whole_number_of_renorm_intervals(tmp_path, T):
    # the run would end on the last renormalization (t = 15 or 10), not at T
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({
        "kind": "lyapunov",
        "params": {"A": 1.0, "B": 0.5, "C": 0.0, "T": T, "renorm": 5.0},
    }))
    out = tmp_path / "o"
    proc = _python("-m", "eulerlab.cli", "run", "--config", str(cfgfile), "--out", str(out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "whole number of renorm" in proc.stderr
    assert not out.exists()


def test_cli_rejects_lyapunov_T_over_renorm_that_overflows(tmp_path):
    # found by the CLI fuzz test: T / renorm = inf made round() raise
    # OverflowError in load_config, a traceback with exit code 1
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({
        "kind": "lyapunov",
        "params": {"A": 1.0, "B": 0.5, "C": 0.0, "T": 1.25e308, "renorm": 5e-324},
    }))
    out = tmp_path / "o"
    proc = _python("-m", "eulerlab.cli", "run", "--config", str(cfgfile), "--out", str(out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "overflows" in proc.stderr
    assert not out.exists()
    with pytest.raises(ConfigInvalid):
        runner.load_config(str(cfgfile))


# schema-valid configs that stepped for minutes: at tol = 1e-300 the steps are
# about tol^(1/8), and renorm = 6e-8 asks for 3.3e7 renormalizations
@pytest.mark.parametrize("doc, message", [
    ({"kind": "lyapunov",
      "params": {"A": 2.0, "B": 0.05, "C": 0.05, "T": 2.0, "renorm": 1.0, "tol": 1e-300}},
     "less than the minimum"),
    ({"kind": "poincare", "params": {"A": 1.0, "B": 0.5, "C": 0.0, "x0": [0.2, 0.0, 1.3],
                                     "count": 1, "max_time": 1.0, "tol": 1e-300}},
     "less than the minimum"),
    ({"kind": "lyapunov", "params": {"A": 2.0, "B": 0.05, "C": 0.05, "T": 2.0, "renorm": 6e-8}},
     "exceeds 100000 renormalization intervals"),
], ids=["lyapunov-tol", "poincare-tol", "lyapunov-intervals"])
def test_cli_rejects_configs_that_would_not_end(tmp_path, doc, message):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps(doc))
    out = tmp_path / "o"
    proc = _python("-m", "eulerlab.cli", "run", "--config", str(cfgfile), "--out", str(out),
                   timeout=30)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert message in proc.stderr
    assert not out.exists()


# amplitude 1e16 estimates 3.6e21 step attempts over max_time 1e4; such a
# run was still stepping after 20 s
@pytest.mark.parametrize("doc", [
    {"kind": "poincare", "params": {"A": 1e16, "B": 0.5, "C": 0.1, "x0": [0.1, 0.2, 0.3],
                                    "count": 5}},
    {"kind": "lyapunov", "params": {"A": 1e16, "B": 0.5, "C": 0.1, "T": 1000.0,
                                    "renorm": 5.0}},
    # the budget counts lanes: 10,000 showcase lanes to T = 1e3 estimate
    # 4.3e8 attempts (about 6 minutes of stepping); 1e9 seeds would take
    # hours to draw, so the check comes before the seeds
    {"kind": "lyapunov", "params": {"A": 1.0, "B": 0.5, "C": 0.1, "T": 1000.0,
                                    "seeds": 10000, "seed_style": "separatrix"}},
    {"kind": "lyapunov", "params": {"A": 1.0, "B": 0.5, "C": 0.1, "T": 1000.0,
                                    "seeds": 1000000000}},
], ids=["poincare", "lyapunov", "lyapunov-10000-lanes", "lyapunov-1e9-lanes"])
def test_cli_refuses_runs_over_the_step_budget(tmp_path, doc):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps(doc))
    out = tmp_path / "o"
    start = time.perf_counter()
    proc = _python("-m", "eulerlab.cli", "run", "--config", str(cfgfile), "--out", str(out),
                   timeout=20)
    assert time.perf_counter() - start < 5.0
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "step attempts" in proc.stderr and "exceed the ceiling of 1e+08" in proc.stderr
    assert not out.exists()


# runs the step budget lets through that would not fit in memory: 5e7
# one-attempt lanes would take some 14 minutes to draw their seeds and then
# ask for a (14, 5e7, 12) float array (67 GB); the gather indices of K = 40
# would take 526 GiB each
@pytest.mark.parametrize("doc", [
    {"kind": "lyapunov", "params": {"A": 1.0, "B": 0.5, "C": 0.1, "T": 0.002, "renorm": 0.001,
                                    "seeds": 50000000}},
    {"kind": "perturb", "params": {"K": 40}},
    {"kind": "pi-map", "params": {"mode": "galerkin", "K": 40}},
], ids=["lyapunov-5e7-short-lanes", "perturb-K40", "pi-map-K40"])
def test_cli_refuses_runs_over_the_memory_ceilings(tmp_path, doc):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps(doc))
    out = tmp_path / "o"
    start = time.perf_counter()
    proc = _python("-m", "eulerlab.cli", "run", "--config", str(cfgfile), "--out", str(out),
                   preexec_fn=_cap_address_space, timeout=20)
    assert time.perf_counter() - start < 5.0
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "exceed the ceiling" in proc.stderr or "over the ceiling" in proc.stderr
    assert not out.exists()


def _refused_in_one_line(tmp_path, doc, code=1):
    """stderr of a CLI run of `doc` in a fresh interpreter under the
    address-space cap, asserted to exit with `code` within 5 s with one
    stderr line and no output directory.  A fresh interpreter, since
    pytest's warning capture would hide a RuntimeWarning of an in-process run."""
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps(doc))
    out = tmp_path / "o"
    start = time.perf_counter()
    proc = _python("-m", "eulerlab.cli", "run", "--config", str(cfgfile), "--out", str(out),
                   preexec_fn=_cap_address_space, timeout=20)
    assert time.perf_counter() - start < 5.0
    assert proc.returncode == code, proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
    assert not out.exists()
    return proc.stderr


def _perturb_refused_in_one_line(tmp_path, epsilons):
    return _refused_in_one_line(tmp_path, {"kind": "perturb",
                                           "params": {"K": 1, "epsilons": epsilons}})


@pytest.mark.parametrize("epsilons", [[1e300], [-1e300, 0.1]])
def test_cli_refuses_a_non_finite_member_metric_in_one_line(tmp_path, epsilons):
    # eps = 1e300 overflows the member metric to inf and nan; the positivity
    # guard refuses it before eigvalsh
    stderr = _perturb_refused_in_one_line(tmp_path, epsilons)
    assert "not positive definite: non-finite entries" in stderr


def test_cli_refuses_a_negative_quadrature_determinant_in_one_line(tmp_path):
    # eps = 1e10 passes the positivity guard on rounding noise; the mass
    # assembly refuses its negative determinant before the square root
    stderr = _perturb_refused_in_one_line(tmp_path, [1e10])
    assert "not positive definite: determinant -" in stderr


@pytest.mark.parametrize("q", [1e300, 1e150])
def test_cli_refuses_a_pi_map_metric_far_out_in_one_line(tmp_path, q):
    # q = 1e300 overflows the member metric to inf and nan, and at q = 1e150
    # its determinant overflows; the mass assembly refuses both, and its
    # inverse warns of neither
    stderr = _refused_in_one_line(tmp_path, {"kind": "pi-map",
                                             "params": {"mode": "galerkin", "q": q}})
    assert stderr.startswith("compute error: pi-map run failed: metric ")


# an amplitude beyond 1e150 would overflow the grid diagnostics into Infinity
# and NaN, which a JSON report cannot hold
@pytest.mark.parametrize("doc", [
    {"kind": "abc", "params": {"A": 1e155, "B": 0.5, "C": 0.1}},
    {"kind": "abc", "params": {"A": 1.0, "B": 0.5, "C": -1e300}},
    {"kind": "bernoulli", "params": {"source": {"abc": {"A": 1e300, "B": 0.5, "C": 0.1}}}},
], ids=["abc", "abc-negative", "bernoulli"])
def test_cli_refuses_an_amplitude_beyond_the_bound_in_one_line(tmp_path, doc):
    stderr = _refused_in_one_line(tmp_path, doc, code=2)
    assert "the maximum of 1e+150" in stderr or "the minimum of -1e+150" in stderr


# the slopes over tol overflowed the first step to NaN, which no attempt
# counted as too small, so every attempt was rejected until the run was killed
@pytest.mark.parametrize("doc", [
    {"kind": "poincare", "params": {"A": 1e200, "B": 0.5, "C": 0.1, "x0": [0.1, 0.2, 0.3],
                                    "count": 1, "max_time": 1e-300}},
    {"kind": "lyapunov", "params": {"A": 1e300, "B": 1e300, "C": 0.1, "T": 2e-300,
                                    "renorm": 1e-300}},
], ids=["poincare", "lyapunov"])
def test_cli_refuses_a_non_finite_first_step_in_one_line(tmp_path, doc):
    stderr = _refused_in_one_line(tmp_path, doc)
    assert "step size underflow" in stderr


# a huge tol overflowed the error scale into RuntimeWarnings, or let a run
# write exponents computed at that tolerance
@pytest.mark.parametrize("doc", [
    {"kind": "poincare", "params": {"A": 0, "B": 0, "C": 0, "x0": [0, 0, 179769313.0],
                                    "count": 1, "max_time": 1.0, "axis": 0, "tol": 1e300}},
    {"kind": "lyapunov", "params": {"A": 1, "B": 0.5, "C": 0.1, "T": 10, "renorm": 5,
                                    "tol": 1e300}},
], ids=["poincare", "lyapunov"])
def test_cli_rejects_a_tol_above_the_maximum_in_one_line(tmp_path, doc):
    stderr = _refused_in_one_line(tmp_path, doc, code=2)
    assert "greater than the maximum of 0.001" in stderr


def _refuse_non_finite(constant):
    raise ValueError(f"{constant} is not JSON")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("grid", [8, 32, 64])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_amplitudes_at_the_bound_give_finite_reports(tmp_path, grid, sign):
    amplitudes = {"A": sign * 1e150, "B": -sign * 1e150, "C": sign * 1e150}
    for kind, params in (("abc", {**amplitudes, "grid": grid}),
                         ("bernoulli", {"source": {"abc": amplitudes}, "grid": grid})):
        record = runner.run(runner.load_config({"kind": kind, "params": params}),
                            out_dir=tmp_path / kind)
        assert record.ok, kind
        json.loads((tmp_path / kind / "report.json").read_text(),
                   parse_constant=_refuse_non_finite)


_SHARED_MODEL_RUNS = [
    {"kind": "pi-map", "params": {"mode": "galerkin", "K": 1}},
    {"kind": "perturb", "params": {"K": 2, "epsilons": [-0.1, 0.05, 0.1]}},
    {"kind": "pi-map", "params": {"mode": "galerkin", "K": 2, "q": 0.03}},
]


def test_runs_on_the_shared_model_match_fresh_processes(tmp_path):
    """pi-map, perturb and pi-map again in one process, the later two on the
    standard model that the first built, write the files of a fresh
    interpreter's run of each config."""
    code = f"""
import json, os, sys
from eulerlab import runner
for i, doc in enumerate(json.loads({json.dumps(_SHARED_MODEL_RUNS)!r})):
    out = os.path.join({str(tmp_path)!r}, f"one{{i}}")
    assert runner.run(runner.load_config(doc), out_dir=out).ok
"""
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    for i, doc in enumerate(_SHARED_MODEL_RUNS):
        cfgfile = tmp_path / f"c{i}.json"
        cfgfile.write_text(json.dumps(doc))
        fresh = _python("-m", "eulerlab.cli", "run", "--config", str(cfgfile),
                        "--out", str(tmp_path / f"fresh{i}"))
        assert fresh.returncode == 0, fresh.stderr
        files = [json.loads((tmp_path / f"{which}{i}" / "run_record.json").read_text())["files"]
                 for which in ("one", "fresh")]
        assert files[0] == files[1] and files[0]


# found by the CLI fuzz test: a seed that does not fit a uint64 Philox key
# (lyapunov keys 11 + seed, bernoulli shells key the shell seed) raised
# OverflowError, a traceback with exit code 1
@pytest.mark.parametrize("doc, code", [
    ({"kind": "lyapunov", "seed": 2**64 - 11,
      "params": {"A": 1.0, "B": 0.5, "C": 0.0, "T": 2.0, "renorm": 1.0}}, 2),
    ({"kind": "lyapunov", "seed": 2**64 - 12,
      "params": {"A": 1.0, "B": 0.5, "C": 0.0, "T": 2.0, "renorm": 1.0}}, 0),
    ({"kind": "bernoulli", "params": {"source": {"shell": {"n": 1, "seed": 2**64}}}}, 2),
    ({"kind": "bernoulli", "params": {"source": {"shell": {"n": 1, "seed": 2**64 - 1}}}}, 0),
], ids=["lyapunov-seed-too-large", "lyapunov-largest-seed", "shell-seed-too-large",
        "largest-shell-seed"])
def test_cli_rejects_seeds_beyond_the_philox_key(tmp_path, doc, code):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps(doc))
    out = tmp_path / "o"
    proc = _python("-m", "eulerlab.cli", "run", "--config", str(cfgfile), "--out", str(out))
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code:
        assert len(proc.stderr.strip().splitlines()) == 1
        assert "greater than the maximum" in proc.stderr
        assert not out.exists()
        with pytest.raises(ConfigInvalid):
            runner.load_config(str(cfgfile))


@pytest.mark.parametrize("nodes", [3, 19])
def test_cli_rejects_the_removed_perturb_nodes_key(tmp_path, nodes):
    # the quadrature grid belongs to the basis; 3 nodes once gave an aliased mass
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"kind": "perturb", "params": {"K": 1, "nodes": nodes}}))
    out = tmp_path / "o"
    proc = _python("-m", "eulerlab.cli", "run", "--config", str(cfgfile), "--out", str(out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("token", ["Infinity", "-Infinity", "NaN"])
@pytest.mark.parametrize("template", [
    '{"kind": "lyapunov", "params": {"A": 1.0, "B": 0.5, "C": 0.0, "T": %s}}',
    '{"kind": "abc", "params": {"A": %s, "B": 0.5, "C": 0.1}}',
], ids=["lyapunov", "abc"])
def test_cli_rejects_non_finite_numbers(tmp_path, template, token):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(template % token)
    out = tmp_path / "o"
    proc = _python("-m", "eulerlab.cli", "run", "--config", str(cfgfile), "--out", str(out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert token.lstrip("-") in proc.stderr
    assert not out.exists()
    with pytest.raises(ConfigInvalid):
        runner.load_config(str(cfgfile))


# one small config of every kind; the first five need no Galerkin pencil
TINY = {
    "lyapunov": {"kind": "lyapunov", "params": {"A": 1.0, "B": 0.5, "C": 0.0, "T": 4.0,
                                                "renorm": 2.0, "tol": 1e-8}},
    "poincare": {"kind": "poincare", "params": {"A": 1.0, "B": 0.5, "C": 0.0,
                                                "x0": [0.2, 0.0, 1.3], "count": 2,
                                                "max_time": 100.0}},
    "abc": {"kind": "abc", "params": {"A": 1.0, "B": 0.5, "C": 0.1, "grid": 16}},
    "bernoulli": {"kind": "bernoulli", "params": {"source": {"shell": {"n": 1}}, "grid": 8}},
    "spectrum": {"kind": "spectrum", "params": {"n": 3}},
    "perturb": {"kind": "perturb", "params": {"K": 1, "epsilons": [-0.1, 0.1]}},
    "pi-map": {"kind": "pi-map", "params": {"mode": "synthetic", "dim": 8}},
}


def test_only_pencil_runs_load_scipy(tmp_path):
    """Validating a config of every kind, and its twin with integral floats,
    and running the five kinds without a pencil, in process and through the
    CLI, loads no scipy module, no jsonschema and no contact module; a perturb
    run in the same process then loads the Galerkin and contact modules on
    demand, and neither it nor a pi-map galerkin run loads scipy.sparse."""
    cli_config = tmp_path / "lyapunov.json"
    cli_config.write_text(json.dumps(TINY["lyapunov"]))
    code = f"""
import json, os, sys
from eulerlab import cli, runner
out = {str(tmp_path)!r}
cfgs = {{kind: runner.load_config(doc) for kind, doc in json.loads({json.dumps(TINY)!r}).items()}}
twins = json.loads({json.dumps(TINY)!r}, parse_int=float)
assert all(runner.load_config(twins[kind]) == cfg for kind, cfg in cfgs.items())
for kind in ("lyapunov", "poincare", "abc", "bernoulli", "spectrum"):
    assert runner.run(cfgs[kind], out_dir=os.path.join(out, kind)).ok, kind
assert cli.main(["run", "--config", {str(cli_config)!r}, "--out", os.path.join(out, "cli")]) == 0
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
assert not loaded, loaded
assert "eulerlab.galerkin" not in sys.modules
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "jsonschema")
assert not loaded, loaded
assert "eulerlab.contact" not in sys.modules
assert runner.run(cfgs["perturb"], out_dir=os.path.join(out, "perturb")).ok
assert "eulerlab.galerkin" in sys.modules and "scipy.linalg" in sys.modules
assert "eulerlab.contact" in sys.modules
galerkin = runner.load_config({{"kind": "pi-map", "params": {{"mode": "galerkin", "K": 1}}}})
assert runner.run(galerkin, out_dir=os.path.join(out, "pi-map")).ok
loaded = sorted(m for m in sys.modules if m.startswith("scipy.sparse"))
assert not loaded, loaded
"""
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr


# the files each TINY run writes besides run_record.json
TINY_FILES = {
    "lyapunov": {"report.json", "lyapunov_history_00.csv"},
    "poincare": {"report.json", "section.csv"},
    "abc": {"report.json", "field.json"},
    "bernoulli": {"report.json", "source_field.json", "bernoulli.json"},
    "spectrum": {"report.json", "shell.csv"},
    "perturb": {"report.json", "splitting_curves.csv"},
    "pi-map": {"report.json", "pi.csv", "pi_prime.csv"},
}


@pytest.mark.parametrize("kind", TINY)
def test_report_records_the_config_once(tmp_path, kind):
    """report.json holds the canonical config, which loads and reruns to the
    same manifest; the report echoes no parameter but the two that record
    what the run used, and no sidecar restates them."""
    cfg = runner.load_config(dict(TINY[kind], seed=3))
    rec = runner.run(cfg, out_dir=str(tmp_path / "a"))
    assert rec.ok
    report = json.loads((tmp_path / "a" / "report.json").read_text())
    assert report["config"] == json.loads(cfg.canonical)
    again = runner.load_config(report["config"])
    assert again.config_hash == cfg.config_hash
    assert runner.run(again, out_dir=str(tmp_path / "b")).files == rec.files
    assert {f["name"] for f in rec.files} == TINY_FILES[kind]
    assert set(os.listdir(tmp_path / "a")) == TINY_FILES[kind] | {"run_record.json"}
    used = {"perturb": {"epsilons"}, "pi-map": {"window"}}.get(kind, set())
    assert set(report) & set(cfg.params) == used


def _reference_message(doc):
    """The ConfigInvalid message of the old route: a JSON round trip that
    rejects non-finite numbers, then jsonschema.validate against schemas read
    afresh, each checked against its metaschema on every call."""
    def schema(name):
        with resources.files("eulerlab.schemas").joinpath(f"{name}.json").open() as fh:
            return json.load(fh)

    try:
        doc = json.loads(json.dumps(doc), parse_constant=runner._reject_non_finite)
        jsonschema.validate(doc, schema("config"))
        jsonschema.validate(doc["params"], schema(doc["kind"]))
    except ConfigInvalid as exc:
        return str(exc)
    except jsonschema.ValidationError as exc:
        return f"config failed schema validation: {exc.message}"
    return None


@pytest.mark.parametrize("doc", [
    {"kind": "nope", "params": {}},
    {"kind": "abc", "params": {"A": "1", "B": 0.5, "C": 0.1}},
    {"kind": "abc", "params": []},
    {"kind": "spectrum", "params": {}},
    {"kind": "spectrum"},
    {"kind": "spectrum", "params": {"n": 1, "extra": 2}},
    {"kind": "spectrum", "params": {"n": 1}, "extra": 2},
    {"kind": "lyapunov", "params": {"A": 1, "B": 0.5, "C": 0, "T": 4, "seed_style": "chaotic"}},
    {"kind": "pi-map", "params": {"mode": "dense"}},
    {"kind": "abc", "params": {"A": float("inf"), "B": 0.5, "C": 0.1}},
    {"kind": "lyapunov", "params": {"A": 1, "B": 0.5, "C": 0, "T": float("nan")}},
    {"kind": "perturb", "seed": -1, "params": {"window": [0.8, 1.0, 1.2], "K": 0}},
    # three sibling errors: best_match picks the one at the largest path, not the first
    {"kind": "lyapunov", "params": {"A": "1", "B": 0.5, "C": 0, "T": -1, "seed_style": "x"}},
    {"kind": "bernoulli", "params": {"source": {"abc": {"A": 1, "B": 0.5, "C": 0.1},
                                                "shell": {"n": 1}}}},
], ids=["unknown-kind", "wrong-type", "params-not-object", "missing-required",
        "missing-params", "extra-param", "extra-top-level-key", "bad-enum", "bad-mode",
        "infinity", "nan", "config-and-params-errors", "sibling-errors", "two-sources"])
def test_config_invalid_messages_match_jsonschema_validate(doc):
    expected = _reference_message(doc)
    assert expected is not None
    with pytest.raises(ConfigInvalid) as info:
        runner.load_config(doc)
    assert str(info.value) == expected


# replacement values: bools where numbers go, integral floats where integers
# go, seeds around both 2^64 ceilings, and values of every other JSON type
MUTANTS = [True, False, None, 0, 1, -1, 1.0, 7.0, 8.0, -0.0, 0.5, 1e300, 2e-14, 50_000_001,
           2**64 - 12, 2**64 - 11, 2**64 - 1, 2**64, float(2**64), "x", "random", "galerkin",
           [], [1.0], [0.5, 1.5, 2.5], {}, {"n": 1}, {"A": 1}]
EXTRA_KEYS = ["extra", "aa", "zz", "seed", "grid", "abc", "shell"]


def _mutate(doc, rng):
    """`doc` with one to three random edits, each at a random path of the
    edited document: replace the value, delete it, add a key beside it, or
    append to the array that holds it."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        paths, stack = [], [((), doc)]
        while stack:
            path, node = stack.pop()
            if isinstance(node, dict):
                items = node.items()
            elif isinstance(node, list):
                items = enumerate(node)
            else:
                continue
            for key, value in items:
                paths.append(path + (key,))
                stack.append((path + (key,), value))
        if not paths:
            break
        path = rng.choice(paths)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        edit = rng.choice(["replace", "replace", "replace", "delete", "add", "append"])
        value = copy.deepcopy(rng.choice(MUTANTS))
        if edit == "delete":
            del parent[path[-1]]
        elif edit == "add" and isinstance(parent, dict):
            parent[rng.choice(EXTRA_KEYS)] = value
        elif edit == "append" and isinstance(parent, list):
            parent.append(value)
        else:
            parent[path[-1]] = value
    return doc


def _message(doc):
    try:
        runner.load_config(doc)
    except ConfigInvalid as exc:
        return str(exc)
    return None


def test_config_invalid_messages_match_jsonschema_on_mutated_configs():
    """Seeded mutations of valid configs of all seven kinds, plus hand-picked
    cases: wherever jsonschema rejects, load_config gives its message, and
    wherever it accepts, load_config raises no schema error."""
    bernoulli_abc = {"kind": "bernoulli", "seed": 2**64 - 12,
                     "params": {"source": {"abc": {"A": 1, "B": 0.5, "C": 0.1}}}}
    picked = [
        {"kind": "abc", "params": {"A": True, "B": 0.5, "C": 0.1}},
        {"kind": "abc", "params": {"A": 1, "B": 0.5, "C": 0.1, "grid": 7.0}},
        {"kind": "abc", "params": {"A": 1, "B": 0.5, "C": 0.1, "grid": 8.5}},
        {"kind": "spectrum", "seed": 2**64 - 11, "params": {"n": 1}},
        {"kind": "spectrum", "seed": float(2**64), "params": {"n": 1}},
        {"kind": "spectrum", "seed": True, "params": {"n": 1.0}},
        {"kind": "bernoulli", "params": {"source": {"shell": {"n": 0, "seed": 2**64}}}},
        {"kind": "bernoulli", "params": {"source": {"shell": {"n": 1.5, "seed": -1.0}}}},
        {"kind": "bernoulli", "params": {"source": {"abc": {"A": "1"}}}},
        {"kind": "bernoulli", "params": {"source": {}}},
        {"kind": "bernoulli", "params": {"source": {"abc": 1, "shell": {"n": 1}}}},
        {"kind": "perturb", "params": {"window": [0.8, "1.2"], "epsilons": [True, None]}},
        {"kind": "perturb", "params": {"window": [], "epsilons": []}},
        {"kind": "pi-map", "params": {"window": [0.8, 1.2, 1.5], "mode": 1}},
        {"kind": "poincare", "params": {"A": 1, "B": 0.5, "C": 0, "x0": [0, 0, None],
                                        "count": 1, "direction": True}},
        {"kind": "poincare", "params": {"A": 1, "B": 0.5, "C": 0, "x0": [0, 0, 0],
                                        "count": 1, "direction": -1.0, "axis": 3}},
        {"kind": "lyapunov", "params": {"A": 1, "B": 0.5, "C": 0, "T": -1, "tol": 0,
                                        "seeds": 0, "assert_any_above": "x"}},
    ]
    rng = random.Random(20240)
    kinds = [*TINY.values(), bernoulli_abc]
    docs = picked + [_mutate(kinds[i % len(kinds)], rng) for i in range(400)]
    rejected = 0
    for doc in docs:
        expected, got = _reference_message(doc), _message(doc)
        if expected is None:
            assert got is None or not got.startswith("config failed schema"), (doc, got)
        else:
            rejected += 1
            assert got == expected, doc
    assert rejected > 300


def test_packaged_schemas_pass_their_metaschema():
    names = [f.name[:-5] for f in resources.files("eulerlab.schemas").iterdir()
             if f.name.endswith(".json")]
    assert sorted(names) == sorted(["config", *TINY])
    for name in names:
        schema = runner._schema(name)
        jsonschema.validators.validator_for(schema).check_schema(schema)


@pytest.mark.parametrize("keyword, schema", [
    ("pattern", {"type": "object", "properties": {"out": {"type": "string", "pattern": "^r"}}}),
    ("oneOf", {"type": "object", "properties": {
        "x0": {"type": "array", "items": {"oneOf": [{"type": "number"}, {"type": "null"}]}}}}),
    ("additionalProperties", {"type": "object", "additionalProperties": {"type": "number"}}),
], ids=["pattern", "oneOf", "additionalProperties-schema"])
def test_schema_loader_refuses_keywords_it_does_not_implement(tmp_path, monkeypatch, keyword,
                                                              schema):
    (tmp_path / "synthetic.json").write_text(json.dumps(schema))
    monkeypatch.setattr(runner, "resources", types.SimpleNamespace(files=lambda _: tmp_path))
    with pytest.raises(ValueError, match=f"keyword '{keyword}'"):
        runner._schema("synthetic")


@pytest.mark.parametrize("kind, lists", [("perturb", ("window", "epsilons")),
                                         ("pi-map", ("window",))])
def test_list_defaults_are_not_shared_between_configs(kind, lists):
    with resources.files("eulerlab.schemas").joinpath(f"{kind}.json").open() as fh:
        defaults = {key: sub["default"] for key, sub in json.load(fh)["properties"].items()}
    first = runner.load_config({"kind": kind, "params": {}})
    for key in lists:
        first.params[key][0] = 99.0
        first.params[key].append(99.0)
    second = runner.load_config({"kind": kind, "params": {}})
    assert {key: second.params[key] for key in lists} == {key: defaults[key] for key in lists}


def test_cli_rejects_spectrum_shells_above_the_ceiling(tmp_path):
    # lattice_shell does O(n) work: n = 5e7 takes about 2 s on 2 vCPUs
    assert runner.load_config({"kind": "spectrum", "params": {"n": 50_000_000}}).params == {
        "n": 50_000_000}
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"kind": "spectrum", "params": {"n": 50_000_001}}))
    out = tmp_path / "o"
    proc = _python("-m", "eulerlab.cli", "run", "--config", str(cfgfile), "--out", str(out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines() == [
        "config error: config failed schema validation: "
        "50000001 is greater than the maximum of 50000000"]
    assert not out.exists()


def test_runner_does_not_import_acceptance(tmp_path):
    code = ("import sys\n"
            "from eulerlab import runner\n"
            "cfg = runner.load_config({'kind': 'spectrum', 'params': {'n': 3}})\n"
            f"assert runner.run(cfg, out_dir={str(tmp_path / 'o')!r}).ok\n"
            "assert 'eulerlab.acceptance' not in sys.modules\n")
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("error", [ValueError("bad value"), np.linalg.LinAlgError("singular"),
                                   MemoryError()])
def test_run_wraps_value_and_linalg_errors(tmp_path, monkeypatch, error):
    def body(cfg):
        raise error

    monkeypatch.setitem(runner._BODIES, "spectrum", body)
    cfg = runner.load_config({"kind": "spectrum", "params": {"n": 1}})
    with pytest.raises(ComputeFailure):
        runner.run(cfg, out_dir=str(tmp_path / "o"))
    assert not (tmp_path / "o").exists()


def test_cli_seed_override(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps(
        {"kind": "bernoulli", "params": {"source": {"shell": {"n": 1, "seed": 2}}}}))
    assert cli.main(["run", "--config", str(cfgfile), "--out", str(tmp_path / "o"),
                     "--seed", "9"]) == 0
    rec = json.load(open(tmp_path / "o" / "run_record.json"))
    assert rec["assertions"][0]["passed"]


@pytest.mark.parametrize("seed", [[], ["--seed", "3"]], ids=["config-seed", "seed-override"])
@pytest.mark.parametrize("text", ["[]", '"abc"', "3", "null", "path"])
def test_cli_rejects_config_documents_that_are_not_objects(tmp_path, capsys, text, seed):
    # --seed on such a document raised TypeError; a JSON string naming a
    # valid config was read as that config's path
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"kind": "spectrum", "params": {"n": 3}}))
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps(str(good)) if text == "path" else text)
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(cfgfile), "--out", str(out), *seed]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].endswith("is not of type 'object'")
    assert not out.exists()


def test_assertion_failure_gives_exit_one(tmp_path, monkeypatch):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({
        "kind": "lyapunov",
        "params": {"A": 1.0, "B": 0.5, "C": 0.0, "T": 100.0, "renorm": 2.0,
                   "tol": 1e-8, "seeds": 1, "assert_any_above": 10.0},
    }))
    assert cli.main(["run", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 1


def test_mutation_check_sign_flipped_curl_fails(monkeypatch):
    # a corrupted curl implementation must trip the eigen-residual gate
    from eulerlab import acceptance

    original = sp.curl_spectral

    def flipped(v):
        return original(v).scaled(-1.0)

    monkeypatch.setattr(sp, "curl_spectral", flipped)
    details, records = acceptance.check_curl_eigenfamily()
    assert not all(r["passed"] for r in records)
    assert details["max_curl_residual"] > 0.01


@pytest.mark.parametrize("doc, message", [
    ({"kind": "perturb", "params": {"K": 1, "epsilons": [-0.1, 0.1], "window": [1.5, 2.5]}},
     "lambda0 = 1"),
    ({"kind": "perturb", "params": {"K": 1, "window": [1.2, 0.8]}}, "increasing"),
    ({"kind": "pi-map", "params": {"mode": "galerkin", "K": 1, "window": [1.2, 0.8]}},
     "increasing"),
    ({"kind": "pi-map", "params": {"mode": "synthetic", "window": [1.0, 1.0]}}, "increasing"),
], ids=["perturb-without-lambda0", "perturb-reversed", "pi-map-reversed", "pi-map-empty"])
def test_cli_rejects_bad_windows(tmp_path, doc, message):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps(doc))
    out = tmp_path / "o"
    proc = _python("-m", "eulerlab.cli", "run", "--config", str(cfgfile), "--out", str(out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr
    assert not out.exists()
    with pytest.raises(ConfigInvalid):
        runner.load_config(doc)


def test_pi_map_galerkin_run_passes_and_reruns_byte_identical(tmp_path):
    config = {"kind": "pi-map", "params": {"mode": "galerkin", "K": 1}}
    recs = [runner.run(runner.load_config(config), out_dir=str(tmp_path / tag))
            for tag in ("a", "b")]
    assert all(rec.ok for rec in recs)
    assert {a["name"] for a in recs[0].assertions} == {
        "projector_idempotency", "sigma_match_defect", "certificate_positive"}
    assert recs[0].files == recs[1].files
    report = json.load(open(tmp_path / "a" / "report.json"))
    assert report["cluster_size"] == 6
    assert report["window"] == [0.8, 1.2]


def test_pi_map_galerkin_certificate_agrees_across_K(tmp_path):
    certs = []
    for K in (1, 2, 3):
        config = {"kind": "pi-map", "params": {"mode": "galerkin", "K": K}}
        assert runner.run(runner.load_config(config), out_dir=str(tmp_path / str(K))).ok
        certs.append(json.load(open(tmp_path / str(K) / "report.json"))["certificate"])
    assert max(certs) - min(certs) <= 1e-16


def test_pi_map_galerkin_run_assembles_the_mass_twice(tmp_path, monkeypatch, gather_builds):
    # A(0) and dA share the base assembly; the other one is A(q); all three
    # matrices are on the grid of one basis
    from eulerlab import galerkin as gk

    calls = []
    real = gk.assemble_mass
    monkeypatch.setattr(gk, "assemble_mass", lambda *args: calls.append(args) or real(*args))
    config = {"kind": "pi-map", "params": {"mode": "galerkin", "K": 2}}
    assert runner.run(runner.load_config(config), out_dir=str(tmp_path)).ok
    assert len(calls) == 2
    assert gather_builds == [2]


def test_perturb_report_gives_three_agreeing_routes(tmp_path):
    from eulerlab.acceptance import _slope_agreement

    config = {"kind": "perturb", "params": {"K": 1}}
    assert runner.run(runner.load_config(config), out_dir=str(tmp_path)).ok
    report = json.load(open(tmp_path / "report.json"))
    routes = [np.array(report[key])
              for key in ("fd_slopes", "pencil_eigenvalues", "pairing_eigenvalues")]
    assert all(len(r) == report["cluster_size"] == 6 for r in routes)
    for i in range(3):
        assert _slope_agreement(routes[i], routes[i - 1])


def test_pi_map_synthetic_records_the_contour_it_uses(tmp_path):
    cfg = runner.load_config({"kind": "pi-map", "params": {"mode": "synthetic", "dim": 12,
                                                          "window": [5, 6]}})
    rec = runner.run(cfg, out_dir=str(tmp_path))
    assert rec.ok
    report = json.load(open(tmp_path / "report.json"))
    assert report["window"] == [-0.5, 1.5] and report["dimension"] == 12
    assert report["config"]["params"]["window"] == [5, 6]


def test_cli_pi_map_window_without_eigenvalues_exits_one(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps(
        {"kind": "pi-map", "params": {"mode": "galerkin", "K": 1, "window": [5, 6]}}))
    out = tmp_path / "o"
    proc = _python("-m", "eulerlab.cli", "run", "--config", str(cfgfile), "--out", str(out))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines() == [
        "compute error: pi-map run failed: no eigenvalue inside window (5, 6)"]
    assert not out.exists()


def test_pi_map_galerkin_K4_peak_stays_below_one_dense_matrix(tmp_path):
    # every matrix of the Galerkin path is block-diagonal: at K = 4
    # (D = 2187) the traced peak of a whole run stays below the 36.5 MiB of
    # one D x D float64 array; a K = 1 run first loads the modules the run
    # imports, which are not the run's arrays
    import tracemalloc

    def config(K):
        return runner.load_config({"kind": "pi-map", "params": {"mode": "galerkin", "K": K}})

    assert runner.run(config(1), out_dir=str(tmp_path / "warm")).ok
    D = 3 * 9 ** 3
    tracemalloc.start()
    try:
        rec = runner.run(config(4), out_dir=str(tmp_path / "K4"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.ok
    assert peak < 8 * D * D
