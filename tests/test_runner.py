import json
import os
import resource
import subprocess
import sys
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
    assert "lyapunov_history_00.csv" in names
    assert "lyapunov_meta_01.json" in names
    meta = json.load(open(tmp_path / "lyapunov_meta_00.json"))
    assert {"field_hash", "seed", "tol", "T"} <= set(meta)


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
    assert listed == {"report.json", "lyapunov_history_00.csv", "lyapunov_meta_00.json"}
    assert set(os.listdir(tmp_path)) == listed | {"run_record.json", "notes.txt"}
    from eulerlab import serialize as ser

    assert all(ser.sha256_of_file(tmp_path / f["name"]) == f["sha256"] for f in rec.files)


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
    meta = json.load(open(tmp_path / "section_meta.json"))
    assert {"field_hash", "seed", "tol", "T"} <= set(meta)


@pytest.mark.parametrize("doc, expected, check", [
    ({"kind": "poincare", "params": {"A": 1.0, "B": 0.5, "C": 0.1, "x0": [0.2, 0.0, 1.3],
                                     "count": 5, "max_time": 500.0}},
     {"bernoulli_range_gap": 0.0, "bernoulli_derivative_sup": 0.0},
     ("bernoulli_first_integral", "bernoulli_range_gap")),
    # 128 of the 32^3 grid points, where cos x1 = cos x3 = 0, have alpha ^ beta = 0
    ({"kind": "perturb", "params": {"K": 1, "epsilons": [-0.1, 0.1]}},
     {"alpha_beta_collinear_fraction": 0.00390625},
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


def _python(*args, preexec_fn=None):
    """Run a fresh interpreter that imports eulerlab from this checkout."""
    src = os.path.dirname(os.path.dirname(eulerlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120, preexec_fn=preexec_fn)


def _cap_address_space():
    """At most 2 GB of address space, so a run that asks for more fails alone."""
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("doc, code", [
    ({"kind": "spectrum", "params": {"n": 200966}}, 0),
    # v x curl v of a shell with 12,384 modes would take 6.86 GiB
    ({"kind": "bernoulli", "params": {"source": {"shell": {"n": 1000001, "seed": 0}}}}, 1),
], ids=["spectrum-large-shell", "bernoulli-out-of-memory"])
def test_large_shells_compute_or_fail_typed_under_a_memory_cap(tmp_path, doc, code):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps(doc))
    out = tmp_path / "o"
    proc = _python("-m", "eulerlab.cli", "run", "--config", str(cfgfile), "--out", str(out),
                   preexec_fn=_cap_address_space)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code:
        assert len(proc.stderr.strip().splitlines()) == 1
        assert "compute error" in proc.stderr
        assert not out.exists()
    else:
        assert json.loads((out / "report.json").read_text())["multiplicity"] > 0


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


@pytest.mark.parametrize("nodes", [0, -3])
def test_cli_rejects_perturb_nodes_below_one(tmp_path, nodes):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"kind": "perturb", "params": {"K": 1, "nodes": nodes}}))
    out = tmp_path / "o"
    proc = _python("-m", "eulerlab.cli", "run", "--config", str(cfgfile), "--out", str(out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
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
    """Validating a config of every kind and running the five kinds without a
    pencil, in process and through the CLI, loads no scipy module; a perturb
    run in the same process then loads the Galerkin module on demand."""
    cli_config = tmp_path / "lyapunov.json"
    cli_config.write_text(json.dumps(TINY["lyapunov"]))
    code = f"""
import json, os, sys
from eulerlab import cli, runner
out = {str(tmp_path)!r}
cfgs = {{kind: runner.load_config(doc) for kind, doc in json.loads({json.dumps(TINY)!r}).items()}}
for kind in ("lyapunov", "poincare", "abc", "bernoulli", "spectrum"):
    assert runner.run(cfgs[kind], out_dir=os.path.join(out, kind)).ok, kind
assert cli.main(["run", "--config", {str(cli_config)!r}, "--out", os.path.join(out, "cli")]) == 0
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
assert not loaded, loaded
assert "eulerlab.galerkin" not in sys.modules
assert runner.run(cfgs["perturb"], out_dir=os.path.join(out, "perturb")).ok
assert "eulerlab.galerkin" in sys.modules and "scipy.linalg" in sys.modules
"""
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr


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
    details, passed = acceptance.check_curl_eigenfamily()
    assert not passed
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


def test_pi_map_synthetic_records_the_contour_it_uses(tmp_path):
    cfg = runner.load_config({"kind": "pi-map", "params": {"mode": "synthetic", "dim": 12,
                                                          "window": [5, 6]}})
    rec = runner.run(cfg, out_dir=str(tmp_path))
    assert rec.ok
    for name in ("report.json", "pi_meta.json"):
        assert json.load(open(tmp_path / name))["window"] == [-0.5, 1.5]


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
