"""Fuzz the command line with schema-valid configs of every kind.

Sizes stay tiny (K = 1, dim <= 12, grids <= 12, short horizons) so every
run is quick; the numbers that do not set the amount of work (amplitudes
of the field-only kinds, levels, starts, windows, q, epsilons, assertion
thresholds) range over all finite floats.  Every config must end with exit
code 0, 1 or 2 and no traceback, and a nonzero exit leaves no output
directory, except a run that completed with a failed assertion: its
directory is whole, with the failing record in run_record.json.  Every
report.json a run writes must parse as JSON, without NaN or Infinity.  Every
integer parameter is drawn also as an integral float, which the schemas
accept as an integer; such a config runs as its integer twin.  Some draws
pass --seed, and some documents are JSON values that are not objects,
which exit 2 with or without it.
"""

import json
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from eulerlab import cli
from eulerlab.dynamics import check_horizon

number = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-10**6, 10**6))
positive = st.one_of(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                     st.integers(1, 10**6))
small = st.one_of(st.floats(-2.0, 2.0), st.integers(-2, 2))


def integer(lo, hi):
    """An integer parameter in [lo, hi], as an int or as an integral float."""
    return st.one_of(st.integers(lo, hi), st.integers(lo, hi).map(float))


pair = st.lists(number, min_size=2, max_size=2)
tol = st.sampled_from([1e-12, 1e-9, 1e-3, 1.0, 1e300])
amplitudes = {"A": number, "B": number, "C": number}
small_amplitudes = {"A": small, "B": small, "C": small}


def _short_or_rejected(horizon):
    """A (T, renorm) that load_config rejects, or a run of at most 8 intervals to T <= 4."""
    T, renorm = horizon
    try:
        check_horizon(T, renorm)
    except ValueError:
        return True
    return T <= 4 and T / renorm <= 8


horizons = st.tuples(st.one_of(positive, st.sampled_from([1.0, 2.0, 4.0])),
                     st.one_of(positive, st.sampled_from([0.5, 1.0, 2.0]))
                     ).filter(_short_or_rejected)

PARAMS = {
    "spectrum": st.fixed_dictionaries({"n": integer(1, 60)}),
    "abc": st.fixed_dictionaries(amplitudes, optional={"grid": integer(8, 12)}),
    "bernoulli": st.fixed_dictionaries({"source": st.one_of(
        st.fixed_dictionaries({"abc": st.fixed_dictionaries(amplitudes)}),
        st.fixed_dictionaries({"shell": st.fixed_dictionaries(
            {"n": integer(1, 12)}, optional={"seed": integer(0, 2**64 - 1)})}))},
        optional={"grid": integer(8, 12)}),
    "lyapunov": st.builds(
        lambda base, horizon: {**base, "T": horizon[0], "renorm": horizon[1]},
        st.fixed_dictionaries(small_amplitudes, optional={
            "tol": tol, "seeds": integer(1, 2),
            "seed_style": st.sampled_from(["random", "separatrix"]),
            "assert_all_below": st.one_of(st.none(), number),
            "assert_any_above": st.one_of(st.none(), number)}),
        horizons),
    "poincare": st.fixed_dictionaries(
        {**small_amplitudes, "x0": st.lists(number, min_size=3, max_size=3),
         "count": integer(1, 3), "max_time": st.floats(1e-300, 2.0)},
        optional={"axis": integer(0, 2), "level": number,
                  "direction": st.sampled_from([1, -1, 1.0, -1.0]), "tol": tol}),
    "perturb": st.fixed_dictionaries({"K": integer(1, 1)}, optional={
        "epsilons": st.lists(number, min_size=1, max_size=3), "window": pair}),
    "pi-map": st.fixed_dictionaries({}, optional={
        "mode": st.sampled_from(["galerkin", "synthetic"]), "K": integer(1, 1), "q": number,
        "window": pair, "contour_nodes": integer(8, 24), "dim": integer(4, 12)}),
}

# one branch of the one_of below, so that most draws stay configs
non_objects = st.sampled_from([None, True, 0, -2.5, "", "abc", [], [1.0, {}]])
configs = st.one_of(*(
    st.fixed_dictionaries({"kind": st.just(kind), "params": params},
                          optional={"seed": integer(0, 2**64 - 12)})
    for kind, params in PARAMS.items()), non_objects)
seeds = st.one_of(st.none(), st.integers(0, 2**64 - 12))


def _refuse_non_finite(constant):
    raise ValueError(f"{constant} is not JSON")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_schema_valid_configs_exit_cleanly(tmp_path_factory, capsys):
    start = time.perf_counter()

    @settings(max_examples=70, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(configs, seeds)
    @example([], 3)  # the draws above reach few non-objects, so each type runs once here
    @example("abc", 0)
    @example(None, None)
    @example(2.5, 2**64 - 12)
    @example({"kind": "spectrum", "params": {"n": 3}}, 5)
    @example({"kind": "abc", "params": {"A": 1e300, "B": 0.5, "C": 0.1, "grid": 8}}, None)
    @example({"kind": "pi-map", "params": {"q": 1e300}}, None)
    @example({"kind": "poincare", "params": {"A": 1e200, "B": 0.5, "C": 0.1, "x0": [0.1, 0.2, 0.3],
                                             "count": 1, "max_time": 1e-300}}, None)
    @example({"kind": "lyapunov", "params": {"A": 1e300, "B": 1e300, "C": 0.1, "T": 2e-300,
                                             "renorm": 1e-300}}, None)
    def run(doc, seed):
        tmp = tmp_path_factory.mktemp("fuzz")
        config, out = tmp / "c.json", tmp / "o"
        config.write_text(json.dumps(doc))
        capsys.readouterr()
        override = [] if seed is None else ["--seed", str(seed)]
        code = cli.main(["run", "--config", str(config), "--out", str(out), *override])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), doc
        assert "Traceback" not in err, doc
        for report in out.rglob("report.json") if out.exists() else ():
            json.loads(report.read_text(), parse_constant=_refuse_non_finite)
        if not isinstance(doc, dict):
            assert code == 2 and "is not of type 'object'" in err, (doc, err)
        if code and not out.exists():
            assert len(err.strip().splitlines()) == 1, (doc, err)
        elif code:
            record = json.loads((out / "run_record.json").read_text())
            assert code == 1 and not all(a["passed"] for a in record["assertions"]), doc
            assert all((out / f["name"]).is_file() for f in record["files"]), doc

    run()
    assert time.perf_counter() - start < 30.0


# one config of every kind whose number-typed values are all floats, so that
# its twin with every int made a float differs only in integer-typed values
INTEGER_TWINS = {
    "spectrum": {"n": 9},
    "abc": {"A": 1.0, "B": 0.5, "C": 0.1, "grid": 16},
    "bernoulli": {"source": {"shell": {"n": 9, "seed": 1}}, "grid": 8},
    "lyapunov": {"A": 1.0, "B": 0.5, "C": 0.0, "T": 2.0, "renorm": 1.0, "seeds": 2},
    "poincare": {"A": 1.0, "B": 0.5, "C": 0.0, "x0": [0.2, 0.0, 1.3], "count": 2,
                 "axis": 2, "direction": -1, "max_time": 100.0},
    "perturb": {"K": 1, "epsilons": [-0.1, 0.1]},
    "pi-map": {"mode": "synthetic", "dim": 8, "contour_nodes": 64},
}


@pytest.mark.parametrize("kind", INTEGER_TWINS)
def test_integral_floats_run_as_their_integer_twin(tmp_path, kind):
    doc = json.dumps({"kind": kind, "seed": 3, "params": INTEGER_TWINS[kind]})
    records = []
    for tag, twin in (("int", json.loads(doc)), ("float", json.loads(doc, parse_int=float))):
        config = tmp_path / f"{tag}.json"
        config.write_text(json.dumps(twin))
        assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / tag)]) == 0
        records.append(json.loads((tmp_path / tag / "run_record.json").read_text()))
    assert records[1]["config_hash"] == records[0]["config_hash"]
    assert records[1]["files"] == records[0]["files"]
