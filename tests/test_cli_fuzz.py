"""Fuzz the command line with schema-valid configs of every kind.

Sizes stay tiny (K = 1, dim <= 12, grids <= 12, short horizons) so every
run is quick; the numbers that do not set the amount of work (amplitudes
of the field-only kinds, levels, starts, windows, q, epsilons, assertion
thresholds) range over all finite floats.  Every config must end with exit
code 0, 1 or 2 and no traceback, and a nonzero exit leaves no output
directory, except a run that completed with a failed assertion: its
directory is whole, with the failing record in run_record.json.
"""

import json
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eulerlab import cli
from eulerlab.dynamics import check_horizon

number = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-10**6, 10**6))
positive = st.one_of(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                     st.integers(1, 10**6))
small = st.one_of(st.floats(-2.0, 2.0), st.integers(-2, 2))
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
    "spectrum": st.fixed_dictionaries({"n": st.integers(1, 60)}),
    "abc": st.fixed_dictionaries(amplitudes, optional={"grid": st.integers(8, 12)}),
    "bernoulli": st.fixed_dictionaries({"source": st.one_of(
        st.fixed_dictionaries({"abc": st.fixed_dictionaries(amplitudes)}),
        st.fixed_dictionaries({"shell": st.fixed_dictionaries(
            {"n": st.integers(1, 12)}, optional={"seed": st.integers(0, 2**64 - 1)})}))},
        optional={"grid": st.integers(8, 12)}),
    "lyapunov": st.builds(
        lambda base, horizon: {**base, "T": horizon[0], "renorm": horizon[1]},
        st.fixed_dictionaries(small_amplitudes, optional={
            "tol": tol, "seeds": st.integers(1, 2),
            "seed_style": st.sampled_from(["random", "separatrix"]),
            "assert_all_below": st.one_of(st.none(), number),
            "assert_any_above": st.one_of(st.none(), number)}),
        horizons),
    "poincare": st.fixed_dictionaries(
        {**small_amplitudes, "x0": st.lists(number, min_size=3, max_size=3),
         "count": st.integers(1, 3), "max_time": st.floats(1e-300, 2.0)},
        optional={"axis": st.integers(0, 2), "level": number,
                  "direction": st.sampled_from([1, -1]), "tol": tol}),
    "perturb": st.fixed_dictionaries({"K": st.just(1)}, optional={
        "epsilons": st.lists(number, min_size=1, max_size=3), "window": pair,
        "nodes": st.one_of(st.none(), st.integers(1, 12))}),
    "pi-map": st.fixed_dictionaries({}, optional={
        "mode": st.sampled_from(["galerkin", "synthetic"]), "K": st.just(1), "q": number,
        "window": pair, "contour_nodes": st.integers(8, 24), "dim": st.integers(4, 12)}),
}

configs = st.one_of(*(
    st.fixed_dictionaries({"kind": st.just(kind), "params": params},
                          optional={"seed": st.integers(0, 2**64 - 12)})
    for kind, params in PARAMS.items()))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_schema_valid_configs_exit_cleanly(tmp_path_factory, capsys):
    start = time.perf_counter()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(configs)
    def run(doc):
        tmp = tmp_path_factory.mktemp("fuzz")
        config, out = tmp / "c.json", tmp / "o"
        config.write_text(json.dumps(doc))
        capsys.readouterr()
        code = cli.main(["run", "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), doc
        assert "Traceback" not in err, doc
        if code and not out.exists():
            assert len(err.strip().splitlines()) == 1, (doc, err)
        elif code:
            record = json.loads((out / "run_record.json").read_text())
            assert code == 1 and not all(a["passed"] for a in record["assertions"]), doc
            assert all((out / f["name"]).is_file() for f in record["files"]), doc

    run()
    assert time.perf_counter() - start < 30.0
