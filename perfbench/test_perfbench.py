"""Self-test of the benchmark at tiny sizes (under a minute on two cores).

    python -m pytest perfbench

It checks that every metric is emitted for its workload, untraced and
traced, and that a corrupted reference value shows up in failed_frac.
"""

import copy
import json
import os

import pytest

import run
import speed
import workloads

with open(os.path.join(run.HERE, "references.json")) as fh:
    REFS = json.load(fh)
with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

COMMON = {"setup_s", "setup_raw_s", "wall_s", "wall_raw_s", "machine_speed", "failed_frac",
          "peak_rss_mb"}
PER_KIND = {
    "chaos-survey": {"lyapunov_s", "exponents_per_s"},
    "splitting-sweep": {"perturb_s", "pi_map_s"},
    "sections-and-fields": {"poincare_s", "abc_s", "bernoulli_s", "spectrum_s"},
}
LAYER_METRICS = [
    "dynamics.lyapunov_max.calls", "dynamics.lyapunov_max.s", "dynamics.poincare.calls",
    "dynamics.poincare.s", "dynamics.rhs.calls", "dynamics.rhs.s", "dynamics.rhs.us_per_call",
    "dynamics.stepping.self_s", "dynamics.rhs_calls_per_exponent",
    "dynamics.rhs_calls_per_crossing",
    "galerkin.assemble_mass.calls", "galerkin.assemble_mass.s", "galerkin.assemble_mass.gflop",
    "galerkin.mass_derivative.calls", "galerkin.mass_derivative.s",
    "galerkin.solve_pencil.calls", "galerkin.solve_pencil.s", "galerkin.solve_pencil.dim_max",
    "galerkin.track_splitting.self_s", "galerkin.vector_to_form.s",
    "galerkin.operator_family.calls", "galerkin.operator_family.s",
    "galerkin.matrix_inv_sqrt.calls", "galerkin.matrix_inv_sqrt.s",
    "galerkin.spectral_projector.calls", "galerkin.spectral_projector.s",
    "galerkin.spectral_projector.contour_solves", "galerkin.pi_map.self_s",
    "contact.variation_pairing.calls", "contact.variation_pairing.s",
    "contact.check_compatibility.calls", "contact.check_compatibility.s",
    "contact.metric_family.s", "contact.metric_matrix.calls", "contact.metric_matrix.points",
    "contact.metric_matrix.s", "trig.eval.calls", "trig.eval.s",
    "spectral.evaluate_on_grid.calls", "spectral.evaluate_on_grid.s",
    "spectral.evaluate_on_grid.points", "spectral.products.s", "spectral.steady_residual.s",
    "spectral.bernoulli.s", "spectral.min_norm.s", "spectral.proportionality_factor.s",
    "spectral.helicity_basis.s", "spectral.mode_arrays.calls",
    "serialize.csv.calls", "serialize.csv.s", "serialize.csv.bytes",
    "serialize.json.calls", "serialize.json.s", "serialize.json.bytes",
    "serialize.sha256.calls", "serialize.sha256.s",
    "runner.load_config.calls", "runner.load_config.s", "runner.run.self_s",
    "runner.files_written", "runner.bytes_written", "trace.overhead_s",
]


def tiny(workload, trace, refs=None):
    return run.measure(workload, seed=1, seconds=0.1, trace=trace, refs=refs, tiny=True,
                       setup_runs=1)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_emits_end_to_end_metrics(workload):
    details, result = tiny(workload, 0)
    assert set(details["metrics"]) == COMMON | PER_KIND[workload]
    assert all(m.get("samples", 1) >= 1 and m["value"] >= 0 for m in details["metrics"].values())
    assert details["metrics"]["failed_frac"]["value"] == 0, details["failures"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_emits_layer_metrics(workload):
    details, result = tiny(workload, 1)
    assert set(LAYER_METRICS) <= set(details["metrics"])
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert details["trace_consistent"] and result["correct"], details["failures"]
    layer = details["metrics"]
    if workload == "chaos-survey":
        assert layer["dynamics.lyapunov_max.calls"]["value"] > 0
        assert layer["galerkin.assemble_mass.calls"]["value"] == 0
    if workload == "splitting-sweep":
        assert layer["dynamics.rhs.calls"]["value"] == 0
        assert layer["galerkin.spectral_projector.contour_solves"]["value"] > 0


def _shift_slope(refs):
    refs["perturb_K1"]["fd_slopes"][0] *= 1.001


def _shift_section_point(refs):
    for start in refs["poincare_integrable_H0.8"]:
        start["points"][0][0] += 1e-3


@pytest.mark.parametrize("workload, corrupt", [("splitting-sweep", _shift_slope),
                                               ("sections-and-fields", _shift_section_point)])
def test_corrupted_reference_raises_failed_frac(workload, corrupt):
    refs = copy.deepcopy(REFS)
    corrupt(refs)
    details, result = tiny(workload, 0, refs)
    assert details["metrics"]["failed_frac"]["value"] > 0
    assert not result["correct"] and result["failed"] >= 1


def test_reference_seconds_weight_sampled_speeds_by_time():
    sampler = speed.Sampler()
    sampler.times, sampler.speeds = [0.0, 1.0, 4.0], [9.0, 2.0, 0.5]
    measured, reference = sampler.seconds((0.0, 0.0, 0), (4.0, 0.5, 2))
    assert measured == 3.5
    assert reference == pytest.approx(3.5 * (1.0 * 2.0 + 3.0 * 0.5) / 4.0)
