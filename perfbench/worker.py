"""Child process of the benchmark: one fresh interpreter per role.

    python3 perfbench/worker.py setup   # time import + validation of every config
    python3 perfbench/worker.py run     # the closed loop over the workload's ops

Both read a JSON payload from stdin and print one JSON object as the last
line of stdout.  The parent fixes the BLAS thread count in the environment
before this interpreter starts, so numpy sees it at import.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _import_eulerlab():
    sys.path.insert(0, SRC)
    import eulerlab
    from eulerlab import dynamics, runner

    if not os.path.abspath(eulerlab.__file__).startswith(SRC + os.sep):
        raise ImportError(f"eulerlab imported from {eulerlab.__file__}, not from {SRC}")
    return runner, dynamics


def _materialize(doc, dynamics):
    params = dict(doc["params"])
    if params.get("assert_any_above") == "CHAOS_THRESHOLD":
        params["assert_any_above"] = dynamics.CHAOS_THRESHOLD
    return dict(doc, params=params)


def setup(payload):
    from speed import Sampler

    sampler = Sampler()
    with sampler.running():
        start = sampler.mark()
        runner, dynamics = _import_eulerlab()
        for op in payload["ops"]:
            runner.load_config(_materialize(op["doc"], dynamics))
        measured, reference = sampler.seconds(start, sampler.mark())
    return {"setup_s": reference, "setup_raw_s": measured}


# ---------------------------------------------------------------------------
# the closed loop


class Loop:
    """Runs passes over the op list and checks every op's output."""

    def __init__(self, payload, runner, dynamics):
        import checks

        self.check = checks.check
        self.ops = payload["ops"]
        self.refs = payload["refs"]
        self.out = payload["out"]
        self.runner, self.dynamics = runner, dynamics
        self.first_manifest = {}
        self.attempted = 0
        self.failures = []
        self.passes = 0

    def run_pass(self, tracer=None, sampler=None):
        """One pass; with a sampler, times are also given in reference seconds."""
        result = {"wall_s": 0.0, "wall_ref_s": 0.0, "op_s": [], "exponents": 0,
                  "files": 0, "bytes": 0}
        for i, op in enumerate(self.ops):
            out = os.path.join(self.out, f"op{i}")
            if tracer is not None:
                tracer.op = f"{self.passes}:{i}"
            self.attempted += 1
            problems = []
            start = sampler.mark() if sampler else None
            t0 = time.perf_counter()
            try:
                cfg = self.runner.load_config(_materialize(op["doc"], self.dynamics))
                record = self.runner.run(cfg, out_dir=out)
            except Exception as exc:  # a failed op is counted and the loop goes on
                record = None
                problems.append(f"{type(exc).__name__}: {exc}")
            t1 = time.perf_counter()
            measured, reference = (sampler.seconds(start, sampler.mark()) if sampler
                                   else (t1 - t0, t1 - t0))
            result["wall_s"] += measured
            result["wall_ref_s"] += reference
            if record is not None:
                result["op_s"].append((op["doc"]["kind"], reference))
                try:
                    problems += self.check(op, record, out, self.refs)
                except (KeyError, OSError, TypeError, ValueError) as exc:
                    problems.append(f"output unreadable: {type(exc).__name__}: {exc}")
                key = op.get("repeat_of", op["label"])
                if self.first_manifest.setdefault(key, record.files) != record.files:
                    problems.append("artifacts differ from an earlier run of the same config")
                if op["doc"]["kind"] == "lyapunov":
                    result["exponents"] += op["doc"]["params"]["seeds"]
                names = os.listdir(out)
                result["files"] += len(names)
                result["bytes"] += sum(os.path.getsize(os.path.join(out, n)) for n in names)
            if problems:
                self.failures.append({"pass": self.passes, "op": op["label"], "problems": problems})
            shutil.rmtree(out, ignore_errors=True)
        self.passes += 1
        return result

    def phase(self, seconds, tracer=None, sampler=None):
        """Whole passes until the next one would overrun `seconds` (at least one)."""
        passes, lengths = [], []
        start = time.perf_counter()
        while True:
            t = time.perf_counter()
            passes.append(self.run_pass(tracer, sampler))
            lengths.append(time.perf_counter() - t)
            if time.perf_counter() - start + statistics.median(lengths) > seconds:
                return passes


def _stat(values, unit, **extra):
    values = list(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return dict({"value": statistics.median(values), "unit": unit, "samples": len(values),
                 "q1": q[0], "q3": q[2]}, **extra)


KIND_METRIC = {"lyapunov": "lyapunov_s", "perturb": "perturb_s", "pi-map": "pi_map_s",
               "poincare": "poincare_s", "abc": "abc_s", "bernoulli": "bernoulli_s",
               "spectrum": "spectrum_s"}


def end_to_end(passes, ops, sampler):
    """Times in reference seconds (see speed.py); `wall_raw_s` as measured."""
    metrics = {"wall_s": _stat([p["wall_ref_s"] for p in passes], "s"),
               "wall_raw_s": _stat([p["wall_s"] for p in passes], "s"),
               "machine_speed": _stat(sampler.speeds, "ratio")}
    for kind, name in KIND_METRIC.items():
        times = [s for p in passes for k, s in p["op_s"] if k == kind]
        if times:
            metrics[name] = _stat(times, "s")
    lyapunov = [op["doc"]["params"] for op in ops if op["doc"]["kind"] == "lyapunov"]
    if lyapunov:
        metrics["exponents_per_s"] = _stat(
            [p["exponents"] / p["wall_ref_s"] for p in passes], "1/s",
            **{k: lyapunov[0][k] for k in ("T", "renorm", "tol")})
    return metrics


# The untraced remainder of the loop's own timing: the few statements between
# the timer reads and the calls into runner.  More means spans went missing.
REMAINDER_MAX = 0.02


def per_layer(tracer, passes, untraced, trace_file):
    """Per-pass layer metrics of the traced phase, read after the spans are written."""
    import tracer as tr

    n = len(passes)
    wall = sum(p["wall_s"] for p in passes)
    out = {}

    def put(name, value, unit, **extra):
        out[name] = dict({"value": value, "unit": unit}, **extra)

    for name in sorted({t[1] for t in tr.TARGETS}):
        put(name + ".calls", tracer.calls.get(name, 0) / n, "count")
        put(name + ".s", tracer.inclusive.get(name, 0.0) / n, "s")
        put(name + ".self_s", tracer.self_time.get(name, 0.0) / n, "s")
    for name, unit, computed in (
            ("galerkin.assemble_mass.gflop", "Gflop-computed", True),
            ("galerkin.solve_pencil.gflop", "Gflop-computed", True),
            ("galerkin.spectral_projector.contour_solves", "count", True),
            ("contact.metric_matrix.points", "count", False),
            ("spectral.evaluate_on_grid.points", "count", False),
            ("serialize.csv.bytes", "B", False),
            ("serialize.json.bytes", "B", False)):
        put(name, tracer.counts.get(name, 0) / n, unit, computed=computed)
    put("galerkin.solve_pencil.dim_max", tracer.counts.get("galerkin.solve_pencil.dim_max", 0),
        "count", computed=False)

    rhs_calls = tracer.calls.get("dynamics.rhs", 0)
    put("dynamics.rhs.us_per_call",
        1e6 * tracer.self_time.get("dynamics.rhs", 0.0) / rhs_calls if rhs_calls else 0.0, "us")
    # the integrators' own time: scipy's stepping loop, dense output, brentq
    stepping = sum(tracer.self_time.get(f, 0.0) for f in
                   ("dynamics.lyapunov_max", "dynamics.poincare"))
    put("dynamics.stepping.self_s", stepping / n, "s")
    exps = tracer.calls.get("dynamics.lyapunov_max", 0)
    put("dynamics.rhs_calls_per_exponent",
        tracer.leaf_calls_under("dynamics.rhs", "dynamics.lyapunov_max") / exps if exps else 0.0,
        "count")
    crossings = tracer.counts.get("dynamics.poincare.crossings", 0)
    put("dynamics.rhs_calls_per_crossing",
        tracer.leaf_calls_under("dynamics.rhs", "dynamics.poincare") / crossings if crossings else 0.0,
        "count")
    put("runner.files_written", passes[-1]["files"], "count")
    put("runner.bytes_written", passes[-1]["bytes"], "B")

    # self-time shares of the traced wall time, by layer
    shares = {"dynamics.rhs": tracer.self_time.get("dynamics.rhs", 0.0),
              "dynamics.stepping": stepping}
    for layer in ("galerkin", "contact", "trig", "spectral", "serialize", "runner"):
        shares[layer] = sum(s for name, s in tracer.self_time.items()
                            if name.startswith(layer + "."))
    for layer, s in shares.items():
        put(layer + ".self_pct", 100.0 * s / wall, "%")

    # The self times recomputed from the written spans must match the tracer's
    # own, none may be negative, and together with a small untraced remainder
    # they must add up to the wall time the loop timed on its own clock reads.
    written = tr.self_times_from(trace_file)
    remainder = wall - sum(written.values())
    consistent = (0.0 <= remainder <= REMAINDER_MAX * wall
                  and all(s >= -1e-9 for s in written.values())
                  and set(written) == set(tracer.self_time)
                  and all(abs(s - tracer.self_time[k]) <= 1e-6 for k, s in written.items()))
    put("trace.wall_s", wall / n, "s")
    put("trace.remainder_s", remainder / n, "s")
    put("trace.overhead_s", statistics.median(p["wall_s"] for p in passes)
        - statistics.median(p["wall_s"] for p in untraced), "s")
    top = sorted(tracer.self_time.items(), key=lambda kv: -kv[1])[:8]
    return out, consistent, [[name, s / n] for name, s in top]


def environment():
    import numpy
    import scipy

    env = {"python": sys.version.split()[0], "numpy": numpy.__version__,
           "scipy": scipy.__version__, "cpu_count": os.cpu_count(),
           "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        env["blas"] = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                     if line.startswith("model name")), "unknown")
    except OSError:
        env["cpu_model"] = "unknown"
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            def read(field):
                with open(os.path.join(base, index, field)) as fh:
                    return fh.read().strip()
            caches[f"L{read('level')} {read('type')}"] = read("size")
    except OSError:
        pass
    env["caches"] = caches
    return env


def run(payload):
    runner, dynamics = _import_eulerlab()
    loop = Loop(payload, runner, dynamics)
    seconds = payload["seconds"]
    result = {"environment": environment()}
    if not payload["trace"]:
        from speed import Sampler

        sampler = Sampler(blas=True)
        with sampler.running():
            passes = loop.phase(seconds, sampler=sampler)
        result["metrics"] = end_to_end(passes, loop.ops, sampler)
    else:
        from tracer import Tracer

        untraced = loop.phase(seconds / 2)
        tracer = Tracer()
        with tracer.installed():
            traced = loop.phase(seconds / 2, tracer)
        tracer.write(payload["trace_file"])
        result["metrics"], result["trace_consistent"], result["top_self_s"] = per_layer(
            tracer, traced, untraced, payload["trace_file"])
    result["metrics"]["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB",
        "samples": 1}
    result.update(attempted=loop.attempted, failures=loop.failures, passes=loop.passes)
    return result


if __name__ == "__main__":
    payload = json.load(sys.stdin)
    result = {"setup": setup, "run": run}[sys.argv[1]](payload)
    print(json.dumps(result))
