"""eulerlab benchmark: times `runner.run` from outside, one workload per call.

    python3 perfbench/run.py --workload chaos-survey --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports eulerlab from ./src.  It
prints one JSON line of details (every metric with its sample count and
quartiles, the environment, the failures) and then, as the last line, the
result: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
result holds the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer metrics of a traced run.  See perfbench/README.md.

This process uses the standard library only.  It builds the configs from
the seed, times set-up in fresh interpreters, and runs the workload in one
more fresh interpreter (perfbench/worker.py) as a closed loop with a single
client: each op is one `runner.run` call, issued when the previous returns.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

SETUP_RUNS = 9
BLAS_THREADS = 1       # fixed before numpy is imported; at or below nproc
HOLDOUT_SEED = 90001   # kept out of tuning; later claims are checked on it
DEADLINE_S = 170       # a run must end within 180 s, child processes included


def _child_env():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("EULERLAB_OUT", None)
    return env


def _worker(role, payload, timeout):
    """Run perfbench/worker.py in a fresh interpreter; its last stdout line is JSON."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), role],
        input=json.dumps(payload), capture_output=True, text=True, env=_child_env(),
        cwd=ROOT, timeout=max(1.0, timeout))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {role} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_revision():
    """HEAD of the checkout, or None where it is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))  # no parent repo
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def measure(workload, seed, seconds, trace, refs=None, tiny=False, setup_runs=SETUP_RUNS):
    """(details, result) of one benchmark run; see the module docstring."""
    started = time.perf_counter()
    if refs is None:
        with open(os.path.join(HERE, "references.json")) as fh:
            refs = json.load(fh)
    ops = workloads.build(workload, seed, refs, tiny)
    setups = [_worker("setup", {"ops": ops}, DEADLINE_S - (time.perf_counter() - started))
              for _ in range(setup_runs)]

    os.makedirs(OUT, exist_ok=True)
    out = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    try:
        payload = {"ops": ops, "refs": refs, "seconds": seconds, "trace": trace, "out": out,
                   "trace_file": os.path.join(OUT, f"trace-{workload}-seed{seed}.jsonl")}
        res = _worker("run", payload, DEADLINE_S - (time.perf_counter() - started))
    finally:
        shutil.rmtree(out, ignore_errors=True)

    metrics = res["metrics"]
    for name in ("setup_s", "setup_raw_s"):
        values = [s[name] for s in setups]
        q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
        metrics[name] = {"value": statistics.median(values), "unit": "s",
                         "samples": len(values), "q1": q[0], "q3": q[2]}
    failed = len({(f["pass"], f["op"]) for f in res["failures"]})
    metrics["failed_frac"] = {"value": failed / res["attempted"], "unit": "ratio",
                              "failed": failed, "attempted": res["attempted"]}
    correct = failed == 0 and res.get("trace_consistent", True)
    env = dict(res["environment"], git_revision=_git_revision(),
               seed=seed, holdout_seed=HOLDOUT_SEED)
    details = {"workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
               "passes": res["passes"], "ops_per_pass": len(ops), "environment": env,
               "metrics": metrics, "failures": res["failures"][:20]}
    if trace:
        details["trace_consistent"] = res["trace_consistent"]
        details["top_self_s"] = res["top_self_s"]
        details["trace_file"] = os.path.relpath(payload["trace_file"], ROOT)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    result = {"correct": bool(correct), "attempted": res["attempted"], "failed": failed,
              "metrics": {n: {"value": metrics[n]["value"], "unit": metrics[n]["unit"]}
                          for n in names}}
    return details, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        details, result = measure(args.workload, args.seed, args.seconds, args.trace)
    except (OSError, RuntimeError, subprocess.TimeoutExpired, KeyError, ValueError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
