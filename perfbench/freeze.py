"""Regenerate perfbench/references.json from the eulerlab code in src/.

The committed file was produced from the unchanged seed code; rerun this
only when a change is meant to alter the reference results, and say so:

    python3 perfbench/freeze.py            # about ten minutes on one core

It freezes two things:
  * seed pools: Lyapunov config seeds whose run assertions hold with margin,
    and Poincare starting points in the C = 0.1 chaotic layer, both filtered
    to right-hand-side counts within POOL_COST_BAND of the pool median so a
    pass costs the same for every workload seed;
  * results checked op by op: the perturb pairing eigenvalues and
    finite-difference slopes, pi-map cluster sizes, spectrum shells, and a
    pool of integrable (C = 0) section starts with their section points.

Each candidate, accepted or not, is printed to stdout for provenance; only
the pools and the reference results go into references.json.
"""

from __future__ import annotations

import csv
import json
import os
import random
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CANDIDATES = 40
SECTION_CANDIDATES = 80   # chaotic orbits vary more in cost
INTEGRABLE_STARTS = 8     # per level H of the integrable sections
POOL_COST_BAND = 0.03


def _pool(label, candidates, accept):
    """Accepted candidates whose cost is within the band of the median cost."""
    for c in candidates:
        print(label, json.dumps(c), flush=True)
    ok = [c for c in candidates if accept(c)]
    mid = statistics.median(c["rhs_calls"] for c in ok)
    return [c for c in ok if abs(c["rhs_calls"] - mid) <= POOL_COST_BAND * mid]


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import numpy as np

    import workloads
    from eulerlab import dynamics, runner, spectral
    from tracer import Tracer

    tracer = Tracer()

    def rhs_calls(fn):
        before = tracer.calls.get("dynamics.rhs", 0)
        result = fn()
        return result, tracer.calls.get("dynamics.rhs", 0) - before

    refs = {"lyapunov_pools": {}}
    with tracer.installed():
        for b in (0.25, 0.5, 0.75):
            field = spectral.make_abc(spectral.ABCParams(1.0, b, 0.0))
            cands = []
            for s in range(CANDIDATES):
                x0s = dynamics.random_torus_seeds(2, base_key=11 + s)
                lams, calls = rhs_calls(lambda: [
                    dynamics.lyapunov_max(field, x0, 1000.0, 5.0, tol=1e-9).lambda_max
                    for x0 in x0s])
                cands.append({"seed": s, "lambdas": lams, "rhs_calls": calls})
            pool = _pool(f"baseline_B{b}", cands,
                         lambda c: max(map(abs, c["lambdas"])) <= workloads.BASELINE_BOUND / 2)
            refs["lyapunov_pools"][f"baseline_B{b}"] = [c["seed"] for c in pool]
            print(f"baseline B={b}: {len(pool)} of {CANDIDATES}", flush=True)

        field = spectral.make_abc(spectral.ABCParams(1.0, 0.5, 0.1))
        cands = []
        for s in range(CANDIDATES):
            x0s = dynamics.separatrix_seeds(0.5, 4, base_key=7 + s)
            lams, calls = rhs_calls(lambda: [
                dynamics.lyapunov_max(field, x0, 1000.0, 5.0, tol=1e-9).lambda_max
                for x0 in x0s])
            cands.append({"seed": s, "lambdas": lams, "rhs_calls": calls})
        pool = _pool("showcase", cands,
                     lambda c: max(c["lambdas"]) >= 2 * dynamics.CHAOS_THRESHOLD)
        refs["lyapunov_pools"]["showcase"] = [c["seed"] for c in pool]
        print(f"showcase: {len(pool)} of {CANDIDATES}", flush=True)

        cands = []
        for i in range(SECTION_CANDIDATES):
            x0 = workloads._on_level(random.Random(f"chaotic-layer:{i}"), 1.0, 0.5, 0.6)
            try:
                sec, calls = rhs_calls(lambda: dynamics.poincare(
                    field, (1, 0.0), 1, np.array(x0), 100, tol=1e-10, max_time=10000.0))
            except dynamics.NoCrossings:
                continue
            H = np.cos(sec.points[:, 1]) + 0.5 * np.sin(sec.points[:, 0])
            cands.append({"x0": x0, "H_range": float(np.ptp(H)), "rhs_calls": calls})
        # a range of H well above the integration error marks a chaotic orbit
        pool = _pool("poincare_chaotic", cands, lambda c: c["H_range"] >= 0.2)
        refs["poincare_chaotic_x0"] = [c["x0"] for c in pool]
        print(f"poincare chaotic layer: {len(pool)} of {SECTION_CANDIDATES}", flush=True)

    with tempfile.TemporaryDirectory(dir=HERE) as out:
        def report(doc):
            record = runner.run(runner.load_config(doc), out_dir=out)
            if not record.ok:
                raise RuntimeError(f"reference run failed: {record.assertions}")
            with open(os.path.join(out, "report.json")) as fh:
                return json.load(fh)

        for K in (1, 3):
            rep = report({"kind": "perturb", "params": {"K": K}})
            refs[f"perturb_K{K}"] = {k: rep[k] for k in
                                     ("cluster_size", "pairing_eigenvalues", "fd_slopes")}
        for K in (1, 2):
            rep = report({"kind": "pi-map", "params": {"mode": "galerkin", "K": K}})
            refs[f"pi_map_galerkin_K{K}"] = {"cluster_size": rep["cluster_size"]}
        for n in workloads.SPECTRUM_N:
            rep = report({"kind": "spectrum", "params": {"n": n}})
            refs[f"spectrum_n{n}"] = {k: rep[k] for k in
                                      ("multiplicity", "admissible_mod8", "vectors")}
        # integrable sections are regular, so their points are compared with
        # a reference; the workload seed picks one start of the pool
        for H in workloads.INTEGRABLE_H:
            starts = []
            for i in range(INTEGRABLE_STARTS):
                x0 = workloads._on_level(random.Random(f"integrable:{H}:{i}"), 1.0, 0.5, H)
                report({"kind": "poincare", "params": workloads.integrable_params(x0, H, 100)})
                with open(os.path.join(out, "section.csv"), newline="") as fh:
                    points = [[float(r["s1"]), float(r["s2"])] for r in csv.DictReader(fh)]
                starts.append({"x0": x0, "points": points})
            refs[f"poincare_integrable_H{H}"] = starts

    with open(os.path.join(HERE, "references.json"), "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
