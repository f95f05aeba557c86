"""Median timings of the Galerkin pencil kernels, per layer and end to end.

Times, as medians over --runs repetitions in one process with one BLAS
thread:

- `assemble_mass` and `solve_pencil` on the K=3 family member at eps = 0.1;
- `track_splitting` at K=3 (the perturb sweep: 13 mass assemblies and
  pencil solves plus the pairing matrix);
- `spectral_projector` with 64 nodes on the K=2 operator A_of(0) of the
  `pi-map` galerkin mode, and one K=3 operator A_of(0.1);
- `MetricField.matrix` of the same family member on the K=3 mass grid
  (19^3 points);
- `spectral.bernoulli` of the random Beltrami fields of shells n = 9 and 50;
- end to end, one `perturb` run at K=3 and one `pi-map` galerkin run at
  K=2 and at K=3 through `runner.run`.

Every call has had the same signature since the Fourier-structured
kernels, so the script runs unchanged on older checkouts.  Results go under
`--label` into the JSON file `--out` (default BENCH_galerkin.json at the root
of the checkout that holds this script); entries under other labels are
kept, so two checkouts can write side by side into one file:

    python scripts/bench_galerkin.py --label change --runs 7
    python /path/to/old/checkout/scripts/bench_galerkin.py --label parent \\
        --runs 7 --out BENCH_galerkin.json

Uses the standard library and numpy only, and imports eulerlab from the
`src` directory next to this script.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from eulerlab import contact as ct  # noqa: E402
from eulerlab import galerkin as gk  # noqa: E402
from eulerlab import runner  # noqa: E402
from eulerlab import spectral as sp  # noqa: E402


def _git(*args):
    try:
        out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True,
                             timeout=30)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _machine():
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "cpu": model or platform.processor(),
        "cpus": os.cpu_count(),
        "blas_threads": 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def _cases(scratch):
    contact, g = ct.std_contact_t3()
    beta = ct.default_perturbation_form()
    family = ct.metric_family(g, contact, beta, [-0.2, -0.1, -0.05, 0.05, 0.1, 0.2])
    basis3 = gk.FormBasis(3)
    B3 = gk.assemble_exterior(basis3)
    member = family.member(0.1)
    M3 = gk.assemble_mass(member, basis3)
    pi_family = ct.metric_family(g, contact, beta, [-0.1, 0.1])
    A0 = gk.pencil_operator_family(pi_family, gk.FormBasis(2))(0.0)
    A_of3 = gk.pencil_operator_family(pi_family, gk.FormBasis(3))
    mass_grid, _ = ct.uniform_grid(gk.default_mass_nodes(3, member.degree_hint))
    shell9, shell50 = sp.random_beltrami(9, 0), sp.random_beltrami(50, 0)
    perturb = runner.load_config({"kind": "perturb", "params": {"K": 3}})
    pi_maps = {K: runner.load_config({"kind": "pi-map", "params": {"mode": "galerkin", "K": K}})
               for K in (2, 3)}
    count = itertools.count()

    def run(cfg):
        return runner.run(cfg, out_dir=os.path.join(scratch, f"run{next(count)}"))

    return {
        "assemble_mass_K3": lambda: gk.assemble_mass(member, basis3),
        "solve_pencil_K3": lambda: gk.solve_pencil(B3, M3, (0.8, 1.2)),
        "track_splitting_K3": lambda: gk.track_splitting(family, contact, (0.8, 1.2), 3),
        "spectral_projector_K2": lambda: gk.spectral_projector(A0, 1.0, 0.2, 64),
        "operator_family_K3": lambda: A_of3(0.1),
        "metric_matrix_K3_grid": lambda: member.matrix(mass_grid),
        "bernoulli_shell9": lambda: sp.bernoulli(shell9),
        "bernoulli_shell50": lambda: sp.bernoulli(shell50),
        "end_to_end.perturb_run_K3": lambda: run(perturb),
        "end_to_end.pi_map_run_K2": lambda: run(pi_maps[2]),
        "end_to_end.pi_map_run_K3": lambda: run(pi_maps[3]),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="key of this checkout's entry, e.g. parent")
    ap.add_argument("--runs", type=int, default=5, help="repetitions per call (median)")
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_galerkin.json"))
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")

    samples = {}
    with tempfile.TemporaryDirectory(prefix="bench_galerkin_") as scratch:
        for name, call in _cases(scratch).items():
            call()  # warm-up: caches, lazy imports
            times = []
            for _ in range(args.runs):
                start = time.perf_counter()
                call()
                times.append(time.perf_counter() - start)
            samples[name] = times
            print(f"{name}: median {statistics.median(times):.4f} s", file=sys.stderr)

    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc[args.label] = {
        "revision": _git("rev-parse", "HEAD"),
        "worktree_clean": _git("status", "--porcelain", "--untracked-files=no") == "",
        "machine": _machine(),
        "runs": args.runs,
        "median_s": {k: round(statistics.median(v), 5) for k, v in samples.items()},
        "samples_s": {k: [round(t, 5) for t in v] for k, v in samples.items()},
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
