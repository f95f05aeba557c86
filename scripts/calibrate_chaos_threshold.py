#!/usr/bin/env python3
"""Calibration of the chaos threshold for the showcase amplitudes.

Long-run oracle: largest-Lyapunov estimates over 20 standard separatrix
seeds at T = 1e5 for amplitudes (1, 0.5, 0.1), integrated as one lane batch.
The threshold is half the median of the positive estimates (estimates above
the integrable noise floor 1e-3).

The frozen calibration is scripts/chaos_threshold.json; its theta is
dynamics.CHAOS_THRESHOLD.  A rerun prints the new estimates and theta as
JSON and writes no file, so the frozen file stays the provenance of the
constant.

Run:  python3 scripts/calibrate_chaos_threshold.py
"""

import json
import time

import numpy as np

from eulerlab import dynamics as dyn
from eulerlab import spectral as sp

T = 1e5
RENORM = 5.0
TOL = 1e-9
SEEDS = 20
FLOOR = 1e-3


def main():
    field = sp.make_abc(sp.ABCParams(1.0, 0.5, 0.1))
    t0 = time.time()
    results = dyn.lyapunov_max(field, dyn.separatrix_seeds(0.5, SEEDS), T, RENORM, tol=TOL)
    for j, est in enumerate(results):
        print(f"seed {j:2d}: lambda_max = {est.lambda_max:+.6f} "
              f"tail spread {est.tail_spread():.2e}")
    print(f"{SEEDS} lanes in {time.time() - t0:.0f}s", flush=True)
    estimates = [est.lambda_max for est in results]
    positives = sorted(x for x in estimates if x > FLOOR)
    theta = 0.5 * float(np.median(positives)) if positives else float("nan")
    out = {
        "amplitudes": [1.0, 0.5, 0.1],
        "T": T,
        "renorm": RENORM,
        "tol": TOL,
        "seeds": SEEDS,
        "positive_floor": FLOOR,
        "estimates": estimates,
        "positives": positives,
        "theta": theta,
    }
    print(json.dumps(out, indent=2))
    print(f"\ntheta = {theta:.6f}  (frozen dynamics.CHAOS_THRESHOLD = "
          f"{dyn.CHAOS_THRESHOLD:.6f})")


if __name__ == "__main__":
    main()
