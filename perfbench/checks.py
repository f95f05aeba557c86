"""Reference checks applied to the artifacts of every op.

Tolerances are the pinned ones of the library and its acceptance battery;
chaotic outputs (Lyapunov values, C = 0.1 sections) are checked by their run
assertions only, because chaos amplifies rounding differences.
"""

from __future__ import annotations

import csv
import json
import math
import os

SLOPE_REL, SLOPE_FLOOR = 1e-6, 1e-10   # criterion 6 slope agreement
ALPHA_DEVIATION = 1e-9                 # perturb run assertion
SIGMA_MATCH = 1e-9                     # pi-map run assertion
STEADY_RESIDUAL = 1e-10                # abc run assertions
BERNOULLI_SUP = 1e-11                  # bernoulli run assertion
# Drift of the C = 0 invariant over 100 crossings at tol 1e-10 is at most
# 5e-9 on the seed code; 1e-7 separates that from a wrong trajectory.
INVARIANT_DRIFT = 1e-7
# Integrable section points against their frozen reference.  The points of
# a tol 1e-10 run differ from those of a tol 1e-12 run by up to 7e-7 after
# 100 crossings, so an equally accurate change of the step sequence may move
# them that far; a skipped, repeated or shifted crossing moves them by 1e-2
# or more.
SECTION_POINTS = 1e-5


def _close(a, b):
    return len(a) == len(b) and all(
        abs(x - y) <= SLOPE_REL * max(abs(x), abs(y)) + SLOPE_FLOOR for x, y in zip(a, b))


def check(op, record, out_dir, refs):
    """Problems found in one op's output; an empty list means it passed."""
    problems = [f"run assertion {a['name']} failed (value {a['value']})"
                for a in record.assertions if not a["passed"]]
    spec = op["check"]
    params = op["doc"]["params"]
    with open(os.path.join(out_dir, "report.json")) as fh:
        report = json.load(fh)

    def need(ok, what):
        if not ok:
            problems.append(what)

    kind = spec["type"]
    if kind == "perturb":
        ref = refs[spec["ref"]]
        need(report["cluster_size"] == ref["cluster_size"], "cluster size differs from reference")
        need(_close(report["pairing_eigenvalues"], ref["pairing_eigenvalues"]),
             "pairing eigenvalues differ from reference")
        need(_close(report["fd_slopes"], ref["fd_slopes"]), "fd slopes differ from reference")
        need(_close(report["fd_slopes"], report["pairing_eigenvalues"]),
             "fd slopes disagree with the pairing eigenvalues")
        need(report["alpha_eigenvalue_deviation"] <= ALPHA_DEVIATION,
             "alpha eigenvalue deviation above 1e-9")
    elif kind == "pi-map":
        need(report["sigma_match_defect"] <= SIGMA_MATCH, "sigma match defect above 1e-9")
        if "ref" in spec:
            need(report["certificate"] > 0.0, "splitting certificate not positive")
            need(report["cluster_size"] == refs[spec["ref"]]["cluster_size"],
                 "cluster size differs from reference")
    elif kind in ("poincare", "poincare-integrable"):
        with open(os.path.join(out_dir, "section.csv"), newline="") as fh:
            points = [(float(r["s1"]), float(r["s2"])) for r in csv.DictReader(fh)]
        need(len(points) == params["count"], "wrong number of crossings")
        if kind == "poincare-integrable":
            # axis 1 sections hold (x1, x3); A cos x3 + B sin x1 is conserved
            drift = max(abs(params["A"] * math.cos(x3) + params["B"] * math.sin(x1) - spec["H"])
                        for x1, x3 in points)
            need(drift <= INVARIANT_DRIFT, f"section points leave the invariant level ({drift:.2e})")
            ref = refs[spec["ref"]][spec["index"]]["points"][:len(points)]
            # points are angles in [0, 2 pi): compare them around the circle
            off = max((abs((a - b + math.pi) % (2 * math.pi) - math.pi)
                       for p, r in zip(points, ref) for a, b in zip(p, r)), default=0.0)
            need(off <= SECTION_POINTS, f"section points differ from reference ({off:.2e})")
    elif kind == "abc":
        need(report["euler_residual"] <= STEADY_RESIDUAL, "euler residual above 1e-10")
        need(report["bernoulli_residual"] <= STEADY_RESIDUAL, "bernoulli residual above 1e-10")
    elif kind == "bernoulli":
        need(report["bernoulli_sup_norm"] <= BERNOULLI_SUP, "bernoulli sup-norm above 1e-11")
    elif kind == "spectrum":
        ref = refs[spec["ref"]]
        for key in ("multiplicity", "admissible_mod8", "vectors"):
            need(report[key] == ref[key], f"spectrum {key} differs from reference")
    elif kind == "assertions":
        need(len(report["estimates"]) == params["seeds"], "missing Lyapunov estimates")
        need(all(math.isfinite(x) for x in report["estimates"]), "non-finite Lyapunov estimate")
    return problems
