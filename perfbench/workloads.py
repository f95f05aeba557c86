"""The benchmark's workloads: each turns a seed into a fixed list of eulerlab configs.

Standard library only, so the parent process can build configs without
importing numpy.  The seed generates the config seeds, the Poincare
starting points and the Beltrami shell seeds; everything else is fixed so
that the cost of a pass does not depend on the seed.

An op is {"label", "doc", "check"}: `doc` is the config handed to
`runner.load_config`, `check` names the reference check of its output.  An
op with "repeat_of" reruns an earlier op of the pass, and its artifacts must
be byte-identical to that op's.
"""

from __future__ import annotations

import math
import random

TWO_PI = 2.0 * math.pi

# The worker replaces this string with eulerlab.dynamics.CHAOS_THRESHOLD.
CHAOS_THRESHOLD = "CHAOS_THRESHOLD"

# Integrable baselines at T = 1e3 read 0.004-0.008 on the seed code; the
# showcase threshold is 0.024, so 0.02 leaves margin on both sides.
BASELINE_BOUND = 0.02

WORKLOADS = ("chaos-survey", "splitting-sweep", "sections-and-fields")

# Levels of the integrable (C = 0) sections; see _on_level.
INTEGRABLE_H = (0.8, -0.8)

# Shell sizes: n = 9 and 50 are sums of three squares, n = 7 and 28 are not.
SPECTRUM_N = (9, 50, 7, 28)


def _op(label, kind, seed, params, check):
    return {"label": label, "doc": {"kind": kind, "seed": seed, "params": params},
            "check": check}


def _repeat(op):
    return dict(op, label=op["label"] + " again", repeat_of=op["label"])


def _seed(rng):
    return rng.randrange(0, 2 ** 31)


def chaos_survey(rng, refs, tiny=False):
    """Lyapunov exponents: integrable baselines and the chaotic showcase.

    Config seeds are drawn from pools frozen in references.json: seeds whose
    run assertions hold with margin on the seed code and whose right-hand
    side counts sit near the pool median, so a pass costs the same for
    every workload seed.  Tiny runs are too short for the assertions.
    """
    T = 50.0 if tiny else 1000.0
    pools = refs["lyapunov_pools"]
    ops = []
    for b in (0.25, 0.5, 0.75):
        params = {"A": 1.0, "B": b, "C": 0.0, "T": T, "renorm": 5.0, "tol": 1e-9,
                  "seeds": 2, "seed_style": "random"}
        if not tiny:
            params["assert_all_below"] = BASELINE_BOUND
        ops.append(_op(f"lyapunov baseline B={b}", "lyapunov",
                       rng.choice(pools[f"baseline_B{b}"]), params, {"type": "assertions"}))
    params = {"A": 1.0, "B": 0.5, "C": 0.1, "T": T, "renorm": 5.0, "tol": 1e-9,
              "seeds": 4, "seed_style": "separatrix"}
    if not tiny:
        params["assert_any_above"] = CHAOS_THRESHOLD
    ops.append(_op("lyapunov showcase", "lyapunov", rng.choice(pools["showcase"]), params,
                   {"type": "assertions"}))
    ops.append(_repeat(ops[0]))
    return ops


def splitting_sweep(rng, refs, tiny=False):
    """The shared eigenvalue-splitting sweep and both pi-map modes."""
    K = 1 if tiny else 3
    Kpi = 1 if tiny else 2
    ops = [
        _op(f"perturb K={K}", "perturb", _seed(rng), {"K": K},
            {"type": "perturb", "ref": f"perturb_K{K}"}),
        _op(f"pi-map galerkin K={Kpi}", "pi-map", _seed(rng), {"mode": "galerkin", "K": Kpi},
            {"type": "pi-map", "ref": f"pi_map_galerkin_K{Kpi}"}),
        _op("pi-map synthetic", "pi-map", _seed(rng),
            {"mode": "synthetic", "dim": 12 if tiny else 40}, {"type": "pi-map"}),
    ]
    # repeating the galerkin op keeps pi_map_s, a median over pi-map ops,
    # on the galerkin path rather than the cheap synthetic one
    ops.append(_repeat(ops[1]))
    return ops


def _on_level(rng, A, B, H):
    """A point with A cos x3 + B sin x1 = H.

    For C = 0 this quantity is conserved and equals dx2/dt, so the orbit
    crosses every plane x2 = const at the constant rate |H|, in the
    direction sign(H), and its section points stay on the level set.
    """
    while True:
        x1 = rng.uniform(0.0, TWO_PI)
        c = (H - B * math.sin(x1)) / A
        if abs(c) <= 0.95:
            break
    x3 = math.acos(c) * rng.choice((1.0, -1.0)) % TWO_PI
    return [x1, rng.uniform(0.0, TWO_PI), x3]


def integrable_params(x0, H, count):
    """Section x2 = 0 of the C = 0 orbit from x0, which lies on level H."""
    return {"A": 1.0, "B": 0.5, "C": 0.0, "x0": x0, "axis": 1, "level": 0.0,
            "direction": 1 if H > 0 else -1, "count": count}


def sections_and_fields(rng, refs, tiny=False):
    """Poincare sections, a steady ABC field, Bernoulli functions and shells.

    Integrable starts come from a pool frozen with their section points, so
    the points are checked against a reference; tiny runs compare the first
    `count` of them, which do not depend on how many crossings are asked for.
    """
    count = 5 if tiny else 100
    grid = 16 if tiny else 64
    ops = []
    for H in INTEGRABLE_H:
        ref = f"poincare_integrable_H{H}"
        index = rng.randrange(len(refs[ref]))
        ops.append(_op(f"poincare integrable H={H}", "poincare", _seed(rng),
                       integrable_params(refs[ref][index]["x0"], H, count),
                       {"type": "poincare-integrable", "H": H, "ref": ref, "index": index}))
    # C = 0.1: one start in the chaotic layer next to the separatrix level
    # H = A - B, drawn from a frozen pool (chaotic orbits differ widely in
    # cost), and one start on a regular level.
    starts = {"layer": rng.choice(refs["poincare_chaotic_x0"]),
              "H=-0.8": _on_level(rng, 1.0, 0.5, -0.8)}
    for name, x0 in starts.items():
        params = {"A": 1.0, "B": 0.5, "C": 0.1, "x0": x0, "axis": 1, "level": 0.0,
                  "direction": -1 if name == "H=-0.8" else 1, "count": count}
        ops.append(_op(f"poincare C=0.1 {name}", "poincare", _seed(rng), params,
                       {"type": "poincare"}))
    ops.append(_op(f"abc grid={grid}", "abc", _seed(rng),
                   {"A": 1.0, "B": 0.5, "C": 0.1, "grid": grid}, {"type": "abc"}))
    ops.append(_op("bernoulli shell n=9", "bernoulli", _seed(rng),
                   {"source": {"shell": {"n": 9, "seed": rng.randrange(0, 2 ** 20)}},
                    "grid": 16 if tiny else 32}, {"type": "bernoulli"}))
    ops.append(_op("bernoulli abc", "bernoulli", _seed(rng),
                   {"source": {"abc": {"A": 1.0, "B": 0.5, "C": 0.1}}, "grid": 16 if tiny else 32},
                   {"type": "bernoulli"}))
    for n in SPECTRUM_N:
        ops.append(_op(f"spectrum n={n}", "spectrum", _seed(rng), {"n": n},
                       {"type": "spectrum", "ref": f"spectrum_n{n}"}))
    ops.append(_repeat(ops[5]))
    return ops


_GENERATORS = {
    "chaos-survey": chaos_survey,
    "splitting-sweep": splitting_sweep,
    "sections-and-fields": sections_and_fields,
}


def build(workload, seed, refs, tiny=False):
    """The fixed op list of one pass over `workload` for `seed`."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"), refs, tiny)
