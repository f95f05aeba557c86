"""Median timings of eulerlab's kernels, per layer and end to end.

Four groups of rows, each written to its own JSON file.

`--group galerkin` (BENCH_galerkin.json), wall seconds of one call:

- `assemble_mass` and `solve_pencil` on the K=3 family member at eps = 0.1
  (after the warm-up call the member's family holds its grid fields, as
  for every member of a sweep but the first), and `mass_derivative` of the
  K=3 family.  `assemble_mass_K3` follows the member at eps = 0 on the same
  basis, so it builds its quadrature plan, as the first member after eps =
  0 of a sweep does; `assemble_mass_K3_reused` follows the member at eps =
  0.05, so it only gathers, as the later members do;
- `window_count_K3`: the inertia counts of the window (0.8, 1.2) on the 16
  blocks of the same member's pencil (B, M);
- `track_splitting` at K=3 (the perturb sweep: 13 mass assemblies and
  pencil solves, one `mass_derivative`, and the pairing and pencil
  matrices of the base cluster) and `family_compatibility` of the
  same family (6 members), each on a family built directly with
  `MetricFamily` just before the timed call, so no grid evaluation it may
  keep is warm (`standard_family` shares one model per process);
- `spectral_projector` with 64 nodes on the K=2 operator A_of(0) of the
  `pi-map` galerkin mode, and one K=3 operator A_of(0.1);
- `MetricField.matrix` of the same family member on the K=3
  basis grid (19^3 points);
- `spectral.bernoulli` of the random Beltrami fields of shells n = 9 and 50;
- end to end, one `perturb` run at K=3 and one `pi-map` galerkin run at
  K=2, K=3 and K=4 through `runner.run`, `splitting_sweep_pass`: the four
  configs of one pass of perfbench's splitting-sweep workload
  (`SPLITTING_SWEEP`; config seed 0, where perfbench draws seeds), and
  `verify_quick`: `eulerlab verify --level quick` through `cli.main` in a
  fresh interpreter that times itself from before the first eulerlab
  import;
- the K-convergence row `k_convergence`: `perturb` and `pi-map` galerkin
  runs at K = 3 to 8, each in a fresh interpreter that times itself from
  before the first eulerlab import, with its peak RSS, pairing eigenvalues
  and FD slopes (perturb) or certificate and eigenvalues of pi' (pi-map).
  A kind stops at the first K whose run passes 2 GB of RSS or 120 s; the
  run is killed there and the row records where and why.

`--group dynamics` (BENCH_dynamics.json), on the showcase field
(1, 0.5, 0.1):

- `tangent_rhs_per_lane_L*`: one tangent right-hand side call on lane rows
  (states with their phases, `dynamics.phase_matrix`) divided by its lane
  count, at 1, 2 and 50 lanes, in the stepper's form `rhs(None, rows,
  out=buf)`;
- `attempt_L*`: one DOP853 step attempt of the lane stepper at 1, 2 and 4
  lanes (a renormalized run to t = 50, divided by its attempts);
- `lyapunov_max` at T = 1e3, renorm 5: 2 random and 4 separatrix seeds;
- `poincare` with 100 crossings of x2 = 0 from a start on the level
  H = 0.8 of the C = 0 field;
- end to end, one `lyapunov` run (4 separatrix seeds, T = 1e3) and one
  `poincare` run (100 crossings) through `runner.run`, and
  `chaos_survey_pass`: the five `lyapunov` configs of one pass of
  perfbench's chaos-survey workload (`CHAOS_SURVEY`; config seed 0 and no
  assertions, where perfbench draws seeds from its pools).

`--group startup` (BENCH_startup.json), what a run pays before it computes:

- `import_runner`: `import eulerlab.runner` in a fresh interpreter;
- `setup`: a fresh interpreter that imports `eulerlab.runner` and validates
  12 configs shaped like one pass of perfbench's sections-and-fields
  workload (4 `poincare`, `abc`, 3 `bernoulli`, 4 `spectrum`);
- `load_config_warm`: `runner.load_config` of the same 12 configs in this
  process, after the warm-up pass, divided by 12;
- `cli_run_spectrum`: a fresh interpreter that runs a `spectrum` n = 9
  config through `cli.main`.

`--group fields` (BENCH_fields.json), the `abc` grid diagnostics on the
showcase field (1, 0.5, 0.1) at grid 64:

- `grid_slabs_64` (one pass over the slabs of the field's grid values),
  `proportionality_factor_64` and `min_norm_64`: one call,
  and the `tracemalloc` peak of a second, traced call;
- end to end, `abc_run_64` and `abc_run_256`: one `abc` run at grid 64 and
  at grid 256 through `runner.run` in a fresh interpreter, with its peak RSS.

The fresh interpreters time themselves, from before the first eulerlab
import to the end, so interpreter start-up is not counted.

Medians are over --runs repetitions in one process with one BLAS thread:
seconds under `median_s`, and for the cases that measure one, the peak in
MiB under `median_peak_mb`.  Every case is called once to warm up, then
each of --runs rounds calls every case once, so a slow stretch of a shared
host lands on all cases of a round rather than on whichever case runs
during it.  The script calls the library of its own checkout; to time
another checkout, run that checkout's copy of the script.
Results go under `--label` into the group's file (or `--out`) at the root
of the checkout that holds this script; entries under other labels are
kept, so two checkouts can write side by side into one file:

    python scripts/bench.py --group dynamics --label change --runs 7
    python /path/to/old/checkout/scripts/bench.py --group dynamics \\
        --label parent --runs 7 --out BENCH_dynamics.json

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
import tracemalloc

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from eulerlab import contact as ct  # noqa: E402
from eulerlab import dynamics as dyn  # noqa: E402
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


def _wall(call):
    """A case timing one call of `call`; every case returns its seconds."""
    def timed():
        start = time.perf_counter()
        call()
        return time.perf_counter() - start
    return timed


def _traced(call):
    """A case timing one call of `call`, then tracing a second call's peak in MiB."""
    def timed():
        seconds = _wall(call)()
        tracemalloc.start()
        try:
            call()
            return seconds, tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
    return timed


def _on_fresh(make, call):
    """A case timing `call(make())` without the `make()` that precedes it."""
    def timed():
        arg = make()
        start = time.perf_counter()
        call(arg)
        return time.perf_counter() - start
    return timed


def _runs(scratch):
    count = itertools.count()
    return lambda cfg: runner.run(cfg, out_dir=os.path.join(scratch, f"run{next(count)}"))


# the kinds and parameters of one splitting-sweep pass: perturb at K = 3,
# pi-map galerkin at K = 2, pi-map synthetic, and the galerkin op again
_PI_MAP_K2 = {"kind": "pi-map", "params": {"mode": "galerkin", "K": 2}}
SPLITTING_SWEEP = [{"kind": "perturb", "params": {"K": 3}}, _PI_MAP_K2,
                   {"kind": "pi-map", "params": {"mode": "synthetic", "dim": 40}}, _PI_MAP_K2]


def _galerkin_cases(scratch):
    epsilons = [-0.2, -0.1, -0.05, 0.05, 0.1, 0.2]
    family = ct.standard_family()

    def fresh_family():
        contact, g = ct.std_contact_t3()
        return ct.MetricFamily(g, contact, ct.default_perturbation_form())

    basis3 = gk.FormBasis(3)
    member = family.member(0.1)

    def after(eps):  # the member at eps = 0.1 assembled just after the member at eps
        return _on_fresh(lambda: gk.assemble_mass(family.member(eps), basis3),
                         lambda _: gk.assemble_mass(member, basis3))

    M3 = gk.assemble_mass(member, basis3)
    B3 = gk.assemble_exterior(basis3, M3.parts)
    A0 = gk.pencil_operator_family(family, gk.FormBasis(2))(0.0)
    A_of3 = gk.pencil_operator_family(family, gk.FormBasis(3))
    mass_grid, _ = ct.uniform_grid(basis3.nodes)
    shell9, shell50 = sp.random_beltrami(9, 0), sp.random_beltrami(50, 0)
    perturb = runner.load_config({"kind": "perturb", "params": {"K": 3}})
    pi_maps = {K: runner.load_config({"kind": "pi-map", "params": {"mode": "galerkin", "K": K}})
               for K in (2, 3, 4)}
    splitting_sweep = [runner.load_config(doc) for doc in SPLITTING_SWEEP]
    run = _runs(scratch)
    verify_out = os.path.join(scratch, "verify")
    return {
        "assemble_mass_K3": after(0.0),
        "assemble_mass_K3_reused": after(0.05),
        "solve_pencil_K3": _wall(lambda: gk.solve_pencil(B3, M3, (0.8, 1.2))),
        "window_count_K3": _wall(lambda: [gk._window_count(Bb, Mb, 0.8, 1.2)
                                          for Bb, Mb in zip(B3.blocks, M3.blocks)]),
        "mass_derivative_K3": _wall(
            lambda: gk.mass_derivative(family.base, family.variation, basis3)),
        "track_splitting_K3": _on_fresh(
            fresh_family, lambda fam: gk.track_splitting(fam, epsilons, (0.8, 1.2), 3)),
        "family_compatibility_K3": _on_fresh(
            fresh_family, lambda fam: ct.family_compatibility(fam, epsilons)),
        "spectral_projector_K2": _wall(lambda: gk.spectral_projector(A0, 1.0, 0.2, 64)),
        "operator_family_K3": _wall(lambda: A_of3(0.1)),
        "metric_matrix_K3_grid": _wall(lambda: member.matrix(mass_grid)),
        "bernoulli_shell9": _wall(lambda: sp.bernoulli(shell9)),
        "bernoulli_shell50": _wall(lambda: sp.bernoulli(shell50)),
        "end_to_end.perturb_run_K3": _wall(lambda: run(perturb)),
        "end_to_end.pi_map_run_K2": _wall(lambda: run(pi_maps[2])),
        "end_to_end.pi_map_run_K3": _wall(lambda: run(pi_maps[3])),
        "end_to_end.pi_map_run_K4": _wall(lambda: run(pi_maps[4])),
        "end_to_end.splitting_sweep_pass": _wall(lambda: [run(cfg) for cfg in splitting_sweep]),
        "verify_quick": _cold("from eulerlab import cli\n"
                              "assert cli.main(['verify', '--level', 'quick', "
                              f"'--out', {verify_out!r}]) == 0"),
    }


# the K-convergence row: the Ks, and the ceilings that stop a kind
K_CONVERGENCE = range(3, 9)
MAX_RSS_MB = 2048
MAX_WALL_S = 120.0

# VmHWM, not ru_maxrss: across fork and exec Linux keeps the forking
# process's RSS in ru_maxrss, so a child would report this script's peak
_K_RUN = """
import json, sys, time
start = time.perf_counter()
from eulerlab import runner
rec = runner.run(runner.load_config(json.loads(sys.argv[1])), out_dir=sys.argv[2])
wall = time.perf_counter() - start
with open("/proc/self/status") as fh:
    peak = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM")) / 1024
print(json.dumps({"wall_s": wall, "ok": rec.ok, "peak_rss_mb": peak}))
"""


def _rss_mb(pid):
    try:
        with open(f"/proc/{pid}/status") as fh:
            return next(int(line.split()[1]) / 1024 for line in fh if line.startswith("VmRSS"))
    except (OSError, StopIteration):
        return 0.0


def _pi_prime_eigenvalues(path):
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    k = int(rows[:, 0].max()) + 1
    pi_prime = np.zeros((k, k))
    pi_prime[rows[:, 0].astype(int), rows[:, 1].astype(int)] = rows[:, 2]
    return np.linalg.eigvalsh(pi_prime).tolist()


def _k_run(doc, out):
    """One run in a fresh interpreter, killed past MAX_RSS_MB or MAX_WALL_S."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen([sys.executable, "-c", _K_RUN, json.dumps(doc), out], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    start, peak, stop = time.perf_counter(), 0.0, None
    while proc.poll() is None and stop is None:
        peak = max(peak, _rss_mb(proc.pid))
        if peak > MAX_RSS_MB:
            stop = f"RSS above {MAX_RSS_MB} MB"
        elif time.perf_counter() - start > MAX_WALL_S:
            stop = f"wall time above {MAX_WALL_S:g} s"
        else:
            time.sleep(0.05)
    if stop is not None:
        proc.kill()
        proc.communicate()
        return {"K": doc["params"]["K"], "stopped": stop, "peak_rss_mb_seen": round(peak, 1)}
    stdout, stderr = proc.communicate()
    if proc.returncode != 0:
        return {"K": doc["params"]["K"], "stopped": f"exit {proc.returncode}: {stderr[-300:]}"}
    row = {"K": doc["params"]["K"], **json.loads(stdout.splitlines()[-1])}
    if row["wall_s"] > MAX_WALL_S or row["peak_rss_mb"] > MAX_RSS_MB:
        row["stopped"] = "finished past a ceiling"
    with open(os.path.join(out, "report.json")) as fh:
        report = json.load(fh)
    if doc["kind"] == "perturb":
        row.update({key: report[key] for key in ("pairing_eigenvalues", "fd_slopes")})
    else:
        row["certificate"] = report["certificate"]
        row["pi_prime_eigenvalues"] = _pi_prime_eigenvalues(os.path.join(out, "pi_prime.csv"))
    return row


def _k_convergence(scratch):
    """The K-convergence row: per kind, one fresh run per K until a ceiling stops it."""
    rows = {}
    for kind, params in (("perturb", {}), ("pi-map", {"mode": "galerkin"})):
        rows[kind] = []
        for K in K_CONVERGENCE:
            doc = {"kind": kind, "params": dict(params, K=K)}
            row = _k_run(doc, os.path.join(scratch, f"{kind}-K{K}"))
            rows[kind].append(row)
            print(f"k_convergence {kind} K={K}: {row}"[:300], file=sys.stderr)
            if "stopped" in row:
                break
    return rows


def _rhs_per_lane(rhs, y, calls=2000):
    buf = np.empty_like(y)

    def timed():
        start = time.perf_counter()
        for _ in range(calls):
            rhs(None, y, out=buf)
        return (time.perf_counter() - start) / (calls * len(y))
    return timed


def _per_attempt(rhs, y0, phases):
    def timed():
        start = time.perf_counter()
        run = dyn._dop853(rhs, y0, 1e-9, 50.0, renorm=5.0, phases=phases)
        return (time.perf_counter() - start) / int(run.attempts.max())
    return timed


def _lyapunov(B, C, seeds, seed_style):
    return {"kind": "lyapunov", "params": {"A": 1.0, "B": B, "C": C, "T": 1e3, "renorm": 5.0,
                                           "tol": 1e-9, "seeds": seeds, "seed_style": seed_style}}


# the kinds and parameters of one chaos-survey pass: the integrable
# baselines, the showcase, and the first op again
CHAOS_SURVEY = [*(_lyapunov(b, 0.0, 2, "random") for b in (0.25, 0.5, 0.75)),
                _lyapunov(0.5, 0.1, 4, "separatrix"), _lyapunov(0.25, 0.0, 2, "random")]


def _dynamics_cases(scratch):
    v = sp.make_abc(sp.ABCParams(1.0, 0.5, 0.1))
    w0 = np.array([0.6, 0.64, 0.48])
    seeds = np.array(dyn.separatrix_seeds(0.5, 50))
    states = np.concatenate([seeds, np.tile(w0, (50, 1))], axis=1)
    random2 = np.array(dyn.random_torus_seeds(2))
    start = [0.23131888606570092, 3.0053816081087996, 5.4674996473157105]  # H = 0.8
    integrable = sp.make_abc(sp.ABCParams(1.0, 0.5, 0.0))
    lyapunov = runner.load_config({"kind": "lyapunov", "params": {
        "A": 1.0, "B": 0.5, "C": 0.1, "T": 1000.0, "renorm": 5.0, "tol": 1e-9, "seeds": 4,
        "seed_style": "separatrix"}})
    poincare = runner.load_config({"kind": "poincare", "params": {
        "A": 1.0, "B": 0.5, "C": 0.0, "x0": start, "axis": 1, "level": 0.0, "direction": 1,
        "count": 100}})
    chaos_survey = [runner.load_config(doc) for doc in CHAOS_SURVEY]
    run = _runs(scratch)
    phases = dyn.phase_matrix(v, tangent=True)
    rows = np.concatenate([states, states @ phases], axis=1)
    cases = {f"tangent_rhs_per_lane_L{L}": _rhs_per_lane(dyn.tangent_rhs(v), rows[:L])
             for L in (1, 2, 50)}
    cases.update({f"attempt_L{L}": _per_attempt(dyn.tangent_rhs(v), states[:L], phases)
                  for L in (1, 2, 4)})
    cases.update({
        "lyapunov_max_T1e3_L2": _wall(lambda: dyn.lyapunov_max(v, random2, 1e3, 5.0)),
        "lyapunov_max_T1e3_L4": _wall(lambda: dyn.lyapunov_max(v, seeds[:4], 1e3, 5.0)),
        "poincare_100": _wall(lambda: dyn.poincare(integrable, (1, 0.0), +1, start, 100,
                                                   tol=1e-10, max_time=1e4)),
        "end_to_end.lyapunov_run": _wall(lambda: run(lyapunov)),
        "end_to_end.poincare_run": _wall(lambda: run(poincare)),
        "end_to_end.chaos_survey_pass": _wall(lambda: [run(cfg) for cfg in chaos_survey]),
    })
    return cases


def _cold(code):
    """A case running `code` in a fresh interpreter, timed inside it."""
    script = (f"import time\nstart = time.perf_counter()\n{code}\n"
              "print(time.perf_counter() - start)\n")

    def timed():
        env = dict(os.environ, PYTHONPATH=SRC)
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=env, timeout=120, check=True)
        return float(out.stdout.splitlines()[-1])
    return timed


def _poincare(C, direction):
    return {"kind": "poincare", "params": {"A": 1.0, "B": 0.5, "C": C, "x0": [0.6, 0.64, 0.48],
                                           "axis": 1, "level": 0.0, "direction": direction,
                                           "count": 100}}


def _bernoulli(source):
    return {"kind": "bernoulli", "params": {"source": source, "grid": 32}}


# the kinds and parameters of one sections-and-fields pass
SECTIONS_AND_FIELDS = [
    _poincare(0.0, 1), _poincare(0.0, -1), _poincare(0.1, 1), _poincare(0.1, -1),
    {"kind": "abc", "params": {"A": 1.0, "B": 0.5, "C": 0.1, "grid": 64}},
    _bernoulli({"shell": {"n": 9, "seed": 3}}),
    _bernoulli({"abc": {"A": 1.0, "B": 0.5, "C": 0.1}}),
    *({"kind": "spectrum", "params": {"n": n}} for n in (9, 50, 7, 28)),
    _bernoulli({"shell": {"n": 9, "seed": 3}}),
]


def _startup_cases(scratch):
    def warm():
        start = time.perf_counter()
        for doc in SECTIONS_AND_FIELDS:
            runner.load_config(doc)
        return (time.perf_counter() - start) / len(SECTIONS_AND_FIELDS)

    config = os.path.join(scratch, "spectrum.json")
    with open(config, "w") as fh:
        json.dump({"kind": "spectrum", "params": {"n": 9}}, fh)
    out = os.path.join(scratch, "spectrum")
    return {
        "import_runner": _cold("import eulerlab.runner"),
        "setup": _cold(f"from eulerlab import runner\nfor doc in {SECTIONS_AND_FIELDS!r}:\n"
                       "    runner.load_config(doc)"),
        "load_config_warm": warm,
        "cli_run_spectrum": _cold("from eulerlab import cli\n"
                                  f"assert cli.main(['run', '--config', {config!r}, "
                                  f"'--out', {out!r}]) == 0"),
    }


def _fresh_run(doc, out):
    """A case running `doc` in a fresh interpreter: its wall seconds and peak RSS."""
    def timed():
        proc = subprocess.run([sys.executable, "-c", _K_RUN, json.dumps(doc), out],
                              capture_output=True, text=True, timeout=120, check=True,
                              env=dict(os.environ, PYTHONPATH=SRC))
        row = json.loads(proc.stdout.splitlines()[-1])
        return row["wall_s"], row["peak_rss_mb"]
    return timed


def _fields_cases(scratch):
    v = sp.make_abc(sp.ABCParams(1.0, 0.5, 0.1))

    def abc(grid):
        return {"kind": "abc", "params": {"A": 1.0, "B": 0.5, "C": 0.1, "grid": grid}}

    def slabs():
        for _ in sp.grid_slabs(v, 64):
            pass

    return {
        "grid_slabs_64": _traced(slabs),
        "proportionality_factor_64": _traced(lambda: sp.proportionality_factor(v, 64)),
        "min_norm_64": _traced(lambda: sp.min_norm(v, 64)),
        "end_to_end.abc_run_64": _fresh_run(abc(64), os.path.join(scratch, "abc64")),
        "end_to_end.abc_run_256": _fresh_run(abc(256), os.path.join(scratch, "abc256")),
    }


GROUPS = {"galerkin": _galerkin_cases, "dynamics": _dynamics_cases, "startup": _startup_cases,
          "fields": _fields_cases}


def _seconds(sample):
    """A case returns its seconds, or (seconds, peak in MiB)."""
    return sample[0] if isinstance(sample, tuple) else sample


def _medians(unit, samples):
    return {f"median_{unit}": {k: float(f"{statistics.median(v):.5g}")
                               for k, v in samples.items()},
            f"samples_{unit}": {k: [float(f"{t:.5g}") for t in v] for k, v in samples.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--group", required=True, choices=sorted(GROUPS))
    ap.add_argument("--label", required=True, help="key of this checkout's entry, e.g. parent")
    ap.add_argument("--runs", type=int, default=5, help="repetitions per call (median)")
    ap.add_argument("--out", help="JSON file (default BENCH_<group>.json next to src)")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    out = args.out or os.path.join(ROOT, f"BENCH_{args.group}.json")

    with tempfile.TemporaryDirectory(prefix="bench_") as scratch:
        cases = GROUPS[args.group](scratch)
        for case in cases.values():
            case()  # warm-up: caches, lazy imports
        samples = {name: [] for name in cases}
        for _ in range(args.runs):  # rounds: every case once per round
            for name, case in cases.items():
                samples[name].append(case())
        for name, times in samples.items():
            median = statistics.median(_seconds(t) for t in times)
            print(f"{name}: median {median:.4g} s", file=sys.stderr)
        rows = _k_convergence(scratch) if args.group == "galerkin" else None

    doc = {}
    if os.path.exists(out):
        with open(out) as fh:
            doc = json.load(fh)
    doc[args.label] = {
        "revision": _git("rev-parse", "HEAD"),
        "worktree_clean": _git("status", "--porcelain", "--untracked-files=no") == "",
        "machine": _machine(),
        "runs": args.runs,
        **_medians("s", {k: [_seconds(t) for t in v] for k, v in samples.items()}),
    }
    peaks = {k: [t[1] for t in v] for k, v in samples.items() if isinstance(v[0], tuple)}
    if peaks:
        doc[args.label].update(_medians("peak_mb", peaks))
    if rows is not None:
        doc[args.label]["k_convergence"] = rows
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
