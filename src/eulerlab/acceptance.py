"""Acceptance battery: the exit criteria of the lab, with pinned tolerances.

Each check returns its details and the assertion records of `runner`, the
bounds it shares with a run read from `runner.BOUNDS`; a criterion passes
when all its records do.  `run_suite` executes the battery, prints one
pass/fail line per criterion and writes a machine-readable summary.
The quick level excludes the long Lyapunov runs (criterion 4).  Shared
heavy objects (the K = 3 splitting sweep) are computed once per suite.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import contact as ct
from . import dynamics as dyn
from . import galerkin as gk
from . import runner
from . import spectral as sp
from .runner import assert_leq, assert_positive, assert_true

QUICK_BUDGET_SECONDS = 300.0
SWEEP_K = 3  # basis truncation of the shared splitting sweep and of criterion 8
SWEEP_EPSILONS = (-0.2, -0.1, -0.05, 0.0, 0.05, 0.1, 0.2)  # where that sweep samples g_eps


@dataclass
class CheckResult:
    criterion: int
    name: str
    details: dict
    records: list  # runner.assert_* records
    elapsed: float

    @property
    def passed(self):
        return all(r["passed"] for r in self.records)

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.criterion}: {self.name} ({self.elapsed:.1f}s)"


def check_curl_eigenfamily():
    """Criterion 1: exact orthonormal eigenfamilies for every shell n <= 100."""
    worst_gram = 0.0
    worst_resid = 0.0
    checked = 0
    for n in range(1, 101):
        if not len(sp.lattice_shell(n)):
            continue
        gram_dev, resid = sp.eigenfamily_defects(n)
        worst_gram = max(worst_gram, gram_dev)
        worst_resid = max(worst_resid, resid)
        checked += 1
    mult1 = len(sp.lattice_shell(1))
    return {
        "shells_checked": checked,
        "max_gram_deviation": worst_gram,
        "max_curl_residual": worst_resid,
        "multiplicity_1": mult1,
    }, [
        assert_leq("gram_deviation", worst_gram),
        assert_leq("curl_residual", worst_resid),
        assert_true("multiplicity_1", mult1 == 6, mult1),
    ]


def check_steady_pipeline():
    """Criterion 2: steady residuals, Bernoulli constancy, unit factor."""
    worst_r1 = worst_r2 = 0.0
    for j in range(20):
        gen = np.random.Generator(np.random.Philox(key=np.array([101, j], dtype=np.uint64)))
        params = sp.ABCParams(*(gen.uniform(-2.0, 2.0, size=3)))
        r1, r2 = sp.steady_residual(sp.make_abc(params))
        worst_r1 = max(worst_r1, r1)
        worst_r2 = max(worst_r2, r2)
    worst_bern = 0.0
    for n in (1, 2, 3, 5, 6):
        for s in range(10):
            f = sp.bernoulli(sp.random_beltrami(n, s))
            worst_bern = max(worst_bern, f.sup_norm())
    rep = sp.proportionality_factor(sp.make_abc(sp.ABCParams(1.0, 0.5, 0.1)), 32)
    unit_dev = max(abs(rep.min_value - 1.0), abs(rep.max_value - 1.0))
    return {
        "max_euler_residual": worst_r1,
        "max_bernoulli_residual": worst_r2,
        "max_bernoulli_sup": worst_bern,
        "factor_gap": rep.gap,
        "factor_unit_deviation": unit_dev,
    }, [
        assert_leq("euler_residual", worst_r1),
        assert_leq("bernoulli_residual", worst_r2),
        assert_leq("bernoulli_sup_norm", worst_bern),
        assert_leq("factor_gap", rep.gap, 1e-10),
        assert_leq("factor_unit_deviation", unit_dev, 1e-10),
    ]


def check_nonvanishing():
    """Criterion 3: min |v| thresholds for the three reference amplitude triples."""
    m1 = sp.min_norm(sp.make_abc(sp.ABCParams(1.0, 0.5, 0.0)), 64)
    m2 = sp.min_norm(sp.make_abc(sp.ABCParams(1.0, 0.5, 0.1)), 64)
    m3 = sp.min_norm(sp.make_abc(sp.ABCParams(1.0, 1.0, 1.0)), 64)
    return {"min_norm_B05": m1, "min_norm_B05_C01": m2, "min_norm_111": m3}, [
        assert_true("min_norm_B05", m1 > 0.1, m1),
        assert_true("min_norm_B05_C01", m2 > 0.05, m2),
        assert_leq("min_norm_111", m3, 1e-3),
    ]


def check_chaos_proxy():
    """Criterion 4: integrable baselines stay flat, the showcase regime does not.

    Each field runs its seeds as one lane batch to T = 1e4."""
    T, tol, renorm = 1e4, 1e-9, 5.0
    baseline = []
    for b in (0.25, 0.5, 0.75):
        v = sp.make_abc(sp.ABCParams(1.0, b, 0.0))
        x0s = dyn.random_torus_seeds(10, base_key=23)
        baseline += [e.lambda_max for e in dyn.lyapunov_max(v, x0s, T, renorm, tol)]
    v = sp.make_abc(sp.ABCParams(1.0, 0.5, 0.1))
    x0s = dyn.separatrix_seeds(0.5, 20)
    chaos = [e.lambda_max for e in dyn.lyapunov_max(v, x0s, T, renorm, tol)]

    base_max = float(np.max(np.abs(baseline)))
    chaos_max = float(np.max(chaos))
    theta = dyn.CHAOS_THRESHOLD
    return {
        "baseline_max_abs": base_max,
        "chaos_max": chaos_max,
        "threshold": theta,
        "chaos_hits": int(np.sum(np.asarray(chaos) >= theta)),
    }, [
        assert_leq("baseline_max_abs", base_max, 5e-3),
        assert_true("chaos_max", chaos_max >= theta, chaos_max),
    ]


def check_compatible_metrics(fam):
    """Criterion 5: compatibility defects, volume rigidity, tracelessness."""
    compat, worst_det = ct.family_compatibility(fam, SWEEP_EPSILONS)
    worst_defect = max(rep.max_defect() for rep in compat.values())
    tr = ct.trace_pairing(fam.base.inv_entries, fam.variation.entries)
    pts, _ = ct.uniform_grid(20)
    trace_sup = float(np.max(np.abs(tr.evaluate(pts))))
    return {
        "max_compatibility_defect": worst_defect,
        "max_det_relative_deviation": worst_det,
        "trace_sup": trace_sup,
    }, [
        assert_leq("compatibility_defect", worst_defect),
        assert_leq("det_relative_deviation", worst_det),
        assert_leq("trace_sup", trace_sup, 1e-12),
    ]


def _legendre_volume_integral(fn, order=40):
    """Independent quadrature oracle: tensor Gauss-Legendre on [0, 2*pi]^3."""
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(order)
    x = (x + 1.0) * math.pi
    w = w * math.pi
    X1, X2, X3 = np.meshgrid(x, x, x, indexing="ij")
    pts = np.stack([X1.ravel(), X2.ravel(), X3.ravel()], axis=-1)
    W = (w[:, None, None] * w[None, :, None] * w[None, None, :]).ravel()
    return float(np.sum(fn(pts) * W))


def _slope_agreement(a, b, rel=1e-6, floor=1e-10):
    return bool(np.all(np.abs(a - b) <= rel * np.maximum(np.abs(a), np.abs(b)) + floor))


def check_variation_identities(fam, curves):
    """Criterion 6: three independent routes to the first-order eigenvalue motion,
    all read from the shared sweep but the pairing of the two forms."""
    lam0 = fam.contact.lambda0
    # the pairing route of the contact form and the perturbing form, and the
    # absolute value of the beta pairing against an independent quadrature
    pair_a, pair_b = map(float, np.diag(
        ct.variation_pairing([fam.contact.alpha, fam.beta], fam.variation, fam.base, lam0)))
    q = fam.variation.norm2
    ref = lam0 * 0.5 * _legendre_volume_integral(lambda p: q.evaluate(p) ** 2)
    (fd_a, pen_a), (fd_b, pen_b) = curves.alpha_routes, curves.beta_routes

    # route agreement on the sorted slope multiset
    fd, pencil, pairing = curves.fd_slopes, curves.pencil_eigenvalues, curves.pairing_eigenvalues
    pairs = ((fd, pairing), (fd, pencil), (pencil, pairing))
    ok_sets = all(_slope_agreement(a, b) for a, b in pairs)
    records = [
        assert_true("sets_agree", ok_sets),
        assert_leq("alpha_routes", max(abs(fd_a), abs(pen_a), abs(pair_a)), 1e-8),
        assert_leq("beta_fd_vs_pencil", abs(fd_b - pen_b), 1e-6 * abs(pen_b)),
        assert_leq("beta_pencil_vs_pairing", abs(pen_b - pair_b), 1e-6 * abs(pair_b)),
        assert_leq("beta_fd_vs_pairing", abs(fd_b - pair_b), 1e-6 * abs(pair_b)),
        assert_leq("alpha_pairing", abs(pair_a), 1e-8),
        assert_leq("beta_pairing_vs_reference", abs(pair_b - ref), 1e-8 * abs(ref)),
    ]
    return {
        "fd_slopes": [float(x) for x in fd],
        "pairing_eigenvalues": [float(x) for x in pairing],
        "pencil_eigenvalues": [float(x) for x in pencil],
        "alpha_routes": [fd_a, pen_a, pair_a],
        "beta_routes": [fd_b, pen_b, pair_b],
        "alpha_pairing": pair_a,
        "beta_pairing": pair_b,
        "beta_pairing_reference": ref,
        "sets_agree": ok_sets,
    }, records


def check_splitting(fam, curves):
    """Criterion 7: the six-fold cluster splits while the contact form holds still."""
    k0 = curves.curves.shape[1]
    alpha_dev = float(np.max(np.abs(curves.alpha_curve - fam.contact.lambda0)))
    gap = curves.slope_gap()
    # linear separation: the extreme fitted slopes differ, and the curves at
    # the largest epsilon are split by at least half the predicted amount
    eps_max = float(np.max(np.abs(curves.epsilons)))
    spread = float(np.max(curves.curves[-1]) - np.min(curves.curves[-1]))
    predicted = (np.max(curves.pairing_eigenvalues) - np.min(curves.pairing_eigenvalues)) * eps_max
    return {
        "cluster_size": k0,
        "fitted_slope_gap": gap,
        "alpha_eigenvalue_deviation": alpha_dev,
        "spread_at_eps_max": spread,
        "predicted_spread": float(predicted),
    }, [
        assert_true("cluster_size", k0 == 6, k0),
        assert_positive("slope_gap_positive", gap),
        assert_leq("alpha_eigenvalue_deviation", alpha_dev),
        assert_true("spread_at_eps_max", spread >= 0.5 * predicted, spread),
    ]


def check_compression_machinery(fam):
    """Criterion 8: contour projector, compression map, first-order certificate."""
    worst_proj = worst_idem = worst_trace = 0.0
    for j in range(100):
        gen = np.random.Generator(np.random.Philox(key=np.array([301, j], dtype=np.uint64)))
        dim = int(gen.integers(20, 201))
        n_in = int(gen.integers(2, min(8, dim - 2)))
        A = gk.random_two_band_symmetric(gen, dim, n_in)
        (P,) = gk.spectral_projector(gk.BlockMatrix.one_block(A), 0.5, 1.0, 64).blocks
        w, V = np.linalg.eigh(A)
        sel = np.abs(w - 0.5) < 1.0
        Pref = V[:, sel] @ V[:, sel].T
        worst_proj = max(worst_proj, float(np.max(np.abs(P - Pref))))
        worst_idem = max(worst_idem, float(np.linalg.norm(P @ P - P)))
        worst_trace = max(worst_trace, abs(float(np.trace(P)) - n_in))

    # sigma matching and derivative consistency on random C1 families
    worst_sigma = worst_prime = 0.0
    for j in range(10):
        gen = np.random.Generator(np.random.Philox(key=np.array([401, j], dtype=np.uint64)))
        A0 = gk.random_two_band_symmetric(gen, 30, 3)
        S1 = gk.random_unit_symmetric(gen, 30)
        S2 = gk.random_unit_symmetric(gen, 30)

        def A_of(q, A0=A0, S1=S1, S2=S2):
            return gk.BlockMatrix.one_block(A0 + q * S1 + 0.5 * q * q * S2)

        cluster = gk.matrix_cluster(gk.BlockMatrix.one_block(A0), 0.5, 1.0)
        for q in (0.05, 0.1):
            worst_sigma = max(worst_sigma, gk.pi_map(A_of(q), cluster).sigma_match_defect)
        # S1 is the family's exact derivative at 0; pi itself is contour-quadrature
        # limited, so its finite difference uses extra contour nodes to stay below
        # the 1e-6 comparison level
        prime = gk.pi_derivative(gk.BlockMatrix.one_block(S1), cluster.vectors)
        fd_pi = gk.central_derivative(
            lambda q: gk.pi_map(A_of(q), cluster, nodes=96).pi, 0.0, 1e-3)
        scale = max(1.0, float(np.max(np.abs(prime))))
        worst_prime = max(worst_prime, float(np.max(np.abs(fd_pi - prime))) / scale)

    # first-order certificate of the Galerkin family; it does not depend on
    # the orthonormal frame chosen inside the cluster
    basis = gk.FormBasis(SWEEP_K)
    A0, DA = gk.pencil_operator_derivative(fam, basis)
    M0 = gk.assemble_mass(fam.base, basis)
    sqrtM = gk.BlockMatrix(M0.parts, tuple(gk.matrix_sqrt(block) for block in M0.blocks))
    av = sqrtM @ basis.form_to_vector(fam.contact.alpha)
    av /= np.linalg.norm(av)
    bv = sqrtM @ basis.form_to_vector(fam.beta)
    bv -= (av @ bv) * av
    bv /= np.linalg.norm(bv)
    cluster = gk.matrix_cluster(A0, fam.contact.lambda0, 0.2)
    cert = gk.splitting_certificate(gk.pi_derivative(DA, cluster.vectors))
    alpha_entry = float(av @ DA @ av)
    beta_entry = float(bv @ DA @ bv)

    return {
        "max_projector_error": worst_proj,
        "max_idempotency_defect": worst_idem,
        "max_trace_defect": worst_trace,
        "max_sigma_match_defect": worst_sigma,
        "max_pi_prime_fd_defect": worst_prime,
        "galerkin_certificate": cert,
        "alpha_diagonal_entry": alpha_entry,
        "beta_diagonal_entry": beta_entry,
    }, [
        assert_leq("projector_error", worst_proj, 1e-8),
        assert_leq("projector_idempotency", worst_idem),
        assert_leq("trace_defect", worst_trace, 1e-8),
        assert_leq("sigma_match_defect", worst_sigma),
        assert_leq("pi_prime_fd_defect", worst_prime, 1e-6),
        assert_positive("certificate_positive", cert),
        assert_leq("alpha_diagonal_entry", abs(alpha_entry), 1e-8),
        assert_positive("beta_diagonal_entry", beta_entry),
    ]


def check_reproducibility(out_dir):
    """Criterion 9 (artifact part): identical seeds give byte-identical files."""
    poincare = {"kind": "poincare", "seed": 3, "params": {
        "A": 1.0, "B": 0.5, "C": 0.0, "x0": [0.2, 0.0, 1.3],
        "count": 20, "tol": 1e-10, "max_time": 2000.0}}
    spectrum = {"kind": "spectrum", "seed": 0, "params": {"n": 6}}
    hashes = []
    for tag, config in zip(("first", "second", "third", "fourth"),
                           (poincare, poincare, spectrum, spectrum)):
        rec = runner.run(runner.load_config(config), out_dir=os.path.join(out_dir, tag))
        hashes.append({f["name"]: f["sha256"] for f in rec.files})
    identical = hashes[0] == hashes[1] and hashes[2] == hashes[3]
    return ({"identical": identical, "files_compared": len(hashes[0]) + len(hashes[2])},
            [assert_true("identical", identical)])


def run_suite(level="quick", out_dir=None):
    """Run the acceptance battery; returns a summary dict and prints one
    pass/fail line per criterion."""
    if level not in ("quick", "full"):
        raise ValueError("level must be 'quick' or 'full'")
    if out_dir is None:
        out_dir = os.path.join(
            os.environ.get("EULERLAB_OUT", "runs"), f"verify-{level}"
        )
    os.makedirs(out_dir, exist_ok=True)
    t_suite = time.time()
    results = []

    def record(criterion, name, fn, *args, **kwargs):
        t0 = time.time()
        res = CheckResult(criterion, name, *fn(*args, **kwargs), time.time() - t0)
        results.append(res)
        print(res.line(), flush=True)
        return res

    record(1, "curl eigenfamily (shells n <= 100)", check_curl_eigenfamily)
    record(2, "steady-state pipeline", check_steady_pipeline)
    record(3, "nonvanishing minima", check_nonvanishing)

    fam = ct.standard_family()
    t_sweep = time.time()
    curves = gk.track_splitting(fam, SWEEP_EPSILONS, (0.8, 1.2), SWEEP_K)
    shared_sweep_seconds = time.time() - t_sweep
    record(5, "compatible-metric identities", check_compatible_metrics, fam)
    record(6, "variation identities (three routes)", check_variation_identities,
           fam, curves)
    record(7, "eigenvalue splitting with pinned contact eigenvalue", check_splitting,
           fam, curves)
    record(8, "projector and compression machinery", check_compression_machinery, fam)

    if level == "full":
        record(4, "chaos proxy vs integrable baseline", check_chaos_proxy)

    repro = record(9, "reproducibility (byte-identical reruns)", check_reproducibility,
                   os.path.join(out_dir, "determinism"))
    elapsed = time.time() - t_suite
    if level == "quick":
        budget = assert_true("quick_budget", elapsed < QUICK_BUDGET_SECONDS, elapsed)
        repro.records.append(budget)
        if not budget["passed"]:
            repro.details["quick_budget_exceeded"] = elapsed

    summary = {
        "level": level,
        "elapsed_seconds": elapsed,
        "shared_sweep_seconds": shared_sweep_seconds,
        "all_passed": all(r.passed for r in results),
        "criteria": [dict(asdict(r), passed=r.passed) for r in results],
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    status = "PASS" if summary["all_passed"] else "FAIL"
    print(f"[{status}] suite level={level} in {elapsed:.1f}s")
    return summary

