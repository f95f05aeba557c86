"""Acceptance battery: the exit criteria of the lab, with pinned tolerances.

Each check returns a CheckResult; `run_suite` executes the battery, prints
one pass/fail line per criterion and writes a machine-readable summary.
The quick level excludes the long Lyapunov runs (criterion 4).  Shared
heavy objects (the K = 3 splitting sweep) are computed once per suite.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from . import contact as ct
from . import dynamics as dyn
from . import galerkin as gk
from . import runner
from . import spectral as sp

QUICK_BUDGET_SECONDS = 300.0
SWEEP_K = 3  # basis truncation of the shared splitting sweep and of criterion 8


@dataclass
class CheckResult:
    criterion: int
    name: str
    passed: bool
    details: dict
    elapsed: float

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
    passed = worst_gram <= 1e-12 and worst_resid <= 1e-14 and mult1 == 6
    return {
        "shells_checked": checked,
        "max_gram_deviation": worst_gram,
        "max_curl_residual": worst_resid,
        "multiplicity_1": mult1,
    }, passed


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
    passed = (
        worst_r1 <= 1e-10
        and worst_r2 <= 1e-10
        and worst_bern <= 1e-11
        and rep.gap <= 1e-10
        and unit_dev <= 1e-10
    )
    return {
        "max_euler_residual": worst_r1,
        "max_bernoulli_residual": worst_r2,
        "max_bernoulli_sup": worst_bern,
        "factor_gap": rep.gap,
        "factor_unit_deviation": unit_dev,
    }, passed


def check_nonvanishing():
    """Criterion 3: min |v| thresholds for the three reference amplitude triples."""
    m1 = sp.min_norm(sp.make_abc(sp.ABCParams(1.0, 0.5, 0.0)), 64)
    m2 = sp.min_norm(sp.make_abc(sp.ABCParams(1.0, 0.5, 0.1)), 64)
    m3 = sp.min_norm(sp.make_abc(sp.ABCParams(1.0, 1.0, 1.0)), 64)
    passed = m1 > 0.1 and m2 > 0.05 and m3 <= 1e-3
    return {"min_norm_B05": m1, "min_norm_B05_C01": m2, "min_norm_111": m3}, passed


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
    passed = base_max <= 5e-3 and chaos_max >= theta
    return {
        "baseline_max_abs": base_max,
        "chaos_max": chaos_max,
        "threshold": theta,
        "chaos_hits": int(np.sum(np.asarray(chaos) >= theta)),
    }, passed


def _family_context():
    contactform, g = ct.std_contact_t3()
    beta = ct.default_perturbation_form()
    fam = ct.metric_family(g, contactform, beta,
                           [-0.2, -0.1, -0.05, 0.0, 0.05, 0.1, 0.2])
    return contactform, g, beta, fam


def check_compatible_metrics(ctx):
    """Criterion 5: compatibility defects, volume rigidity, tracelessness."""
    contactform, g, beta, fam = ctx
    compat, worst_det = ct.family_compatibility(fam)
    worst_defect = max(rep.max_defect() for rep in compat.values())
    tr = ct.trace_pairing(g.inv_entries, fam.variation.entries)
    pts, _ = ct.uniform_grid(20)
    trace_sup = float(np.max(np.abs(tr.evaluate(pts))))
    passed = worst_defect <= 1e-10 and worst_det <= 1e-12 and trace_sup <= 1e-12
    return {
        "max_compatibility_defect": worst_defect,
        "max_det_relative_deviation": worst_det,
        "trace_sup": trace_sup,
    }, passed


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


def check_variation_identities(ctx, curves):
    """Criterion 6: three independent routes to the first-order eigenvalue motion."""
    contactform, g, beta, fam = ctx
    basis = gk.FormBasis(curves.K)
    lam0 = contactform.lambda0

    # adapted directions: the contact form and the perturbing form; the
    # same call returns the pencil matrix of the base cluster
    directions = [basis.form_to_vector(contactform.alpha), basis.form_to_vector(beta)]
    ((fd_a, pen_a, pair_a), (fd_b, pen_b, pair_b)), Pi = gk.hellmann_feynman(
        fam, directions, lam0, basis, curves.window)
    ok_alpha = max(abs(fd_a), abs(pen_a), abs(pair_a)) <= 1e-8
    ok_beta = (
        abs(fd_b - pen_b) <= 1e-6 * abs(pen_b)
        and abs(pen_b - pair_b) <= 1e-6 * abs(pair_b)
        and abs(fd_b - pair_b) <= 1e-6 * abs(pair_b)
    )

    # route agreement on the sorted slope multiset
    pencil_eigs = np.sort(np.linalg.eigvalsh(Pi))
    ok_sets = (
        _slope_agreement(curves.fd_slopes, curves.pairing_eigenvalues)
        and _slope_agreement(curves.fd_slopes, pencil_eigs)
        and _slope_agreement(pencil_eigs, curves.pairing_eigenvalues)
    )

    # absolute value of the beta pairing against an independent quadrature
    q = fam.variation.norm2
    ref = lam0 * 0.5 * _legendre_volume_integral(lambda p: q.evaluate(p) ** 2)
    pair_alpha, pair_beta = map(float, np.diag(
        ct.variation_pairing([contactform.alpha, beta], fam.variation, g, lam0)))
    ok_values = abs(pair_alpha) <= 1e-8 and abs(pair_beta - ref) <= 1e-8 * abs(ref)

    passed = ok_sets and ok_alpha and ok_beta and ok_values
    return {
        "fd_slopes": [float(x) for x in curves.fd_slopes],
        "pairing_eigenvalues": [float(x) for x in curves.pairing_eigenvalues],
        "pencil_eigenvalues": [float(x) for x in pencil_eigs],
        "alpha_routes": [fd_a, pen_a, pair_a],
        "beta_routes": [fd_b, pen_b, pair_b],
        "alpha_pairing": pair_alpha,
        "beta_pairing": pair_beta,
        "beta_pairing_reference": ref,
        "sets_agree": ok_sets,
    }, passed


def check_splitting(ctx, curves):
    """Criterion 7: the six-fold cluster splits while the contact form holds still."""
    contactform = ctx[0]
    k0 = curves.curves.shape[1]
    alpha_dev = float(np.max(np.abs(curves.alpha_curve - contactform.lambda0)))
    gap = curves.slope_gap()
    # linear separation: the extreme fitted slopes differ, and the curves at
    # the largest epsilon are split by at least half the predicted amount
    eps_max = float(np.max(np.abs(curves.epsilons)))
    spread = float(np.max(curves.curves[-1]) - np.min(curves.curves[-1]))
    predicted = (np.max(curves.pairing_eigenvalues) - np.min(curves.pairing_eigenvalues)) * eps_max
    passed = k0 == 6 and gap > 0.0 and alpha_dev <= 1e-9 and spread >= 0.5 * predicted
    return {
        "cluster_size": k0,
        "fitted_slope_gap": gap,
        "alpha_eigenvalue_deviation": alpha_dev,
        "spread_at_eps_max": spread,
        "predicted_spread": float(predicted),
    }, passed


def check_compression_machinery(ctx):
    """Criterion 8: contour projector, compression map, first-order certificate."""
    contactform, g, beta, fam = ctx

    worst_proj = worst_idem = worst_trace = 0.0
    for j in range(100):
        gen = np.random.Generator(np.random.Philox(key=np.array([301, j], dtype=np.uint64)))
        dim = int(gen.integers(20, 201))
        n_in = int(gen.integers(2, min(8, dim - 2)))
        A = gk.random_two_band_symmetric(gen, dim, n_in)
        (P,) = gk.spectral_projector(gk.BlockMatrix.one_block(A), 0.5, 1.0, 64).blocks
        sel = np.abs(np.linalg.eigvalsh(A) - 0.5) < 1.0
        w, V = np.linalg.eigh(A)
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
    A0 = gk.pencil_operator_family(fam, basis)(0.0)
    DA = gk.pencil_operator_derivative(fam, basis)
    M0 = gk.assemble_mass(g, basis)
    sqrtM = gk.BlockMatrix(M0.parts, tuple(gk.matrix_sqrt(block) for block in M0.blocks))
    av = sqrtM @ basis.form_to_vector(contactform.alpha)
    av /= np.linalg.norm(av)
    bv = sqrtM @ basis.form_to_vector(beta)
    bv -= (av @ bv) * av
    bv /= np.linalg.norm(bv)
    cluster = gk.matrix_cluster(A0, contactform.lambda0, 0.2)
    cert = gk.splitting_certificate(gk.pi_derivative(DA, cluster.vectors))
    alpha_entry = float(av @ DA @ av)
    beta_entry = float(bv @ DA @ bv)

    passed = (
        worst_proj <= 1e-8
        and worst_idem <= 1e-10
        and worst_trace <= 1e-8
        and worst_sigma <= 1e-9
        and worst_prime <= 1e-6
        and cert > 0.0
        and abs(alpha_entry) <= 1e-8
        and beta_entry > 0.0
    )
    return {
        "max_projector_error": worst_proj,
        "max_idempotency_defect": worst_idem,
        "max_trace_defect": worst_trace,
        "max_sigma_match_defect": worst_sigma,
        "max_pi_prime_fd_defect": worst_prime,
        "galerkin_certificate": cert,
        "alpha_diagonal_entry": alpha_entry,
        "beta_diagonal_entry": beta_entry,
    }, passed


def check_reproducibility(out_dir):
    """Criterion 9 (artifact part): identical seeds give byte-identical files."""
    config = {
        "kind": "poincare",
        "seed": 3,
        "params": {
            "A": 1.0, "B": 0.5, "C": 0.0,
            "x0": [0.2, 0.0, 1.3],
            "count": 20, "tol": 1e-10, "max_time": 2000.0,
        },
    }
    hashes = []
    for tag in ("first", "second"):
        rec = runner.run(runner.load_config(config), out_dir=os.path.join(out_dir, tag))
        hashes.append({f["name"]: f["sha256"] for f in rec.files})
    config2 = {"kind": "spectrum", "seed": 0, "params": {"n": 6}}
    for tag in ("third", "fourth"):
        rec = runner.run(runner.load_config(config2), out_dir=os.path.join(out_dir, tag))
        hashes.append({f["name"]: f["sha256"] for f in rec.files})
    identical = hashes[0] == hashes[1] and hashes[2] == hashes[3]
    return {"identical": identical, "files_compared": len(hashes[0]) + len(hashes[2])}, identical


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
        details, passed = fn(*args, **kwargs)
        res = CheckResult(criterion, name, bool(passed), details, time.time() - t0)
        results.append(res)
        print(res.line(), flush=True)
        return res

    record(1, "curl eigenfamily (shells n <= 100)", check_curl_eigenfamily)
    record(2, "steady-state pipeline", check_steady_pipeline)
    record(3, "nonvanishing minima", check_nonvanishing)

    ctx = _family_context()
    contactform, g, beta, fam = ctx
    t_sweep = time.time()
    curves = gk.track_splitting(fam, contactform, (0.8, 1.2), SWEEP_K)
    shared_sweep_seconds = time.time() - t_sweep
    record(5, "compatible-metric identities", check_compatible_metrics, ctx)
    record(6, "variation identities (three routes)", check_variation_identities,
           ctx, curves)
    record(7, "eigenvalue splitting with pinned contact eigenvalue", check_splitting,
           ctx, curves)
    record(8, "projector and compression machinery", check_compression_machinery, ctx)

    if level == "full":
        record(4, "chaos proxy vs integrable baseline", check_chaos_proxy)

    repro = record(9, "reproducibility (byte-identical reruns)", check_reproducibility,
                   os.path.join(out_dir, "determinism"))
    elapsed = time.time() - t_suite
    quick_ok = (level == "full") or (elapsed < QUICK_BUDGET_SECONDS)
    if level == "quick" and not quick_ok:
        repro.passed = False
        repro.details["quick_budget_exceeded"] = elapsed

    summary = {
        "level": level,
        "elapsed_seconds": elapsed,
        "shared_sweep_seconds": shared_sweep_seconds,
        "all_passed": all(r.passed for r in results),
        "criteria": [
            {
                "criterion": r.criterion,
                "name": r.name,
                "passed": r.passed,
                "elapsed": r.elapsed,
                "details": _jsonable(r.details),
            }
            for r in results
        ],
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    status = "PASS" if summary["all_passed"] else "FAIL"
    print(f"[{status}] suite level={level} in {elapsed:.1f}s")
    return summary


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj
