"""Reproducible experiment runner: config ingestion, dispatch, persistence.

Configs are JSON documents validated against shipped schemas (unknown keys
rejected); every run writes a manifest with a content hash per emitted file
plus pass/fail assertion records.  Identical (config, seed) pairs produce
byte-identical result files.  Exit-code contract: 0 when all assertions
pass, 1 on compute or assertion failure, 2 on config failure.
"""

from __future__ import annotations

import copy
import functools
import json
import os
import time
from dataclasses import dataclass
from importlib import resources

import jsonschema
import numpy as np

from . import __version__
from . import contact as ct
from . import dynamics as dyn
from . import serialize as ser
from . import spectral as sp
from .errors import ComputeFailure, ConfigInvalid, EulerLabError


@functools.cache
def _validator(name):
    """The validator of a packaged schema: read, checked against its
    metaschema and compiled once per process."""
    with resources.files("eulerlab.schemas").joinpath(f"{name}.json").open() as fh:
        schema = json.load(fh)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _check(name, doc):
    """Raise ConfigInvalid on the error that jsonschema.validate(doc, schema)
    would raise."""
    error = jsonschema.exceptions.best_match(_validator(name).iter_errors(doc))
    if error is not None:
        raise ConfigInvalid(f"config failed schema validation: {error.message}") from error


def _apply_defaults(name, obj):
    # deep copies: list defaults must not be shared between configs
    for key, sub in _validator(name).schema.get("properties", {}).items():
        if key not in obj and "default" in sub:
            obj[key] = copy.deepcopy(sub["default"])
    return obj


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    seed: int
    params: dict
    out: str | None
    canonical: str  # canonical JSON used for hashing

    @property
    def config_hash(self):
        return ser.sha256_of_text(self.canonical)


@dataclass(frozen=True)
class RunRecord:
    config_hash: str
    tool_version: str
    kind: str
    out_dir: str
    wall_time_s: float
    files: list        # [{"name": ..., "sha256": ...}]
    assertions: list   # [{"name": ..., "passed": ..., "value": ..., "threshold": ...}]

    @property
    def ok(self):
        return all(a["passed"] for a in self.assertions)


def _reject_non_finite(name):
    raise ConfigInvalid(f"config holds the non-finite number {name}")


def load_config(source) -> ExperimentConfig:
    """Validate a config dict or JSON file path; raises ConfigInvalid.

    Infinity and NaN, which Python's json accepts, are rejected."""
    if isinstance(source, (str, os.PathLike)):
        try:
            with open(source) as fh:
                doc = json.load(fh, parse_constant=_reject_non_finite)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigInvalid(f"cannot read config: {exc}") from exc
    else:
        doc = json.loads(json.dumps(source), parse_constant=_reject_non_finite)
    _check("config", doc)
    kind = doc["kind"]
    params = doc["params"]
    _check(kind, params)
    params = _apply_defaults(kind, dict(params))
    if kind == "lyapunov":
        try:
            dyn.check_horizon(params["T"], params["renorm"])
        except ValueError as exc:
            raise ConfigInvalid(f"lyapunov {exc}") from exc
    if kind in ("perturb", "pi-map") and not params["window"][0] < params["window"][1]:
        raise ConfigInvalid(f"{kind} window must be an increasing interval, got {params['window']}")
    if kind == "perturb" and not params["window"][0] < 1.0 < params["window"][1]:
        raise ConfigInvalid(
            f"perturb window {params['window']} must contain the model eigenvalue lambda0 = 1")
    if kind == "bernoulli" and "shell" in params["source"]:
        params["source"]["shell"].setdefault("seed", 0)
    doc_norm = {"kind": kind, "seed": int(doc.get("seed", 0)), "params": params}
    canonical = json.dumps(doc_norm, sort_keys=True, separators=(",", ":"))
    return ExperimentConfig(
        kind=kind,
        seed=doc_norm["seed"],
        params=params,
        out=doc.get("out"),
        canonical=canonical,
    )


# ---------------------------------------------------------------------------
# experiment bodies: each returns (report dict, plot files dict, assertions)


def _assert_leq(name, value, threshold):
    return {"name": name, "passed": bool(value <= threshold), "value": float(value),
            "threshold": float(threshold)}


def _assert_true(name, flag, value=None):
    return {"name": name, "passed": bool(flag), "value": value, "threshold": None}


def _run_spectrum(cfg):
    n = cfg.params["n"]
    shell = sp.lattice_shell(n)
    report = {
        "n": n,
        "multiplicity": len(shell),
        "admissible_mod8": sp.mod8_admissible(n),
        "shell_nonempty": len(shell) > 0,
        "vectors": shell.tolist(),
    }
    assertions = []
    plots = {"shell.csv": "k1,k2,k3\n" + "".join(f"{a},{b},{c}\n" for a, b, c in shell.tolist())}
    if len(shell):
        gram_dev, resid = sp.eigenfamily_defects(n)
        report["gram_deviation"] = gram_dev
        report["curl_residual"] = resid
        assertions.append(_assert_leq("gram_deviation", gram_dev, 1e-12))
        assertions.append(_assert_leq("curl_residual", resid, 1e-14))
    return report, plots, assertions


def _run_abc(cfg):
    p = cfg.params
    field = sp.make_abc(sp.ABCParams(p["A"], p["B"], p["C"]))
    r1, r2 = sp.steady_residual(field)
    mn = sp.min_norm(field, p["grid"])
    report = {
        "amplitudes": [p["A"], p["B"], p["C"]],
        "euler_residual": r1,
        "bernoulli_residual": r2,
        "min_norm": mn,
    }
    plots = {"field.json": ser.dump_json(ser.field_to_json(field))}
    try:
        rep = sp.proportionality_factor(field, p["grid"])
        report["factor_gap"] = rep.gap
        report["factor_min"] = rep.min_value
        report["factor_max"] = rep.max_value
        plots["factor.csv"] = ser.grid_report_csv(rep)
    except EulerLabError as exc:
        report["factor_gap"] = None
        report["factor_note"] = str(exc)
    assertions = [
        _assert_leq("euler_residual", r1, 1e-10),
        _assert_leq("bernoulli_residual", r2, 1e-10),
    ]
    return report, plots, assertions


def _run_bernoulli(cfg):
    src = cfg.params["source"]
    if "abc" in src:
        a = src["abc"]
        field = sp.make_abc(sp.ABCParams(a["A"], a["B"], a["C"]))
        label = {"abc": [a["A"], a["B"], a["C"]]}
    else:
        sh = src["shell"]
        field = sp.random_beltrami(sh["n"], sh["seed"])
        label = {"shell": [sh["n"], sh["seed"]]}
    F = sp.bernoulli(field)
    sup = F.sup_norm(cfg.params["grid"])
    report = {"source": label, "bernoulli_sup_norm": sup, "field_hash": ser.field_hash(field)}
    plots = {
        "source_field.json": ser.dump_json(ser.field_to_json(field)),
        "bernoulli.json": ser.dump_json(ser.field_to_json(F)),
    }
    assertions = [_assert_leq("bernoulli_sup_norm", sup, 1e-11)]
    return report, plots, assertions


def _run_lyapunov(cfg):
    p = cfg.params
    field = sp.make_abc(sp.ABCParams(p["A"], p["B"], p["C"]))
    count = p["seeds"]
    if p["seed_style"] == "separatrix":
        x0s = dyn.separatrix_seeds(p["B"], count, base_key=7 + cfg.seed)
    else:
        x0s = dyn.random_torus_seeds(count, base_key=11 + cfg.seed)
    estimates = dyn.lyapunov_max(field, x0s, p["T"], p["renorm"], tol=p["tol"])

    values = [e.lambda_max for e in estimates]
    report = {
        "amplitudes": [p["A"], p["B"], p["C"]],
        "T": p["T"],
        "renorm": p["renorm"],
        "tol": p["tol"],
        "seed_style": p["seed_style"],
        "field_hash": ser.field_hash(field),
        "estimates": values,
        "note": "largest Lyapunov exponent, used as a proxy for dynamical complexity",
    }
    plots = {}
    for i, est in enumerate(estimates):
        plots[f"lyapunov_history_{i:02d}.csv"] = ser.lyapunov_csv(est)
        plots[f"lyapunov_meta_{i:02d}.json"] = ser.dump_json(
            {
                "field_hash": report["field_hash"],
                "seed": cfg.seed,
                "seed_index": i,
                "x0": [float(v) for v in x0s[i]],
                "tol": p["tol"],
                "T": p["T"],
            }
        )
    assertions = []
    if p.get("assert_all_below") is not None:
        worst = float(np.max(np.abs(values)))
        assertions.append(_assert_leq("all_below", worst, p["assert_all_below"]))
    if p.get("assert_any_above") is not None:
        best = float(np.max(values))
        assertions.append(
            _assert_true("any_above", best >= p["assert_any_above"], best)
        )
    return report, plots, assertions


def _run_poincare(cfg):
    p = cfg.params
    field = sp.make_abc(sp.ABCParams(p["A"], p["B"], p["C"]))
    section = dyn.poincare(
        field,
        (p["axis"], p["level"]),
        p["direction"],
        np.array(p["x0"], dtype=float),
        p["count"],
        tol=p["tol"],
        max_time=p["max_time"],
    )
    resid = float(np.max(section.residuals)) if len(section.residuals) else 0.0
    # Arnold: a steady flow's Bernoulli function is a first integral, so a
    # chaotic section needs it constant, i.e. a Beltrami field
    integral = dyn.first_integral_report(field, sp.bernoulli(field), 16)
    report = {
        "amplitudes": [p["A"], p["B"], p["C"]],
        "axis": p["axis"],
        "level": p["level"],
        "direction": p["direction"],
        "count": len(section.times),
        "max_section_residual": resid,
        "bernoulli_range_gap": integral.range_gap,
        "bernoulli_derivative_sup": integral.derivative_sup,
        "field_hash": ser.field_hash(field),
        "tol": p["tol"],
        "x0": p["x0"],
    }
    plots = {
        "section.csv": ser.section_csv(section),
        "section_meta.json": ser.dump_json(
            {"field_hash": report["field_hash"], "seed": cfg.seed,
             "tol": p["tol"], "T": p["max_time"]}
        ),
    }
    assertions = [_assert_leq("section_residual", resid, 1e-9),
                  _assert_leq("bernoulli_first_integral", integral.range_gap, 1e-11)]
    return report, plots, assertions


def _run_perturb(cfg):
    from . import galerkin as gk  # scipy.linalg loads with the first pencil

    p = cfg.params
    contactform, g = ct.std_contact_t3()
    beta = ct.default_perturbation_form()
    fam = ct.metric_family(g, contactform, beta, p["epsilons"])
    curves = gk.track_splitting(fam, contactform, tuple(p["window"]), p["K"],
                                nodes=p["nodes"])
    compat, worst_det = ct.family_compatibility(fam)
    worst_defect = max(rep.max_defect() for rep in compat.values())
    alpha_dev = float(np.max(np.abs(curves.alpha_curve - contactform.lambda0)))
    # the splitting needs alpha and beta noncollinear: the fraction of grid
    # points where alpha ^ beta (nearly) vanishes must stay small
    collinear = ct.noncollinearity_measure(contactform.alpha, beta, 32, 1e-3)
    report = {
        "K": p["K"],
        "dimension": 3 * (2 * p["K"] + 1) ** 3,
        "metric_hash": ser.sha256_of_text(ser.dump_json(ser.metric_to_json(g))),
        "window": list(curves.window),
        "epsilons": [float(e) for e in curves.epsilons],
        "cluster_size": int(curves.curves.shape[1]),
        "pairing_eigenvalues": [float(x) for x in curves.pairing_eigenvalues],
        "fd_slopes": [float(x) for x in curves.fd_slopes],
        "fit_slopes": [float(x) for x in curves.fit_slopes],
        "slope_gap": curves.slope_gap(),
        "alpha_eigenvalue_deviation": alpha_dev,
        "alpha_beta_collinear_fraction": collinear,
        "max_compatibility_defect": worst_defect,
        "max_det_relative_deviation": worst_det,
        "compatibility": {repr(e): ser.compatibility_to_json(r) for e, r in compat.items()},
    }
    plots = {"splitting_curves.csv": ser.splitting_curves_csv(curves)}
    assertions = [
        _assert_leq("compatibility_defect", worst_defect, 1e-10),
        _assert_leq("det_relative_deviation", worst_det, 1e-12),
        _assert_leq("alpha_eigenvalue_deviation", alpha_dev, 1e-9),
        _assert_true("slope_gap_positive", curves.slope_gap() > 0.0, curves.slope_gap()),
        _assert_leq("alpha_beta_collinear_fraction", collinear, 0.05),
    ]
    return report, plots, assertions


def _run_pi_map(cfg):
    from . import galerkin as gk

    p = cfg.params
    if p["mode"] == "galerkin":
        contactform, g = ct.std_contact_t3()
        beta = ct.default_perturbation_form()
        fam = ct.metric_family(g, contactform, beta, [-0.1, 0.1])
        basis = gk.FormBasis(p["K"])
        A_of = gk.pencil_operator_family(fam, basis)
        A0, Aq = A_of(0.0), A_of(p["q"])
        dA = gk.pencil_operator_derivative(fam, basis)
        lo, hi = p["window"]
    else:
        gen = np.random.Generator(
            np.random.Philox(key=np.array([cfg.seed, 977], dtype=np.uint64))
        )
        A0 = gk.random_two_band_symmetric(gen, p["dim"], 3)
        dA = gk.random_unit_symmetric(gen, p["dim"])
        A0, Aq, dA = map(gk.BlockMatrix.one_block, (A0, A0 + p["q"] * dA, dA))
        lo, hi = -0.5, 1.5  # fixed: 3 eigenvalues in [0.3, 0.7], the rest in [2, 6]
    cluster = gk.matrix_cluster(A0, 0.5 * (lo + hi), 0.5 * (hi - lo))
    rep = gk.pi_map(Aq, cluster, nodes=p["contour_nodes"])
    pi_prime = gk.pi_derivative(dA, cluster.vectors)
    cert = gk.splitting_certificate(pi_prime)
    report = {
        "mode": p["mode"],
        "q": p["q"],
        "cluster_size": int(cluster.multiplicity),
        "sigma_match_defect": rep.sigma_match_defect,
        "identity_deviation": rep.identity_deviation,
        "projector_idempotency": rep.projector_idempotency,
        "certificate": cert,
        "window": [lo, hi],
        "contour_nodes": p["contour_nodes"],
    }
    plots = {
        "pi.csv": ser.matrix_csv(rep.pi),
        "pi_prime.csv": ser.matrix_csv(pi_prime),
        "pi_meta.json": ser.dump_json(
            {
                "mode": p["mode"],
                "K": p["K"] if p["mode"] == "galerkin" else None,
                "dimension": int(cluster.vectors.shape[0]),
                "cluster_size": int(cluster.multiplicity),
                "q": p["q"],
                "window": [lo, hi],
                "contour_nodes": p["contour_nodes"],
            }
        ),
    }
    assertions = [
        _assert_leq("projector_idempotency", rep.projector_idempotency, 1e-10),
        _assert_leq("sigma_match_defect", rep.sigma_match_defect, 1e-9),
    ]
    if p["mode"] == "galerkin":
        assertions.append(_assert_true("certificate_positive", cert > 0.0, cert))
    return report, plots, assertions


_BODIES = {
    "spectrum": _run_spectrum,
    "abc": _run_abc,
    "bernoulli": _run_bernoulli,
    "lyapunov": _run_lyapunov,
    "poincare": _run_poincare,
    "perturb": _run_perturb,
    "pi-map": _run_pi_map,
}


def resolve_out_dir(cfg: ExperimentConfig, out_dir=None):
    if out_dir is not None:
        return out_dir
    if cfg.out:
        return cfg.out
    root = os.environ.get("EULERLAB_OUT", "runs")
    return os.path.join(root, f"{cfg.kind}-{cfg.config_hash[:12]}")


def _remove_previous_run(out):
    """Delete the files that a run_record.json already in `out` lists, so
    none of them outlives a manifest that no longer names it; files that no
    manifest lists stay."""
    try:
        with open(os.path.join(out, "run_record.json")) as fh:
            names = [entry["name"] for entry in json.load(fh)["files"]]
    except (OSError, ValueError, KeyError, TypeError):
        return
    for name in names:
        if isinstance(name, str) and name == os.path.basename(name):
            path = os.path.join(out, name)
            if os.path.isfile(path):
                os.remove(path)


def run(cfg: ExperimentConfig, out_dir=None) -> RunRecord:
    """Execute a validated config: write result files, a manifest and
    assertion records.  Module errors, and the ValueError, LinAlgError or
    MemoryError of a computation that cannot proceed, surface as
    ComputeFailure before anything is written."""
    t0 = time.time()
    out = resolve_out_dir(cfg, out_dir)
    try:
        report, plots, assertions = _BODIES[cfg.kind](cfg)
    except (EulerLabError, ValueError, np.linalg.LinAlgError, MemoryError) as exc:
        raise ComputeFailure(f"{cfg.kind} run failed: {str(exc) or type(exc).__name__}") from exc
    os.makedirs(out, exist_ok=True)
    _remove_previous_run(out)
    report = dict(report)
    report["config_hash"] = cfg.config_hash
    report["version"] = __version__
    files = {"report.json": ser.dump_json(report)}
    files.update(plots)
    manifest = []
    for name in sorted(files):
        path = os.path.join(out, name)
        with open(path, "w", newline="") as fh:
            fh.write(files[name])
        manifest.append({"name": name, "sha256": ser.sha256_of_file(path)})
    record = RunRecord(
        config_hash=cfg.config_hash,
        tool_version=__version__,
        kind=cfg.kind,
        out_dir=out,
        wall_time_s=time.time() - t0,
        files=manifest,
        assertions=assertions,
    )
    with open(os.path.join(out, "run_record.json"), "w") as fh:
        fh.write(
            ser.dump_json(
                {
                    "config_hash": record.config_hash,
                    "tool_version": record.tool_version,
                    "kind": record.kind,
                    "wall_time_s": record.wall_time_s,
                    "files": record.files,
                    "assertions": record.assertions,
                }
            )
        )
    return record
