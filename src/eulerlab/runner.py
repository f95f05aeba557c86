"""Reproducible experiment runner: config ingestion, dispatch, persistence.

Configs are JSON documents validated against shipped schemas (unknown keys
rejected); every run writes a report that holds the canonical config once,
a manifest with a content hash per emitted file and pass/fail assertion
records.  Identical (config, seed) pairs produce byte-identical result
files.  Exit-code contract: 0 when all assertions pass, 1 on compute or
assertion failure, 2 on config failure.
"""

from __future__ import annotations

import copy
import functools
import json
import os
import time
from dataclasses import asdict, dataclass
from importlib import resources

import numpy as np

from . import __version__
from . import dynamics as dyn
from . import serialize as ser
from . import spectral as sp
from .errors import ComputeFailure, ConfigInvalid, EulerLabError


# the keywords that _errors implements; "$schema", "title" and "default" check nothing
_KEYWORDS = {"$schema", "title", "default", "type", "enum", "required", "additionalProperties",
             "properties", "items", "minimum", "maximum", "exclusiveMinimum", "minItems",
             "maxItems", "minProperties", "maxProperties"}

# JSON Schema draft 2020-12 types: 1.0 is an integer, True is not a number
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "null": lambda x: x is None,
    "number": lambda x: isinstance(x, (int, float)) and not isinstance(x, bool),
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool)
                          or isinstance(x, float) and x.is_integer()),
}


def _refuse_unknown_keywords(schema, where="#"):
    """Raise ValueError naming the first keyword that _errors would skip."""
    if not isinstance(schema, dict):
        raise ValueError(f"schema at {where} is not an object")
    for key, value in schema.items():
        if key not in _KEYWORDS or key == "additionalProperties" and value is not False:
            raise ValueError(f"schema keyword {key!r} at {where} is not supported")
    for key, sub in schema.get("properties", {}).items():
        _refuse_unknown_keywords(sub, f"{where}/properties/{key}")
    if "items" in schema:
        _refuse_unknown_keywords(schema["items"], f"{where}/items")


@functools.cache
def _schema(name):
    """A packaged schema, read once per process; one holding a keyword that
    _errors does not implement is refused, so no constraint is skipped."""
    with resources.files("eulerlab.schemas").joinpath(f"{name}.json").open() as fh:
        schema = json.load(fh)
    _refuse_unknown_keywords(schema)
    return schema


def _errors(schema, x, path=()):
    """Yield (path, message) for each violation of `schema` by `x`, in
    schema-key order, with jsonschema's message texts."""
    obj, arr, num = isinstance(x, dict), isinstance(x, list), _TYPES["number"](x)
    for key, value in schema.items():
        msg = None
        if key == "type":
            types = [value] if isinstance(value, str) else value
            if not any(_TYPES[t](x) for t in types):
                msg = f"{x!r} is not of type {', '.join(map(repr, types))}"
        elif key == "enum" and not any(
                e == x and isinstance(e, bool) == isinstance(x, bool) for e in value):
            msg = f"{x!r} is not one of {value!r}"
        elif key == "required" and obj:
            for prop in value:
                if prop not in x:
                    yield path, f"{prop!r} is a required property"
        elif key == "additionalProperties" and obj:
            extras = sorted(k for k in x if k not in schema.get("properties", {}))
            if extras:
                verb = "was" if len(extras) == 1 else "were"
                msg = (f"Additional properties are not allowed "
                       f"({', '.join(map(repr, extras))} {verb} unexpected)")
        elif key == "properties" and obj:
            for prop, sub in value.items():
                if prop in x:
                    yield from _errors(sub, x[prop], path + (prop,))
        elif key == "items" and arr:
            for i, item in enumerate(x):
                yield from _errors(value, item, path + (i,))
        elif num and key == "minimum" and x < value:
            msg = f"{x!r} is less than the minimum of {value!r}"
        elif num and key == "maximum" and x > value:
            msg = f"{x!r} is greater than the maximum of {value!r}"
        elif num and key == "exclusiveMinimum" and x <= value:
            msg = f"{x!r} is less than or equal to the minimum of {value!r}"
        elif arr and key == "minItems" and len(x) < value:
            msg = f"{x!r} {'should be non-empty' if value == 1 else 'is too short'}"
        elif arr and key == "maxItems" and len(x) > value:
            msg = f"{x!r} {'is expected to be empty' if value == 0 else 'is too long'}"
        elif obj and key == "minProperties" and len(x) < value:
            few = "should be non-empty" if value == 1 else "does not have enough properties"
            msg = f"{x!r} {few}"
        elif obj and key == "maxProperties" and len(x) > value:
            msg = f"{x!r} {'is expected to be empty' if value == 0 else 'has too many properties'}"
        if msg is not None:
            yield path, msg


def _check(name, doc):
    """Raise ConfigInvalid with the message of jsonschema.validate(doc, schema):
    best_match's error, the first with the shortest path, then the largest.
    best_match ranks next by whether the instance matches its schema's type,
    but with these keywords one path names one instance and one subschema,
    so errors that tie on the path tie on that too."""
    best = max(_errors(_schema(name), doc), key=lambda e: (-len(e[0]), e[0]), default=None)
    if best is not None:
        raise ConfigInvalid(f"config failed schema validation: {best[1]}")


def _normalize(schema, x):
    """The validated `x` with defaults filled in at every depth, integer-typed
    values as int and enum values as the member they equal (1.0 passes as 1)."""
    if schema.get("type") == "integer":
        return int(x)
    if "enum" in schema:
        return schema["enum"][schema["enum"].index(x)]
    if isinstance(x, dict):
        for key, sub in schema.get("properties", {}).items():
            if key in x:
                x[key] = _normalize(sub, x[key])
            elif "default" in sub:  # a deep copy: list defaults must not be shared
                x[key] = copy.deepcopy(sub["default"])
    elif isinstance(x, list) and "items" in schema:
        x[:] = [_normalize(schema["items"], item) for item in x]
    return x


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
    _check(kind, doc["params"])
    doc = _normalize(_schema("config"), doc)
    params = _normalize(_schema(kind), doc["params"])
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
    doc_norm = {"kind": kind, "seed": doc["seed"], "params": params}
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


# the pinned bounds that a run assertion and an acceptance criterion both
# apply, by run kind; assert_leq reads them at call time
BOUNDS = {
    "gram_deviation": 1e-12, "curl_residual": 1e-14,  # spectrum, criterion 1
    "euler_residual": 1e-10, "bernoulli_residual": 1e-10,  # abc, criterion 2
    "bernoulli_sup_norm": 1e-11,  # bernoulli, criterion 2
    "compatibility_defect": 1e-10, "det_relative_deviation": 1e-12,  # perturb, criterion 5
    "alpha_eigenvalue_deviation": 1e-9,  # perturb, criterion 7
    "projector_idempotency": 1e-10, "sigma_match_defect": 1e-9,  # pi-map, criterion 8
}


def assert_leq(name, value, threshold=None):
    """The record of value <= threshold; the threshold defaults to BOUNDS[name]."""
    threshold = BOUNDS[name] if threshold is None else threshold
    return {"name": name, "passed": bool(value <= threshold), "value": float(value),
            "threshold": float(threshold)}


def assert_true(name, flag, value=None):
    return {"name": name, "passed": bool(flag), "value": value, "threshold": None}


def assert_positive(name, value):
    return assert_true(name, value > 0.0, value)


def _source_field(source):
    """The field of a source {"abc": {A, B, C}} or {"shell": {n, seed}} and
    its field_hash."""
    if "abc" in source:
        a = source["abc"]
        field = sp.make_abc(sp.ABCParams(a["A"], a["B"], a["C"]))
    else:
        field = sp.random_beltrami(source["shell"]["n"], source["shell"]["seed"])
    return field, ser.field_hash(field)


def _run_spectrum(cfg):
    n = cfg.params["n"]
    shell = sp.lattice_shell(n)
    report = {
        "multiplicity": len(shell),
        "admissible_mod8": sp.mod8_admissible(n),
        "shell_nonempty": len(shell) > 0,
        "vectors": shell.tolist(),
    }
    assertions = []  # an empty shell has no eigenfamily to check
    plots = {"shell.csv": "k1,k2,k3\n" + "".join(f"{a},{b},{c}\n" for a, b, c in shell.tolist())}
    if len(shell):
        gram_dev, resid = sp.eigenfamily_defects(n)
        report["gram_deviation"] = gram_dev
        report["curl_residual"] = resid
        assertions = [assert_leq("gram_deviation", gram_dev), assert_leq("curl_residual", resid)]
    return report, plots, assertions


def _run_abc(cfg):
    p = cfg.params
    field, _ = _source_field({"abc": p})
    r1, r2 = sp.steady_residual(field)
    mn = sp.min_norm(field, p["grid"])
    report = {"euler_residual": r1, "bernoulli_residual": r2, "min_norm": mn}
    plots = {"field.json": ser.dump_json(ser.field_to_json(field))}
    try:
        rep = sp.proportionality_factor(field, p["grid"])
        report.update(factor_gap=rep.gap, factor_min=rep.min_value, factor_max=rep.max_value)
    except EulerLabError as exc:
        report["factor_gap"] = None
        report["factor_note"] = str(exc)
    assertions = [assert_leq("euler_residual", r1), assert_leq("bernoulli_residual", r2)]
    return report, plots, assertions


def _run_bernoulli(cfg):
    field, field_hash = _source_field(cfg.params["source"])
    F = sp.bernoulli(field)
    sup = F.sup_norm(cfg.params["grid"])
    report = {"bernoulli_sup_norm": sup, "field_hash": field_hash}
    plots = {
        "source_field.json": ser.dump_json(ser.field_to_json(field)),
        "bernoulli.json": ser.dump_json(ser.field_to_json(F)),
    }
    assertions = [assert_leq("bernoulli_sup_norm", sup)]
    return report, plots, assertions


def _run_lyapunov(cfg):
    p = cfg.params
    field, field_hash = _source_field({"abc": p})
    count = p["seeds"]
    # before the seeds: drawing a billion of them alone takes hours
    dyn.check_step_budget(field, p["T"], p["tol"], lanes=count, renorm=p["renorm"])
    if p["seed_style"] == "separatrix":
        x0s = dyn.separatrix_seeds(p["B"], count, base_key=7 + cfg.seed)
    else:
        x0s = dyn.random_torus_seeds(count, base_key=11 + cfg.seed)
    estimates = dyn.lyapunov_max(field, x0s, p["T"], p["renorm"], tol=p["tol"])

    values = [e.lambda_max for e in estimates]
    report = {
        "field_hash": field_hash,
        "x0s": [x0.tolist() for x0 in x0s],
        "estimates": values,
        "note": "largest Lyapunov exponent, used as a proxy for dynamical complexity",
    }
    plots = {f"lyapunov_history_{i:02d}.csv": ser.lyapunov_csv(est)
             for i, est in enumerate(estimates)}
    assertions = []
    if p.get("assert_all_below") is not None:
        worst = float(np.max(np.abs(values)))
        assertions.append(assert_leq("all_below", worst, p["assert_all_below"]))
    if p.get("assert_any_above") is not None:
        best = float(np.max(values))
        assertions.append(assert_true("any_above", best >= p["assert_any_above"], best))
    return report, plots, assertions


def _run_poincare(cfg):
    p = cfg.params
    field, field_hash = _source_field({"abc": p})
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
        "max_section_residual": resid,
        "bernoulli_range_gap": integral.range_gap,
        "bernoulli_derivative_sup": integral.derivative_sup,
        "field_hash": field_hash,
    }
    plots = {"section.csv": ser.section_csv(section)}
    assertions = [assert_leq("section_residual", resid, 1e-9),
                  assert_leq("bernoulli_first_integral", integral.range_gap, 1e-11)]
    return report, plots, assertions


def _run_perturb(cfg):
    from . import contact as ct
    from . import galerkin as gk  # scipy.linalg loads with the first pencil

    p = cfg.params
    fam = ct.standard_family()
    fam.check_positive(p["epsilons"])  # before the sweep: a bad epsilon is refused at once
    curves = gk.track_splitting(fam, p["epsilons"], tuple(p["window"]), p["K"])
    compat, worst_det = ct.family_compatibility(fam, p["epsilons"])
    worst_defect = max(rep.max_defect() for rep in compat.values())
    alpha_dev = float(np.max(np.abs(curves.alpha_curve - fam.contact.lambda0)))
    # the splitting needs alpha and beta noncollinear: the fraction of grid
    # points where alpha ^ beta (nearly) vanishes must stay small
    collinear = fam.collinear_fraction(32, 1e-3)  # once per process: the model is fixed
    report = {
        "dimension": 3 * (2 * p["K"] + 1) ** 3,
        "metric_hash": ser.sha256_of_text(ser.dump_json(
            {name: ser.field_to_json(getattr(fam.base, name)) for name in ("g_xi", "alpha_sq")})),
        "epsilons": [float(e) for e in curves.epsilons],
        "cluster_size": int(curves.curves.shape[1]),
        "pairing_eigenvalues": [float(x) for x in curves.pairing_eigenvalues],
        "pencil_eigenvalues": [float(x) for x in curves.pencil_eigenvalues],
        "fd_slopes": [float(x) for x in curves.fd_slopes],
        "fit_slopes": [float(x) for x in curves.fit_slopes],
        "slope_gap": curves.slope_gap(),
        "alpha_eigenvalue_deviation": alpha_dev,
        "alpha_beta_collinear_fraction": collinear,
        "max_compatibility_defect": worst_defect,
        "max_det_relative_deviation": worst_det,
        "compatibility": {repr(e): asdict(r) for e, r in compat.items()},
    }
    plots = {"splitting_curves.csv": ser.splitting_curves_csv(curves)}
    assertions = [
        assert_leq("compatibility_defect", worst_defect),
        assert_leq("det_relative_deviation", worst_det),
        assert_leq("alpha_eigenvalue_deviation", alpha_dev),
        assert_positive("slope_gap_positive", curves.slope_gap()),
        assert_leq("alpha_beta_collinear_fraction", collinear, 0.05),
    ]
    return report, plots, assertions


def _run_pi_map(cfg):
    from . import contact as ct
    from . import galerkin as gk

    p = cfg.params
    if p["mode"] == "galerkin":
        fam = ct.standard_family()
        basis = gk.FormBasis(p["K"])
        Aq = gk.pencil_operator_family(fam, basis)(p["q"])
        A0, dA = gk.pencil_operator_derivative(fam, basis)
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
        "dimension": int(cluster.vectors.shape[0]),
        "cluster_size": int(cluster.multiplicity),
        "sigma_match_defect": rep.sigma_match_defect,
        "identity_deviation": rep.identity_deviation,
        "projector_idempotency": rep.projector_idempotency,
        "certificate": cert,
        "window": [lo, hi],  # the contour used: synthetic mode ignores the configured window
    }
    plots = {"pi.csv": ser.matrix_csv(rep.pi), "pi_prime.csv": ser.matrix_csv(pi_prime)}
    assertions = [assert_leq("projector_idempotency", rep.projector_idempotency),
                  assert_leq("sigma_match_defect", rep.sigma_match_defect)]
    if p["mode"] == "galerkin":
        assertions.append(assert_positive("certificate_positive", cert))
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
    """Execute a validated config: write result files, a report that holds
    the canonical config, a manifest and assertion records.  Module errors,
    and the ValueError, LinAlgError or MemoryError of a computation that
    cannot proceed, surface as ComputeFailure before anything is written."""
    t0 = time.time()
    out = resolve_out_dir(cfg, out_dir)
    try:
        report, plots, assertions = _BODIES[cfg.kind](cfg)
    except (EulerLabError, ValueError, np.linalg.LinAlgError, MemoryError) as exc:
        raise ComputeFailure(f"{cfg.kind} run failed: {str(exc) or type(exc).__name__}") from exc
    os.makedirs(out, exist_ok=True)
    _remove_previous_run(out)
    files = {"report.json": ser.dump_json(dict(report, config=json.loads(cfg.canonical),
                                                  config_hash=cfg.config_hash,
                                                  version=__version__))}
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
    fields = asdict(record)
    del fields["out_dir"]  # where the record lies, not what it records
    with open(os.path.join(out, "run_record.json"), "w") as fh:
        fh.write(ser.dump_json(fields))
    return record
