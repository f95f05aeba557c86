"""Span tracer that wraps eulerlab's public functions from outside the package.

Wrapping happens only inside `Tracer.installed()`, and only for the targets
that exist in the imported code, so refactors that remove or rename a
function leave the benchmark running (the layer then reports zero calls).
Spans live in memory and are written out once, at the end of a run.

Structural calls (one per solver or stage) are kept as individual spans
`(name, start, end, parent, op)`.  Hot leaf calls (right-hand sides, trig
evaluation, metric matrices) run tens of thousands of times per op, so they
are aggregated per (name, parent, op) instead of stored one by one; their
time is still subtracted from the parent's self time.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import sys
import time

# (target inside eulerlab, span name, hot, hook).  A target "mod.func"
# wraps a module function, "mod.Class.method" wraps a method, and a target
# with a "factory:" prefix wraps the callable a factory returns.
TARGETS = [
    ("dynamics.lyapunov_max", "dynamics.lyapunov_max", False, None),
    ("dynamics.poincare", "dynamics.poincare", False, "crossings"),
    ("factory:dynamics.field_rhs", "dynamics.rhs", True, None),
    ("factory:dynamics.tangent_rhs", "dynamics.rhs", True, None),
    ("galerkin.build_basis", "galerkin.build_basis", False, None),
    ("galerkin.assemble_exterior", "galerkin.assemble_exterior", False, None),
    ("galerkin.assemble_mass", "galerkin.assemble_mass", False, "mass_gflop"),
    ("galerkin.mass_derivative", "galerkin.mass_derivative", False, None),
    ("galerkin.solve_pencil", "galerkin.solve_pencil", False, "pencil_dim"),
    ("galerkin.track_splitting", "galerkin.track_splitting", False, None),
    ("galerkin.FormBasis.vector_to_form", "galerkin.vector_to_form", False, None),
    ("factory:galerkin.pencil_operator_family", "galerkin.operator_family", False, None),
    ("galerkin.matrix_inv_sqrt", "galerkin.matrix_inv_sqrt", False, None),
    ("galerkin.matrix_cluster", "galerkin.matrix_cluster", False, None),
    ("galerkin.spectral_projector", "galerkin.spectral_projector", False, "contour"),
    ("galerkin.pi_map", "galerkin.pi_map", False, None),
    ("contact.variation_pairing", "contact.variation_pairing", False, None),
    ("contact.check_compatibility", "contact.check_compatibility", False, None),
    ("contact.metric_family", "contact.metric_family", False, None),
    ("contact.MetricField.matrix", "contact.metric_matrix", True, "points"),
    ("trig.TrigPoly.eval", "trig.eval", True, None),
    ("spectral.evaluate_on_grid", "spectral.evaluate_on_grid", False, "grid_points"),
    ("spectral.cross_spectral", "spectral.products", False, None),
    ("spectral.convective_spectral", "spectral.products", False, None),
    ("spectral.steady_residual", "spectral.steady_residual", False, None),
    ("spectral.bernoulli", "spectral.bernoulli", False, None),
    ("spectral.min_norm", "spectral.min_norm", False, None),
    ("spectral.proportionality_factor", "spectral.proportionality_factor", False, None),
    ("spectral.helicity_basis", "spectral.helicity_basis", False, None),
    ("spectral.lattice_shell", "spectral.lattice_shell", False, None),
    ("spectral.random_beltrami", "spectral.random_beltrami", False, None),
    ("spectral.SpectralVectorField.mode_arrays", "spectral.mode_arrays", True, None),
    ("spectral.ScalarSpectralField.mode_arrays", "spectral.mode_arrays", True, None),
    ("serialize.dump_json", "serialize.json", False, "text_bytes"),
    ("serialize.grid_report_csv", "serialize.csv", False, "text_bytes"),
    ("serialize.section_csv", "serialize.csv", False, "text_bytes"),
    ("serialize.lyapunov_csv", "serialize.csv", False, "text_bytes"),
    ("serialize.matrix_csv", "serialize.csv", False, "text_bytes"),
    ("serialize.splitting_curves_csv", "serialize.csv", False, "text_bytes"),
    ("serialize.sha256_of_file", "serialize.sha256", False, None),
    ("serialize.sha256_of_text", "serialize.sha256", False, None),
    ("runner.load_config", "runner.load_config", False, None),
    ("runner.run", "runner.run", False, None),
]

# Flop count of the symmetric-definite generalised eigensolve with vectors
# (LAPACK dsygvd): potrf D^3/3, sygst D^3, sytrd 4D^3/3, stedc about 4D^3/3,
# ormtr 2D^3 and the triangular back-substitution D^3, about 7 D^3 in all.
EIGH_FLOPS_PER_D3 = 7.0


def _bound_args(fn, args, kwargs):
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs)
    except (TypeError, ValueError):
        return {}
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    """Collects spans and counters for one process; see the module docstring."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent span index, op)
        self.leaves = {}         # (name, parent name, op) -> [calls, seconds]
        self.calls = {}          # name -> calls
        self.inclusive = {}      # name -> seconds, outermost call of a name only
        self.self_time = {}      # name -> seconds not covered by traced children
        self.counts = {}         # extra counters, e.g. "galerkin.assemble_mass.gflop"
        self.op = None
        self._stack = []         # frames: [name, span index or None, child seconds]
        self._depth = {}

    # -- recording ---------------------------------------------------------

    def _call(self, name, hot, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        index = None
        if not hot:
            index = len(self.spans)
            self.spans.append(None)
        frame = [name, index, 0.0]
        self._stack.append(frame)
        self._depth[name] = self._depth.get(name, 0) + 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            dur = end - start
            self._stack.pop()
            self._depth[name] -= 1
            if self._depth[name] == 0:
                self.inclusive[name] = self.inclusive.get(name, 0.0) + dur
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_time[name] = self.self_time.get(name, 0.0) + dur - frame[2]
            if parent is not None:
                parent[2] += dur
            if hot:
                key = (name, parent[0] if parent else None, self.op)
                acc = self.leaves.setdefault(key, [0, 0.0])
                acc[0] += 1
                acc[1] += dur
            else:
                self.spans[index] = (name, start, end, parent[1] if parent else None, self.op)

    def count(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def _hook(self, hook, name, fn, args, kwargs, result):
        """Derived counters; each is computed from arguments or results only."""
        try:
            if hook == "crossings":
                self.count(name + ".crossings", len(result.times))
            elif hook == "mass_gflop":
                # 6 block GEMMs of (S x N^3)(N^3 x S), 2 flops per multiply-add
                a = _bound_args(fn, args, kwargs)
                basis, nodes = a["basis"], a.get("nodes")
                if nodes is None:
                    from eulerlab import galerkin
                    nodes = galerkin.default_mass_nodes(basis.K, a["metric"].degree_hint)
                self.count(name + ".gflop", 6 * 2.0 * basis.n_scalar ** 2 * nodes ** 3 / 1e9)
            elif hook == "pencil_dim":
                dim = int(_bound_args(fn, args, kwargs)["B"].shape[0])
                self.counts[name + ".dim_max"] = max(self.counts.get(name + ".dim_max", 0), dim)
                self.count(name + ".gflop", EIGH_FLOPS_PER_D3 * dim ** 3 / 1e9)
            elif hook == "contour":
                self.count(name + ".contour_solves", int(_bound_args(fn, args, kwargs)["nodes"]))
            elif hook == "points":
                self.count(name + ".points", int(_bound_args(fn, args, kwargs)["points"].size) // 3)
            elif hook == "grid_points":
                self.count(name + ".points", int(_bound_args(fn, args, kwargs)["n"]) ** 3)
            elif hook == "text_bytes":
                self.count(name + ".bytes", len(result.encode("utf-8")))
        except (AttributeError, KeyError, TypeError, ValueError, ImportError):
            pass  # the signature changed; the derived counter is skipped

    def _wrap(self, name, hot, hook, fn):
        tracer = self

        def traced(*args, **kwargs):
            result = tracer._call(name, hot, fn, args, kwargs)
            if hook is not None:
                tracer._hook(hook, name, fn, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_factory(self, name, hot, hook, factory):
        tracer = self

        def make(*args, **kwargs):
            return tracer._wrap(name, hot, hook, factory(*args, **kwargs))

        make.__wrapped__ = factory
        return make

    # -- installation ------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every existing target; restore the originals on exit."""
        undo = []
        modules = [m for n, m in list(sys.modules.items())
                   if n == "eulerlab" or n.startswith("eulerlab.")]
        try:
            for target, name, hot, hook in TARGETS:
                factory = target.startswith("factory:")
                path = target.split(":")[-1].split(".")
                try:
                    owner = importlib.import_module("eulerlab." + path[0])
                    for part in path[1:-1]:
                        owner = getattr(owner, part)
                    original = getattr(owner, path[-1])
                except (ImportError, AttributeError):
                    continue
                if isinstance(owner, type):
                    original = owner.__dict__.get(path[-1])
                    if not callable(original):
                        continue
                wrap = self._wrap_factory if factory else self._wrap
                replacement = wrap(name, hot, hook, original)
                undo.append((owner, path[-1], original))
                setattr(owner, path[-1], replacement)
                if not isinstance(owner, type):
                    # also rebind names copied by `from module import name`
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original and mod is not owner:
                                undo.append((mod, attr, original))
                                setattr(mod, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def write(self, path):
        """Write spans, then aggregated leaf records, as JSON lines."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
            for (name, parent, op), (calls, seconds) in self.leaves.items():
                fh.write(json.dumps({"leaf": name, "parent": parent, "op": op,
                                     "calls": calls, "s": seconds}) + "\n")

    def leaf_calls_under(self, name, parent):
        return sum(c for (n, p, _), (c, _) in self.leaves.items() if n == name and p == parent)


def self_times_from(path):
    """Self seconds per span name, recomputed from a file that `Tracer.write` wrote.

    Each span or leaf record adds its duration to its own name and takes it
    from its parent's, so this is independent of the in-memory bookkeeping.
    """
    spans, self_s = {}, {}
    with open(path) as fh:
        records = [json.loads(line) for line in fh]
    for r in records:
        if "id" in r:
            spans[r["id"]] = r["name"]
    for r in records:
        if "id" in r:
            name, dur = r["name"], r["end"] - r["start"]
            parent = spans[r["parent"]] if r["parent"] is not None else None
        else:
            name, dur, parent = r["leaf"], r["s"], r["parent"]
        self_s[name] = self_s.get(name, 0.0) + dur
        if parent is not None:
            self_s[parent] = self_s.get(parent, 0.0) - dur
    return self_s
