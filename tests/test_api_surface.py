"""Every public module-level function or class of the package and its scripts
is used by the package or a script, not only by tests, and so is every
default parameter of their public functions and methods.

A name counts as used when a `Name` or `Attribute` node outside its own
definition refers to it; docstrings, comments and `__all__` strings do not.
"""

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "eulerlab").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))

ALLOWED = {
    # reads back the field.json, source_field.json and bernoulli.json
    # artifacts that runs write; only the round-trip tests call it, and they
    # are what shows those files are lossless
    "serialize.field_from_json",
}


def _referenced(node):
    """Counts of the names that Name and Attribute nodes under `node` use."""
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
                   if isinstance(sub, (ast.Name, ast.Attribute)))


def test_every_public_name_is_used_outside_tests():
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    total = sum((_referenced(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and total[node.name] == _referenced(node)[node.name]
                    and f"{module}.{node.name}" not in ALLOWED):
                unused.append(f"{module}.{node.name}")
    assert not unused, f"public names that only tests use: {', '.join(unused)}"


KNOBS_ALLOWED = {
    "cli.main(argv)": "None reads sys.argv; the CLI tests pass their command lines in process",
    "bench.main(argv)": "None reads sys.argv; the argument runs the script's command line "
                        "in process, as cli.main's does",
    "serialize.field_from_json(cls)": "the scalar bernoulli.json reads back as "
                                      "ScalarSpectralField; only the round-trip tests read "
                                      "artifacts back",
}


def _public_functions(tree):
    """(qualified name, node, is method) of the public module-level functions
    and the public methods of public module-level classes; nested functions
    are not visited."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub, True


def _defaults(fn, is_method):
    """(name, index among the positional arguments of a call, or None) of
    each parameter with a default; a method's call does not pass self or cls."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    out = [(a.arg, i - is_method) for i, a in enumerate(positional) if i >= first]
    return out + [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                  if d is not None]


def _passes(call, name, index):
    """Whether the call sets the parameter: by keyword, by position or through * / **."""
    return (any(isinstance(a, ast.Starred) for a in call.args)
            or any(kw.arg in (None, name) for kw in call.keywords)
            or (index is not None and len(call.args) > index))


def test_every_default_parameter_is_passed_by_some_caller():
    """A default that no call in the package or its scripts overrides is a
    constant in disguise; it belongs in the body, not in the signature."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(callee, []).append(node)
    knobs = [f"{module}.{qualname}({name})"
             for module, tree in trees.items()
             for qualname, fn, is_method in _public_functions(tree)
             for name, index in _defaults(fn, is_method)
             if not any(_passes(c, name, index) for c in calls.get(fn.name, []))]
    unlisted = [k for k in knobs if k not in KNOBS_ALLOWED]
    assert not unlisted, f"defaults that no caller overrides: {', '.join(unlisted)}"
    assert set(KNOBS_ALLOWED) <= set(knobs), "stale allowlist entries"
