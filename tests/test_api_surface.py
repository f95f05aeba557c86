"""Every public module-level function or class of the package and its scripts
is used by the package or a script, not only by tests.

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
    # the Euler pressure solve, pinned by its own tests; steady_residual
    # solves the same Poisson problem inline, since calling it would build
    # v . grad v twice
    "spectral.pressure",
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
