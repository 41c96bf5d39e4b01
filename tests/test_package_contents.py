"""The package holds only what a command, the verifier or the benchmark runs:
every module-level function and class in ``src/`` is used somewhere in
``src/`` or ``bench/``, besides its own definition and the export table."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Definitions kept without a caller, each with its reason.
ALLOWED = {
    "canonical_form": "documented public API (README, Canonical forms)",
    "phi0_structural_zeros": "the structural zeros that ROADMAP items 3 and 9 build on",
}


def _references(tree: ast.Module, path: Path):
    """Yield ``(top-level definition or None, name)`` for every identifier
    the module reads: names, attributes and the words of string constants
    (``bench/tracer.py`` names what it wraps in strings).  Docstrings and
    the package's ``_EXPORTS`` table are not references."""
    for stmt in tree.body:
        if path.name == "__init__.py" and isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in stmt.targets
        ):
            continue
        owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
        docstrings = {
            id(node.value)
            for node in ast.walk(stmt)
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        }
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                yield owner, node.id
            elif isinstance(node, ast.Attribute):
                yield owner, node.attr
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in docstrings
            ):
                for word in re.findall(r"[A-Za-z_]\w*", node.value):
                    yield owner, word


def test_every_definition_in_src_has_a_caller():
    src = sorted((ROOT / "src" / "ribbontensor").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in src}
    trees.update(
        (path, ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted((ROOT / "bench").glob("*.py"))
    )
    # module hooks such as __getattr__ and __dir__ are called by Python
    defined = {
        stmt.name: path.name
        for path in src
        for stmt in trees[path].body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not (stmt.name.startswith("__") and stmt.name.endswith("__"))
    }
    used = {
        name
        for path, tree in trees.items()
        for owner, name in _references(tree, path)
        if not (owner == name and defined.get(name) == path.name)
    }
    unused = sorted(f"{defined[n]}: {n}" for n in defined.keys() - used - ALLOWED.keys())
    assert not unused, unused
    # the list stays minimal: each entry exists and still has no caller
    assert ALLOWED.keys() <= defined.keys() - used, sorted(ALLOWED.keys() & used)
