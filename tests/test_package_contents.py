"""The package holds only what a command, the verifier or the benchmark runs:
every module-level function and class in ``src/``, and every method of
those classes, is used somewhere in ``src/`` or ``bench/``, besides its own
definition and the export table."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Definitions kept without a caller, each with its reason; a method is
# named ``Class.method``.
ALLOWED = {
    "canonical_form": "documented public API (README, Canonical forms)",
    "phi0_structural_zeros": "the structural zeros that ROADMAP items 3 and 9 build on",
}


def _dunder(name: str) -> bool:
    # module hooks such as __getattr__ and methods such as __eq__ are
    # called by Python
    return name.startswith("__") and name.endswith("__")


def _references(tree: ast.Module, path: Path):
    """Yield ``(owners, name)`` for every identifier the module reads:
    names, attributes and string constants that are one identifier each
    (``bench/tracer.py`` names what it wraps in strings); a name inside a
    longer string, such as a counter's, is no reference.  ``owners`` are
    the definitions the reference sits in: its top-level function or class
    and, in a method, ``Class.method``.  Docstrings and the package's
    ``_EXPORTS`` table are not references."""
    for stmt in tree.body:
        if path.name == "__init__.py" and isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in stmt.targets
        ):
            continue
        owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
        method = {}
        if isinstance(stmt, ast.ClassDef):
            for node in stmt.body:
                if isinstance(node, ast.FunctionDef):
                    method.update((id(n), f"{owner}.{node.name}") for n in ast.walk(node))
        docstrings = {
            id(node.value)
            for node in ast.walk(stmt)
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        }
        for node in ast.walk(stmt):
            owners = (owner, method.get(id(node)))
            if isinstance(node, ast.Name):
                yield owners, node.id
            elif isinstance(node, ast.Attribute):
                yield owners, node.attr
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value.isidentifier()
                and id(node) not in docstrings
            ):
                yield owners, node.value


def test_every_definition_in_src_has_a_caller():
    src = sorted((ROOT / "src" / "ribbontensor").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in src}
    trees.update(
        (path, ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted((ROOT / "bench").glob("*.py"))
    )
    # each definition's qualified name -> (its module, the name callers use)
    defined = {}
    for path in src:
        for stmt in trees[path].body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) or _dunder(stmt.name):
                continue
            defined[stmt.name] = path.name, stmt.name
            if isinstance(stmt, ast.ClassDef):
                defined.update(
                    (f"{stmt.name}.{node.name}", (path.name, node.name))
                    for node in stmt.body
                    if isinstance(node, ast.FunctionDef) and not _dunder(node.name)
                )
    # where each name is read, and inside which definitions
    reads: dict = {}
    for path, tree in trees.items():
        for owners, name in _references(tree, path):
            reads.setdefault(name, []).append((path.name, owners))

    def used(qualified):
        # read somewhere other than in its own definition
        module, name = defined[qualified]
        return any(
            not (where == module and qualified in owners) for where, owners in reads.get(name, ())
        )

    unused = sorted(f"{defined[q][0]}: {q}" for q in defined.keys() - ALLOWED.keys() if not used(q))
    assert not unused, unused
    # the list stays minimal: each entry exists and still has no caller
    assert ALLOWED.keys() <= defined.keys(), sorted(ALLOWED.keys() - defined.keys())
    assert not any(map(used, ALLOWED)), sorted(filter(used, ALLOWED))
