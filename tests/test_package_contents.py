"""The package holds only what a command, the verifier or the benchmark runs:
every module-level function and class in ``src/``, and every method of
those classes, is used somewhere in ``src/`` or ``bench/``, besides its own
definition and the export table, and every parameter of those functions and
methods that has a default is set by some call there."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Definitions kept without a caller, each with its reason; a method is
# named ``Class.method``.
ALLOWED = {
    "canonical_form": "documented public API (README, Canonical forms)",
    "phi0_structural_zeros": "the structural zeros that ROADMAP items 3 and 9 build on",
}

# Parameters with a default kept though no call sets them, each with its
# reason; a parameter is named ``function.parameter`` or
# ``Class.method.parameter``.
ALLOWED_PARAMETERS = {
    "run_verification.size_budget": "ROADMAP item 10 puts it on the CLI as verify --size-budget",
}


def _dunder(name: str) -> bool:
    # module hooks such as __getattr__ and methods such as __eq__ are
    # called by Python
    return name.startswith("__") and name.endswith("__")


def _references(tree: ast.Module, path: Path):
    """Yield ``(owners, name, node)`` for every identifier the module reads:
    names, attributes and string constants that are one identifier each
    (``bench/tracer.py`` names what it wraps in strings); a name inside a
    longer string, such as a counter's, is no reference.  ``owners`` are
    the definitions the reference sits in: its top-level function or class
    and, in a method, ``Class.method``.  Docstrings and the package's
    ``_EXPORTS`` table are not references.  ``node`` is the
    ``ast.Name``, ``ast.Attribute`` or ``ast.Constant`` read."""
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
                yield owners, node.id, node
            elif isinstance(node, ast.Attribute):
                yield owners, node.attr, node
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value.isidentifier()
                and id(node) not in docstrings
            ):
                yield owners, node.value, node


def _scan():
    """The parsed modules of ``src/`` and ``bench/``, and each definition in
    ``src/`` by its qualified name: ``(its module, the name callers use,
    its node)``.  Dunders are left out."""
    src = sorted((ROOT / "src" / "ribbontensor").glob("*.py"))
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in src + sorted((ROOT / "bench").glob("*.py"))
    }
    defined = {}
    for path in src:
        for stmt in trees[path].body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) or _dunder(stmt.name):
                continue
            defined[stmt.name] = path.name, stmt.name, stmt
            if isinstance(stmt, ast.ClassDef):
                defined.update(
                    (f"{stmt.name}.{node.name}", (path.name, node.name, node))
                    for node in stmt.body
                    if isinstance(node, ast.FunctionDef) and not _dunder(node.name)
                )
    return trees, defined


def test_every_definition_in_src_has_a_caller():
    trees, defined = _scan()
    # where each name is read, and inside which definitions
    reads: dict = {}
    for path, tree in trees.items():
        for owners, name, _ in _references(tree, path):
            reads.setdefault(name, []).append((path.name, owners))

    def used(qualified):
        # read somewhere other than in its own definition
        module, name, _ = defined[qualified]
        return any(
            not (where == module and qualified in owners) for where, owners in reads.get(name, ())
        )

    unused = sorted(f"{defined[q][0]}: {q}" for q in defined.keys() - ALLOWED.keys() if not used(q))
    assert not unused, unused
    # the list stays minimal: each entry exists and still has no caller
    assert ALLOWED.keys() <= defined.keys(), sorted(ALLOWED.keys() - defined.keys())
    assert not any(map(used, ALLOWED)), sorted(filter(used, ALLOWED))


def _defaulted(qualified: str, node: ast.FunctionDef):
    """Yield ``(parameter, position)`` for each parameter of ``node`` that has
    a default: its place among the arguments a call passes by position
    (``self`` or ``cls`` of a method is bound, not passed), or ``None`` for a
    keyword-only one."""
    args = node.args
    positional = args.posonlyargs + args.args
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
    if "." in qualified and not static:
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield arg.arg, i
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def test_every_parameter_with_a_default_is_set_by_a_caller():
    trees, defined = _scan()
    settable = {
        f"{qualified}.{param}": (name, param, i)
        for qualified, (_, name, node) in defined.items()
        if isinstance(node, ast.FunctionDef) and qualified not in ALLOWED
        for param, i in _defaulted(qualified, node)
    }
    calls = {
        id(node.func): node
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }
    # per name, the positions and keywords some call passes; True when the
    # name is read as a value (assigned, stored, passed on) or called with
    # unpacked arguments, which may set anything
    passed: dict = {}
    for path, tree in trees.items():
        for _, name, node in _references(tree, path):
            call = calls.get(id(node))
            if call is None:
                # a string names a function for the tracer, whose wrapper
                # passes on what its callers pass and sets nothing itself
                if not isinstance(node, ast.Constant) and isinstance(node.ctx, ast.Load):
                    passed[name] = True
            elif any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords
            ):
                passed[name] = True
            elif passed.get(name) is not True:
                passed.setdefault(name, set()).update(
                    [*range(len(call.args)), *(k.arg for k in call.keywords)]
                )

    def is_set(qualified):
        name, param, i = settable[qualified]
        got = passed.get(name, ())
        return got is True or param in got or i in got

    unset = sorted(q for q in settable.keys() - ALLOWED_PARAMETERS.keys() if not is_set(q))
    assert not unset, unset
    # the list stays minimal: each entry exists and is still set by no call
    missing = sorted(ALLOWED_PARAMETERS.keys() - settable.keys())
    assert not missing, missing
    assert not any(map(is_set, ALLOWED_PARAMETERS)), sorted(filter(is_set, ALLOWED_PARAMETERS))
