"""The value-type contract: every record the package returns is an
immutable ``typing.NamedTuple`` (``VarRegistry`` a slotted class), equal
and hashed by value, picklable, with the ``Name(field=value, ...)`` repr;
and no module imports ``dataclasses``."""

import ast
import copy
import pickle
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

import ribbontensor
from ribbontensor.arrow import (
    ArrowPresentation,
    boundary_components,
    edge_op_traced,
    edge_surgery,
    surface_stats,
    two_sum_traced,
)
from ribbontensor.errors import InvalidArgument
from ribbontensor.packaged import Coupling, Partition, make_packaged
from ribbontensor.poly import VarRegistry
from ribbontensor.polynomials import Multigraph
from ribbontensor.tensor_formula import (
    SPECS,
    Failure,
    TheoremKind,
    VerifyOutcome,
    plan_instance,
    random_instance,
    run_verification,
)

TWO = [[("e", True), ("f", True), ("e", False), ("f", False)]]
LOOP = [[("z", True), ("z", False)]]


def two():
    return ArrowPresentation.from_circles(TWO)


def plan():
    pg, factors, couplings, _ = random_instance(TheoremKind.MAIN, random.Random(3))
    return plan_instance(TheoremKind.MAIN, pg, factors, couplings)


# name -> (a function building one value afresh, hashable, picklable)
SAMPLES = {
    "ArrowPresentation": (two, True, True),
    "BoundaryComponent": (lambda: boundary_components(two())[0], True, True),
    "SurfaceStats": (lambda: surface_stats(two()), True, True),
    "OpTraceArrow": (lambda: edge_surgery(two(), "e", "contract")[1], False, True),
    "EdgeOpResult": (lambda: edge_op_traced.__wrapped__(two(), "e", "penrose"), False, True),
    "TwoSumResult": (
        lambda: two_sum_traced(two(), ArrowPresentation.from_circles(LOOP), "f", "z", True),
        False, True,
    ),
    "Partition": (lambda: Partition.make([[0, 2], [1], [3]], range(4)), True, True),
    "PackagedPresentation": (lambda: make_packaged(two()), True, True),
    "Coupling": (lambda: Coupling("f", "z", True), True, True),
    "VarRegistry": (lambda: VarRegistry(("a", "b", "x_e")), True, True),
    "Multigraph": (lambda: Multigraph.make(3, [(1, 0), (2, 2)]), True, True),
    "KindSpec": (lambda: SPECS[TheoremKind.MAIN], True, False),  # holds closures
    "InstancePlan": (plan, False, True),
    "VerifyOutcome": (lambda: VerifyOutcome(True, (("main", Fraction(1, 3), Fraction(1, 3)),)),
                      True, True),
    "Failure": (lambda: Failure("[[]]", {"x": Fraction(2)}, ()), False, True),
    "VerifyReport": (
        lambda: run_verification(TheoremKind.MAIN, seed=2, instances=1, points=1)._replace(
            elapsed=0.5
        ),
        True, True,
    ),
}


def fields(value):
    return value._fields if isinstance(value, tuple) else ("names",)


def test_no_module_imports_dataclasses():
    # dataclasses pulls in inspect, about 12 ms of every command's start-up
    package = Path(ribbontensor.__file__).resolve().parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += [path.name for n in names if n.split(".")[0] == "dataclasses"]
    assert not offenders


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_value_type_contract(name):
    make, hashable, picklable = SAMPLES[name]
    value, again = make(), make()
    assert type(value).__name__ == name
    assert value == again and not value != again
    if hashable:
        assert hash(value) == hash(again)
    for field in fields(value):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    assert copy.deepcopy(value) == value
    if picklable:
        assert pickle.loads(pickle.dumps(value)) == value
    body = ", ".join(f"{f}={getattr(value, f)!r}" for f in fields(value))
    assert repr(value) == f"{name}({body})"


def test_partition_replace_with_three_blocks():
    part = Partition.make([[0], [1, 2], [3]], range(4))
    assert len(part.blocks) == 3
    merged = part._replace(labels=(0, 0, 0, 1))
    assert merged == Partition.make([[0, 1, 2], [3]], range(4))
    assert Partition._make(part) == part


def test_registry_is_frozen_and_ordered():
    reg = VarRegistry(("a", "b"))
    with pytest.raises(AttributeError):
        del reg.names
    with pytest.raises(AttributeError):
        reg.extra = 1
    assert reg != VarRegistry(("b", "a"))
    assert VarRegistry(("a",)) != ("a",)
    with pytest.raises(ValueError):
        VarRegistry(("a", "a"))


@pytest.mark.parametrize("name", ["a_e^2", "a_e*f", "a e", "a_e\t", "+a", "-a", "12", ""])
def test_registry_refuses_names_the_text_cannot_carry(name):
    # each would read back as a power, a product, two terms, a sign, a
    # coefficient or an empty factor
    with pytest.raises(InvalidArgument, match=re.escape(repr(name))):
        VarRegistry(("a", name))
    VarRegistry(("a", "a_5", "b_n.e-1", "x2"))  # signs and digits inside a name are fine
