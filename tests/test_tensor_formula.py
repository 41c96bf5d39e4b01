"""Transfer matrices, solved coefficients, structural zeros, and the
identity verifier."""

import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ribbontensor
from ribbontensor import cli, tensor_formula
from ribbontensor.arrow import ArrowPresentation, boundary_components
from ribbontensor.errors import InvalidArgument, SingularAtPoint
from ribbontensor.packaged import (
    Coupling,
    PackagedPresentation,
    Partition,
    k_presentations,
    make_packaged,
)
from ribbontensor.poly import solve_linear
from ribbontensor.polynomials import Multigraph, graph_tensor
from ribbontensor.randgen import random_packaged, random_point, random_presentation
from ribbontensor.tensor_formula import (
    TheoremKind,
    build_phi_matrix,
    phi0_structural_zeros,
    plan_instance,
    random_instance,
    run_verification,
    solve_phis,
    verify_identity,
)
import transfer_reference

PT5 = {
    "alpha": Fraction(3, 2),
    "beta": Fraction(5, 3),
    "gamma": Fraction(7, 4),
    "a": Fraction(2),
    "b": Fraction(3),
    "c": Fraction(5),
    "x": Fraction(7),
    "y": Fraction(11),
}


def test_matrix_singular_at_unit_point():
    with pytest.raises(SingularAtPoint):
        build_phi_matrix(
            TheoremKind.MAINMV,
            {"alpha": Fraction(1), "beta": Fraction(1), "gamma": Fraction(1)},
        )


def test_solve_phis_singular_at_unit_point():
    ks = k_presentations()
    unit = {"alpha": Fraction(1), "beta": Fraction(1), "gamma": Fraction(1)}
    unit.update({s: Fraction(2) for s in ("a", "b", "c", "x", "y")})
    with pytest.raises(SingularAtPoint):
        solve_phis(TheoremKind.MAIN, ks[0], "e", unit)


@pytest.mark.parametrize("instances, points", [(0, 1), (1, 0), (-3, 0), (-1, 5)])
def test_verification_rejects_empty_runs(instances, points):
    with pytest.raises(InvalidArgument, match="at least one instance and one point"):
        run_verification(TheoremKind.MAIN, instances=instances, points=points)


@pytest.mark.parametrize("kind", list(TheoremKind))
def test_verification_rejects_a_budget_below_one(kind):
    # a negative budget admits no draw, so the redrawing would never end
    for budget in (0, -1):
        with pytest.raises(InvalidArgument, match="size_budget"):
            random_instance(kind, random.Random(1), budget)
        with pytest.raises(InvalidArgument, match="size_budget"):
            run_verification(kind, instances=1, points=1, size_budget=budget)


# The largest composed object in 400 draws at budget 6, seed 1.  Only the
# first six kinds stay within the budget; see random_instance.
LARGEST_COMPOSED = {
    "mainmv": 6, "main": 6, "corz": 6, "fulltensor": 6, "twosum": 6,
    "br": 6, "brzhat": 6, "transition": 7, "planemvbr": 5, "tutte": 12,
}


@pytest.mark.parametrize("kind", list(TheoremKind))
def test_largest_composed_size_at_budget_six(kind):
    rng = random.Random(1)
    parts = tensor_formula.SPECS[kind].parts
    largest = 0
    for _ in range(400):
        pg, factors, couplings, _ = random_instance(kind, rng, 6)
        composed = tensor_formula._compose(
            pg, parts(tensor_formula._labels(pg), factors, couplings)
        )
        largest = max(largest, len(tensor_formula._labels(composed)))
    assert largest == LARGEST_COMPOSED[kind.value]


def test_transition_matrix_at_two():
    m = build_phi_matrix(TheoremKind.TRANSITION, {"t": Fraction(2)})
    assert m == [
        [Fraction(4), Fraction(2), Fraction(2)],
        [Fraction(2), Fraction(4), Fraction(2)],
        [Fraction(2), Fraction(2), Fraction(4)],
    ]


def test_tutte_matrix_at_three():
    m = build_phi_matrix(TheoremKind.TUTTE, {"a": Fraction(3)})
    assert m == [[Fraction(3), Fraction(9)], [Fraction(3), Fraction(3)]]


def _transfer_points(rng):
    """(alpha, beta, gamma) = (3, 5, 7) with t = 2, then 20 seeded rational
    points whose coordinates include 0, 1 and negative values."""
    names = ("alpha", "beta", "gamma", "t")
    yield dict(zip(names, map(Fraction, (3, 5, 7, 2))))
    pool = [Fraction(0), Fraction(1), Fraction(-1), Fraction(-7, 3)]
    for _ in range(20):
        yield {
            n: rng.choice(pool) if rng.random() < 0.4
            else Fraction(rng.randint(-60, 60), rng.randint(1, 60))
            for n in names
        }


@pytest.mark.parametrize("kind", transfer_reference.RECURSION_KINDS)
def test_matrix_read_off_the_basis_matches_the_typed_reference(kind):
    spec = tensor_formula.SPECS[kind]
    points = list(_transfer_points(random.Random(20)))
    for pt in points:
        rows, scale = spec.rows(pt)
        derived = [[scale * x for x in row] for row in rows]
        assert derived == transfer_reference.matrix(kind, pt)
    values = [v for pt in points for v in pt.values()]
    assert 0 in values and 1 in values and min(values) < 0


@pytest.mark.parametrize("kind", list(TheoremKind))
def test_integer_rows_equal_the_fraction_rows(kind):
    # the rows are integers, and with the factor they leave out they are the
    # matrix that one Fraction product per entry gives, at 50 seeded points
    # (0, 1 and negative coordinates included)
    rows_at = tensor_formula.SPECS[kind].rows
    rng = random.Random(50)
    for _ in range(50):
        pt = {
            n: rng.choice((Fraction(0), Fraction(1), Fraction(-7, 3))) if rng.random() < 0.2
            else Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 10**4))
            for n in ("alpha", "beta", "gamma", "t", "a", "c")
        }
        rows, scale = rows_at(pt)
        assert all(type(x) is int for row in rows for x in row)
        want, want_scale = transfer_reference.fraction_rows(kind, pt)
        assert [[scale * x for x in row] for row in rows] == [
            [want_scale * x for x in row] for row in want
        ]


def test_import_derives_no_transfer_matrix():
    # the matrices are read off the basis on first use, so importing the
    # module resolves no basis presentation
    src = str(Path(ribbontensor.__file__).resolve().parents[1])
    script = (
        "import ribbontensor.tensor_formula\n"
        "from ribbontensor.polynomials import resolution_dag\n"
        "print(resolution_dag.cache_info().currsize)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src), check=True,
    )
    assert proc.stdout.strip() == "0"


@pytest.mark.parametrize("kind", transfer_reference.RECURSION_KINDS)
def test_basis_presentations_solve_to_unit_vectors(kind):
    basis = transfer_reference.basis(kind)
    for i, k in enumerate(basis):
        phis = solve_phis(kind, k, "e", {**PT5, "t": Fraction(5, 2)})
        assert phis == tuple(Fraction(int(j == i)) for j in range(len(basis)))


def test_solve_phis_k1_k3():
    ks = k_presentations()
    assert solve_phis(TheoremKind.MAINMV, ks[0], "e", PT5) == (1, 0, 0, 0, 0)
    assert solve_phis(TheoremKind.MAINMV, ks[2], "e", PT5) == (0, 0, 1, 0, 0)


@pytest.mark.parametrize(
    "kind",
    [TheoremKind.MAIN, TheoremKind.CORZ, TheoremKind.BR, TheoremKind.BRZHAT, TheoremKind.TRANSITION],
)
def test_coefficients_solve_the_whole_transfer_matrix(kind):
    # The rows leave the common factor alpha*beta(*gamma), or t, out and the
    # solve divides it out of the coefficients: they must still solve the
    # system of build_phi_matrix, the full transfer matrix.
    rng = random.Random(9)
    spec = tensor_formula.SPECS[kind]
    for _ in range(4):
        if kind is TheoremKind.TRANSITION:
            ph = random_presentation(rng, max_edges=3, min_edges=2, extra_circle_rate=0)
            e = min(ph.edges)
            names = ["t"] + [f"{s}_{l}" for l in sorted(ph.edges) for s in "abc"]
        else:
            ph = random_packaged(rng, max_edges=3, min_edges=2)
            e = min(ph.ap.edges)
            names = PT5
        pt = random_point(rng, names, bound=50)
        nums, den = tensor_formula._columns(spec, tensor_formula._resolve(spec, ph, e), pt)
        rhs = [Fraction(n, den) for n in nums]
        (x,) = solve_linear(build_phi_matrix(kind, pt), [rhs])
        assert solve_phis(kind, ph, e, pt) == tuple(x)


def test_zero_beta_is_singular():
    # beta = 0 zeroes the left-out factor alpha*beta*gamma, and with it the
    # whole matrix, though the rows alone are not singular
    pt = {**PT5, "beta": Fraction(0)}
    with pytest.raises(SingularAtPoint):
        build_phi_matrix(TheoremKind.MAIN, pt)
    with pytest.raises(SingularAtPoint):
        solve_phis(TheoremKind.MAIN, k_presentations()[0], "e", pt)


def test_phi0_examples():
    ks = k_presentations()
    assert 0 in phi0_structural_zeros(ks[1], "e")  # loop
    assert 1 in phi0_structural_zeros(ks[4], "e")  # one boundary class
    # the non-loop basis presentation has a single boundary component, so its
    # parallel-class coefficient is forced (consistent with its basis vector
    # (1,0,0,0,0)); nothing else is
    assert phi0_structural_zeros(ks[0], "e") == frozenset({1})
    assert phi0_structural_zeros(ks[0], "e", c_zero=True) == frozenset({1, 2})
    # a factor whose coupled edge has distinct vertex classes and distinct
    # boundary classes forces nothing
    wide = make_packaged(
        ArrowPresentation.from_circles(
            [[("e", True), ("f", True)], [("e", True), ("f", True)]]
        )
    )
    assert phi0_structural_zeros(wide, "e") == frozenset()


def test_structural_zeros_are_sound():
    # every reported index solves to exactly zero at sampled points; the
    # two-weight specialisation has all Penrose weights zero, so index 2
    # applies to orientable factors there
    rng = random.Random(41)
    from ribbontensor.arrow import surface_stats

    checked = 0
    while checked < 20:
        ph = random_packaged(rng, max_edges=3, min_edges=1)
        e = rng.choice(sorted(ph.ap.edges))
        zeros = phi0_structural_zeros(ph, e, c_zero=True)
        if not zeros:
            continue
        for _ in range(3):
            pt = random_point(rng, ["alpha", "beta", "gamma", "a", "b"])
            pt.update({"c": Fraction(0), "x": Fraction(0), "y": Fraction(0)})
            try:
                phis = solve_phis(TheoremKind.MAIN, ph, e, pt)
            except SingularAtPoint:
                continue
            for idx in zeros:
                if idx == 2 and not surface_stats(ph.ap).orientable:
                    continue
                assert phis[idx] == 0
        checked += 1


@pytest.mark.parametrize(
    "kind",
    [
        TheoremKind.MAINMV,
        TheoremKind.MAIN,
        TheoremKind.CORZ,
        TheoremKind.FULLTENSOR,
        TheoremKind.TWOSUM,
        TheoremKind.BR,
        TheoremKind.BRZHAT,
        TheoremKind.TRANSITION,
        TheoremKind.PLANEMVBR,
        TheoremKind.TUTTE,
    ],
)
def test_identity_smoke(kind):
    report = run_verification(kind, seed=77, instances=5, points=3)
    assert report.ok, report.failures


def test_twosum_identity_on_fixed_instance():
    ks = k_presentations()
    rng = random.Random(42)
    pg = random_packaged(rng, max_edges=3, min_edges=1)
    ph = make_packaged(
        ks[1].ap.relabel({"e": "he"}),
        [list(b) for b in ks[1].vparts.blocks],
        [list(b) for b in ks[1].bparts.blocks],
    )
    f = sorted(pg.ap.edges)[0]
    out = verify_identity(
        plan_instance(TheoremKind.TWOSUM, pg, ph, Coupling(f, "he")), PT5
    )
    assert out.ok


def test_verifier_reports_both_sides():
    rng = random.Random(43)
    pg, factors, couplings, names = random_instance(TheoremKind.TUTTE, rng)
    pt = random_point(rng, sorted(names))
    out = verify_identity(plan_instance(TheoremKind.TUTTE, pg, factors, couplings), pt)
    assert out.ok
    assert {name for name, _, _ in out.comparisons} == {"zdot", "tutte"}
    assert all(lhs == rhs for _, lhs, rhs in out.comparisons)


def test_tutte_canonical_instance():
    # host 3-cycle, factor a 3-cycle pointed at one side (its e-complement is
    # the 2-edge path); the tensor is the subdivided triangle
    g = Multigraph.make(3, [(0, 1), (1, 2), (0, 2)])
    h = Multigraph.make(3, [(0, 1), (1, 2), (0, 2)])
    composed = graph_tensor(g, h, 0)
    assert composed.m == 6 and composed.n == 6
    plan = plan_instance(TheoremKind.TUTTE, g, (h, 0), [False] * 3)
    rng = random.Random(44)
    for _ in range(20):
        pt = random_point(rng, ["a", "b", "x", "y"], bound=100)
        try:
            out = verify_identity(plan, pt)
        except SingularAtPoint:
            continue
        assert out.ok


def test_remaining_kinds_at_full_scale():
    # the numbered acceptance criteria cover the other eight kinds at 30x10
    for kind in (TheoremKind.FULLTENSOR, TheoremKind.PLANEMVBR):
        report = run_verification(kind, seed=78, instances=30, points=10)
        assert report.ok, report.failures


def test_basis_factors_reduce_to_edge_operations():
    # tensoring one edge with a basis presentation must agree with the host
    # polynomial after the corresponding operation (the verdict is just the
    # identity, but the solved weights are unit vectors here)
    rng = random.Random(45)
    ks = k_presentations()
    for i in range(5):
        pg = random_packaged(rng, max_edges=3, min_edges=1)
        f = sorted(pg.ap.edges)[0]
        pt = random_point(rng, ["alpha", "beta", "gamma"])
        for l in {f"{f}.e"} | pg.ap.edges:
            for s in ("a", "b", "c", "x", "y"):
                pt[f"{s}_{l}"] = random_point(rng, ["v"])["v"]
        try:
            out = verify_identity(
                plan_instance(TheoremKind.MAINMV, pg, [(f, ks[i], "e")], [Coupling(f, "e")]), pt
            )
        except SingularAtPoint:
            continue
        assert out.ok


def test_seeded_reports_reproducible():
    a = run_verification(TheoremKind.CORZ, seed=9, instances=3, points=2)
    b = run_verification(TheoremKind.CORZ, seed=9, instances=3, points=2)
    assert (a.kind, a.failures) == (b.kind, b.failures)
    assert a.ok and b.ok


# Prints random_instance for every kind and seeds 0-4 with sets sorted,
# which is all the hash seed may change.
INSTANCE_SCRIPT = """
import random
from ribbontensor.tensor_formula import TheoremKind, random_instance
def plain(x):
    if isinstance(x, (set, frozenset)):
        return sorted(x)
    if isinstance(x, dict):
        return [(k, plain(v)) for k, v in x.items()]
    if isinstance(x, (tuple, list)):
        return [type(x).__name__, *map(plain, x)]
    return x
for kind in TheoremKind:
    for s in range(5):
        print(kind.value, s, plain(random_instance(kind, random.Random(s))))
"""


def test_random_instances_do_not_depend_on_the_hash_seed():
    # A failing instance must reproduce in any process.
    src = str(Path(ribbontensor.__file__).resolve().parents[1])
    outputs = [
        subprocess.run(
            [sys.executable, "-c", INSTANCE_SCRIPT], capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed), check=True,
        ).stdout
        for seed in ("0", "1")
    ]
    assert outputs[0].count("\n") == 5 * len(TheoremKind)
    assert outputs[0] == outputs[1]


def test_tutte_singular_classical_system_is_resampled():
    # (x - 1)(y - 1) = 1 makes the classical Tutte system singular; that is a
    # degenerate point to resample, not an error
    g = Multigraph.make(3, [(0, 1), (1, 2), (0, 2)])
    plan = plan_instance(TheoremKind.TUTTE, g, (g, 0), [False] * 3)
    pt = {"a": Fraction(2), "b": Fraction(3), "x": Fraction(2), "y": Fraction(2)}
    with pytest.raises(SingularAtPoint):
        verify_identity(plan, pt)


@pytest.mark.parametrize("kind", list(TheoremKind))
def test_instance_composed_once(kind, monkeypatch):
    calls = []
    for name in ("compose_two_sums", "graph_tensor"):
        original = getattr(tensor_formula, name)

        def counted(*args, _original=original, _name=name):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(tensor_formula, name, counted)
    assert run_verification(kind, seed=3, instances=2, points=5).ok
    assert len(calls) == 2


@pytest.mark.parametrize("kind", list(TheoremKind))
def test_patched_verify_identity_sees_every_point(kind, monkeypatch):
    # the benchmark counts comparisons by rebinding the module attribute
    outcomes = []
    original = tensor_formula.verify_identity

    def counted(*args, **kwargs):
        outcome = original(*args, **kwargs)
        outcomes.append(outcome)
        return outcome

    monkeypatch.setattr(tensor_formula, "verify_identity", counted)
    report = run_verification(kind, seed=4, instances=2, points=5)
    assert len(outcomes) == 2 * 5
    per_point = 2 if kind is TheoremKind.TUTTE else 1
    assert report.comparisons == sum(len(o.comparisons) for o in outcomes) == 2 * 5 * per_point


@pytest.mark.parametrize("kind", list(TheoremKind))
def test_scaled_transfer_matrix_fails(kind, monkeypatch):
    # a verifier that cannot fail proves nothing: double the middle diagonal
    # entry of the transfer matrix (a corner entry can meet a coefficient that
    # is structurally zero, such as a loop's deletion coefficient, and change
    # nothing) and expect counterexamples
    spec = tensor_formula.SPECS[kind]

    def scaled(pt):
        matrix, scale = spec.rows(pt)
        mid = len(matrix) // 2
        matrix[mid][mid] *= 2
        return matrix, scale

    monkeypatch.setitem(tensor_formula.SPECS, kind, spec._replace(rows=scaled))
    assert not run_verification(kind, seed=1, instances=10, points=1).ok


def _wide_instance(kind):
    """A fixed main or br instance whose factor's coupled edge joins two
    circles of different vertex classes, so its deletion coefficient (the
    first column of the transfer matrix) is not forced to vanish."""
    ap = ArrowPresentation.from_circles([[("e", True), ("f", True)], [("e", True), ("f", False)]])
    host = ArrowPresentation.from_circles([[("g", True), ("h", True), ("g", False)], [("h", True)]])
    if kind is TheoremKind.MAIN:
        pg, ph = make_packaged(host), make_packaged(ap)
        names = {"alpha", "beta", "gamma", "a", "b", "c", "x", "y"}
    else:
        pg, ph = (
            PackagedPresentation(
                x,
                Partition.make([[i] for i in range(len(x.circles))], range(len(x.circles))),
                Partition.one_block(range(len(boundary_components(x)))),
            )
            for x in (host, ap)
        )
        names = {"alpha", "beta", "a", "b", "c", "x"}
    return pg, (ph, "e"), {"g": False, "h": True}, names


@pytest.mark.parametrize("kind", [TheoremKind.MAIN, TheoremKind.BR])
def test_scaled_first_column_fails(kind, monkeypatch):
    # doubling M[0][0] changes the solved coefficients exactly when the
    # deletion coefficient is nonzero, which random_instance seldom draws
    instance = _wide_instance(kind)
    ph, e = instance[1]
    assert 0 not in phi0_structural_zeros(ph, e)
    monkeypatch.setattr(tensor_formula, "random_instance", lambda *args: instance)
    assert run_verification(kind, seed=1, instances=1, points=5).ok
    spec = tensor_formula.SPECS[kind]

    def scaled(pt):
        matrix, scale = spec.rows(pt)
        matrix[0][0] *= 2
        return matrix, scale

    monkeypatch.setitem(tensor_formula.SPECS, kind, spec._replace(rows=scaled))
    assert not run_verification(kind, seed=1, instances=1, points=5).ok


def test_resampled_points_are_counted(monkeypatch):
    # the first point drawn is the singular x = y = 2 point of
    # test_tutte_singular_classical_system_is_resampled
    drawn = []

    def singular_first(rng, names, *args):
        point = random_point(rng, names, *args)
        drawn.append(point)
        if len(drawn) == 1:
            point = {"a": Fraction(2), "b": Fraction(3), "x": Fraction(2), "y": Fraction(2)}
        return point

    monkeypatch.setattr(tensor_formula, "random_point", singular_first)
    report = run_verification(TheoremKind.TUTTE, seed=1, instances=1, points=3)
    assert report.ok
    assert report.resampled == 1
    assert len(drawn) == 4


def test_verification_gives_up_after_max_resample_singular_draws(monkeypatch, capsys):
    # every draw is the singular x = y = 2 point of
    # test_tutte_singular_classical_system_is_resampled
    drawn = []

    def always_singular(rng, names, *args):
        drawn.append(random_point(rng, names, *args))
        return {"a": Fraction(2), "b": Fraction(3), "x": Fraction(2), "y": Fraction(2)}

    monkeypatch.setattr(tensor_formula, "random_point", always_singular)
    with pytest.raises(SingularAtPoint, match="in 50 samples"):
        run_verification(TheoremKind.TUTTE, seed=1, instances=1, points=1)
    assert len(drawn) == tensor_formula.MAX_RESAMPLE == 50
    assert cli.main(["verify", "tutte", "--instances", "1", "--points", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "in 50 samples" in err


def test_verification_outputs_are_pinned(monkeypatch):
    # Every comparison of 90 attempts over the ten kinds, exact values
    # included, hashed: a faster evaluation path must give the same
    # rationals digit for digit.  The digest is the same under
    # PYTHONHASHSEED 0, 1, 2 and 5 and on Python 3.10-3.13.
    seen = []
    original = tensor_formula.verify_identity

    def recorded(plan, pt):
        outcome = original(plan, pt)
        seen.append(repr(outcome.comparisons))
        return outcome

    monkeypatch.setattr(tensor_formula, "verify_identity", recorded)
    for kind in TheoremKind:
        assert run_verification(kind, seed=104, instances=3, points=3).ok
    assert len(seen) == 90
    assert hashlib.sha256("\n".join(seen).encode()).hexdigest()[:16] == "4f637ca7a3bdffb8"
