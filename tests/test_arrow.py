"""Arrow presentations: boundary traces, surface stats, edge surgery,
canonical forms.

The small expected values here were fixed by hand-tracing the arc/chord
permutation (see the module docstring of ribbontensor.arrow for the
conventions).
"""

import ast
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ribbontensor
from ribbontensor.arrow import (
    HEAD,
    TAIL,
    ArrowPresentation,
    Occ,
    _rotmin,
    _splice,
    boundary_components,
    boundary_trace,
    canonical_form,
    contract_edge,
    delete_edge,
    edge_cap,
    find,
    penrose_contract_edge,
    surface_stats,
    validate,
)
from ribbontensor.errors import (
    InvalidArgument,
    LabelCountError,
    RegistryMismatch,
    SizeLimitExceeded,
    UnknownEdge,
)
from ribbontensor.randgen import random_presentation
from strategies import presentations


def ap(*circles):
    return ArrowPresentation.from_circles(circles)


# Golden fixture: one circle carrying f,e,g,e in cyclic order, a second
# carrying f,g, every arrow pointing with the traversal direction.
FIG_A = ap([("f", True), ("e", True), ("g", True), ("e", True)],
           [("f", True), ("g", True)])
FIG_DELETE = ap([("f", True), ("g", True)], [("f", True), ("g", True)])
FIG_CONTRACT = ap([("f", True), ("g", True)], [("f", True)], [("g", True)])
FIG_PENROSE = ap([("f", True), ("g", True)], [("f", True), ("g", False)])

ALIGNED_LOOP = ap([("e", True), ("e", True)])
ANTI_LOOP = ap([("e", True), ("e", False)])


def test_validate_accepts_two_circles_sharing_three_labels():
    validate(ap([("e", True), ("f", True), ("g", True)],
                [("e", True), ("f", True), ("g", True)]))


def test_validate_rejects_single_occurrence():
    with pytest.raises(LabelCountError) as err:
        validate(ap([("e", True)]))
    assert err.value.label == "e" and err.value.count == 1


def test_validate_accepts_empty_presentation():
    validate(ap())
    validate(ap([]))


def test_validate_registry_mismatch():
    bad = ArrowPresentation(ALIGNED_LOOP.circles, frozenset({"e", "ghost"}))
    with pytest.raises(RegistryMismatch):
        validate(bad)


def test_boundary_count_golden_fixture():
    bds = boundary_components(FIG_A)
    assert len(bds) == 1
    assert len(bds[0].crossings) == 12


def test_boundary_count_loops():
    assert len(boundary_components(ALIGNED_LOOP)) == 2
    assert len(boundary_components(ANTI_LOOP)) == 1


def test_boundary_components_cover_every_token_once():
    rng = random.Random(2)
    for _ in range(100):
        p = random_presentation(rng, max_edges=5)
        tokens = [t for bd in boundary_components(p) for t in bd.crossings]
        assert len(tokens) == len(set(tokens)) == 4 * len(p.edges)


def test_bare_circles_get_their_own_component():
    p = ap([], [("e", True), ("e", True)], [])
    bds = boundary_components(p)
    bare = [bd for bd in bds if bd.circle is not None]
    assert sorted(bd.circle for bd in bare) == [0, 2]
    # token components enumerate first
    assert all(bd.crossings for bd in bds[: len(bds) - 2])


def reference_trace(p):
    """The dict-and-sort tracer the integer walk replaced, kept as an oracle:
    ``(crossings, arcs, circle)`` per component, in canonical order."""
    arc_partner, chord_partner = {}, {}
    for ci, circ in enumerate(p.circles):
        for i, occ in enumerate(circ):
            j = (i + 1) % len(circ)
            t_trail = (ci, i, HEAD if occ.forward else TAIL)
            t_lead = (ci, j, TAIL if circ[j].forward else HEAD)
            arc_partner[t_trail] = (t_lead, (ci, i))
            arc_partner[t_lead] = (t_trail, (ci, i))
    for label in sorted(p.edges):
        (c1, p1), (c2, p2) = p.occurrences(label)
        for s in (TAIL, HEAD):
            chord_partner[(c1, p1, s)] = (c2, p2, 1 - s)
            chord_partner[(c2, p2, s)] = (c1, p1, 1 - s)
    components, seen = [], set()
    for start in sorted(arc_partner):
        if start in seen:
            continue
        seq, arcs = [], set()
        cur, use_arc = start, True
        while True:
            seq.append(cur)
            seen.add(cur)
            if use_arc:
                cur, a = arc_partner[cur]
                arcs.add(a)
            else:
                cur = chord_partner[cur]
            use_arc = not use_arc
            if cur == start:
                break
        components.append((tuple(seq), arcs, None))
    components += [((), set(), ci) for ci, circ in enumerate(p.circles) if not circ]
    components.sort(key=lambda c: (1, c[2]) if c[2] is not None else (0, c[0][0]))
    return components


@settings(deadline=None, max_examples=300)
@given(presentations())
@example(ALIGNED_LOOP)
@example(ANTI_LOOP)
@example(FIG_A)
@example(ap([], [("e", True)], [("e", False)], []))
def test_boundary_trace_matches_reference_tracer(p):
    trace = boundary_trace(p)
    assert trace.components == boundary_components(p)
    reference = reference_trace(p)
    assert len(trace.components) == len(reference)
    for i, (bd, (crossings, arcs, circle)) in enumerate(zip(trace.components, reference)):
        assert (bd.id, bd.crossings, bd.circle) == (i, crossings, circle)
        if circle is not None:
            assert trace.bare_to_bd[circle] == i
        for t in crossings:
            assert trace.token_to_bd[t] == i
        # an arc lies on the boundary of its trailing token
        for c, j in arcs:
            trailing = HEAD if p.circles[c][j].forward else TAIL
            assert trace.token_to_bd[(c, j, trailing)] == i
    assert len(trace.token_to_bd) == 4 * len(p.edges)
    assert len(trace.bare_to_bd) == sum(not circ for circ in p.circles)


@settings(deadline=None, max_examples=300)
@given(st.lists(st.builds(Occ, st.sampled_from("abc"), st.booleans()), max_size=9))
def test_rotmin_is_the_least_rotation(circ):
    rotations = [tuple(circ[r:] + circ[:r]) for r in range(len(circ))] or [()]
    least = min(rotations)
    assert _rotmin(circ) == (least, rotations.index(least))


def reference_splice(circles, removed, glue):
    """The two-walk splice the single walk replaced, kept as an oracle: one
    loop groups the chains into components, which are sorted by their
    anchor and walked again from the chain holding their least occurrence.
    Returns what ``_splice`` returns, with ``OpTraceArrow`` as a tuple."""
    def endpoint(circ, ci, p, trailing):
        forward = circ[p].forward
        return (ci, p, HEAD if forward == trailing else TAIL)

    affected = {c for c, _ in removed}
    new_circles, circle_map, occ_map = [], {}, {}
    for ci, circ in enumerate(circles):
        if ci in affected:
            continue
        circle_map[ci] = len(new_circles)
        for p in range(len(circ)):
            occ_map[(ci, p)] = (len(new_circles), p)
        new_circles.append(circ)

    parent = {}
    for a, b, _ in glue:
        ra, rb = find(parent, a), find(parent, b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    names_at = {}
    for a, _, name in glue:
        names_at.setdefault(find(parent, a), []).append(name)

    chains = []
    for ci in sorted(affected):
        circ = circles[ci]
        rpos = sorted(p for c, p in removed if c == ci)
        k = len(circ)
        for idx, p in enumerate(rpos):
            q = rpos[(idx + 1) % len(rpos)]
            items, j = [], (p + 1) % k
            while j != q:
                items.append((ci, j))
                j = (j + 1) % k
            chains.append((tuple(items), endpoint(circ, ci, p, True), endpoint(circ, ci, q, False)))
    ends = {}
    for idx, (_, s, e) in enumerate(chains):
        ends.setdefault(find(parent, s), []).append((idx, 0))
        ends.setdefault(find(parent, e), []).append((idx, 1))
    assert all(len(entries) == 2 for entries in ends.values())

    def step(cur, forward):
        _, s, e = chains[cur]
        rep = find(parent, e if forward else s)
        entries = list(ends[rep])
        entries.remove((cur, 1 if forward else 0))
        nxt, flag = entries[0]
        return rep, nxt, flag == 0

    def walk(start):
        events, cur, forward = [], start, True
        while True:
            items = chains[cur][0]
            events += [("occ", pos, not forward) for pos in (items if forward else items[::-1])]
            rep, cur, forward = step(cur, forward)
            events += [("marker", name) for name in sorted(names_at.get(rep, ()))]
            if cur == start and forward:
                return events

    comp_of, comps = {}, []
    for idx in range(len(chains)):
        if idx in comp_of:
            continue
        members, cur, forward = [], idx, True
        while True:
            members.append(cur)
            _, cur, forward = step(cur, forward)
            if cur == idx and forward:
                break
        for m in members:
            comp_of[m] = len(comps)
        comps.append(members)

    def comp_anchor(members):
        items = [pos for m in members for pos in chains[m][0]]
        if items:
            return (0, min(items))
        return (1, min(
            name for m in members for node in chains[m][1:]
            for name in names_at.get(find(parent, node), ())
        ))

    markers, created = {}, []
    for members in sorted(comps, key=comp_anchor):
        bare, anchor = comp_anchor(members)
        if bare:
            events = walk(min(members))
        else:
            events = walk(next(m for m in members if anchor in chains[m][0]))
            pivot = next(i for i, ev in enumerate(events) if ev[:2] == ("occ", anchor))
            events = events[pivot:] + events[:pivot]
        new_ci = len(new_circles)
        circ_occs, local_occs, marker_gaps = [], [], []
        for ev in events:
            if ev[0] == "occ":
                _, (ci, p), flipped = ev
                local_occs.append((ci, p))
                circ_occs.append(Occ(circles[ci][p].label, circles[ci][p].forward ^ flipped))
            else:
                marker_gaps.append((ev[1], len(circ_occs)))
        total = len(circ_occs)
        normalized, offset = _rotmin(circ_occs)
        for raw, place in enumerate(local_occs):
            occ_map[place] = (new_ci, (raw - offset) % total)
        for name, count in marker_gaps:
            markers[name] = (new_ci, (count - 1 - offset) % total if total else None)
        new_circles.append(normalized)
        created.append(new_ci)
    return tuple(new_circles), (circle_map, tuple(created), occ_map, markers)


def glues(p, data):
    """A splice of ``p`` drawn from the three surgeries that use one: the
    contraction or the Penrose glue of one edge, or the 2-sum glue of two
    (tails to tails and heads to heads, either coupling)."""
    labels = sorted(p.edges)
    kind = data.draw(st.sampled_from(["contract", "penrose", "twosum"] if len(labels) > 1
                                      else ["contract", "penrose"]))
    if kind != "twosum":
        (c1, p1), (c2, p2) = p.occurrences(data.draw(st.sampled_from(labels)))
        slots = [(TAIL, HEAD, "th"), (HEAD, TAIL, "ht")] if kind == "contract" else \
            [(TAIL, TAIL, "tt"), (HEAD, HEAD, "hh")]
        return {(c1, p1), (c2, p2)}, [((c1, p1, s1), (c2, p2, s2), n) for s1, s2, n in slots]
    f, e = data.draw(st.lists(st.sampled_from(labels), min_size=2, max_size=2, unique=True))
    fo1, fo2 = p.occurrences(f)
    t1, t2 = p.occurrences(e)
    if data.draw(st.booleans()):
        t1, t2 = t2, t1
    glue = [
        ((*fo1, TAIL), (*t1, TAIL), "m1"), ((*fo1, HEAD), (*t1, HEAD), "m2"),
        ((*fo2, TAIL), (*t2, TAIL), "m3"), ((*fo2, HEAD), (*t2, HEAD), "m4"),
    ]
    return {fo1, fo2, t1, t2}, glue


def assert_splices_agree(circles, removed, glue):
    got, trace = _splice(circles, removed, glue)
    want, (circle_map, created, occ_map, markers) = reference_splice(circles, removed, glue)
    assert got == want
    assert list(trace.circle_map.items()) == list(circle_map.items())
    assert trace.created_circles == created
    assert list(trace.occ_map.items()) == list(occ_map.items())
    assert list(trace.markers.items()) == list(markers.items())


@settings(deadline=None, max_examples=400)
@given(presentations(1, 6), st.data())
def test_splice_matches_two_walk_reference(p, data):
    removed, glue = glues(p, data)
    assert_splices_agree(p.circles, removed, glue)


def test_splice_pivots_a_symmetric_circle_at_its_least_occurrence():
    # Contracting e1 rebuilds (e0+, e0+), whose two rotations are equal:
    # only starting the walk at (0, 0) keeps each occurrence in place.
    p = ap([("e0", True), ("e0", True), ("e1", True), ("e1", False)])
    (c1, p1), (c2, p2) = p.occurrences("e1")
    glue = [((c1, p1, TAIL), (c2, p2, HEAD), "th"), ((c1, p1, HEAD), (c2, p2, TAIL), "ht")]
    assert_splices_agree(p.circles, {(c1, p1), (c2, p2)}, glue)
    circles, trace = _splice(p.circles, {(c1, p1), (c2, p2)}, glue)
    assert circles == ((Occ("e0", True), Occ("e0", True)),)
    assert trace.occ_map == {(0, 0): (0, 0), (0, 1): (0, 1)}


def test_surface_stats_golden_fixture():
    st = surface_stats(FIG_A)
    assert (st.v, st.e, st.k, st.b, st.euler_genus) == (2, 3, 1, 1, 2)
    assert st.orientable


def test_surface_stats_loops():
    st = surface_stats(ANTI_LOOP)
    assert (st.v, st.e, st.b, st.euler_genus, st.orientable) == (1, 1, 1, 1, False)
    st = surface_stats(ALIGNED_LOOP)
    assert (st.b, st.euler_genus, st.orientable) == (2, 0, True)


def test_surface_stats_edgeless_circle():
    st = surface_stats(ap([]))
    assert (st.v, st.e, st.k, st.b, st.euler_genus, st.orientable) == (1, 0, 1, 1, 0, True)


def test_genus_nonnegative_and_even_when_orientable():
    rng = random.Random(3)
    for _ in range(500):
        p = random_presentation(rng, max_edges=6)
        st = surface_stats(p)
        assert st.euler_genus >= 0
        if st.orientable:
            assert st.euler_genus % 2 == 0


def test_delete_golden():
    assert canonical_form(delete_edge(FIG_A, "e")) == canonical_form(FIG_DELETE)


def test_delete_keeps_circles_and_registry():
    out = delete_edge(ap([("e", True), ("e", True)]), "e")
    assert out.circles == ((),)
    assert out.edges == frozenset()


def test_unknown_edge():
    for op in (delete_edge, contract_edge, penrose_contract_edge):
        with pytest.raises(UnknownEdge):
            op(FIG_A, "nope")


def test_contract_golden():
    assert canonical_form(contract_edge(FIG_A, "e")) == canonical_form(FIG_CONTRACT)


def test_contract_loops():
    assert len(contract_edge(ALIGNED_LOOP, "e").circles) == 2
    assert len(contract_edge(ANTI_LOOP, "e").circles) == 1


def test_contract_merges_distinct_circles():
    p = ap([("e", True), ("f", True)], [("e", True), ("f", True)])
    assert len(contract_edge(p, "e").circles) == 1


def test_penrose_golden():
    assert canonical_form(penrose_contract_edge(FIG_A, "e")) == canonical_form(FIG_PENROSE)


def test_penrose_loops():
    assert len(penrose_contract_edge(ALIGNED_LOOP, "e").circles) == 1
    assert len(penrose_contract_edge(ANTI_LOOP, "e").circles) == 2


def test_ops_reduce_edges_and_stay_valid():
    rng = random.Random(4)
    for _ in range(60):
        p = random_presentation(rng, max_edges=5, min_edges=1)
        e = rng.choice(sorted(p.edges))
        for op in (delete_edge, contract_edge, penrose_contract_edge):
            out = op(p, e)
            validate(out)
            assert len(out.edges) == len(p.edges) - 1


def test_arrow_ops_commute_on_distinct_edges():
    rng = random.Random(5)
    ops = (delete_edge, contract_edge, penrose_contract_edge)
    for _ in range(60):
        p = random_presentation(rng, max_edges=5, min_edges=2)
        e, f = rng.sample(sorted(p.edges), 2)
        op1, op2 = rng.choice(ops), rng.choice(ops)
        a = canonical_form(op2(op1(p, e), f))
        b = canonical_form(op1(op2(p, f), e))
        assert a == b


def test_canonical_form_equates_redrawings():
    # relabel, reverse a circle, rotate, and flip one edge's two arrows
    other = FIG_A.relabel({"f": "q", "e": "w", "g": "r"})
    reversed_circle = tuple(reversed([o.reversed() for o in other.circles[0]]))
    rotated = other.circles[1][1:] + other.circles[1][:1]
    variant = ArrowPresentation.from_circles([rotated, reversed_circle])
    variant = variant.relabel({})  # no-op; keep registry fresh
    assert canonical_form(FIG_A) == canonical_form(variant)


def test_canonical_form_circle_order_irrelevant():
    p = ap([("e", True)], [("e", False), ("f", True), ("f", True)])
    q = ArrowPresentation.from_circles(tuple(reversed(p.circles)))
    assert canonical_form(p) == canonical_form(q)


def test_canonical_form_flips_both_arrows_of_an_edge():
    p = ap([("e", True), ("f", True)], [("e", True), ("f", True)])
    q = ap([("e", False), ("f", True)], [("e", False), ("f", True)])
    assert canonical_form(p) == canonical_form(q)


def test_canonical_form_distinguishes_loop_types():
    assert canonical_form(ALIGNED_LOOP) != canonical_form(ANTI_LOOP)


def test_canonical_form_idempotent_and_symmetry_invariant():
    rng = random.Random(6)
    for _ in range(40):
        p = random_presentation(rng, max_edges=4)
        c = canonical_form(p)
        assert canonical_form(c) == c
        # random symmetry image: permute circles, rotate, reflect, flip edges
        circles = list(p.circles)
        rng.shuffle(circles)
        image = []
        for circ in circles:
            circ = list(circ)
            if circ:
                k = rng.randrange(len(circ))
                circ = circ[k:] + circ[:k]
            if rng.random() < 0.5:
                circ = [o.reversed() for o in reversed(circ)]
            image.append(circ)
        q = ArrowPresentation.from_circles(image)
        flips = {l: f"r{l}" for l in p.edges if rng.random() < 0.5}
        # flipping both arrows of chosen edges
        q = ArrowPresentation.from_circles(
            [
                [o.reversed() if o.label in flips else o for o in circ]
                for circ in q.circles
            ]
        )
        assert canonical_form(q) == c


def test_canonical_form_edge_cap():
    circles = [[(f"e{i}", True) for i in range(9)], [(f"e{i}", True) for i in range(9)]]
    with pytest.raises(SizeLimitExceeded):
        canonical_form(ArrowPresentation.from_circles(circles))


def test_edge_cap_env_override(monkeypatch):
    circles = [[(f"e{i}", True) for i in range(9)], [(f"e{i}", True) for i in range(9)]]
    big = ArrowPresentation.from_circles(circles)
    monkeypatch.setenv("RIBBONTENSOR_EDGE_CAP", "9")
    canonical_form(big)  # allowed under the raised cap
    monkeypatch.delenv("RIBBONTENSOR_EDGE_CAP")
    with pytest.raises(SizeLimitExceeded):
        canonical_form(big)


def test_canonical_form_stays_in_the_equivalence_class():
    # equivalence preserves every surface invariant; a canonical form that
    # drifted out of the class would show up here
    rng = random.Random(7)
    for _ in range(60):
        p = random_presentation(rng, max_edges=4)
        c = canonical_form(p)
        sp, sc = surface_stats(p), surface_stats(c)
        assert (sp.v, sp.e, sp.k, sp.b, sp.euler_genus, sp.orientable) == (
            sc.v, sc.e, sc.k, sc.b, sc.euler_genus, sc.orientable
        )


@pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5"])
def test_edge_cap_rejects_bad_values(monkeypatch, value):
    monkeypatch.setenv("RIBBONTENSOR_EDGE_CAP", value)
    with pytest.raises(InvalidArgument, match="RIBBONTENSOR_EDGE_CAP"):
        edge_cap(8)


def test_edge_cap_default_and_override(monkeypatch):
    monkeypatch.delenv("RIBBONTENSOR_EDGE_CAP", raising=False)
    assert edge_cap(8) == 8
    monkeypatch.setenv("RIBBONTENSOR_EDGE_CAP", "1")
    assert edge_cap(8) == 1


# Each check breaks one invariant of the surgery and expects the error.
INVARIANT_SCRIPT = """
import sys
from ribbontensor import arrow
from ribbontensor.arrow import ArrowPresentation, _splice, edge_op_traced
from ribbontensor.errors import InvariantViolation
from ribbontensor.packaged import EdgeOpKind, natural_identification

if __debug__:
    sys.exit("assertions are on")
loop = ArrowPresentation.from_circles([[("e", True), ("e", True)]])


def contraction_creating_a_boundary():
    transfer = arrow._transfer_boundaries
    arrow._transfer_boundaries = lambda *args: (transfer(*args)[0], (99,))
    try:
        edge_op_traced.__wrapped__(loop, "e", "contract")
    finally:
        arrow._transfer_boundaries = transfer


checks = {
    # both occurrences removed and their ends never glued
    "splice": lambda: _splice(loop.circles, {(0, 0), (0, 1)}, []),
    "contract": contraction_creating_a_boundary,
    "natural_identification": lambda: natural_identification(
        loop, loop, "e", EdgeOpKind.DELETE
    ),
}
for name, check in checks.items():
    try:
        check()
    except InvariantViolation:
        continue
    sys.exit(f"{name}: no InvariantViolation")
print("ok")
"""


def test_invariants_survive_python_O():
    src = str(Path(ribbontensor.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", textwrap.dedent(INVARIANT_SCRIPT)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_no_module_imports_private_arrow_names():
    # arrow.py keeps its helpers private; every other module goes through
    # its public API (boundary_trace, edge_op_traced, two_sum_traced, ...).
    package = Path(ribbontensor.__file__).resolve().parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "arrow.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module in ("arrow", "ribbontensor.arrow"):
                offenders += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
            elif (
                isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id == "arrow"
            ):
                offenders.append(f"{path.name}: arrow.{node.attr}")
    assert not offenders
