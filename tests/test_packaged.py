"""Packaged presentations: partitions, the five operations, 2-sums, tensors,
and the one-edge basis presentations."""

import random
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ribbontensor import arrow
from ribbontensor.arrow import (
    ArrowPresentation,
    boundary_components,
    canonical_form,
    canonical_transforms,
    edge_op_traced,
    edge_surgery,
    surface_stats,
)
from ribbontensor.errors import (
    InvalidCoupling,
    InvariantViolation,
    MissingFactor,
    PartitionCoverError,
    PartitionOverlapError,
    UnknownEdge,
)
from ribbontensor.files import dumps_presentation, loads_presentation
from ribbontensor.packaged import (
    Coupling,
    EdgeOpKind,
    PackagedPresentation,
    Partition,
    _transfer,
    apply_edge_op,
    canonical_packaged,
    k_presentations,
    make_packaged,
    namespaced,
    tensor_product,
    two_sum,
    uniform_tensor,
)
from ribbontensor.randgen import random_packaged
from canonical_reference import (
    flat_code,
    rebuild_from_encoding,
    reference_canonical_form,
    reference_canonical_packaged,
)
from dag_reference import _strip_isolated
from subset_reference import find
from surgery_reference import as_dict, reference_form
from strategies import (
    packaged_presentations,
    packaged_with_empty_circles,
    presentations,
    symmetry_image,
)

K1, K2, K3, K4, K5 = k_presentations()
KINDS = (
    EdgeOpKind.DELETE,
    EdgeOpKind.CONTRACT,
    EdgeOpKind.PENROSE,
    EdgeOpKind.MERGE_DELETE,
    EdgeOpKind.MERGE_CONTRACT,
)

FIG_A = ArrowPresentation.from_circles(
    [[("f", True), ("e", True), ("g", True), ("e", True)], [("f", True), ("g", True)]]
)


def fresh_k(i):
    """A copy of the i-th basis presentation with a clash-free edge label."""
    k = k_presentations()[i]
    return PackagedPresentation(k.ap.relabel({"e": "zz"}), k.vparts, k.bparts)


def test_partition_defaults_and_errors():
    pg = make_packaged(FIG_A)
    assert len(pg.vparts.blocks) == 2 and len(pg.bparts.blocks) == 1
    with pytest.raises(PartitionCoverError):
        make_packaged(FIG_A, vblocks=[[0]])
    with pytest.raises(PartitionCoverError):
        make_packaged(FIG_A, vblocks=[[0, 1, 7]])
    with pytest.raises(PartitionOverlapError):
        make_packaged(FIG_A, vblocks=[[0, 1], [1]])
    assert len(make_packaged(FIG_A, vblocks=[[0, 1]]).vparts.blocks) == 1


def test_k_presentation_shapes():
    for k, (v, b, nv, nb) in zip(
        (K1, K2, K3, K4, K5),
        [(2, 1, 2, 1), (1, 2, 1, 2), (1, 1, 1, 1), (2, 1, 1, 1), (1, 2, 1, 1)],
    ):
        st = surface_stats(k.ap)
        assert (st.v, st.b, len(k.vparts.blocks), len(k.bparts.blocks)) == (v, b, nv, nb)
    assert surface_stats(K3.ap).euler_genus == 1


def test_natural_identification_delete_nonloop():
    ap = ArrowPresentation.from_circles([[("e", True), ("f", True)],
                                         [("e", True), ("f", True)]])
    trace = edge_op_traced(ap, "e", "delete")
    assert trace.presentation == ArrowPresentation.from_circles([[("f", True)], [("f", True)]])
    assert trace.circle_map == (0, 1)
    assert trace.created_circles == ()


def test_natural_identification_contract_nonloop_keeps_boundaries():
    ap = ArrowPresentation.from_circles([[("e", True), ("f", True)],
                                         [("e", True), ("f", True)]])
    from ribbontensor.arrow import contract_edge

    trace = edge_op_traced(ap, "e", "contract")
    assert trace.presentation == contract_edge(ap, "e")
    assert trace.created_boundaries == ()
    assert sorted(as_dict(trace.boundary_map)) == [b.id for b in boundary_components(ap)]
    assert trace.created_circles == (0,)


def test_natural_identification_delete_loop_creates_bare_boundary():
    ap = ArrowPresentation.from_circles([[("e", True), ("e", True)]])
    trace = edge_op_traced(ap, "e", "delete")
    assert trace.presentation == ArrowPresentation.from_circles([[]])
    assert as_dict(trace.boundary_map) == {}
    assert trace.created_boundaries == (0,)  # the emptied circle's boundary


def test_apply_edge_op_contract_k2():
    out = apply_edge_op(K2, "e", EdgeOpKind.CONTRACT)
    assert len(out.ap.circles) == 2
    assert len(out.vparts.blocks) == 1
    assert len(out.bparts.blocks) == 2


def test_apply_edge_op_penrose_k3():
    out = apply_edge_op(K3, "e", EdgeOpKind.PENROSE)
    assert len(out.ap.circles) == 2
    assert len(out.vparts.blocks) == 1
    assert len(out.bparts.blocks) == 1


def test_delete_equals_merge_delete_when_classes_merged():
    ap = ArrowPresentation.from_circles([[("e", True)], [("e", True)]])
    pg = make_packaged(ap, vblocks=[[0, 1]])
    a = apply_edge_op(pg, "e", EdgeOpKind.DELETE)
    b = apply_edge_op(pg, "e", EdgeOpKind.MERGE_DELETE)
    assert a == b


def test_apply_edge_op_unknown_edge():
    with pytest.raises(UnknownEdge):
        apply_edge_op(K1, "nope", EdgeOpKind.DELETE)


def test_two_sum_label_clash_rejected():
    with pytest.raises(InvalidCoupling):
        two_sum(K1, K2, Coupling("e", "e"))


def test_two_sum_vertex_count_example():
    # one-vertex presentation 2-summed with a three-vertex one gives two
    g = make_packaged(ArrowPresentation.from_circles([[("f", True), ("f", True)]]))
    h_ap = ArrowPresentation.from_circles(
        [[("e", True)], [("e", True), ("g", True)], [("g", True)]]
    )
    h = make_packaged(h_ap)
    out = two_sum(g, h, Coupling("f", "e"))
    assert len(out.ap.circles) == 2


def test_two_sum_vertex_counts():
    # Non-loop couplings always lose two circles.  Two coupled loops rebuild
    # into one or two circles (the one-circle case is the non-orientable
    # gluing, e.g. an anti-aligned loop against an aligned one).
    rng = random.Random(11)
    seen_loop_counts = set()
    for _ in range(60):
        pg = random_packaged(rng, max_edges=3, min_edges=1)
        ph0 = random_packaged(rng, max_edges=3, min_edges=1)
        ph = PackagedPresentation(
            ph0.ap.relabel({l: f"h{l}" for l in ph0.ap.edges}), ph0.vparts, ph0.bparts
        )
        f = rng.choice(sorted(pg.ap.edges))
        e = rng.choice(sorted(ph.ap.edges))
        out = two_sum(pg, ph, Coupling(f, e, rng.random() < 0.5))
        total = len(pg.ap.circles) + len(ph.ap.circles)
        (fc1, _), (fc2, _) = pg.ap.occurrences(f)
        (ec1, _), (ec2, _) = ph.ap.occurrences(e)
        if fc1 == fc2 and ec1 == ec2:
            assert len(out.ap.circles) in (total - 1, total)
            seen_loop_counts.add(total - len(out.ap.circles))
        else:
            assert len(out.ap.circles) == total - 2
    assert seen_loop_counts == {0, 1}


def test_two_sum_with_k5_is_merge_contract():
    rng = random.Random(12)
    for _ in range(10):
        pg = random_packaged(rng, max_edges=4, min_edges=1)
        f = rng.choice(sorted(pg.ap.edges))
        lhs = canonical_packaged(two_sum(pg, fresh_k(4), Coupling(f, "zz")))
        rhs = canonical_packaged(apply_edge_op(pg, f, EdgeOpKind.MERGE_CONTRACT))
        assert lhs == rhs


@settings(deadline=None, max_examples=40)
@given(packaged_presentations(1, 4), st.data())
def test_two_sum_realises_all_five_operations(pg, data):
    f = data.draw(st.sampled_from(sorted(pg.ap.edges)))
    swap = data.draw(st.booleans())
    for i, kind in enumerate(KINDS):
        lhs = canonical_packaged(two_sum(pg, fresh_k(i), Coupling(f, "zz", swap)))
        assert lhs == canonical_packaged(apply_edge_op(pg, f, kind)), kind


@settings(deadline=None, max_examples=200)
@given(packaged_presentations(2, 5), st.data())
def test_packaged_ops_commute_on_distinct_edges(pg, data):
    e, f = data.draw(st.permutations(sorted(pg.ap.edges)))[:2]
    k1, k2 = data.draw(st.sampled_from(KINDS)), data.draw(st.sampled_from(KINDS))
    a = apply_edge_op(apply_edge_op(pg, e, k1), f, k2)
    b = apply_edge_op(apply_edge_op(pg, f, k2), e, k1)
    assert canonical_packaged(a) == canonical_packaged(b)


def test_two_sum_commutative():
    rng = random.Random(15)
    for _ in range(25):
        pg = random_packaged(rng, max_edges=3, min_edges=1)
        ph0 = random_packaged(rng, max_edges=3, min_edges=1)
        ph = PackagedPresentation(
            ph0.ap.relabel({l: f"h{l}" for l in ph0.ap.edges}), ph0.vparts, ph0.bparts
        )
        f = rng.choice(sorted(pg.ap.edges))
        e = rng.choice(sorted(ph.ap.edges))
        swap = rng.random() < 0.5
        a = canonical_packaged(two_sum(pg, ph, Coupling(f, e, swap)))
        b = canonical_packaged(two_sum(ph, pg, Coupling(e, f, swap)))
        assert a == b


def test_two_sum_associative():
    rng = random.Random(16)
    for _ in range(15):
        pg = random_packaged(rng, max_edges=2, min_edges=1)
        ph0 = random_packaged(rng, max_edges=3, min_edges=2)
        pk0 = random_packaged(rng, max_edges=2, min_edges=1)
        ph = PackagedPresentation(
            ph0.ap.relabel({l: f"h{l}" for l in ph0.ap.edges}), ph0.vparts, ph0.bparts
        )
        pk = PackagedPresentation(
            pk0.ap.relabel({l: f"k{l}" for l in pk0.ap.edges}), pk0.vparts, pk0.bparts
        )
        f = rng.choice(sorted(pg.ap.edges))
        e, g = rng.sample(sorted(ph.ap.edges), 2)
        h = rng.choice(sorted(pk.ap.edges))
        c1 = Coupling(f, e, rng.random() < 0.5)
        c2 = Coupling(g, h, rng.random() < 0.5)
        a = canonical_packaged(two_sum(pg, two_sum(ph, pk, c2), c1))
        b = canonical_packaged(two_sum(two_sum(pg, ph, c1), pk, c2))
        assert a == b


def _transport_coupling(ph, g, kind, c):
    # Rebuilding circles can swap which of the target edge's occurrences is
    # listed first; the coupling returned denotes the same arrow bijection.
    new_ap, trace = edge_surgery(ph.ap, g, kind.value.removeprefix("merge-"))
    first = ph.ap.occurrences(c.target)[0]
    flipped = reference_form(ph.ap, new_ap, trace)[2][first] != new_ap.occurrences(c.target)[0]
    return Coupling(c.source, c.target, c.swap ^ flipped)


def test_two_sum_exchanges_with_operations():
    # the coupling must denote the same bijection on both sides; operating on
    # the factor can reorder the target edge's occurrences
    rng = random.Random(17)
    for _ in range(30):
        pg = random_packaged(rng, max_edges=3, min_edges=1)
        ph0 = random_packaged(rng, max_edges=3, min_edges=2)
        ph = PackagedPresentation(
            ph0.ap.relabel({l: f"h{l}" for l in ph0.ap.edges}), ph0.vparts, ph0.bparts
        )
        f = rng.choice(sorted(pg.ap.edges))
        e, g = rng.sample(sorted(ph.ap.edges), 2)
        c = Coupling(f, e, rng.random() < 0.5)
        kind = rng.choice(KINDS)
        a = canonical_packaged(apply_edge_op(two_sum(pg, ph, c), g, kind))
        b = canonical_packaged(
            two_sum(pg, apply_edge_op(ph, g, kind), _transport_coupling(ph, g, kind, c))
        )
        assert a == b


def _partition_ok(part: Partition):
    items = [x for b in part.blocks for x in b]
    assert len(items) == len(set(items))
    assert set(items) == set(range(len(part.labels)))


def _canonical_labels(part: Partition):
    """``part.labels`` is a restricted-growth string, so rebuilding the
    partition from its blocks gives the same tuple."""
    seen = -1
    for b in part.labels:
        assert 0 <= b <= seen + 1
        seen = max(seen, b)
    assert Partition.make(part.blocks, range(len(part.labels))) == part


def reference_fuse(partition, item_map, created, old_groups, new_groups):
    """The tagged union-find the partition transfer replaced, kept as an
    oracle: old items ``("o", x)`` and new items ``("n", x)`` are united
    block-wise and group-wise, dead items take part in the chaining and are
    then dropped."""
    parent = {}

    def union(items):
        if not items:  # an empty group merges nothing
            return
        root = find(parent, items[0])
        for other in items[1:]:
            r = find(parent, other)
            if r != root:
                parent[r] = root

    for block in partition.blocks:
        union([("o", x) for x in block])
    for old_group, new_group in zip(old_groups, new_groups):
        union([("o", x) for x in old_group] + [("n", x) for x in new_group])
    comps = {}
    for x in range(len(partition.labels)):
        members = comps.setdefault(find(parent, ("o", x)), set())
        if item_map[x] >= 0:
            members.add(item_map[x])
    for c in created:
        comps.setdefault(find(parent, ("n", c)), set()).add(c)
    blocks = [b for b in comps.values() if b]
    return Partition.make(blocks, range(len(item_map) - item_map.count(-1) + len(created)))


@st.composite
def surgeries(draw):
    """A partition, an injective item map (-1 for an item that dies), created
    items, and zero to two merge groups of old and created items."""
    n = draw(st.integers(0, 8))
    blocks = []
    for i in range(n):  # a restricted growth string
        b = draw(st.integers(0, len(blocks)))
        if b == len(blocks):
            blocks.append([])
        blocks[b].append(i)
    partition = Partition.make(blocks or None, range(n))
    alive = [x for x in range(n) if draw(st.booleans())]
    targets = draw(st.permutations(range(len(alive))))
    item_map = [-1] * n
    for x, y in zip(alive, targets):
        item_map[x] = y
    created = tuple(range(len(alive), len(alive) + draw(st.integers(0, 4))))
    groups = draw(st.lists(
        st.tuples(
            st.sets(st.sampled_from(range(n))) if n else st.just(set()),
            st.sets(st.sampled_from(created)) if created else st.just(set()),
        ),
        max_size=2,
    ))
    return partition, item_map, created, groups


@settings(deadline=None, max_examples=500)
@given(surgeries())
# two groups chaining only through the block {0, 1}, all of whose members die
@example((Partition.make([[0, 1], [2], [3]], range(4)), [-1, -1, 0, 1], (2, 3),
          [({0, 2}, {2}), ({1, 3}, {3})]))
def test_partition_transfer_matches_tagged_union_find(surgery):
    partition, item_map, created, groups = surgery
    got = Partition(_transfer(partition.labels, item_map, created, groups))
    want = reference_fuse(
        partition, item_map, created, [old for old, _ in groups], [new for _, new in groups]
    )
    assert got == want
    if not (created or groups):
        assert partition.transfer(item_map) == want
    _partition_ok(got)
    _canonical_labels(got)


@pytest.mark.parametrize(
    "item_map, created",
    [([0, -1, 2], ()), ([0, 1, -1], (3,)), ([1, 1, -1], ()), ([0, -1, -1], (0,)),
     ([-2, 0, -1], ())],
    ids=["gap", "gap-created", "repeat", "repeat-created", "negative"],
)
def test_partition_transfer_rejects_targets_that_are_not_0_to_n(item_map, created):
    with pytest.raises(InvariantViolation):
        _transfer(Partition.make([[0, 1], [2]], range(3)).labels, item_map, created)


@pytest.mark.parametrize("universe", [range(1, 4), [0, 2], [-1, 0]])
def test_partition_universe_must_be_0_to_n(universe):
    with pytest.raises(PartitionCoverError):
        Partition.make(None, universe)
    with pytest.raises(PartitionCoverError):
        Partition.make([list(universe)], universe)


def test_partition_transfer_chains_groups_through_a_dead_block():
    part = Partition.make([[0, 1], [2], [3]], range(4))
    got = _transfer(part.labels, [-1, -1, 0, 1], (2, 3), [({0, 2}, {2}), ({1, 3}, {3})])
    assert Partition(got).blocks == ((0, 1, 2, 3),)
    apart = _transfer(part.labels, [-1, -1, 0, 1], (2, 3))
    assert Partition(apart).blocks == ((0,), (1,), (2,), (3,))


def test_partitions_stay_well_formed():
    rng = random.Random(18)
    for _ in range(60):
        pg = random_packaged(rng, max_edges=4, min_edges=1)
        e = rng.choice(sorted(pg.ap.edges))
        out = apply_edge_op(pg, e, rng.choice(KINDS))
        _partition_ok(out.vparts)
        _partition_ok(out.bparts)
        assert len(out.vparts.labels) == len(out.ap.circles)
        assert len(out.bparts.labels) == len(boundary_components(out.ap))
    # 2-sums write both sides' labels into one string, and stripping empty
    # circles moves the partitions through a transfer
    rng = random.Random(21)
    stripped_some = 0
    for _ in range(40):
        pg = random_packaged(rng, max_edges=3, min_edges=1)
        ph0 = random_packaged(rng, max_edges=3, min_edges=1)
        ph = PackagedPresentation(
            ph0.ap.relabel({l: f"h{l}" for l in ph0.ap.edges}), ph0.vparts, ph0.bparts
        )
        c = Coupling(rng.choice(sorted(pg.ap.edges)), rng.choice(sorted(ph.ap.edges)))
        summed = two_sum(pg, ph, c)
        stripped, _ = _strip_isolated(apply_edge_op(pg, c.source, EdgeOpKind.DELETE))
        stripped_some += len(stripped.ap.circles) < len(pg.ap.circles)
        for part in (summed.vparts, summed.bparts, stripped.vparts, stripped.bparts):
            _partition_ok(part)
            _canonical_labels(part)
        assert len(summed.bparts.labels) == len(boundary_components(summed.ap))
    assert stripped_some


def test_tensor_all_k2_contracts_everything():
    rng = random.Random(19)
    for _ in range(10):
        pg = random_packaged(rng, max_edges=3, min_edges=1)
        out = tensor_product(pg, {f: (K2, "e") for f in pg.ap.edges})
        expect = pg
        for f in sorted(pg.ap.edges):
            expect = apply_edge_op(expect, f, EdgeOpKind.CONTRACT)
        assert canonical_packaged(out) == canonical_packaged(expect)


def test_tensor_all_k1_deletes_everything():
    rng = random.Random(20)
    for _ in range(10):
        pg = random_packaged(rng, max_edges=3, min_edges=1)
        out = tensor_product(pg, {f: (K1, "e") for f in pg.ap.edges})
        assert not out.ap.edges
        assert len(out.ap.circles) == len(pg.ap.circles)


def test_tensor_single_edge_is_two_sum():
    pg = make_packaged(ArrowPresentation.from_circles([[("f", True), ("f", False)]]))
    ph = make_packaged(
        ArrowPresentation.from_circles([[("e", True)], [("e", True), ("g", True), ("g", True)]])
    )
    a = tensor_product(pg, {"f": (ph, "e")})
    ns = PackagedPresentation(
        ph.ap.relabel({l: f"f.{l}" for l in ph.ap.edges}), ph.vparts, ph.bparts
    )
    b = two_sum(pg, ns, Coupling("f", "f.e"))
    assert a == b


def test_tensor_missing_factor():
    pg = make_packaged(FIG_A)
    with pytest.raises(MissingFactor):
        tensor_product(pg, {"e": (K1, "e")})


def test_uniform_tensor_deterministic():
    pg = make_packaged(FIG_A)
    ph = k_presentations()[1]
    a = uniform_tensor(pg, ph, "e", {"e": True, "f": False, "g": True})
    b = uniform_tensor(pg, ph, "e", {"e": True, "f": False, "g": True})
    assert a == b


def test_canonical_packaged_sees_partitions():
    # K2 and K5 share the arrow presentation but not the boundary partition
    assert canonical_packaged(K2) != canonical_packaged(K5)
    assert canonical_packaged(K2).ap == canonical_packaged(K5).ap


def test_canonical_packaged_invariant_under_symmetries():
    # apply a random equivalence move (circle permutation, rotations,
    # reflections, per-edge arrow flips, relabelling), transport the
    # partitions through it by token matching, and demand equal canonicals
    rng = random.Random(27)
    for _ in range(60):
        pg = random_packaged(rng, max_edges=4, min_edges=0)
        assert canonical_packaged(symmetry_image(pg, rng)) == canonical_packaged(pg)


@st.composite
def canonical_pairs(draw):
    """Two packaged presentations of up to 7 edges with empty circles, under
    singleton or random partitions: a presentation and a random symmetry
    image of it, or two independent draws."""
    p = draw(packaged_with_empty_circles(max_edges=7, max_empty=5))
    if draw(st.booleans()):
        return p, symmetry_image(p, draw(st.randoms(use_true_random=False)))
    return p, draw(packaged_with_empty_circles(max_edges=7, max_empty=5))


def _with_image(pg, seed):
    return pg, symmetry_image(pg, random.Random(seed))


@settings(deadline=None, max_examples=150)
@given(canonical_pairs())
@example(_with_image(
    make_packaged(ArrowPresentation.from_circles([[("e", True), ("e", True)]] + [[]] * 6)), 1
))
@example(_with_image(
    make_packaged(
        ArrowPresentation.from_circles([[("e", True)], [("e", False)]] + [[]] * 5),
        [[0, 2, 3], [1], [4], [5], [6]], [[0], [1], [2], [3, 4], [5]],
    ),
    2,
))
def test_canonical_forms_agree_with_the_backtracking_reference(pair):
    p, q = pair
    assert (canonical_form(p.ap) == canonical_form(q.ap)) == (
        reference_canonical_form(p.ap) == reference_canonical_form(q.ap)
    )
    assert (canonical_packaged(p) == canonical_packaged(q)) == (
        reference_canonical_packaged(p) == reference_canonical_packaged(q)
    )


# Two equal six-edge components: in the canonical form the second one's
# labels (e6..e11) sort differently as strings from the first one's, so its
# circle is stored at another rotation and its boundaries are numbered in
# another order.
_SIX = [("3", False), ("1", True), ("1", False), ("0", False), ("0", False), ("3", False),
        ("4", True), ("5", False), ("2", False), ("4", False), ("2", False), ("5", True)]
_TWO_SIXES = make_packaged(
    ArrowPresentation.from_circles([[(f"{c}{label}", f) for label, f in _SIX] for c in "ab"]),
    [[0, 1]], [[0, 1, 4], [2, 5], [3]],
)


@st.composite
def repeated_components(draw):
    """A presentation (empty circles, loops and anti-aligned loops likely)
    beside 0-2 relabelled copies of itself, so that equal components are
    likely, and 0-3 more empty circles."""
    circles = [list(circ) for circ in draw(presentations(0, 5)).circles]
    circles += [
        [(f"c{i}{label}", forward) for label, forward in circ]
        for i in range(draw(st.integers(0, 2)))
        for circ in circles
    ]
    return ArrowPresentation.from_circles(circles + [[]] * draw(st.integers(0, 3)))


# An anti-aligned loop and two copies of a two-circle component whose
# circles are joined by two edges, the second read against the first.
_BACKWARD = ArrowPresentation.from_circles(
    [[("e", True), ("e", False)], []]
    + [[(f"{c}f", True), (f"{c}g", True)] for c in "ab"]
    + [[(f"{c}f", True), (f"{c}g", False)] for c in "ab"]
)


def test_the_backward_example_reads_a_second_emission_backward():
    # some label's second emission in the least code has bit 1
    codes = [code for code, _ in canonical_transforms(_BACKWARD)[1]]
    assert any(type(item) is tuple and item[1] for code in codes for item in code)


@settings(deadline=None, max_examples=300)
@given(repeated_components())
@example(_BACKWARD)
@example(_TWO_SIXES.ap)
def test_canonical_transforms_reads_what_the_reference_decoder_reads(ap):
    # the form and its rotations, built in one pass over the sorted codes,
    # are those the flat code's decoder gives on the same components
    form, components, offsets = canonical_transforms(ap)
    empty = sum(not circ for circ in ap.circles)
    assert (form, offsets) == rebuild_from_encoding(flat_code(components), empty)


@settings(deadline=None, max_examples=100)
@given(packaged_presentations(0, 6))
@example(_TWO_SIXES)
def test_canonical_packaged_is_idempotent(pg):
    # a form is equivalent to its input, so canonicalising it changes nothing
    canon = canonical_packaged(pg)
    assert canonical_packaged(canon) == canon


@pytest.mark.parametrize("vblocks", [None, [[0], [1], list(range(2, 14))]])
def test_many_bare_circles_canonicalise_quickly(vblocks):
    two_edges = [[("a", True), ("b", True)], [("a", False), ("b", True)]]
    pg = make_packaged(ArrowPresentation.from_circles(two_edges + [[]] * 12), vblocks)
    t0 = time.perf_counter()
    canon = canonical_packaged(pg)
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.05, f"{elapsed:.3f} s"
    assert sum(not circ for circ in canon.ap.circles) == 12
    assert canon.vparts == Partition.make(vblocks, range(14))


@pytest.mark.parametrize("side", ["vertex", "boundary", "anchored"])
def test_empty_circles_in_shared_blocks_canonicalise_quickly(side):
    # a loop (two token boundaries) and 10 empty circles paired up in five
    # two-member blocks: 113,400 orders of the empty circles.  Anchored, the
    # circles also share the loop's vertex block, so only the pairs of bare
    # boundaries tell them apart.
    loop = ArrowPresentation.from_circles([[("e", True), ("e", True)]] + [[]] * 10)
    pairs = [[2 * i + 1, 2 * i + 2] for i in range(5)]
    bare_pairs = [[0], [1]] + [[b + 1 for b in pair] for pair in pairs]
    if side == "vertex":
        pg = make_packaged(loop, [[0]] + pairs)
    elif side == "boundary":
        pg = make_packaged(loop, None, bare_pairs)
    else:
        pg = make_packaged(loop, [list(range(11))], bare_pairs)
    t0 = time.perf_counter()
    canon = canonical_packaged(pg)
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.05, f"{elapsed:.3f} s"
    rng = random.Random(28)
    for _ in range(5):
        assert canonical_packaged(symmetry_image(pg, rng)) == canon


def test_equal_components_canonicalise_quickly():
    # seven equal one-edge components, two of whose circles share a vertex
    # block: 7! orders of the components times 4^7 least walks
    ap = ArrowPresentation.from_circles([[(f"e{i}", True)] for i in range(7) for _ in range(2)])
    assert len(canonical_form(ap).circles) == 14
    assert canonical_packaged(make_packaged(ap)).ap == canonical_form(ap)
    pg = make_packaged(ap, [[0, 1]] + [[i] for i in range(2, 14)])
    t0 = time.perf_counter()
    canon = canonical_packaged(pg)
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.05, f"{elapsed:.3f} s"
    rng = random.Random(29)
    for _ in range(5):
        assert canonical_packaged(symmetry_image(pg, rng)) == canon


def _grown(ap):
    """Every presentation with one more edge than ``ap``: its first arrow
    forward anywhere (possibly on a new circle), then its second arrow
    either way anywhere."""

    def insertions(circles, occ):
        for ci, circ in enumerate(circles):
            for p in range(len(circ)):
                yield circles[:ci] + [circ[:p] + [occ] + circ[p:]] + circles[ci + 1:]
        yield circles + [[occ]]

    for first in insertions([list(circ) for circ in ap.circles], ("new", True)):
        for forward in (True, False):
            for second in insertions(first, ("new", forward)):
                yield ArrowPresentation.from_circles(second)


def _partitions(n):
    """Every partition of 0..n-1."""
    strings = [()]
    for _ in range(n):
        strings = [s + (b,) for s in strings for b in range(max(s, default=-1) + 2)]
    return [Partition(s) for s in strings]


def test_class_counts_up_to_three_edges():
    # Classes without empty circles, grown edge by edge and deduplicated by
    # canonical_form, then given every pair of partitions and deduplicated
    # by canonical_packaged.  The counts match the exhaustive enumeration
    # over every least walk and order of equal components.
    arrow_classes = [ArrowPresentation.from_circles([])]
    counts = []
    for _ in range(3):
        arrow_classes = list({canonical_form(g) for ap in arrow_classes for g in _grown(ap)})
        packaged_classes = {
            canonical_packaged(PackagedPresentation(ap, vparts, bparts))
            for ap in arrow_classes
            for vparts in _partitions(len(ap.circles))
            for bparts in _partitions(len(boundary_components(ap)))
        }
        counts.append((len(arrow_classes), len(packaged_classes)))
    assert counts == [(3, 5), (17, 91), (106, 1838)]


def test_surgery_cache_bytes_per_entry():
    # Every operation on every edge of 21 seeded tensor products of the
    # surgery workload's sizes (hosts of 2-8 edges, factors of 2-4), then
    # tracemalloc's count of what clearing each cache frees, divided by its
    # entries.  edge_op_traced goes first, so its result presentations,
    # which boundary_trace also keys, count for boundary_trace.  The
    # caches' docstrings quote these bounds.
    rng = random.Random(1)
    tensors = []
    for i in range(21):
        host = random_packaged(rng, max_edges=2 + i % 7, min_edges=2 + i % 7)
        factor = random_packaged(rng, max_edges=2 + i % 3, min_edges=2 + i % 3)
        e = rng.choice(sorted(factor.ap.edges))
        swaps = {f: rng.random() < 0.5 for f in sorted(host.ap.edges)}
        tensors.append(uniform_tensor(host, factor, e, swaps))
    caches = (arrow.edge_op_traced, arrow.boundary_trace)
    for cache in caches:
        cache.cache_clear()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        for tensor in tensors:
            for label in sorted(tensor.ap.edges):
                for kind in EdgeOpKind:
                    apply_edge_op(tensor, label, kind)
        per_entry = {}
        for cache in caches:
            entries = cache.cache_info().currsize
            before = tracemalloc.get_traced_memory()[0]
            cache.cache_clear()
            per_entry[cache.__name__] = (before - tracemalloc.get_traced_memory()[0]) / entries
    finally:
        if not tracing:
            tracemalloc.stop()
    # about 360 and 2,850 bytes on CPython 3.11
    assert per_entry["edge_op_traced"] < 1500, per_entry
    assert per_entry["boundary_trace"] < 3600, per_entry
    # at the pinned sizes the entry bounds admit about 3.7 MB and 96 KB
    assert arrow.boundary_trace.cache_info().maxsize * 3600 < 4e6
    assert arrow.edge_op_traced.cache_info().maxsize * 1500 < 0.1e6


def test_surgery_caches_evict_exactly():
    # The 2-sums of 42 seeded tensor products of the surgery workload's
    # sizes and every operation on every edge of each make more distinct
    # presentations and surgeries than either cache holds, so both evict.
    # Each result must equal the one computed again with both caches
    # cleared.
    caches = (arrow.boundary_trace, arrow.edge_op_traced)
    for cache in caches:
        cache.cache_clear()
    rng = random.Random(2)
    calls = []  # (function, args, result)
    for i in range(42):
        host = random_packaged(rng, max_edges=2 + i % 7, min_edges=2 + i % 7)
        factor = random_packaged(rng, max_edges=2 + i % 3, min_edges=2 + i % 3)
        e = rng.choice(sorted(factor.ap.edges))
        # uniform_tensor's 2-sums, one at a time
        tensor = host
        for f in sorted(host.ap.edges):
            args = (tensor, namespaced(factor, f), Coupling(f, f"{f}.{e}", rng.random() < 0.5))
            tensor = two_sum(*args)
            calls.append((two_sum, args, tensor))
        for label in sorted(tensor.ap.edges):
            for kind in EdgeOpKind:
                calls.append((apply_edge_op, (tensor, label, kind), apply_edge_op(tensor, label, kind)))
    for cache in caches:
        info = cache.cache_info()
        assert info.misses > info.maxsize, (cache.__name__, info)
    for fn, args, result in calls:
        for cache in caches:
            cache.cache_clear()
        assert fn(*args) == result, (fn.__name__, args)


# ---- presentation files ----------------------------------------------------


@settings(deadline=None, max_examples=100)
@given(packaged_presentations(0, 5))
def test_presentation_file_round_trip(pg):
    text = dumps_presentation(pg)
    assert loads_presentation(text) == pg
    assert dumps_presentation(loads_presentation(text)) == text
