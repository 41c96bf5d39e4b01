"""Packaged presentations: partitions, the five operations, 2-sums, tensors,
and the one-edge basis presentations."""

import random
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ribbontensor import arrow, packaged
from ribbontensor.arrow import (
    ArrowPresentation,
    boundary_components,
    boundary_trace,
    find,
    surface_stats,
)
from ribbontensor.errors import (
    InvalidCoupling,
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
    apply_edge_op,
    canonical_packaged,
    k_presentations,
    make_packaged,
    natural_identification,
    tensor_product,
    two_sum,
    uniform_tensor,
)
from ribbontensor.randgen import random_packaged
from strategies import packaged_presentations, packaged_with_empty_circles

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
    assert len(pg.vparts) == 2 and len(pg.bparts) == 1
    with pytest.raises(PartitionCoverError):
        make_packaged(FIG_A, vblocks=[[0]])
    with pytest.raises(PartitionCoverError):
        make_packaged(FIG_A, vblocks=[[0, 1, 7]])
    with pytest.raises(PartitionOverlapError):
        make_packaged(FIG_A, vblocks=[[0, 1], [1]])
    assert len(make_packaged(FIG_A, vblocks=[[0, 1]]).vparts) == 1


def test_k_presentation_shapes():
    for k, (v, b, nv, nb) in zip(
        (K1, K2, K3, K4, K5),
        [(2, 1, 2, 1), (1, 2, 1, 2), (1, 1, 1, 1), (2, 1, 1, 1), (1, 2, 1, 1)],
    ):
        st = surface_stats(k.ap)
        assert (st.v, st.b, len(k.vparts), len(k.bparts)) == (v, b, nv, nb)
    assert surface_stats(K3.ap).euler_genus == 1


def test_natural_identification_delete_nonloop():
    ap = ArrowPresentation.from_circles([[("e", True), ("f", True)],
                                         [("e", True), ("f", True)]])
    after_ap = ArrowPresentation.from_circles([[("f", True)], [("f", True)]])
    trace = natural_identification(ap, after_ap, "e", EdgeOpKind.DELETE)
    assert trace.vertex_map == {0: 0, 1: 1}
    assert trace.created_vertices == ()


def test_natural_identification_contract_nonloop_keeps_boundaries():
    ap = ArrowPresentation.from_circles([[("e", True), ("f", True)],
                                         [("e", True), ("f", True)]])
    from ribbontensor.arrow import contract_edge

    after = contract_edge(ap, "e")
    trace = natural_identification(ap, after, "e", EdgeOpKind.CONTRACT)
    assert trace.created_boundaries == ()
    assert sorted(trace.boundary_map) == [b.id for b in boundary_components(ap)]
    assert trace.created_vertices == (0,)


def test_natural_identification_delete_loop_creates_bare_boundary():
    ap = ArrowPresentation.from_circles([[("e", True), ("e", True)]])
    after = ArrowPresentation.from_circles([[]])
    trace = natural_identification(ap, after, "e", EdgeOpKind.DELETE)
    assert trace.boundary_map == {}
    assert trace.created_boundaries == (0,)  # the emptied circle's boundary


def test_apply_edge_op_contract_k2():
    out = apply_edge_op(K2, "e", EdgeOpKind.CONTRACT)
    assert len(out.ap.circles) == 2
    assert len(out.vparts) == 1
    assert len(out.bparts) == 2


def test_apply_edge_op_penrose_k3():
    out = apply_edge_op(K3, "e", EdgeOpKind.PENROSE)
    assert len(out.ap.circles) == 2
    assert len(out.vparts) == 1
    assert len(out.bparts) == 1


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


def test_two_sum_exchanges_with_operations():
    # the coupling must denote the same bijection on both sides; operating on
    # the factor can reorder the target edge's occurrences
    from ribbontensor.packaged import transport_coupling

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
            two_sum(pg, apply_edge_op(ph, g, kind), transport_coupling(ph, g, kind, c))
        )
        assert a == b


def _partition_ok(part: Partition):
    items = [x for b in part.blocks for x in b]
    assert len(items) == len(set(items))
    assert set(items) == set(part.universe)


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
    for x in partition.universe:
        members = comps.setdefault(find(parent, ("o", x)), set())
        if x in item_map:
            members.add(item_map[x])
    for c in created:
        comps.setdefault(find(parent, ("n", c)), set()).add(c)
    blocks = frozenset(frozenset(b) for b in comps.values() if b)
    return Partition(blocks, frozenset(item_map.values()) | frozenset(created))


@st.composite
def surgeries(draw):
    """A partition, an injective item map that kills some items, created
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
    item_map = dict(zip(alive, targets))
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
@example((Partition.make([[0, 1], [2], [3]], range(4)), {2: 0, 3: 1}, (2, 3),
          [({0, 2}, {2}), ({1, 3}, {3})]))
def test_partition_transfer_matches_tagged_union_find(surgery):
    partition, item_map, created, groups = surgery
    got = partition.transfer(item_map, created, groups)
    want = reference_fuse(
        partition, item_map, created, [old for old, _ in groups], [new for _, new in groups]
    )
    assert got == want
    _partition_ok(got)


def test_partition_transfer_chains_groups_through_a_dead_block():
    part = Partition.make([[0, 1], [2], [3]], range(4))
    got = part.transfer({2: 0, 3: 1}, (2, 3), [({0, 2}, {2}), ({1, 3}, {3})])
    assert got.sorted_blocks() == ((0, 1, 2, 3),)
    assert part.transfer({2: 0, 3: 1}, (2, 3)).sorted_blocks() == ((0,), (1,), (2,), (3,))


def test_partitions_stay_well_formed():
    rng = random.Random(18)
    for _ in range(60):
        pg = random_packaged(rng, max_edges=4, min_edges=1)
        e = rng.choice(sorted(pg.ap.edges))
        out = apply_edge_op(pg, e, rng.choice(KINDS))
        _partition_ok(out.vparts)
        _partition_ok(out.bparts)
        assert out.vparts.universe == frozenset(range(len(out.ap.circles)))
        assert out.bparts.universe == frozenset(
            range(len(boundary_components(out.ap)))
        )


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
    from ribbontensor.arrow import Occ

    for _ in range(60):
        pg = random_packaged(rng, max_edges=4, min_edges=0)
        n = len(pg.ap.circles)
        perm = list(range(n))
        rng.shuffle(perm)  # image position of old circle i is perm[i]
        flips = {l for l in pg.ap.edges if rng.random() < 0.5}
        rename = {l: f"r{l}" for l in pg.ap.edges if rng.random() < 0.5}
        image_circles = [None] * n
        token_map = {}
        for ci, circ in enumerate(pg.ap.circles):
            k = len(circ)
            rot = rng.randrange(k) if k else 0
            reflect = rng.random() < 0.5
            occs = []
            for newp in range(k):
                p = (rot - newp) % k if reflect else (rot + newp) % k
                occ = circ[p]
                forward = occ.forward ^ reflect ^ (occ.label in flips)
                occs.append(Occ(rename.get(occ.label, occ.label), forward))
                swap_slots = occ.label in flips
                for s in (0, 1):
                    token_map[(ci, p, s)] = (perm[ci], newp, (1 - s) if swap_slots else s)
            image_circles[perm[ci]] = occs
        image_ap = ArrowPresentation.from_circles(image_circles)
        # from_circles renormalises rotations: recover each circle's offset
        from ribbontensor.arrow import _rotmin

        for ci, circ in enumerate(pg.ap.circles):
            raw = image_circles[perm[ci]]
            _, off = _rotmin(tuple(raw))
            k = len(raw)
            for p in range(k):
                for s in (0, 1):
                    nc, np_, ns = token_map[(ci, p, s)]
                    token_map[(ci, p, s)] = (nc, (np_ - off) % k, ns)
        old_trace = boundary_trace(pg.ap)
        new_trace = boundary_trace(image_ap)
        new_bds = new_trace.components
        new_index = {}
        for bd in new_bds:
            if bd.circle is not None:
                new_index[("bare", bd.circle)] = bd.id
            for t in bd.crossings:
                new_index[new_trace.endpoint(t)] = bd.id
        bd_map = {}
        for bd in old_trace.components:
            if bd.circle is not None:
                bd_map[bd.id] = new_index[("bare", perm[bd.circle])]
            else:
                bd_map[bd.id] = new_index[token_map[old_trace.endpoint(bd.crossings[0])]]
        image = PackagedPresentation(
            image_ap,
            Partition(
                frozenset(frozenset(perm[x] for x in b) for b in pg.vparts.blocks),
                frozenset(range(n)),
            ),
            Partition(
                frozenset(frozenset(bd_map[x] for x in b) for b in pg.bparts.blocks),
                frozenset(range(len(new_bds))),
            ),
        )
        assert canonical_packaged(image) == canonical_packaged(pg)


def _grouped_by_blocks(pg, bare_to_bd):
    """The empty-circle grouping that keeps only circles with the same vertex
    block and the same boundary block together, so that every order of the
    singleton ones is tried."""
    groups = {}
    for ci, circ in enumerate(pg.ap.circles):
        if not circ:
            sig = (pg.vparts.block_of(ci), pg.bparts.block_of(bare_to_bd[ci]))
            groups.setdefault(sig, []).append(ci)
    return list(groups.values())


@settings(deadline=None, max_examples=200)
@given(packaged_with_empty_circles(max_empty=6))
@example(make_packaged(ArrowPresentation.from_circles([[("e", True), ("e", True)]] + [[]] * 6)))
@example(make_packaged(
    ArrowPresentation.from_circles([[("e", True)], [("e", False)]] + [[]] * 5),
    [[0, 2, 3], [1], [4], [5], [6]], [[0], [1], [2], [3, 4], [5]],
))
def test_interchangeable_empty_circles_share_a_group(pg):
    with mock.patch.object(packaged, "_empty_circle_groups", _grouped_by_blocks):
        want = canonical_packaged(pg)
    assert canonical_packaged(pg) == want


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
    # about 1,220 and 3,000 bytes on CPython 3.11
    assert per_entry["edge_op_traced"] < 1500, per_entry
    assert per_entry["boundary_trace"] < 3600, per_entry
    # boundary_trace's entry bound at the pinned size stays near 50 MB
    assert arrow.boundary_trace.cache_info().maxsize * 3600 < 60e6


# ---- presentation files ----------------------------------------------------


@settings(deadline=None, max_examples=100)
@given(packaged_presentations(0, 5))
def test_presentation_file_round_trip(pg):
    text = dumps_presentation(pg)
    assert loads_presentation(text) == pg
    assert dumps_presentation(loads_presentation(text)) == text
