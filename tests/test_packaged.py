"""Packaged presentations: partitions, the five operations, 2-sums, tensors,
and the one-edge basis presentations."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ribbontensor.arrow import ArrowPresentation, boundary_components, surface_stats
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
from strategies import packaged_presentations

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
        old_bds = boundary_components(pg.ap)
        new_bds = boundary_components(image_ap)
        new_index = {}
        for bd in new_bds:
            if bd.circle is not None:
                new_index[("bare", bd.circle)] = bd.id
            for t in bd.crossings:
                new_index[t] = bd.id
        bd_map = {}
        for bd in old_bds:
            if bd.circle is not None:
                bd_map[bd.id] = new_index[("bare", perm[bd.circle])]
            else:
                bd_map[bd.id] = new_index[token_map[bd.crossings[0]]]
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


# ---- presentation files ----------------------------------------------------


@settings(deadline=None, max_examples=100)
@given(packaged_presentations(0, 5))
def test_presentation_file_round_trip(pg):
    text = dumps_presentation(pg)
    assert loads_presentation(text) == pg
    assert dumps_presentation(loads_presentation(text)) == text
