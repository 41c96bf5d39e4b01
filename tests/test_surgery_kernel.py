"""The integer surgery kernel against the Occ splice it replaced
(``surgery_reference.py``): every edge and kind of random presentations of
up to 8 edges, and 2-sums under both couplings, give the same presentations,
maps, created items, glued points and partitions."""

from hypothesis import given, settings
from hypothesis import strategies as st

from ribbontensor.arrow import ArrowPresentation, boundary_trace, edge_op_traced, two_sum_traced
from ribbontensor.packaged import (
    Coupling,
    EdgeOpKind,
    PackagedPresentation,
    apply_edge_op,
    edge_ops,
    two_sum,
)
import surgery_reference as reference
from strategies import packaged_presentations, presentations

ARROW_KINDS = ("delete", "contract", "penrose")
MARKERS = ("m1", "m2", "m3", "m4")


def assert_edge_op_agrees(ap, e, kind):
    got = edge_op_traced.__wrapped__(ap, e, kind)
    want = reference.edge_op_traced(ap, e, kind)
    assert got.presentation == want.presentation
    assert reference.as_dict(got.circle_map) == want.circle_map
    assert len(got.circle_map) == len(ap.circles)
    assert got.created_circles == want.created_circles
    assert reference.as_dict(got.boundary_map) == want.boundary_map
    assert got.created_boundaries == want.created_boundaries


@settings(deadline=None, max_examples=150)
@given(presentations(1, 8))
def test_edge_ops_match_the_reference_on_every_edge_and_kind(ap):
    for e in sorted(ap.edges):
        for kind in ARROW_KINDS:
            assert_edge_op_agrees(ap, e, kind)


@settings(deadline=None, max_examples=150)
@given(packaged_presentations(1, 8))
def test_edge_ops_give_the_five_reference_operations(pg):
    for e in sorted(pg.ap.edges):
        want = tuple(reference.apply_edge_op(pg, e, kind) for kind in EdgeOpKind)
        assert edge_ops(pg, e, tuple(EdgeOpKind)) == want
        # one kind at a time, and in another order, share nothing wrongly
        assert tuple(apply_edge_op(pg, e, kind) for kind in EdgeOpKind) == want
        backwards = tuple(reversed(EdgeOpKind))
        assert edge_ops(pg, e, backwards) == want[::-1]


def _factor(ph):
    """``ph`` with its labels prefixed, so a 2-sum's label sets are disjoint."""
    return PackagedPresentation(
        ph.ap.relabel({label: f"h.{label}" for label in ph.ap.edges}), ph.vparts, ph.bparts
    )


@settings(deadline=None, max_examples=150)
@given(packaged_presentations(1, 5), packaged_presentations(1, 3), st.data())
def test_two_sums_match_the_reference_under_both_couplings(pg, ph, data):
    ph = _factor(ph)
    f = data.draw(st.sampled_from(sorted(pg.ap.edges)))
    e = data.draw(st.sampled_from(sorted(ph.ap.edges)))
    for swap in (False, True):
        got = two_sum_traced(pg.ap, ph.ap, f, e, swap)
        want = reference.two_sum_traced(pg.ap, ph.ap, f, e, swap)
        assert got.presentation == want.presentation
        assert got.union == want.union
        assert got.union_trace == boundary_trace(got.union)
        assert reference.as_dict(got.g_boundaries) == want.g_boundaries
        assert reference.as_dict(got.h_boundaries) == want.h_boundaries
        assert reference.as_dict(got.circle_map) == want.circle_map
        assert got.created_circles == want.created_circles
        assert reference.as_dict(got.boundary_map) == want.boundary_map
        assert got.created_boundaries == want.created_boundaries
        assert got.marker_circles == tuple(want.marker_circles[m] for m in MARKERS)
        assert got.marker_boundaries == tuple(want.marker_boundaries[m] for m in MARKERS)
        coupling = Coupling(f, e, swap)
        assert two_sum(pg, ph, coupling) == reference.two_sum(pg, ph, coupling)


def test_kernel_results_share_their_arrows():
    # result circles are built from one Occ per code, not one per arrow, so
    # equal arrows of two results are one object
    ap = ArrowPresentation.from_circles([[("a", True), ("e", True), ("a", False)], [("e", True)]])
    occs = [
        occ
        for kind in ARROW_KINDS
        for circ in edge_op_traced.__wrapped__(ap, "e", kind).presentation.circles
        for occ in circ
    ]
    assert len(occs) == 6
    assert len({id(occ) for occ in occs}) == len(set(occs)) == 2
