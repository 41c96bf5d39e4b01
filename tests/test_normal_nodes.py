"""The resolution DAG over normal-form integer nodes, against the builder it
replaced (``dag_reference``), and the premise of the normal form: reading a
presentation's circles in another order, from other starts or backward
changes no value and no DAG."""

import inspect
import random
import sys
import time
from fractions import Fraction
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from ribbontensor import polynomials
from ribbontensor.arrow import ArrowPresentation
from ribbontensor.packaged import make_packaged, namespaced
from ribbontensor.poly import MultiPoly, standard_registry
from ribbontensor.polynomials import (
    OP_ORDER,
    TRANSITION_OPS,
    WeightSystem,
    _live,
    fold_dag,
    q_multivariate,
    q_value,
    resolution_dag,
    root_terms,
    transition_poly,
)
from ribbontensor.randgen import random_packaged, random_presentation
import dag_reference as reference
from strategies import packaged_presentations, packaged_with_empty_circles, symmetry_image

# Every live set the package resolves: the five operations of the
# five-weight kinds, the four of the vertex-partitioned kinds, those the z
# and corz weights leave, and the transition recursion's three.
PACKAGED_LIVE = (OP_ORDER, OP_ORDER[:4], _live(OP_ORDER, {"e": (1, 1, 0, 0, 0)}))

# Packaged presentations with loops, bare circles and random partitions.
ROOTS = st.one_of(packaged_presentations(0, 7), packaged_with_empty_circles(7, 3))


def _rationals(rng, labels, width):
    return {
        l: tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(width))
        for l in labels
    }


@settings(deadline=None, max_examples=80)
@given(
    ROOTS,
    st.sampled_from(PACKAGED_LIVE + (TRANSITION_OPS,)),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_dag_folds_as_the_reference_with_no_more_nodes(pg, live, first, rng):
    # One live set per example, resolved with the least label first or not.
    labels = sorted(pg.ap.edges)
    root, width, n_bases = (pg.ap, 3, 1) if live is TRANSITION_OPS else (pg, 5, 3)
    order = (labels[0],) if first and labels else None
    dag = resolution_dag(root, order, live)
    want = reference.resolution_dag(root, order, live)
    assert len(dag[1]) <= len(want[1])
    weights = _rationals(rng, labels, width)
    bases = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n_bases))
    assert fold_dag(dag, weights, bases) == fold_dag(want, weights, bases)
    if order:
        (nums, den), (want_nums, want_den) = (root_terms(d, weights, bases) for d in (dag, want))
        assert [Fraction(n, den) for n in nums] == [Fraction(n, want_den) for n in want_nums]


def test_edge_rank_equals_the_reference_that_rescores_every_edge():
    # A step rescores only the edges next to the one it resolved; the ranks
    # are those of rescoring every remaining edge, with an order or not.
    rng = random.Random(31)
    for _ in range(40):
        m = rng.randint(3, 40)
        for root in (random_packaged(rng, m, m), random_presentation(rng, m, m)):
            labels = sorted(getattr(root, "ap", root).edges)
            order = tuple(rng.sample(labels, rng.randint(1, m // 2)))
            for o in (None, order):
                assert polynomials._edge_rank(root, o) == reference.edge_rank(root, o)


@settings(deadline=None, max_examples=40)
@given(st.one_of(packaged_presentations(0, 4), packaged_with_empty_circles(4, 3)))
def test_dag_polynomials_equal_the_reference(pg):
    reg = standard_registry(pg.ap.edges)
    w = WeightSystem.per_edge(reg)
    weights = {l: w.for_edge(l) for l in pg.ap.edges}
    bases = tuple(MultiPoly.var(reg, n) for n in ("alpha", "beta", "gamma"))
    want = fold_dag(reference.resolution_dag(pg, None, OP_ORDER), weights, bases)
    assert q_multivariate(pg, w) == want
    tw = {l: ws[:3] for l, ws in weights.items()}
    t = (MultiPoly.var(reg, "t"),)
    want = fold_dag(reference.resolution_dag(pg.ap, None, TRANSITION_OPS), tw, t)
    assert transition_poly(pg.ap) == want


@settings(deadline=None, max_examples=60)
@given(st.one_of(packaged_presentations(0, 6), packaged_with_empty_circles(5, 3)), st.randoms(use_true_random=False))
def test_reading_the_circles_otherwise_changes_no_value_and_no_dag(pg, rng):
    image = symmetry_image(pg, rng, relabel=False)
    weights = _rationals(rng, pg.ap.edges, 5)
    point = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
    assert q_value(image, weights, *point) == q_value(pg, weights, *point)
    assert transition_poly(image.ap) == transition_poly(pg.ap)
    for live in PACKAGED_LIVE:
        assert len(resolution_dag(image, None, live)[1]) == len(resolution_dag(pg, None, live)[1])
    size = len(resolution_dag(pg.ap, None, TRANSITION_OPS)[1])
    assert len(resolution_dag(image.ap, None, TRANSITION_OPS)[1]) == size


@settings(deadline=None, max_examples=60)
@given(
    st.lists(ROOTS, max_size=3),
    ROOTS,
    st.sampled_from(PACKAGED_LIVE + (TRANSITION_OPS,)),
    st.booleans(),
)
def test_a_warm_dag_equals_a_cold_one_and_a_renamed_copy_resolves_nothing(
    others, pg, live, first
):
    bare = live is TRANSITION_OPS
    root = pg.ap if bare else pg
    labels = sorted(pg.ap.edges)
    order = (labels[0],) if first and labels else None
    build = resolution_dag.__wrapped__  # no DAG cache, so every call builds
    forms = polynomials.normal_forms()
    with patch.object(polynomials, "_FORMS_BOUND", 10**9):  # no clear between builds
        for other in others:
            for other_live in PACKAGED_LIVE:
                build(other, None, other_live)
            build(other.ap, None, TRANSITION_OPS)
        warm = build(root, order, live)
        forms.clear()
        assert build(root, order, live) == warm
        # Codes are places in the cut order, so a renamed copy has the same
        # nodes: every one comes from the memo and none is resolved.
        size = forms.size()
        copy = namespaced(pg, "n")
        renamed = build(copy.ap if bare else copy, order and ("n." + order[0],), live)
        assert forms.size() == size
    assert renamed == (warm[0], tuple([("n." + label, refs) for label, refs in warm[1]]))


def test_the_shared_memo_and_the_label_codes_stay_bounded(monkeypatch):
    # Past the bound the memo of forms, resolutions and nodes is cleared
    # before a build; the codes are places in each DAG's cut order, so new
    # labels add none.  Values do not change.
    monkeypatch.setattr(polynomials, "_FORMS_BOUND", 20)
    rng = random.Random(12)
    for i in range(12):
        pg = namespaced(random_packaged(rng, max_edges=5, min_edges=3), f"n{i}")
        weights = _rationals(rng, pg.ap.edges, 5)
        point = (Fraction(2, 3), Fraction(5, 7), Fraction(3, 11))
        want = fold_dag(reference.resolution_dag(pg, None, OP_ORDER), weights, point)
        assert q_value(pg, weights, *point) == want
        forms = polynomials._FORMS
        nodes = len(resolution_dag(pg, None, _live(OP_ORDER, weights))[1])
        assert sum(map(len, forms.nodes.values())) <= 20 + nodes
        assert len(forms.forms) + len(forms.resolved) <= 20 + 2 * 5 ** len(pg.ap.edges)
        # no root has more than 5 edges, whatever its labels are called
        assert max(code for circles in forms.forms for circ in circles for code in circ) < 10


def test_disjoint_copies_multiply_and_resolve_quickly():
    # Eight copies of K1, two one-arrow circles joined by an aligned edge,
    # and eight of K2, an aligned loop, all with singleton partitions.  The
    # forms of such a union read in exponentially many ways; a build reads
    # each in the one way it comes, so it takes about 0.01 s.  Enumerating
    # every reading of each form took 4-5 s on a 2-core machine.
    rng = random.Random(27)
    k1 = [[[(f"e{i}", True)], [(f"e{i}", True)]] for i in range(8)]
    k2 = [[[(f"f{i}", True), (f"f{i}", True)]] for i in range(8)]
    copies = [make_packaged(ArrowPresentation.from_circles(circles)) for circles in k1 + k2]
    union = make_packaged(ArrowPresentation.from_circles([c for circles in k1 + k2 for c in circles]))
    weights = _rationals(rng, union.ap.edges, 5)
    point = (Fraction(2, 3), Fraction(5, 7), Fraction(3, 11))
    want = Fraction(1)
    for copy in copies:
        want *= q_value(copy, weights, *point)
    start = time.perf_counter()
    assert q_value(union, weights, *point) == want
    assert time.perf_counter() - start < 1.0


def test_a_dag_deeper_than_the_recursion_limit_folds(monkeypatch):
    # 300 disjoint copies of K1 resolve into a chain of 300 nodes.  The walk
    # keeps its own stack, so a recursion limit 100 frames above this test's
    # depth still builds and folds it.
    monkeypatch.setenv("RIBBONTENSOR_EDGE_CAP", "300")
    rng = random.Random(30)
    k1 = [[[(f"e{i}", True)], [(f"e{i}", True)]] for i in range(300)]
    union = make_packaged(ArrowPresentation.from_circles([c for circles in k1 for c in circles]))
    weights = _rationals(rng, union.ap.edges, 5)
    point = (Fraction(2, 3), Fraction(5, 7), Fraction(3, 11))
    want = Fraction(1)
    for circles in k1:
        want *= q_value(make_packaged(ArrowPresentation.from_circles(circles)), weights, *point)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        value = q_value(union, weights, *point)
    finally:
        sys.setrecursionlimit(limit)
    assert value == want


def test_q_and_transition_dags_share_one_memo_in_either_order(monkeypatch):
    # A presentation's five-weight DAG and its transition DAG resolve through
    # one memo, and the transition operations are among the five: whichever
    # is built first, the memo ends with the forms and resolutions of the
    # five-weight build alone, and neither DAG changes.
    monkeypatch.setattr(polynomials, "_FORMS_BOUND", 10**9)  # no clear between builds
    build = resolution_dag.__wrapped__  # no DAG cache, so every call builds
    forms = polynomials.normal_forms()

    def memo():  # clear() makes new dicts, so these stay as they are
        return forms.forms, {circles: entry[1] for circles, entry in forms.resolved.items()}

    rng = random.Random(29)
    for _ in range(20):
        pg = random_packaged(rng, max_edges=6, min_edges=1)
        q, t = (pg, None, OP_ORDER), (pg.ap, None, TRANSITION_OPS)
        forms.clear()
        q_dag, q_memo = build(*q), memo()
        t_dags = []
        for builds in ((q, t), (t, q)):
            forms.clear()
            dags = {}
            for args in builds:
                dags[args] = build(*args)
                assert forms.resolved  # whichever comes first fills the one memo
            assert dags[q] == q_dag
            assert memo() == q_memo
            t_dags.append(dags[t])
        assert t_dags[0] == t_dags[1]
