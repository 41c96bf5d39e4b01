"""Polynomial invariants: golden values, specialisations, oracles."""

import gc
import hashlib
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ribbontensor import arrow
from ribbontensor.arrow import (
    ArrowPresentation,
    Occ,
    boundary_components,
    boundary_trace,
    contract_edge,
    delete_edge,
    penrose_contract_edge,
)
from ribbontensor.errors import SizeLimitExceeded
from ribbontensor.packaged import (
    EdgeOpKind,
    PackagedPresentation,
    Partition,
    apply_edge_op,
    k_presentations,
    make_packaged,
)
from ribbontensor.poly import (
    MultiPoly,
    VarRegistry,
    determinant,
    parse_poly,
    standard_registry,
    to_canonical_string,
)
from ribbontensor.polynomials import (
    OP_ORDER,
    TRANSITION_OPS,
    Multigraph,
    WeightSystem,
    _edge_rank,
    _spanning_table,
    _subset_counts,
    br_poly,
    fold_dag,
    graph_of_presentation,
    mv_br_poly,
    q_multivariate,
    q_poly,
    q_state_table,
    q_table_value,
    mv_br_value,
    q_value,
    qhat_poly,
    resolution_dag,
    root_terms,
    transition_poly,
    transition_state_table,
    transition_table_value,
    tutte_poly,
    tutte_value,
    z_poly,
    zdot_tutte,
    zdot_value,
    zhat_poly,
)
from ribbontensor.randgen import (
    random_blocks,
    random_connected_multigraph,
    random_packaged,
    random_presentation,
)
import subset_reference as reference
from dag_reference import _strip_isolated
from state_sum_reference import monomial, q_in_order, registry_of, state_sum_oracle, substitute
from strategies import packaged_presentations, packaged_with_empty_circles, presentations

REG = standard_registry()
K1, K2, K3, K4, K5 = k_presentations()


def P(text, registry=REG):
    return parse_poly(text, registry)


# ---- the one-edge golden values (the transfer-matrix columns) -------------

K_COLUMNS = {
    # weight name -> factor, for each basis presentation
    1: "a*alpha^2*beta^2*gamma + b*alpha*beta*gamma + c*alpha*beta*gamma"
       " + x*alpha^2*beta*gamma + y*alpha*beta*gamma",
    2: "a*alpha*beta*gamma + b*alpha^2*beta*gamma^2 + c*alpha*beta*gamma"
       " + x*alpha*beta*gamma + y*alpha^2*beta*gamma",
    3: "a*alpha*beta*gamma + b*alpha*beta*gamma + c*alpha^2*beta*gamma"
       " + x*alpha*beta*gamma + y*alpha*beta*gamma",
    4: "a*alpha^2*beta*gamma + b*alpha*beta*gamma + c*alpha*beta*gamma"
       " + x*alpha^2*beta*gamma + y*alpha*beta*gamma",
    5: "a*alpha*beta*gamma + b*alpha^2*beta*gamma + c*alpha*beta*gamma"
       " + x*alpha*beta*gamma + y*alpha^2*beta*gamma",
}


def test_q_on_basis_presentations():
    for i, k in enumerate((K1, K2, K3, K4, K5), 1):
        assert q_poly(k) == P(K_COLUMNS[i]), f"K{i}"


def test_q_base_case():
    pg = make_packaged(
        ArrowPresentation.from_circles([[], []]), bblocks=[[0, 1]]
    )
    assert q_poly(pg) == P("alpha^2*beta^2*gamma")


def test_q_family_is_one_without_circles():
    # no circles, no edges: nothing to strip, so no base and no node
    pg = make_packaged(ArrowPresentation.from_circles([]))
    for q in (q_poly, q_multivariate, z_poly, zhat_poly, qhat_poly):
        assert to_canonical_string(q(pg)) == "1"
    point = (Fraction(2, 3), Fraction(5, 7), Fraction(3, 11))
    assert q_value(pg, {}, *point) == 1
    assert q_state_table(pg) == ((-1, -1, ()), ())
    assert q_table_value(q_state_table(pg), {}, *point) == 1


def test_q_zero_weights_vanish():
    w = WeightSystem(REG, {"e": tuple(MultiPoly.zero(REG) for _ in range(5))}.__getitem__)
    assert not q_multivariate(K3, w)


def test_q_order_independence():
    rng = random.Random(30)
    for _ in range(40):
        pg = random_packaged(rng, max_edges=5, min_edges=1)
        labels = sorted(pg.ap.edges)
        o1, o2 = labels[:], labels[:]
        rng.shuffle(o1)
        rng.shuffle(o2)
        w = WeightSystem.per_edge(standard_registry(pg.ap.edges))
        assert q_in_order(pg, w, o1) == q_in_order(pg, w, o2)


def test_state_sum_matches_recursion():
    rng = random.Random(31)
    for _ in range(25):
        pg = random_packaged(rng, max_edges=4)
        w = WeightSystem.per_edge(standard_registry(pg.ap.edges))
        assert q_multivariate(pg, w) == state_sum_oracle(pg, w)


def test_state_sum_edgeless_and_single_edge():
    pg = make_packaged(ArrowPresentation.from_circles([[]]))
    assert state_sum_oracle(pg, WeightSystem.global_weights(REG)) == P("alpha*beta*gamma")
    assert len(state_sum_oracle(K1, WeightSystem.global_weights(REG)).terms) == 5


def test_state_sum_cap():
    circles = [[(f"e{i}", True) for i in range(13)], [(f"e{i}", True) for i in range(13)]]
    pg = make_packaged(ArrowPresentation.from_circles(circles))
    with pytest.raises(SizeLimitExceeded):
        state_sum_oracle(pg, WeightSystem.global_weights(standard_registry()))


def test_disjoint_union_rule():
    rng = random.Random(32)
    for _ in range(100):
        ap = random_presentation(rng, 3, 0, extra_circle_rate=0)
        vb = random_blocks(rng, len(ap.circles))
        bb = random_blocks(rng, len(boundary_components(ap)))
        pg = make_packaged(ap, vb, bb)
        ap2 = ArrowPresentation.from_circles(list(ap.circles) + [()])
        pg2 = make_packaged(
            ap2,
            vb + [[len(ap.circles)]],
            bb + [[len(boundary_components(ap))]],
        )
        w = WeightSystem.per_edge(standard_registry(ap.edges))
        assert q_multivariate(pg2, w) == P("alpha*beta*gamma", w.registry) * q_multivariate(pg, w)


def test_disjoint_union_rule_merged_blocks():
    # new circle sharing a class contributes alpha only
    ap = ArrowPresentation.from_circles([[("e", True), ("e", True)]])
    pg = make_packaged(ap)
    ap2 = ArrowPresentation.from_circles([[("e", True), ("e", True)], []])
    pg2 = make_packaged(ap2, [[0, 1]], None)
    pg_merged = make_packaged(ap, [[0]], None)
    # the extra circle shares a vertex class (no beta) but its bare boundary
    # is a singleton class (one gamma)
    assert q_poly(pg2) == P("alpha*gamma") * q_poly(pg_merged)


def test_z_poly_k1():
    assert z_poly(K1) == P("a*alpha^2*beta^2*gamma + b*alpha*beta*gamma")


def test_z_is_q_specialised():
    rng = random.Random(33)
    for _ in range(100):
        pg = random_packaged(rng, max_edges=4)
        q = q_poly(pg)
        zero = {name: MultiPoly.zero(REG) for name in ("c", "x", "y")}
        assert z_poly(pg) == substitute(q, zero)


def test_zhat_examples():
    assert zhat_poly(K1) == P("a*alpha^2*beta^2 + b*alpha*beta")
    pg = make_packaged(ArrowPresentation.from_circles([[], []]), vblocks=[[0, 1]])
    assert zhat_poly(pg) == P("alpha^2*beta")


def test_qhat_specialisations():
    rng = random.Random(34)
    for _ in range(50):
        pg = random_packaged(rng, max_edges=4)
        q = q_poly(pg)
        assert qhat_poly(pg) == substitute(q, {"y": MultiPoly.zero(REG)}).set_to_one("gamma")
        zero = {name: MultiPoly.zero(REG) for name in ("c", "x")}
        assert substitute(qhat_poly(pg), zero) == zhat_poly(pg)


def test_boundary_partition_never_matters_for_hatted_polys():
    rng = random.Random(35)
    for _ in range(50):
        ap = random_presentation(rng, 4, 0)
        vb = random_blocks(rng, len(ap.circles))
        nb = len(boundary_components(ap))
        z_vals = {zhat_poly(make_packaged(ap, vb, random_blocks(rng, nb))) for _ in range(3)}
        q_vals = {qhat_poly(make_packaged(ap, vb, random_blocks(rng, nb))) for _ in range(3)}
        assert len(z_vals) == 1 and len(q_vals) == 1


def test_transition_loops():
    reg = standard_registry(["e"])
    aligned = ArrowPresentation.from_circles([[("e", True), ("e", True)]])
    anti = ArrowPresentation.from_circles([[("e", True), ("e", False)]])
    assert transition_poly(aligned) == parse_poly(
        "a_e*t^2 + b_e*t + c_e*t", reg
    )
    assert transition_poly(anti) == parse_poly(
        "a_e*t + b_e*t + c_e*t^2", reg
    )


def test_transition_is_q_with_swapped_weights():
    rng = random.Random(36)
    for _ in range(40):
        ap = random_presentation(rng, 4, 1, extra_circle_rate=0)
        reg = standard_registry(ap.edges)
        pg = PackagedPresentation(
            ap,
            Partition.one_block(range(len(ap.circles))),
            Partition.one_block(range(len(boundary_components(ap)))),
        )
        zero = MultiPoly.zero(reg)
        w = WeightSystem(
            reg,
            {
                l: (
                    MultiPoly.var(reg, f"b_{l}"),
                    MultiPoly.var(reg, f"a_{l}"),
                    MultiPoly.var(reg, f"c_{l}"),
                    zero,
                    zero,
                )
                for l in ap.edges
            }.__getitem__,
        )
        q = q_multivariate(pg, w).set_to_one("beta").set_to_one("gamma")
        q = substitute(q, {"alpha": MultiPoly.var(reg, "t")})
        assert q == transition_poly(ap)


def test_mv_br_examples():
    edgeless = ArrowPresentation.from_circles([[], [], []])
    reg = registry_of("a", "c")
    assert mv_br_poly(edgeless) == parse_poly("a^3*c^3", mv_br_poly(edgeless).registry)
    single = ArrowPresentation.from_circles([[("e", True)], [("e", True)]])
    p = mv_br_poly(single)
    assert p == parse_poly("b_e*a*c + a^2*c^2", p.registry)


def test_mv_br_is_q_specialised():
    rng = random.Random(37)
    for _ in range(30):
        ap = random_presentation(rng, 4, 0, extra_circle_rate=0.2)
        reg = standard_registry(ap.edges)
        pg = make_packaged(ap)
        one = MultiPoly.const(reg, 1)
        zero = MultiPoly.zero(reg)
        w = WeightSystem(
            reg,
            {l: (one, zero, zero, zero, MultiPoly.var(reg, f"b_{l}")) for l in ap.edges}.__getitem__,
        )
        q = substitute(
            q_multivariate(pg, w).set_to_one("gamma"),
            {"alpha": MultiPoly.var(reg, "c"), "beta": MultiPoly.var(reg, "a")},
        )
        z = mv_br_poly(ap)
        z_std = MultiPoly.zero(reg)
        for exps, coeff in z.items():
            z_std = z_std + monomial(
                reg, {n: e for n, e in zip(z.registry.names, exps) if e}, coeff
            )
        assert q == z_std


def test_br_examples():
    single = ArrowPresentation.from_circles([[("e", True)], [("e", True)]])
    reg = registry_of("x", "y", "z")
    assert br_poly(single) == parse_poly("x", reg)
    anti = ArrowPresentation.from_circles([[("e", True), ("e", False)]])
    assert br_poly(anti) == parse_poly("1 + y*z", reg)
    aligned = ArrowPresentation.from_circles([[("e", True), ("e", True)]])
    assert br_poly(aligned) == parse_poly("1 + y", reg)


def test_br_genus_exponent_parity():
    # orientable spanning sub-presentations contribute even z-powers
    rng = random.Random(38)
    from ribbontensor.arrow import surface_stats

    for _ in range(30):
        ap = random_presentation(rng, 4, 0, extra_circle_rate=0)
        for bits in itertools.product((0, 1), repeat=len(ap.edges)):
            subset = [l for l, b in zip(sorted(ap.edges), bits) if b]
            st = surface_stats(reference._spanning(ap, subset))
            if st.orientable:
                assert st.euler_genus % 2 == 0


def test_zdot_and_tutte_examples():
    single = Multigraph.make(2, [(0, 1)])
    assert zdot_tutte(single) == parse_poly("a*b + a^2*c", zdot_tutte(single).registry)
    assert tutte_poly(single) == parse_poly("x", registry_of("x", "y"))
    loop = Multigraph.make(1, [(0, 0)])
    assert tutte_poly(loop) == parse_poly("y", registry_of("x", "y"))


def test_tutte_at_one_one_counts_spanning_trees():
    # Kirchhoff's matrix-tree theorem, a pin that shares no code with the
    # engines: T(G; 1, 1) is the number of spanning trees of a connected G,
    # any cofactor of its Laplacian (loops add nothing to it), computed by
    # the fraction-free elimination on integer rows
    rng = random.Random(11)
    for _ in range(30):
        g = random_connected_multigraph(rng, max_edges=9, min_edges=1)
        laplacian = [[0] * g.n for _ in range(g.n)]
        for u, v in g.edge_list:
            if u != v:
                laplacian[u][u] += 1
                laplacian[v][v] += 1
                laplacian[u][v] -= 1
                laplacian[v][u] -= 1
        cofactor = determinant([row[1:] for row in laplacian[1:]])
        assert tutte_value(g, Fraction(1), Fraction(1)) == cofactor


def test_zdot_deletion_contraction():
    rng = random.Random(39)
    reg = registry_of("a", "b", "c")
    b, c = MultiPoly.var(reg, "b"), MultiPoly.var(reg, "c")
    for _ in range(40):
        g = random_connected_multigraph(rng, max_edges=5, min_edges=1)
        i = rng.randrange(g.m)
        lhs = zdot_tutte(g)
        rhs = c * zdot_tutte(g.delete(i)) + b * zdot_tutte(g.contract(i))
        assert lhs == rhs


def test_graph_of_presentation():
    g = graph_of_presentation(
        ArrowPresentation.from_circles(
            [[("e", True), ("f", True)], [("e", True)], [("f", False)]]
        )
    )
    assert g.n == 3 and sorted(g.edge_list) == [(0, 1), (0, 2)]


def _rational_point(rng, registry):
    # Numerators from 0 put zero weights in, which the fold skips.
    return {n: Fraction(rng.randint(0, 9), rng.randint(1, 9)) for n in registry.names}


def test_q_table_matches_direct_value():
    # q_value and q_table_value fold the same resolution DAG, so both are
    # checked against the independent state-sum oracle at the point.
    rng = random.Random(40)
    for _ in range(15):
        pg = random_packaged(rng, max_edges=3)
        w = WeightSystem.per_edge(standard_registry(pg.ap.edges))
        pt = _rational_point(rng, w.registry)
        weights = {l: tuple(pt[f"{s}_{l}"] for s in "abcxy") for l in pg.ap.edges}
        args = (pt["alpha"], pt["beta"], pt["gamma"])
        expected = state_sum_oracle(pg, w).eval_at(pt)
        assert q_table_value(q_state_table(pg), weights, *args) == expected
        assert q_value(pg, weights, *args) == expected


def test_fold_is_independent_of_edge_order():
    rng = random.Random(41)
    for _ in range(20):
        pg = random_packaged(rng, max_edges=4, min_edges=1)
        w = WeightSystem.per_edge(standard_registry(pg.ap.edges))
        order = sorted(pg.ap.edges, reverse=True)
        rng.shuffle(order)
        assert q_in_order(pg, w, order) == q_multivariate(pg, w)
        pt = _rational_point(rng, w.registry)
        weights = {l: tuple(pt[f"{s}_{l}"] for s in "abcxy") for l in pg.ap.edges}
        bases = (pt["alpha"], pt["beta"], pt["gamma"])
        dag = resolution_dag(pg, tuple(order), OP_ORDER)
        assert fold_dag(dag, weights, bases) == q_value(pg, weights, *bases)


def _transition_state_sum(ap, weights, t):
    """Sum over every 3-colouring of the edges, resolved in label order."""
    labels = sorted(ap.edges)
    total = Fraction(0)
    for colours in itertools.product(range(3), repeat=len(labels)):
        resolved, term = ap, Fraction(1)
        for label, colour in zip(labels, colours):
            resolved = (contract_edge, delete_edge, penrose_contract_edge)[colour](resolved, label)
            term *= weights[label][colour]
        total += term * t ** len(resolved.circles)
    return total


def test_transition_table_matches_polynomial():
    rng = random.Random(42)
    for _ in range(20):
        ap = random_presentation(rng, 4, 0, extra_circle_rate=0.3)
        reg = standard_registry(ap.edges)
        pt = _rational_point(rng, reg)
        weights = {l: tuple(pt[f"{s}_{l}"] for s in "abc") for l in ap.edges}
        value = transition_table_value(transition_state_table(ap), weights, pt["t"])
        assert value == _transition_state_sum(ap, weights, pt["t"])
        assert value == transition_poly(ap).eval_at(pt)
        # With every Penrose weight zero the fold skips every Penrose branch
        # and still agrees with the polynomial at c = 0.
        no_penrose = {l: ws[:2] + (Fraction(0),) for l, ws in weights.items()}
        at_c0 = {**pt, **{f"c_{l}": Fraction(0) for l in ap.edges}}
        assert transition_poly(ap).eval_at(at_c0) == transition_table_value(
            transition_state_table(ap), no_penrose, pt["t"]
        )


def _weights(rng, labels, width, zero_tail=0):
    """Random nonzero rational weights, the last ``zero_tail`` of each
    label's ``width`` set to zero."""
    return {
        l: tuple(
            Fraction(0) if i >= width - zero_tail else Fraction(rng.randint(1, 9), rng.randint(1, 9))
            for i in range(width)
        )
        for l in labels
    }


def _root_values(dag, weights, bases):
    """:func:`root_terms` as values: each numerator over the shared
    denominator."""
    nums, den = root_terms(dag, weights, bases)
    return [Fraction(n, den) for n in nums]


@settings(deadline=None, max_examples=80)
@given(packaged_presentations(min_edges=1, max_edges=3), st.integers(0, 2**32), st.booleans())
def test_root_terms_are_the_operation_values(pg, seed, corz):
    # One fold of the DAG resolved with e first gives every operation's value
    # at once; empty circles put strips on the root and on its children.
    # With corz weights the fold still evaluates all five root terms while
    # pruning the zero-weight branches below them.  The four-operation DAG
    # of the vertex-partitioned kinds is checked with y = 0, as they use it.
    rng = random.Random(seed)
    weights = _weights(rng, pg.ap.edges, 5, 3 if corz else 0)
    no_y = {l: ws[:4] + (Fraction(0),) for l, ws in weights.items()}
    for gamma in (Fraction(7, 4), Fraction(1)):
        bases = (Fraction(3, 2), Fraction(5, 3), gamma)
        for e in sorted(pg.ap.edges):
            results = [apply_edge_op(pg, e, op) for op in OP_ORDER]
            values = [q_value(x, weights, *bases) for x in results]
            assert _root_values(resolution_dag(pg, (e,), OP_ORDER), weights, bases) == values
            values = [q_value(x, no_y, *bases) for x in results[:4]]
            assert _root_values(resolution_dag(pg, (e,), OP_ORDER[:4]), no_y, bases) == values


@settings(deadline=None, max_examples=80)
@given(presentations(min_edges=1, max_edges=4), st.integers(0, 2**32))
def test_transition_root_terms_are_the_operation_values(ap, seed):
    weights = _weights(random.Random(seed), ap.edges, 3)
    t = Fraction(5, 3)
    for e in sorted(ap.edges):
        values = [
            transition_table_value(transition_state_table(op(ap, e)), weights, t)
            for op in TRANSITION_OPS
        ]
        assert _root_values(resolution_dag(ap, (e,), TRANSITION_OPS), weights, (t,)) == values


# ---- the integer-numerator fold against the Fraction fold ------------------


def reference_fold(dag, weights, bases, root_weights):
    """The fold as it ran on ``Fraction`` values, a gcd at every operation:
    the root's terms and the factor of its own strip, ``None`` if empty."""
    one = bases[0] ** 0
    zero = one - one
    powers: dict = {}

    def factor(strip):
        value = powers.get(strip)
        if value is None:
            value = powers[strip] = math.prod(b**k for b, k in zip(bases, strip) if k)
        return value

    (root, root_strip, strips), nodes = dag
    needed = [False] * (root + 1)
    needed[root] = True
    for i in range(root, -1, -1):
        if needed[i]:
            label, refs = nodes[i]
            ws = root_weights if i == root else weights[label]
            for slot, child, _ in refs:
                if ws[slot] and child >= 0:
                    needed[child] = True
    values: list = [None] * root
    for i in range(root + 1):
        if not needed[i]:
            continue
        label, refs = nodes[i]
        ws = root_weights if i == root else weights[label]
        terms = []
        for slot, child, s in refs:
            w = ws[slot]
            if not w:
                continue
            if s >= 0:
                w = w * factor(strips[s])
            terms.append(w if child < 0 else w * values[child])
        if i < root:
            values[i] = sum(terms, zero)
    return terms, factor(strips[root_strip]) if root_strip >= 0 else None


def _reference_value_and_terms(dag, weights, bases):
    (root, _, _), nodes = dag
    one = bases[0] ** 0
    terms, scale = reference_fold(dag, weights, bases, weights[nodes[root][0]])
    total = sum(terms, one - one)
    ones = (one,) * (1 + max((slot for slot, _, _ in nodes[root][1]), default=-1))
    unweighted, _ = reference_fold(dag, weights, bases, ones)
    if scale is None:
        return total, unweighted
    return scale * total, [scale * t for t in unweighted]


@st.composite
def fold_points(draw, labels, width, bases):
    """Weights for ``labels`` and ``bases`` bases, each drawn in one of the
    forms the integer fold splits differently: rationals of either sign,
    plain ints, or a zero tail (the corz weights); bases over their own
    denominators, over one shared denominator, or whole."""
    rationals = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 40))
    form = draw(st.sampled_from(("rational", "int", "corz")))

    def weight(i):
        if form == "int":
            return draw(st.integers(-9, 9))
        if form == "corz" and i >= 2:
            return Fraction(0)
        return draw(rationals)

    weights = {l: tuple(weight(i) for i in range(width)) for l in sorted(labels)}
    shared = draw(st.sampled_from((None, 1, 12, 35)))
    if shared is None:
        values = [draw(rationals) for _ in range(bases)]
    else:
        values = [Fraction(draw(st.integers(-40, 40)), shared) for _ in range(bases)]
    return weights, tuple(values)


def _check_against_reference(dag, weights, bases):
    expected, expected_terms = _reference_value_and_terms(dag, weights, bases)
    value = fold_dag(dag, weights, bases)
    nums, den = root_terms(dag, weights, bases)
    if den is None:  # outside the rationals the numerators are the terms
        assert value == expected and list(nums) == expected_terms
        return
    assert value == expected and type(value) is Fraction
    assert [Fraction(n, den) for n in nums] == expected_terms
    assert all(type(n) is int for n in [den, *nums])


@settings(deadline=None, max_examples=80)
@given(packaged_with_empty_circles(max_edges=3, max_empty=4), st.data())
def test_fold_matches_the_fraction_fold(pg, data):
    # Empty circles put strips on the root and on its children, of unequal
    # degrees, so the integer fold must pad them to one power of d_b.
    assume(pg.ap.edges)
    weights, bases = data.draw(fold_points(pg.ap.edges, 5, 3))
    for e in sorted(pg.ap.edges):
        _check_against_reference(resolution_dag(pg, (e,), OP_ORDER), weights, bases)


@settings(deadline=None, max_examples=80)
@given(presentations(min_edges=1, max_edges=4), st.data())
def test_transition_fold_matches_the_fraction_fold(ap, data):
    weights, bases = data.draw(fold_points(ap.edges, 3, 1))
    for e in sorted(ap.edges):
        _check_against_reference(resolution_dag(ap, (e,), TRANSITION_OPS), weights, bases)


def test_deep_fold_matches_the_polynomial():
    # Eight edges resolve through DAGs many levels deep, where a denominator
    # missed at one level would compound.
    rng = random.Random(47)
    for _ in range(2):
        pg = random_packaged(rng, max_edges=8, min_edges=8)
        pt = {n: Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for n in REG.names}
        weights = dict.fromkeys(pg.ap.edges, tuple(pt[s] for s in "abcxy"))
        value = q_value(pg, weights, pt["alpha"], pt["beta"], pt["gamma"])
        assert q_poly(pg).eval_at(pt) == value and type(value) is Fraction


def _zeroed_points(labels, root_label, weights):
    """``weights`` as drawn, then with zeros where a fold reaches other
    nodes: each slot on every label, each slot of the root's label alone,
    and every weight of each label."""
    zero = weights[root_label][0] * 0
    yield weights
    for j in range(len(weights[root_label])):
        blank = lambda ws: ws[:j] + (zero,) + ws[j + 1 :]
        yield {l: blank(ws) for l, ws in weights.items()}
        yield {**weights, root_label: blank(weights[root_label])}
    for label in labels:
        yield {**weights, label: (zero,) * len(weights[label])}


def test_one_dag_folds_every_point_whatever_it_reaches():
    # A DAG is built once and folded at every point, while the nodes each
    # fold reaches change with the point's zeros.  Over Fraction and over
    # MultiPoly, every fold equals the reference fold.
    rng = random.Random(53)
    while True:
        pg = random_packaged(rng, max_edges=5, min_edges=5)
        ap = pg.ap
        dags = [
            (
                resolution_dag(pg, (sorted(ap.edges)[0],), OP_ORDER),
                "abcxy",
                ("alpha", "beta", "gamma"),
            ),
            (resolution_dag(ap, None, TRANSITION_OPS), "abc", ("t",)),
        ]
        if all(len(dag[1]) >= 8 and any(s >= 0 for _, refs in dag[1] for _, _, s in refs)
               for dag, _, _ in dags):
            break
    labels = sorted(ap.edges)
    reg = standard_registry(labels)
    var = lambda n: MultiPoly.var(reg, n)
    for dag, stems, names in dags:
        (root, _, _), nodes = dag
        rationals = {
            l: tuple(Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)) for _ in stems)
            for l in labels
        }
        bases = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in names)
        symbols = {l: tuple(var(f"{s}_{l}") for s in stems) for l in labels}
        for weights, ring_bases in ((rationals, bases), (symbols, tuple(map(var, names)))):
            for point in _zeroed_points(labels, nodes[root][0], weights):
                _check_against_reference(dag, point, ring_bases)


def _least_readings(circ):
    """The least reading of ``circ`` over its rotations and those of its
    reverse with every arrow flipped, and each distinct way to get it, as
    the new position of every old one."""
    k = len(circ)
    back = tuple(Occ(l, not f) for l, f in reversed(circ))
    options = [(circ[r:] + circ[:r], tuple((p - r) % k for p in range(k))) for r in range(k)]
    options += [
        (back[r:] + back[:r], tuple((k - 1 - p - r) % k for p in range(k))) for r in range(k)
    ]
    least = min(options)[0] if k else ()
    return least, sorted({places for reading, places in options if reading == least}) or [()]


def _node_form(pg):
    """``pg`` as the resolution DAG keys its nodes, at the ``Occ`` level:
    each circle in its least reading, the nonempty circles sorted, the empty
    ones stripped, and of all the ways to read ``pg`` so, the one that gives
    the least partitions, carried along by endpoint."""
    ap = pg.ap
    readings = [_least_readings(circ) for circ in ap.circles]
    ranked = sorted((c for c, circ in enumerate(ap.circles) if circ), key=lambda c: readings[c][0])
    bare = [c for c, circ in enumerate(ap.circles) if not circ]
    image = ArrowPresentation(tuple(readings[c][0] for c in ranked + bare), ap.edges)
    old, new = boundary_trace(ap), boundary_trace(image)
    # equal circles may come in either order
    runs = [list(g) for _, g in itertools.groupby(ranked, key=lambda c: readings[c][0])]
    best = None
    for orders in itertools.product(*(itertools.permutations(run) for run in runs)):
        order = [c for run in orders for c in run] + bare
        place = {c: i for i, c in enumerate(order)}
        for ways in itertools.product(*(readings[c][1] for c in range(len(ap.circles)))):

            def carried(bd):
                if bd.circle is not None:
                    return new.bare_to_bd[place[bd.circle]]
                c, p, slot = old.endpoint(bd.crossings[0])
                return new.boundary_at(place[c], ways[c][p], slot)

            bd_map = [carried(bd) for bd in old.components]
            vblocks = [[place[x] for x in b] for b in pg.vparts.blocks]
            bblocks = [[bd_map[x] for x in b] for b in pg.bparts.blocks]
            node = _strip_isolated(PackagedPresentation(
                image,
                Partition.make(vblocks, range(len(order))),
                Partition.make(bblocks, range(len(bd_map))),
            ))[0]
            best = node if best is None else min(best, node, key=lambda x: x[1:])
    return best


def _reachable(pg, kinds):
    """Distinct sub-presentations with edges, in the DAG's node form
    (:func:`_node_form`), that the recursion reaches through ``kinds``
    alone, resolving edges in the DAG's rank."""
    rank = _edge_rank(pg, None)
    seen = set()

    def visit(x):
        x = _node_form(x)
        if x.ap.edges and x not in seen:
            seen.add(x)
            e = min(x.ap.edges, key=rank.__getitem__)
            for kind in kinds:
                visit(apply_edge_op(x, e, kind))

    visit(pg)
    return seen


def test_dag_resolves_live_operations_only():
    rng = random.Random(43)
    live = (EdgeOpKind.DELETE, EdgeOpKind.CONTRACT)
    for _ in range(20):
        pg = random_packaged(rng, max_edges=4, min_edges=1)
        _, nodes = resolution_dag(pg, None, live)
        assert len(nodes) == len(_reachable(pg, live))
        assert len(nodes) <= len(q_state_table(pg)[1])
        for _, refs in nodes:
            assert [slot for slot, _, _ in refs] == [0, 1]


def test_dag_is_no_larger_than_the_state_table():
    rng = random.Random(44)
    for _ in range(20):
        pg = random_packaged(rng, max_edges=5, min_edges=1)
        _, nodes = q_state_table(pg)
        # Nodes are distinct and children come first.
        assert len(nodes) == len(_reachable(pg, OP_ORDER)) <= 5 ** len(pg.ap.edges)
        for i, (_, refs) in enumerate(nodes):
            assert all(child < i for _, child, _ in refs)
        _, tnodes = transition_state_table(pg.ap)
        assert len(tnodes) <= 3 ** len(pg.ap.edges)


@settings(deadline=None, max_examples=60)
@given(packaged_presentations(min_edges=1, max_edges=6), st.randoms(use_true_random=False))
def test_cut_order_changes_no_value(pg, rng):
    # The DAG's own edge rank against least label first, and against any
    # given order, which its rank must put first.
    labels = sorted(pg.ap.edges)
    w = WeightSystem.per_edge(standard_registry(pg.ap.edges))
    assert q_multivariate(pg, w) == q_in_order(pg, w, labels)
    order = rng.sample(labels, rng.randint(0, len(labels)))
    rank = _edge_rank(pg, order)
    assert sorted(rank.values()) == list(range(len(labels)))
    assert [label for label in labels if rank[label] < len(order)] == sorted(order)
    assert all(rank[label] == i for i, label in enumerate(order))
    tw = {l: w.for_edge(l)[:3] for l in labels}
    t = (MultiPoly.var(w.registry, "t"),)
    assert fold_dag(resolution_dag(pg.ap, None, TRANSITION_OPS), tw, t) == fold_dag(
        resolution_dag(pg.ap, tuple(labels), TRANSITION_OPS), tw, t
    )


def test_cut_order_shrinks_the_sixteen_edge_dags():
    # Least label first, these two draws resolve to 22,015 and 20,789 nodes;
    # in cut order to 665 and 208 presentations, and 288 and 120 normal-form
    # nodes.
    rng = random.Random(16)
    for _ in range(2):
        pg = random_packaged(rng, max_edges=16, min_edges=16)
        _, nodes = resolution_dag(pg, None, OP_ORDER)
        assert len(nodes) <= 2000


def test_normal_nodes_shrink_the_twenty_four_edge_dags(monkeypatch):
    # Keyed by presentation, the first two draws resolve to 1,800 and 4,471
    # nodes; in normal form to 608 and 1,391 (599 and 1,391 when every
    # reading of a symmetric form was folded to its least labels).
    monkeypatch.setenv("RIBBONTENSOR_EDGE_CAP", "24")
    rng = random.Random(24)
    for bound in (700, 1500):
        pg = random_packaged(rng, max_edges=24, min_edges=24)
        _, nodes = resolution_dag(pg, None, OP_ORDER)
        assert len(nodes) <= bound


def test_dag_build_leaves_the_surgery_caches_alone():
    # The DAG's nodes are flat normal forms with their own memo, so a cold
    # build adds to the per-presentation caches at most the root's entries.
    # Misses count what a build adds even once a cache sits at its bound.
    rng = random.Random(48)
    caches = (arrow.boundary_trace, arrow.edge_op_traced, arrow.arrow_codes)
    for _ in range(3):
        pg = random_packaged(rng, max_edges=8, min_edges=8)
        weights = dict.fromkeys(pg.ap.edges, (Fraction(1, 2), Fraction(2, 3), 3, 5, Fraction(7, 9)))
        before = [c.cache_info().misses for c in caches]
        q_value(pg, weights, Fraction(2, 3), Fraction(5, 7), Fraction(3, 11))
        transition_poly(pg.ap)
        grown = [c.cache_info().misses - b for c, b in zip(caches, before)]
        assert grown[0] <= 1 and grown[1] == 0 and grown[2] <= 1, grown


def test_twelve_edge_q_text_golden():
    # Recorded with least label first: 5,873 nodes then, 325 in cut order.
    pg = random_packaged(random.Random(5), max_edges=12, min_edges=10)
    assert len(pg.ap.edges) == 12
    text = to_canonical_string(q_poly(pg))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "b22f44027383adfa"


def test_numeric_fast_paths_match_symbolic_evaluation():
    # mv_br_value at a point against the Q specialisation that
    # test_mv_br_is_q_specialised checks symbolically: delete weight 1,
    # merge-contract weight b_e, alpha = c, beta = a, gamma = 1.
    rng = random.Random(46)
    for _ in range(20):
        ap = random_presentation(rng, 4, 0, extra_circle_rate=0.2)
        a, c = (Fraction(rng.randint(1, 30), rng.randint(1, 30)) for _ in range(2))
        b_by = {l: Fraction(rng.randint(1, 30), rng.randint(1, 30)) for l in ap.edges}
        weights = {l: (1, 0, 0, 0, b) for l, b in b_by.items()}
        expected = q_value(make_packaged(ap), weights, c, a, Fraction(1))
        assert mv_br_value(ap, a, b_by, c) == expected


# ---- the Whitney-rank expansions against deletion-contraction -------------


def _connected(g, u, v):
    """Whether u reaches v in g (a plain search, independent of the library)."""
    seen, stack = {u}, [u]
    while stack:
        w = stack.pop()
        for p, q in g.edge_list:
            for s, t in ((p, q), (q, p)):
                if s == w and t not in seen:
                    seen.add(t)
                    stack.append(t)
    return v in seen


def _zdot_dc(g, a, b, c):
    if not g.m:
        return a**g.n
    return c * _zdot_dc(g.delete(0), a, b, c) + b * _zdot_dc(g.contract(0), a, b, c)


def _tutte_dc(g, x, y):
    if not g.m:
        return 1
    u, v = g.edge_list[0]
    if u == v:
        return y * _tutte_dc(g.delete(0), x, y)
    if not _connected(g.delete(0), u, v):
        return x * _tutte_dc(g.contract(0), x, y)
    return _tutte_dc(g.delete(0), x, y) + _tutte_dc(g.contract(0), x, y)


multigraphs = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6).map(
        lambda edges: Multigraph.make(n, edges)
    )
)
small_fractions = st.fractions(-5, 5, max_denominator=7)


@settings(deadline=None, max_examples=60)
@given(multigraphs, small_fractions, small_fractions, small_fractions)
def test_whitney_expansions_satisfy_deletion_contraction(g, p, q, r):
    assert zdot_value(g, p, q, r) == _zdot_dc(g, p, q, r)
    assert tutte_value(g, p, q) == _tutte_dc(g, p, q)
    assert zdot_tutte(g).eval_at({"a": p, "b": q, "c": r}) == _zdot_dc(g, p, q, r)
    assert tutte_poly(g).eval_at({"x": p, "y": q}) == _tutte_dc(g, p, q)


# ---- the power-table subset expansions against the per-row sums -----------

# Zero, one (x = 1 or y = 1 makes a base 0, whose power 0 must stay 1),
# negatives, plain ints and fractions.
scalars = st.one_of(
    st.sampled_from([0, 1, -1, Fraction(0), Fraction(1), Fraction(-1)]),
    st.integers(-4, 4),
    st.fractions(-5, 5, max_denominator=9),
)
larger_multigraphs = st.integers(1, 5).flatmap(
    lambda n: st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=7).map(
        lambda edges: Multigraph.make(n, edges)
    )
)


@settings(deadline=None, max_examples=150)
@given(presentations(0, 7), larger_multigraphs, st.data())
def test_subset_expansions_match_the_per_row_reference_at_points(ap, g, data):
    a, b, c = (data.draw(scalars) for _ in range(3))
    b_by = {label: data.draw(scalars) for label in sorted(ap.edges)}
    assert mv_br_value(ap, a, b_by, c) == reference.mv_br_value(ap, a, b_by, c)
    assert zdot_value(g, a, b, c) == reference.zdot_value(g, a, b, c)
    assert tutte_value(g, a, b) == reference.tutte_value(g, a, b)
    h = graph_of_presentation(ap)
    assert zdot_value(h, a, b, c) == reference.zdot_value(h, a, b, c)
    assert tutte_value(h, a, c) == reference.tutte_value(h, a, c)


@settings(deadline=None, max_examples=60)
@given(presentations(0, 7), larger_multigraphs)
def test_subset_expansions_match_the_per_row_reference_symbolically(ap, g):
    assert br_poly(ap) == reference.br_poly(ap)
    reg = VarRegistry(("a", "c") + tuple(f"b_{label}" for label in sorted(ap.edges)))
    a, c = MultiPoly.var(reg, "a"), MultiPoly.var(reg, "c")
    b_by = {label: MultiPoly.var(reg, f"b_{label}") for label in ap.edges}
    assert mv_br_poly(ap) == reference.mv_br_value(ap, a, b_by, c)
    reg = VarRegistry(("a", "b", "c"))
    a, b, c = (MultiPoly.var(reg, n) for n in ("a", "b", "c"))
    assert zdot_tutte(g) == reference.zdot_value(g, a, b, c)
    assert tutte_value(g, a, b) == reference.tutte_value(g, a, b)
    x, y = (MultiPoly.var(tutte_poly(g).registry, n) for n in ("x", "y"))
    assert tutte_poly(g) == reference.tutte_value(g, x, y)


# ---- the edge cap ----------------------------------------------------------


def test_edge_cap_is_checked_on_cache_hits(monkeypatch):
    monkeypatch.delenv("RIBBONTENSOR_EDGE_CAP", raising=False)
    circles = [[("e", True), ("f", True), ("g", True)], [("e", True), ("f", True), ("g", True)]]
    pg = make_packaged(ArrowPresentation.from_circles(circles))
    weights = {l: (Fraction(1),) * 5 for l in pg.ap.edges}
    args = (Fraction(2), Fraction(3), Fraction(5))
    q_value(pg, weights, *args)
    q_state_table(pg)
    transition_state_table(pg.ap)
    monkeypatch.setenv("RIBBONTENSOR_EDGE_CAP", "2")
    with pytest.raises(SizeLimitExceeded, match="resolution DAG capped at 2 edges, got 3"):
        q_value(pg, weights, *args)
    with pytest.raises(SizeLimitExceeded, match="resolution DAG capped at 2 edges, got 3"):
        q_state_table(pg)
    with pytest.raises(SizeLimitExceeded, match="resolution DAG capped at 2 edges, got 3"):
        transition_state_table(pg.ap)


def test_value_evaluators_respect_edge_cap(monkeypatch):
    monkeypatch.delenv("RIBBONTENSOR_EDGE_CAP", raising=False)
    ap = ArrowPresentation.from_circles([[("e", True), ("f", True), ("g", True)]] * 2)
    g = graph_of_presentation(ap)
    one = Fraction(1)
    b_by = {l: one for l in ap.edges}
    # Built and cached under the default cap, then refused under a lower one.
    assert mv_br_value(ap, one, b_by, one) == 8
    assert zdot_value(g, one, one, one) == 8
    monkeypatch.setenv("RIBBONTENSOR_EDGE_CAP", "2")
    calls = (
        lambda: mv_br_value(ap, one, b_by, one),
        lambda: zdot_value(g, one, one, one),
        lambda: tutte_value(g, one, one),
        lambda: mv_br_poly(ap),
        lambda: br_poly(ap),
        lambda: zdot_tutte(g),
        lambda: tutte_poly(g),
    )
    for call in calls:
        with pytest.raises(SizeLimitExceeded, match="subset expansion capped at 2 edges, got 3"):
            call()
    # A cap of exactly the edge count admits them; T(1, 1) counts the three
    # spanning trees.
    monkeypatch.setenv("RIBBONTENSOR_EDGE_CAP", "3")
    assert tutte_poly(g).eval_at({"x": one, "y": one}) == 3
    assert zdot_tutte(g).eval_at({"a": one, "b": one, "c": one}) == 8
    assert len(mv_br_poly(ap).terms) == 8
    assert len(br_poly(ap).terms) == 4


def test_spanning_table_keeps_little_memory():
    # A cached table holds about a pointer per subset (the rows are shared),
    # and only a few tables are kept: at the 16-edge cap that is about
    # 0.5 MB each.
    ap = random_presentation(random.Random(3), 10, 10)
    one = Fraction(1)
    b_by = {l: one for l in ap.edges}
    tracemalloc.start()
    try:
        _spanning_table.cache_clear()
        mv_br_value(ap, one, b_by, one)
        gc.collect()
        with_table = tracemalloc.get_traced_memory()[0]
        _spanning_table.cache_clear()
        gc.collect()
        kept = with_table - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 0 < kept < 16 * 2**10 + 4096
    assert _spanning_table.cache_info().maxsize <= 8


def test_spanning_table_leaves_the_presentation_caches_alone():
    # Each of the 2^10 sub-presentations is traced once and thrown away, so
    # the per-presentation caches may gain the whole presentation at most
    # (counted by misses, which a full cache still records).
    ap = random_presentation(random.Random(4), 10, 10)
    one = Fraction(1)
    _spanning_table.cache_clear()
    caches = (arrow.boundary_trace, arrow.arrow_codes)
    before = [c.cache_info().misses for c in caches]
    mv_br_value(ap, one, {l: one for l in ap.edges}, one)
    grown = [c.cache_info().misses - b for c, b in zip(caches, before)]
    assert _spanning_table.cache_info().currsize == 1
    assert all(g <= 1 for g in grown), grown


def test_spanning_table_matches_the_spanning_sub_presentations():
    # The table built on the forest and an uncached trace of the filtered
    # circles equals the one built from each rotated sub-presentation.
    rng = random.Random(9)
    draws = [random_presentation(rng, 7) for _ in range(200)]
    draws.append(random_presentation(random.Random(12), 12, 12))
    for ap in draws:
        _spanning_table.cache_clear()
        assert _spanning_table(ap) == reference.spanning_table(ap)


def test_subset_counts_match_the_dict_forest():
    rng = random.Random(10)
    for _ in range(200):
        n = rng.randint(1, 6)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 10))]
        g = Multigraph.make(n, edges)
        assert _subset_counts.__wrapped__(g) == reference.subset_counts(g)
        assert g.rank() == n - reference.component_count(n, g.edge_list)
