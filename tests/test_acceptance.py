"""Acceptance suite.

Each test runs one criterion at its stated instance counts, exact-equality
tolerance, and wall-clock budget, and prints a single PASS/FAIL line (run
pytest with -s to see them).  Randomness is seeded; everything is exact
integer/rational arithmetic, so "tolerance" always means equality.
"""

import random
import time
from fractions import Fraction

from ribbontensor.arrow import (
    ArrowPresentation,
    boundary_components,
    canonical_form,
    contract_edge,
    delete_edge,
    penrose_contract_edge,
    surface_stats,
)
from ribbontensor.errors import SingularAtPoint
from ribbontensor.packaged import (
    Coupling,
    EdgeOpKind,
    PackagedPresentation,
    Partition,
    apply_edge_op,
    canonical_packaged,
    k_presentations,
    make_packaged,
    two_sum,
)
from ribbontensor.poly import MultiPoly, standard_registry
from ribbontensor.polynomials import (
    Multigraph,
    WeightSystem,
    mv_br_poly,
    q_multivariate,
    qhat_poly,
    transition_poly,
    zhat_poly,
)
from ribbontensor.randgen import (
    random_blocks,
    random_packaged,
    random_point,
    random_presentation,
)
from ribbontensor.tensor_formula import (
    TheoremKind,
    plan_instance,
    run_verification,
    solve_phis,
    verify_identity,
)
from state_sum_reference import monomial, q_in_order, state_sum_oracle, substitute


def _report(number, name, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {number:>2} [{status}] {name}: {elapsed:.1f}s (budget {budget}s)")
    assert ok, f"criterion {number} failed"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"


def test_criterion_01_well_definedness():
    rng = random.Random(101)
    start = time.perf_counter()
    ok = True
    for _ in range(200):
        pg = random_packaged(rng, max_edges=6, min_edges=1)
        labels = sorted(pg.ap.edges)
        first, second = labels[:], labels[:]
        rng.shuffle(first)
        rng.shuffle(second)
        w = WeightSystem.per_edge(standard_registry(pg.ap.edges))
        if q_in_order(pg, w, first) != q_in_order(pg, w, second):
            ok = False
            break
    _report(1, "edge-order independence (200 x <=6 edges)", ok, time.perf_counter() - start, 60)


def test_criterion_02_state_sum_oracle():
    rng = random.Random(102)
    start = time.perf_counter()
    ok = True
    for _ in range(100):
        pg = random_packaged(rng, max_edges=5)
        w = WeightSystem.per_edge(standard_registry(pg.ap.edges))
        if q_multivariate(pg, w) != state_sum_oracle(pg, w):
            ok = False
            break
    _report(2, "recursion equals 5^e state sum (100 x <=5 edges)", ok, time.perf_counter() - start, 60)


def test_criterion_03_basis_two_sums():
    rng = random.Random(103)
    kinds = (
        EdgeOpKind.DELETE,
        EdgeOpKind.CONTRACT,
        EdgeOpKind.PENROSE,
        EdgeOpKind.MERGE_DELETE,
        EdgeOpKind.MERGE_CONTRACT,
    )
    start = time.perf_counter()
    ok = True
    for _ in range(30):
        pg = random_packaged(rng, max_edges=5, min_edges=1)
        f = rng.choice(sorted(pg.ap.edges))
        for i, kind in enumerate(kinds):
            k = k_presentations()[i]
            factor = PackagedPresentation(
                k.ap.relabel({"e": "zz"}), k.vparts, k.bparts
            )
            lhs = canonical_packaged(
                two_sum(pg, factor, Coupling(f, "zz", rng.random() < 0.5))
            )
            rhs = canonical_packaged(apply_edge_op(pg, f, kind))
            if lhs != rhs:
                ok = False
                break
        if not ok:
            break
    _report(3, "one-edge factors realise the five operations (30 x 5)", ok, time.perf_counter() - start, 120)


def test_criterion_04_five_weight_tensor_formulas():
    start = time.perf_counter()
    ok = True
    for kind in (TheoremKind.MAINMV, TheoremKind.MAIN, TheoremKind.CORZ, TheoremKind.TWOSUM):
        report = run_verification(kind, seed=104, instances=30, points=10)
        if not report.ok:
            ok = False
            break
    _report(4, "five-weight tensor/2-sum identities (4 kinds x 30 x 10)", ok, time.perf_counter() - start, 300)


def test_criterion_05_four_weight_formulas():
    start = time.perf_counter()
    ok = True
    for kind in (TheoremKind.BR, TheoremKind.BRZHAT):
        report = run_verification(kind, seed=105, instances=30, points=10)
        if not report.ok:
            ok = False
            break
    _report(5, "vertex-partitioned 4x4 identities (2 kinds x 30 x 10)", ok, time.perf_counter() - start, 300)


def test_criterion_06_transition_formula():
    start = time.perf_counter()
    report = run_verification(TheoremKind.TRANSITION, seed=106, instances=30, points=10)
    ok = report.ok
    # orientable factors with vanishing Penrose weights force the third
    # coefficient to zero at every sampled point
    rng = random.Random(1060)
    checked = 0
    while checked < 15 and ok:
        ah = random_presentation(rng, max_edges=4, min_edges=1, extra_circle_rate=0)
        if not surface_stats(ah).orientable:
            continue
        e = rng.choice(sorted(ah.edges))
        for _ in range(10):
            pt = {"t": random_point(rng, ["t"])["t"]}
            for l in ah.edges:
                pt[f"a_{l}"] = random_point(rng, ["v"])["v"]
                pt[f"b_{l}"] = random_point(rng, ["v"])["v"]
                pt[f"c_{l}"] = Fraction(0)
            try:
                phis = solve_phis(TheoremKind.TRANSITION, ah, e, pt)
            except SingularAtPoint:
                continue
            if phis[2] != 0:
                ok = False
                break
        checked += 1
    _report(6, "transition 3x3 identity + forced zero coefficient", ok, time.perf_counter() - start, 300)


def test_criterion_07_tutte_recovery():
    start = time.perf_counter()
    ok = True
    # canonical pair: host 3-cycle; factor a 3-cycle pointed at one side, so
    # the factor's e-complement is the 2-edge path
    g = Multigraph.make(3, [(0, 1), (1, 2), (0, 2)])
    h = Multigraph.make(3, [(0, 1), (1, 2), (0, 2)])
    plan = plan_instance(TheoremKind.TUTTE, g, (h, 0), [False, False, False])
    rng = random.Random(107)
    done = 0
    while done < 20:
        pt = random_point(rng, ["a", "b", "x", "y"])
        try:
            out = verify_identity(plan, pt)
        except SingularAtPoint:
            continue
        if not out.ok:
            ok = False
            break
        done += 1
    if ok:
        report = run_verification(TheoremKind.TUTTE, seed=107, instances=20, points=20)
        ok = report.ok
    _report(7, "graph tensor identities (canonical pair + 20 x 20)", ok, time.perf_counter() - start, 60)


def test_criterion_08_specialisation_identities():
    rng = random.Random(108)
    start = time.perf_counter()
    ok = True
    for _ in range(100):
        ap = random_presentation(rng, max_edges=5, min_edges=1, extra_circle_rate=0)
        reg = standard_registry(ap.edges)
        zero = MultiPoly.zero(reg)
        # transition polynomial as the five-weight polynomial with swapped
        # delete/contract weights at alpha=t, beta=gamma=1
        pg = PackagedPresentation(
            ap,
            Partition.one_block(range(len(ap.circles))),
            Partition.one_block(range(len(boundary_components(ap)))),
        )
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
        if q != transition_poly(ap):
            ok = False
            break
        # multivariate subset expansion as the five-weight polynomial with
        # weights (1,0,0,0,b_e) at alpha=c, beta=a, gamma=1
        pg2 = make_packaged(ap)
        one = MultiPoly.const(reg, 1)
        w2 = WeightSystem(
            reg,
            {l: (one, zero, zero, zero, MultiPoly.var(reg, f"b_{l}")) for l in ap.edges}.__getitem__,
        )
        q2 = substitute(
            q_multivariate(pg2, w2).set_to_one("gamma"),
            {"alpha": MultiPoly.var(reg, "c"), "beta": MultiPoly.var(reg, "a")},
        )
        z = mv_br_poly(ap)
        z_std = MultiPoly.zero(reg)
        for exps, coeff in z.items():
            z_std = z_std + monomial(
                reg, {n: e for n, e in zip(z.registry.names, exps) if e}, coeff
            )
        if q2 != z_std:
            ok = False
            break
    _report(8, "transition & subset-expansion specialisations (100 x <=5)", ok, time.perf_counter() - start, 120)


def test_criterion_09_boundary_partition_independence():
    rng = random.Random(109)
    start = time.perf_counter()
    ok = True
    for _ in range(50):
        ap = random_presentation(rng, max_edges=4)
        vb = random_blocks(rng, len(ap.circles))
        nb = len(boundary_components(ap))
        z_vals = set()
        q_vals = set()
        for _ in range(3):
            pg = make_packaged(ap, vb, random_blocks(rng, nb))
            z_vals.add(zhat_poly(pg))
            q_vals.add(qhat_poly(pg))
        if len(z_vals) != 1 or len(q_vals) != 1:
            ok = False
            break
    _report(9, "hatted polynomials ignore the boundary partition (50 x 3)", ok, time.perf_counter() - start, 60)


def test_criterion_10_golden_fixture():
    start = time.perf_counter()
    fig_a = ArrowPresentation.from_circles(
        [[("f", True), ("e", True), ("g", True), ("e", True)], [("f", True), ("g", True)]]
    )
    fig_delete = ArrowPresentation.from_circles(
        [[("f", True), ("g", True)], [("f", True), ("g", True)]]
    )
    fig_contract = ArrowPresentation.from_circles(
        [[("f", True), ("g", True)], [("f", True)], [("g", True)]]
    )
    fig_penrose = ArrowPresentation.from_circles(
        [[("f", True), ("g", True)], [("f", True), ("g", False)]]
    )
    stats = surface_stats(fig_a)
    ok = (
        len(boundary_components(fig_a)) == 1
        and stats.euler_genus == 2
        and canonical_form(delete_edge(fig_a, "e")) == canonical_form(fig_delete)
        and canonical_form(contract_edge(fig_a, "e")) == canonical_form(fig_contract)
        and canonical_form(penrose_contract_edge(fig_a, "e")) == canonical_form(fig_penrose)
    )
    _report(10, "golden fixture boundary count and operation images", ok, time.perf_counter() - start, 5)
