"""Tensor-product and 2-sum identities, verified by exact evaluation.

Every identity has the same shape: the polynomial of a composed presentation
(a 2-sum, or a tensor product factor by factor) equals the host polynomial
with each tensored edge's weights replaced by solved transfer coefficients.
The coefficients come from a small exact linear system whose matrix collects
the five (or four, three, two) operation values of the one-edge basis
presentations.

Verification is pointwise: both sides are evaluated at random rational
points (numerators and denominators in [1, 10^4]); points where the system
matrix degenerates are resampled.  Agreement is required to be exact.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping

from .arrow import (
    HEAD,
    ArrowPresentation,
    boundary_trace,
    contract_edge,
    delete_edge,
    penrose_contract_edge,
    surface_stats,
)
from .errors import InvalidArgument, SingularAtPoint, SingularMatrix
from .files import presentation_to_dict
from .packaged import (
    Coupling,
    PackagedPresentation,
    apply_edge_op,
    compose_two_sums,
    k_presentations,
    make_packaged,
)
from .poly import determinant, solve_linear
from .polynomials import (
    OP_ORDER,
    Multigraph,
    graph_tensor,
    mv_br_value,
    q_value,
    transition_state_table,
    transition_table_value,
    tutte_value,
    zdot_value,
)
from .randgen import (
    random_connected_multigraph,
    random_packaged,
    random_plane_presentation,
    random_point,
    random_presentation,
    random_vertex_partitioned,
)


class TheoremKind(Enum):
    MAINMV = "mainmv"
    MAIN = "main"
    CORZ = "corz"
    FULLTENSOR = "fulltensor"
    TWOSUM = "twosum"
    BR = "br"
    BRZHAT = "brzhat"
    TRANSITION = "transition"
    PLANEMVBR = "planemvbr"
    TUTTE = "tutte"


_FIVE = (TheoremKind.MAINMV, TheoremKind.MAIN, TheoremKind.CORZ,
         TheoremKind.FULLTENSOR, TheoremKind.TWOSUM)
_FOUR = (TheoremKind.BR, TheoremKind.BRZHAT)


def _phi_rows(kind: TheoremKind, pt: Mapping[str, Fraction]):
    """The rows of the transfer matrix of ``kind`` at ``pt``, unchecked."""
    one = Fraction(1)
    if kind in _FIVE:
        al, be, ga = pt["alpha"], pt["beta"], pt["gamma"]
        s = al * be * ga
        rows = [
            [al * be, one, one, al, one],
            [one, al * ga, one, one, al],
            [one, one, al, one, one],
            [al, one, one, al, one],
            [one, al, one, one, al],
        ]
        matrix = [[s * x for x in row] for row in rows]
    elif kind in _FOUR:
        al, be = pt["alpha"], pt["beta"]
        s = al * be
        rows = [
            [al * be, one, one, al],
            [one, al, one, one],
            [one, one, al, one],
            [al, one, one, al],
        ]
        matrix = [[s * x for x in row] for row in rows]
    elif kind is TheoremKind.TRANSITION:
        t = pt["t"]
        matrix = [[t * t, t, t], [t, t * t, t], [t, t, t * t]]
    elif kind is TheoremKind.TUTTE:
        a = pt["a"]
        matrix = [[a, a * a], [a, a]]
    elif kind is TheoremKind.PLANEMVBR:
        a, c = pt["a"], pt["c"]
        matrix = [[a * c, one], [one, c]]
    else:
        raise ValueError(f"unknown theorem kind {kind}")
    return matrix


def _singular(kind: TheoremKind) -> SingularAtPoint:
    return SingularAtPoint(f"{kind.value} matrix singular at the sampled point")


def build_phi_matrix(kind: TheoremKind, pt: Mapping[str, Fraction]):
    """The exact transfer matrix of ``kind`` at ``pt``.

    Raises :class:`SingularAtPoint` when it degenerates there (the caller
    resamples the point).
    """
    matrix = _phi_rows(kind, pt)
    if determinant(matrix) == 0:
        raise _singular(kind)
    return matrix


def _five_weights(labels, pt, kind: TheoremKind):
    if kind in (TheoremKind.MAINMV, TheoremKind.FULLTENSOR):
        return {
            l: tuple(pt[f"{s}_{l}"] for s in ("a", "b", "c", "x", "y")) for l in labels
        }
    if kind is TheoremKind.CORZ:
        w = (pt["a"], pt["b"], Fraction(0), Fraction(0), Fraction(0))
        return {l: w for l in labels}
    w = tuple(pt[s] for s in ("a", "b", "c", "x", "y"))
    return {l: w for l in labels}


def _four_weights(labels, pt, kind: TheoremKind):
    if kind is TheoremKind.BRZHAT:
        w = (pt["a"], pt["b"], Fraction(0), Fraction(0), Fraction(0))
    else:
        w = (pt["a"], pt["b"], pt["c"], pt["x"], Fraction(0))
    return {l: w for l in labels}


def _transition_weights(labels, pt):
    return {l: tuple(pt[f"{s}_{l}"] for s in ("a", "b", "c")) for l in labels}


def solve_phis(kind: TheoremKind, ph, e, pt: Mapping[str, Fraction]) -> tuple:
    """Transfer coefficients of one factor at one point.

    ``ph`` is a packaged presentation for the five- and four-row kinds, a
    bare arrow presentation for the transition and plane kinds, and a
    multigraph for the Tutte kind; ``e`` names (or indexes) its coupled edge.
    Raises :class:`SingularAtPoint` when the transfer matrix degenerates.
    """
    matrix = _phi_rows(kind, pt)
    if kind in _FIVE:
        weights = _five_weights(sorted(ph.ap.edges - {e}), pt, kind)
        rhs = [
            q_value(apply_edge_op(ph, e, op), weights, pt["alpha"], pt["beta"], pt["gamma"])
            for op in OP_ORDER
        ]
    elif kind in _FOUR:
        weights = _four_weights(sorted(ph.ap.edges - {e}), pt, kind)
        rhs = [
            q_value(apply_edge_op(ph, e, op), weights, pt["alpha"], pt["beta"], Fraction(1))
            for op in OP_ORDER[:4]
        ]
    elif kind is TheoremKind.TRANSITION:
        weights = _transition_weights(sorted(ph.edges - {e}), pt)
        rhs = []
        for fn in (contract_edge, delete_edge, penrose_contract_edge):
            table = transition_state_table(fn(ph, e))
            rhs.append(transition_table_value(table, weights, pt["t"]))
    elif kind is TheoremKind.TUTTE:
        g, e_idx = ph, e
        rhs = [
            zdot_value(g.delete(e_idx), pt["a"], pt["b"], Fraction(1)),
            zdot_value(g.contract(e_idx), pt["a"], pt["b"], Fraction(1)),
        ]
    elif kind is TheoremKind.PLANEMVBR:
        b_by = {l: pt[f"b_{l}"] for l in ph.edges}
        rhs = [
            mv_br_value(delete_edge(ph, e), pt["a"], b_by, pt["c"]),
            mv_br_value(contract_edge(ph, e), pt["a"], b_by, pt["c"]),
        ]
    else:
        raise ValueError(f"unknown theorem kind {kind}")
    try:
        return tuple(solve_linear(matrix, rhs))
    except SingularMatrix:
        raise _singular(kind) from None


def phi0_structural_zeros(
    ph: PackagedPresentation, e: str, c_zero: bool = False
) -> frozenset:
    """Indices of transfer coefficients forced to vanish by the factor's shape.

    0: the coupled edge is a loop or joins circles of one vertex class;
    1: its two incident boundaries coincide or share a class;
    2: the factor is orientable and every Penrose weight is zero.
    """
    zeros = set()
    (c1, p1), (c2, p2) = ph.ap.occurrences(e)
    if c1 == c2 or ph.vparts.block_of(c1) == ph.vparts.block_of(c2):
        zeros.add(0)
    token_to_bd = boundary_trace(ph.ap).token_to_bd
    a = token_to_bd[(c1, p1, HEAD)]
    b = token_to_bd[(c2, p2, HEAD)]
    if a == b or ph.bparts.block_of(a) == ph.bparts.block_of(b):
        zeros.add(1)
    if c_zero and surface_stats(ph.ap).orientable:
        zeros.add(2)
    return frozenset(zeros)


# --------------------------------------------------------------------------
# identity verification


@dataclass(frozen=True)
class VerifyOutcome:
    ok: bool
    comparisons: tuple  # (name, lhs, rhs)

    @property
    def lhs(self):
        return self.comparisons[0][1]

    @property
    def rhs(self):
        return self.comparisons[0][2]


def _outcome(*pairs):
    comps = tuple(pairs)
    return VerifyOutcome(all(l == r for _, l, r in comps), comps)


def verify_identity(kind: TheoremKind, pg, factors, couplings, pt) -> VerifyOutcome:
    """Evaluate both sides of one identity at one point.

    Shapes of ``factors``/``couplings``:

    * TWOSUM: a packaged presentation and a single :class:`Coupling`.
    * MAINMV / FULLTENSOR: a list of ``(f, ph, e)`` and matching couplings.
    * MAIN / CORZ / BR / BRZHAT: one ``(ph, e)`` pair, couplings a
      ``{f: swap}`` mapping (uniform tensor).
    * TRANSITION: list of ``(f, arrow_presentation, e)``; couplings as above.
    * PLANEMVBR: list of ``(f, arrow_presentation, e)`` with plane factors.
    * TUTTE: ``(h_graph, edge_index)``; couplings a list of orientation flips.
    """
    if kind is TheoremKind.TWOSUM:
        return _verify_twosum(pg, factors, couplings, pt)
    if kind in (TheoremKind.MAINMV, TheoremKind.FULLTENSOR):
        return _verify_mainmv(kind, pg, factors, couplings, pt)
    if kind in (TheoremKind.MAIN, TheoremKind.CORZ):
        return _verify_uniform(kind, pg, factors, couplings, pt)
    if kind in _FOUR:
        return _verify_br(kind, pg, factors, couplings, pt)
    if kind is TheoremKind.TRANSITION:
        return _verify_transition(pg, factors, couplings, pt)
    if kind is TheoremKind.PLANEMVBR:
        return _verify_planemvbr(pg, factors, couplings, pt)
    if kind is TheoremKind.TUTTE:
        return _verify_tutte(pg, factors, couplings, pt)
    raise ValueError(f"unknown theorem kind {kind}")


def _verify_twosum(pg, ph, coupling: Coupling, pt):
    al, be, ga = pt["alpha"], pt["beta"], pt["gamma"]
    composed = compose_two_sums(pg, [(coupling.source, ph, coupling.target, coupling.swap)])
    w_comp = _five_weights(sorted(composed.ap.edges), pt, TheoremKind.TWOSUM)
    lhs = q_value(composed, w_comp, al, be, ga)
    host_weights = _five_weights(sorted(pg.ap.edges), pt, TheoremKind.TWOSUM)
    host_weights[coupling.source] = solve_phis(TheoremKind.TWOSUM, ph, coupling.target, pt)
    rhs = q_value(pg, host_weights, al, be, ga)
    return _outcome(("twosum", lhs, rhs))


def _verify_mainmv(kind, pg, factors, couplings, pt):
    al, be, ga = pt["alpha"], pt["beta"], pt["gamma"]
    parts = [
        (f, ph, e, c.swap) for (f, ph, e), c in zip(factors, couplings)
    ]
    composed = compose_two_sums(pg, parts)
    w_comp = _five_weights(sorted(composed.ap.edges), pt, kind)
    lhs = q_value(composed, w_comp, al, be, ga)

    host_weights = _five_weights(sorted(pg.ap.edges), pt, kind)
    for f, ph, e, _ in parts:
        ph_ns = ph.ap.relabel({l: f"{f}.{l}" for l in ph.ap.edges})
        ph_pack = PackagedPresentation(ph_ns, ph.vparts, ph.bparts)
        host_weights[f] = solve_phis(kind, ph_pack, f"{f}.{e}", pt)
    rhs = q_value(pg, host_weights, al, be, ga)
    return _outcome((kind.value, lhs, rhs))


def _verify_uniform(kind, pg, factor, couplings, pt):
    al, be, ga = pt["alpha"], pt["beta"], pt["gamma"]
    ph, e = factor
    parts = [(f, ph, e, couplings.get(f, False)) for f in sorted(pg.ap.edges)]
    composed = compose_two_sums(pg, parts)
    w_comp = _five_weights(sorted(composed.ap.edges), pt, kind)
    lhs = q_value(composed, w_comp, al, be, ga)

    phis = solve_phis(kind, ph, e, pt)
    host_weights = {f: phis for f in pg.ap.edges}
    rhs = q_value(pg, host_weights, al, be, ga)
    return _outcome((kind.value, lhs, rhs))


def _verify_br(kind, pg, factor, couplings, pt):
    al, be, one = pt["alpha"], pt["beta"], Fraction(1)
    ph, e = factor
    parts = [(f, ph, e, couplings.get(f, False)) for f in sorted(pg.ap.edges)]
    composed = compose_two_sums(pg, parts)
    w_comp = _four_weights(sorted(composed.ap.edges), pt, kind)
    lhs = q_value(composed, w_comp, al, be, one)

    phis = solve_phis(kind, ph, e, pt)
    host_weights = {
        f: (phis[0], phis[1], phis[2], phis[3], Fraction(0)) for f in pg.ap.edges
    }
    rhs = q_value(pg, host_weights, al, be, one)
    return _outcome((kind.value, lhs, rhs))


def _verify_transition(ag, factors, couplings, pt):
    t = pt["t"]
    parts = []
    for (f, ah, e), c in zip(factors, couplings):
        parts.append((f, make_packaged(ah), e, c.swap))
    host = make_packaged(ag)
    composed = compose_two_sums(host, parts).ap
    w_comp = _transition_weights(sorted(composed.edges), pt)
    lhs = transition_table_value(transition_state_table(composed), w_comp, t)

    host_weights = {}
    for f, ah, e in factors:
        ah_ns = ah.relabel({l: f"{f}.{l}" for l in ah.edges})
        host_weights[f] = solve_phis(TheoremKind.TRANSITION, ah_ns, f"{f}.{e}", pt)
    rhs = transition_table_value(transition_state_table(ag), host_weights, t)
    return _outcome(("transition", lhs, rhs))


def _verify_planemvbr(ag, factors, couplings, pt):
    a, c = pt["a"], pt["c"]
    parts = []
    for (f, ah, e), coup in zip(factors, couplings):
        parts.append((f, make_packaged(ah), e, coup.swap))
    host = make_packaged(ag)
    composed = compose_two_sums(host, parts).ap
    b_comp = {l: pt[f"b_{l}"] for l in composed.edges}
    lhs = mv_br_value(composed, a, b_comp, c)

    prefactor = (a * c) ** (-len(ag.edges))
    host_b = {}
    for f, ah, e in factors:
        ah_ns = ah.relabel({l: f"{f}.{l}" for l in ah.edges})
        g_f, f_f = solve_phis(TheoremKind.PLANEMVBR, ah_ns, f"{f}.{e}", pt)
        if g_f == 0:
            raise SingularAtPoint("vanishing leading transfer coefficient")
        prefactor *= g_f
        host_b[f] = f_f / g_f
    rhs = prefactor * mv_br_value(ag, a, host_b, c)
    return _outcome(("planemvbr", lhs, rhs))


def _verify_tutte(g: Multigraph, factor, flips, pt):
    h, e_idx = factor
    composed = graph_tensor(g, h, e_idx, flips)

    a, b = pt["a"], pt["b"]
    f_g = solve_phis(TheoremKind.TUTTE, h, e_idx, pt)
    lhs_z = zdot_value(composed, a, b, Fraction(1))
    rhs_z = zdot_value(g, a, f_g[0], f_g[1])

    x, y = pt["x"], pt["y"]
    t_del = tutte_value(h.delete(e_idx), x, y)
    t_con = tutte_value(h.contract(e_idx), x, y)
    phi, psi = solve_linear(
        [[x - 1, Fraction(1)], [Fraction(1), y - 1]], [t_del, t_con]
    )
    if phi == 0 or psi == 0:
        raise SingularAtPoint("vanishing Tutte transfer coefficient")
    n_g = g.m - g.rank()
    r_g = g.rank()
    lhs_t = tutte_value(composed, x, y)
    rhs_t = phi**n_g * psi**r_g * tutte_value(g, t_del / psi, t_con / phi)
    return _outcome(("zdot", lhs_z, rhs_z), ("tutte", lhs_t, rhs_t))


# --------------------------------------------------------------------------
# instance generation and the verification loop


@dataclass(frozen=True)
class Failure:
    instance: str
    point: dict
    comparisons: tuple


@dataclass(frozen=True)
class VerifyReport:
    kind: str
    seed: int
    instances: int
    points: int
    failures: tuple
    elapsed: float

    @property
    def ok(self) -> bool:
        return not self.failures


def _describe(pg) -> str:
    if isinstance(pg, PackagedPresentation):
        return repr(presentation_to_dict(pg))
    if isinstance(pg, ArrowPresentation):
        return repr([[f"{o.label}{'+' if o.forward else '-'}" for o in c] for c in pg.circles])
    return repr(pg)


def _composed_size(g_edges, tensored, factor_sizes):
    return g_edges - tensored + sum(s - 1 for s in factor_sizes)


def random_instance(kind: TheoremKind, rng: random.Random, size_budget: int = 6):
    """One random admissible instance: (pg, factors, couplings, var names)."""
    if kind in (TheoremKind.MAINMV, TheoremKind.FULLTENSOR):
        while True:
            pg = random_packaged(rng, max_edges=4, min_edges=1)
            edges = sorted(pg.ap.edges)
            k = len(edges) if kind is TheoremKind.FULLTENSOR else rng.randint(1, len(edges))
            chosen = rng.sample(edges, k)
            sizes = [rng.randint(1, 4) for _ in chosen]
            if _composed_size(len(edges), k, sizes) <= size_budget:
                break
        factors, couplings = [], []
        for f, size in zip(sorted(chosen), sizes):
            ph = random_packaged(rng, max_edges=size, min_edges=size)
            e = rng.choice(sorted(ph.ap.edges))
            factors.append((f, ph, e))
            couplings.append(Coupling(f, e, rng.random() < 0.5))
        names = {"alpha", "beta", "gamma"}
        for l in _mainmv_labels(pg, factors) | pg.ap.edges:
            names |= {f"{s}_{l}" for s in ("a", "b", "c", "x", "y")}
        return pg, factors, couplings, names

    if kind in (TheoremKind.MAIN, TheoremKind.CORZ):
        while True:
            pg = random_packaged(rng, max_edges=3, min_edges=1)
            ph = random_packaged(rng, max_edges=3, min_edges=1)
            e = rng.choice(sorted(ph.ap.edges))
            if _composed_size(len(pg.ap.edges), len(pg.ap.edges),
                              [len(ph.ap.edges)] * len(pg.ap.edges)) <= size_budget:
                break
        couplings = {f: rng.random() < 0.5 for f in pg.ap.edges}
        names = {"alpha", "beta", "gamma", "a", "b"}
        if kind is TheoremKind.MAIN:
            names |= {"c", "x", "y"}
        return pg, (ph, e), couplings, names

    if kind is TheoremKind.TWOSUM:
        pg = random_packaged(rng, max_edges=4, min_edges=1)
        ph0 = random_packaged(rng, max_edges=4, min_edges=1)
        ph = PackagedPresentation(
            ph0.ap.relabel({l: f"h{l}" for l in ph0.ap.edges}), ph0.vparts, ph0.bparts
        )
        f = rng.choice(sorted(pg.ap.edges))
        e = rng.choice(sorted(ph.ap.edges))
        coupling = Coupling(f, e, rng.random() < 0.5)
        names = {"alpha", "beta", "gamma", "a", "b", "c", "x", "y"}
        return pg, ph, coupling, names

    if kind in _FOUR:
        while True:
            pg = random_vertex_partitioned(rng, max_edges=3, min_edges=1)
            ph = random_vertex_partitioned(rng, max_edges=3, min_edges=1)
            e = rng.choice(sorted(ph.ap.edges))
            if _composed_size(len(pg.ap.edges), len(pg.ap.edges),
                              [len(ph.ap.edges)] * len(pg.ap.edges)) <= size_budget:
                break
        couplings = {f: rng.random() < 0.5 for f in pg.ap.edges}
        names = {"alpha", "beta", "a", "b"}
        if kind is TheoremKind.BR:
            names |= {"c", "x"}
        return pg, (ph, e), couplings, names

    if kind is TheoremKind.TRANSITION:
        while True:
            ag = random_presentation(rng, max_edges=4, min_edges=1, extra_circle_rate=0)
            edges = sorted(ag.edges)
            sizes = [rng.randint(1, 4) for _ in edges]
            if _composed_size(len(edges), len(edges), sizes) <= size_budget + 1:
                break
        factors, couplings = [], []
        for f, size in zip(edges, sizes):
            ah = random_presentation(rng, max_edges=size, min_edges=size, extra_circle_rate=0)
            e = rng.choice(sorted(ah.edges))
            factors.append((f, ah, e))
            couplings.append(Coupling(f, e, rng.random() < 0.5))
        names = {"t"}
        composed_labels = set()
        for f, ah, e in factors:
            composed_labels |= {f"{f}.{l}" for l in ah.edges}
        for l in composed_labels | set(edges):
            names |= {f"{s}_{l}" for s in ("a", "b", "c")}
        return ag, factors, couplings, names

    if kind is TheoremKind.PLANEMVBR:
        while True:
            ag = random_presentation(rng, max_edges=3, min_edges=1, extra_circle_rate=0)
            if surface_stats(ag).orientable:
                break
        factors, couplings = [], []
        labels = set()
        for f in sorted(ag.edges):
            ah, e = random_plane_presentation(rng, max_edges=3)
            factors.append((f, ah, e))
            couplings.append(Coupling(f, e, rng.random() < 0.5))
            labels |= {f"{f}.{l}" for l in ah.edges}
        names = {"a", "c"} | {f"b_{l}" for l in labels}
        return ag, factors, couplings, names

    if kind is TheoremKind.TUTTE:
        g = random_connected_multigraph(rng, max_edges=4, min_edges=1, loopless=True)
        # The distinguished edge of the factor must be neither a loop nor a
        # bridge (a bridge disconnects the glued gadget and the rank
        # bookkeeping behind the classical formula breaks).
        while True:
            h = random_connected_multigraph(rng, max_edges=4, min_edges=1)
            good = [
                i
                for i in range(h.m)
                if not h.is_loop(i) and h.delete(i).rank() == h.rank()
            ]
            if good:
                break
        e_idx = rng.choice(good)
        flips = [rng.random() < 0.5 for _ in range(g.m)]
        names = {"a", "b", "x", "y"}
        return g, (h, e_idx), flips, names

    raise ValueError(f"unknown theorem kind {kind}")


def _mainmv_labels(pg, factors):
    labels = set(pg.ap.edges) - {f for f, _, _ in factors}
    for f, ph, _ in factors:
        labels |= {f"{f}.{l}" for l in ph.ap.edges}
    return labels


def run_verification(
    kind: TheoremKind,
    seed: int = 1,
    instances: int = 30,
    points: int = 10,
    max_resample: int = 50,
    size_budget: int = 6,
) -> VerifyReport:
    """Fuzz one identity: random instances, random nonsingular points.

    Raises :class:`InvalidArgument` unless ``instances`` and ``points`` are
    both at least 1, so that a report never passes having checked nothing.
    """
    if instances < 1 or points < 1:
        raise InvalidArgument(
            f"verification needs at least one instance and one point, got "
            f"instances={instances} points={points}"
        )
    rng = random.Random(seed)
    failures = []
    start = time.perf_counter()
    for _ in range(instances):
        pg, factors, couplings, names = random_instance(kind, rng, size_budget)
        for _ in range(points):
            outcome = None
            for _ in range(max_resample):
                pt = random_point(rng, sorted(names))
                try:
                    outcome = verify_identity(kind, pg, factors, couplings, pt)
                except SingularAtPoint:
                    continue
                break
            if outcome is None:
                raise SingularAtPoint(
                    f"no nonsingular point found in {max_resample} samples"
                )
            if not outcome.ok:
                failures.append(
                    Failure(_describe(pg), {k: str(v) for k, v in pt.items()},
                            tuple((n, str(l), str(r)) for n, l, r in outcome.comparisons))
                )
    elapsed = time.perf_counter() - start
    return VerifyReport(kind.value, seed, instances, points, tuple(failures), elapsed)


def basis_phis(kind: TheoremKind, pt) -> list:
    """solve_phis on each one-edge basis presentation (unit vectors expected)."""
    out = []
    for k in k_presentations():
        out.append(solve_phis(kind, k, "e", pt))
    return out
