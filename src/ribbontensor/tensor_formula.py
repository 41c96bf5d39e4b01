"""Tensor-product and 2-sum identities, verified by exact evaluation.

Every identity has the same shape: the polynomial of a composed presentation
(a 2-sum, or a tensor product factor by factor) equals the host polynomial
with each tensored edge's weights replaced by transfer coefficients, solved
from a small exact linear system over the factor's five (or four, three,
two) operation values.  ``SPECS`` holds what differs between the kinds.

:func:`plan_instance` builds, once per instance, the composed object, the
host and each distinct factor, resolved: one resolution DAG with the coupled
edge first, whose root terms are the operation values, or for the subset
expansions the operation results themselves.  :func:`verify_identity` then
does the work of one point: evaluate, solve, compare.  Points are
random rationals (numerators and denominators in [1, 10^4]); points where a
system degenerates are resampled.  Agreement is required to be exact.
"""

from __future__ import annotations

import random
import time
from enum import Enum
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple, Optional

from .arrow import ArrowPresentation, contract_edge, delete_edge, surface_stats
from .errors import InvalidArgument, SingularAtPoint, SingularMatrix
from .files import presentation_to_dict
from .packaged import (
    Coupling,
    PackagedPresentation,
    compose_two_sums,
    incident_items,
    make_packaged,
    namespaced,
)
from .poly import determinant, solve_linear
from .polynomials import (
    OP_ORDER,
    TRANSITION_OPS,
    Multigraph,
    graph_tensor,
    mv_br_value,
    q_value,
    resolution_dag,
    root_terms,
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


_FOUR = (TheoremKind.BR, TheoremKind.BRZHAT)
_ONE = Fraction(1)


# --------------------------------------------------------------------------
# what differs between the kinds


def _five_rows(pt):
    # The transfer matrix is alpha*beta*gamma (_five_scale) times these rows.
    al, be, ga = pt["alpha"], pt["beta"], pt["gamma"]
    one = _ONE
    return [
        [al * be, one, one, al, one],
        [one, al * ga, one, one, al],
        [one, one, al, one, one],
        [al, one, one, al, one],
        [one, al, one, one, al],
    ]


def _four_rows(pt):
    # The vertex-partitioned kinds drop the merge-contraction and fix gamma = 1.
    return [row[:4] for row in _five_rows({**pt, "gamma": _ONE})[:4]]


def _five_scale(pt):
    return pt["alpha"] * pt["beta"] * pt["gamma"]


def _four_scale(pt):
    return pt["alpha"] * pt["beta"]


def _per_edge(*stems):
    """Weights read per label: stem ``s`` of label ``l`` is ``pt["s_l"]``."""
    return lambda labels, pt: {l: tuple(pt[f"{s}_{l}"] for s in stems) for l in labels}


def _uniform(*stems):
    """The same weights on every label; a number stands for itself."""

    def weights(labels, pt):
        w = tuple(pt[s] if isinstance(s, str) else Fraction(s) for s in stems)
        return dict.fromkeys(labels, w)

    return weights


def _five_bases(pt):
    return pt["alpha"], pt["beta"], pt["gamma"]


def _four_bases(pt):
    return pt["alpha"], pt["beta"], _ONE


def _zdot_at(g, weights, pt):
    # The Tutte kind's weights are the same (b, c) on every edge; an
    # edgeless graph reads none of them.
    b, c = next(iter(weights.values()), (_ONE, _ONE))
    return zdot_value(g, pt["a"], b, c)


def _plane_weight(phis):
    g_f, f_f = phis
    if g_f == 0:
        raise SingularAtPoint("vanishing leading transfer coefficient")
    return f_f / g_f


def _plane_finish(plan, phis, pt, lhs, rhs):
    """The host side carries (ac)^-|E| and each factor's leading coefficient."""
    prefactor = (pt["a"] * pt["c"]) ** -len(plan.tensored)
    for i in plan.tensored.values():
        prefactor *= phis[i][0]
    return (("planemvbr", lhs, prefactor * rhs),)


def _tutte_finish(plan, phis, pt, lhs, rhs):
    """Add the classical Tutte identity: coefficients phi, psi solved from
    the factor's operation results, and the prefactor phi^n(G) psi^r(G)."""
    x, y = pt["x"], pt["y"]
    t_del, t_con = (tutte_value(h, x, y) for h in plan.factors[0][0])
    phi, psi = _solve(TheoremKind.TUTTE, [[x - 1, _ONE], [_ONE, y - 1]], [t_del, t_con])
    if phi == 0 or psi == 0:
        raise SingularAtPoint("vanishing Tutte transfer coefficient")
    g = plan.host
    r_g = g.rank()
    rhs_t = phi ** (g.m - r_g) * psi**r_g * tutte_value(g, t_del / psi, t_con / phi)
    return (("zdot", lhs, rhs), ("tutte", tutte_value(plan.composed, x, y), rhs_t))


def _listed_parts(labels, factors, couplings):
    return [(f, x, e, c.swap) for (f, x, e), c in zip(factors, couplings)]


def _shared_parts(labels, factor, swaps):
    # swaps: {f: swap}, or a list of flips by graph edge index
    x, e = factor
    if not isinstance(swaps, Mapping):
        swaps = dict(enumerate(swaps))
    return [(f, x, e, swaps.get(f, False)) for f in labels]


class KindSpec(NamedTuple):
    """What one theorem kind adds to the shape every identity shares."""

    rows: Callable  # pt -> the transfer matrix divided by ``scale``, as fresh unchecked rows
    resolve: Callable  # (factor, e) -> what every point reads its columns off
    columns: Callable  # (resolved factor, weights, pt) -> one value per row
    weights: Callable  # (labels, pt) -> {label: weights}
    value: Callable  # (object, weights, pt) -> the invariant
    parts: Callable  # (host labels, factors, couplings) -> [(f, factor, e, swap)]
    host_weight: Callable = tuple  # coefficients -> their host edge's weights
    finish: Optional[Callable] = None  # (plan, coefficients, pt, lhs, rhs) -> comparisons
    scale: Callable = lambda pt: _ONE  # pt -> the common factor the rows leave out


def _by_dag(ops, bases):
    """A recursion kind's factor is resolved once, its coupled edge first;
    at a point one fold gives the DAG root's terms, which are the values of
    the factor's operation results ``ops``."""
    return {
        "resolve": lambda x, e: resolution_dag(x, (e,), ops),
        "columns": lambda dag, w, pt: root_terms(dag, w, bases(pt)),
    }


def _by_results(ops, value):
    """A subset-expansion kind keeps the factor's operation results and
    evaluates each of them at a point."""
    return {
        "resolve": lambda x, e: tuple(op(x, e) for op in ops),
        "columns": lambda results, w, pt: [value(r, w, pt) for r in results],
    }


def _five(weights, parts):
    return KindSpec(
        _five_rows, **_by_dag(OP_ORDER, _five_bases), weights=weights,
        value=lambda x, w, pt: q_value(x, w, *_five_bases(pt)), parts=parts,
        scale=_five_scale,
    )


def _four(weights):
    return KindSpec(
        _four_rows, **_by_dag(OP_ORDER[:4], _four_bases), weights=weights,
        value=lambda x, w, pt: q_value(x, w, *_four_bases(pt)), parts=_shared_parts,
        host_weight=lambda phis: phis + (Fraction(0),), scale=_four_scale,
    )


def _plane_value(x, weights, pt):
    return mv_br_value(x, pt["a"], weights, pt["c"])


SPECS = {
    TheoremKind.MAINMV: _five(_per_edge("a", "b", "c", "x", "y"), _listed_parts),
    TheoremKind.MAIN: _five(_uniform("a", "b", "c", "x", "y"), _shared_parts),
    TheoremKind.CORZ: _five(_uniform("a", "b", 0, 0, 0), _shared_parts),
    TheoremKind.FULLTENSOR: _five(_per_edge("a", "b", "c", "x", "y"), _listed_parts),
    TheoremKind.TWOSUM: _five(
        _uniform("a", "b", "c", "x", "y"),
        lambda labels, ph, c: [(c.source, ph, c.target, c.swap)],
    ),
    TheoremKind.BR: _four(_uniform("a", "b", "c", "x", 0)),
    TheoremKind.BRZHAT: _four(_uniform("a", "b", 0, 0, 0)),
    TheoremKind.TRANSITION: KindSpec(
        lambda pt: [[pt["t"] ** 2 if i == j else pt["t"] for j in range(3)] for i in range(3)],
        **_by_dag(TRANSITION_OPS, lambda pt: (pt["t"],)), weights=_per_edge("a", "b", "c"),
        value=lambda x, w, pt: transition_table_value(transition_state_table(x), w, pt["t"]),
        parts=_listed_parts,
    ),
    TheoremKind.PLANEMVBR: KindSpec(
        lambda pt: [[pt["a"] * pt["c"], _ONE], [_ONE, pt["c"]]],
        **_by_results((delete_edge, contract_edge), _plane_value),
        weights=lambda labels, pt: {l: pt[f"b_{l}"] for l in labels},
        value=_plane_value, parts=_listed_parts, host_weight=_plane_weight,
        finish=_plane_finish,
    ),
    TheoremKind.TUTTE: KindSpec(
        lambda pt: [[pt["a"], pt["a"] ** 2], [pt["a"], pt["a"]]],
        **_by_results((Multigraph.delete, Multigraph.contract), _zdot_at),
        weights=_uniform("b", 1), value=_zdot_at, parts=_shared_parts,
        finish=_tutte_finish,
    ),
}


# --------------------------------------------------------------------------
# the three kinds of object: packaged and bare presentations, and graphs


def _labels(x):
    """Edge labels of a packaged or bare presentation; a graph's edge indexes."""
    if isinstance(x, Multigraph):
        return range(x.m)
    return x.ap.edges if isinstance(x, PackagedPresentation) else x.edges


def _namespaced(x, f):
    if isinstance(x, PackagedPresentation):
        return namespaced(x, f)
    return x.relabel({l: f"{f}.{l}" for l in x.edges})


def _compose(host, parts):
    """The 2-sums of ``parts`` onto ``host``."""
    if isinstance(host, Multigraph):  # one shared factor: a graph tensor
        return graph_tensor(host, parts[0][1], parts[0][2], [s for *_, s in parts])
    if isinstance(host, ArrowPresentation):
        packed = [(f, make_packaged(x), e, s) for f, x, e, s in parts]
        return compose_two_sums(make_packaged(host), packed).ap
    return compose_two_sums(host, parts)


def _value(spec: KindSpec, x, pt):
    return spec.value(x, spec.weights(_labels(x), pt), pt)


def _resolve(spec: KindSpec, x, e) -> tuple:
    """A factor as every point reads it: resolved, with its other labels."""
    return spec.resolve(x, e), [l for l in _labels(x) if l != e]


def _columns(spec: KindSpec, factor: tuple, pt) -> list:
    """The right-hand side of a factor's transfer system at ``pt``."""
    resolved, labels = factor
    return spec.columns(resolved, spec.weights(labels, pt), pt)


# --------------------------------------------------------------------------
# transfer coefficients


def _singular(kind: TheoremKind) -> SingularAtPoint:
    return SingularAtPoint(f"{kind.value} matrix singular at the sampled point")


def _solve(kind: TheoremKind, rows, rhs, scale=_ONE) -> tuple:
    """Solve ``(scale * rows) x = rhs`` exactly.  A singular system, a zero
    ``scale`` included (the whole matrix then vanishes), marks a degenerate
    point and raises :class:`SingularAtPoint`, so that the caller resamples
    it."""
    try:
        return tuple(solve_linear(rows, rhs, scale))
    except SingularMatrix:
        raise _singular(kind) from None


def build_phi_matrix(kind: TheoremKind, pt: Mapping[str, Fraction]):
    """The exact transfer matrix of ``kind`` at ``pt``.

    Raises :class:`SingularAtPoint` when it degenerates there (the caller
    resamples the point).
    """
    spec = SPECS[kind]
    s = spec.scale(pt)
    matrix = [[s * x for x in row] for row in spec.rows(pt)]
    if determinant(matrix) == 0:
        raise _singular(kind)
    return matrix


def solve_phis(kind: TheoremKind, ph, e, pt: Mapping[str, Fraction]) -> tuple:
    """Transfer coefficients of one factor at one point.

    ``ph`` is a packaged presentation for the five- and four-row kinds, a
    bare arrow presentation for the transition and plane kinds, and a
    multigraph for the Tutte kind; ``e`` names (or indexes) its coupled edge.
    Raises :class:`SingularAtPoint` when the transfer matrix degenerates.
    """
    spec = SPECS[kind]
    rhs = _columns(spec, _resolve(spec, ph, e), pt)
    return _solve(kind, spec.rows(pt), rhs, spec.scale(pt))


def phi0_structural_zeros(
    ph: PackagedPresentation, e: str, c_zero: bool = False
) -> frozenset:
    """Indices of transfer coefficients forced to vanish by the factor's shape.

    0: the coupled edge is a loop or joins circles of one vertex class;
    1: its two incident boundaries coincide or share a class;
    2: the factor is orientable and every Penrose weight is zero.
    """
    zeros = set()
    (c1, c2), (a, b) = incident_items(ph, e)
    if c1 == c2 or ph.vparts.block_of(c1) == ph.vparts.block_of(c2):
        zeros.add(0)
    if a == b or ph.bparts.block_of(a) == ph.bparts.block_of(b):
        zeros.add(1)
    if c_zero and surface_stats(ph.ap).orientable:
        zeros.add(2)
    return frozenset(zeros)


# --------------------------------------------------------------------------
# identity verification: a plan per instance, then point work per point


class InstancePlan(NamedTuple):
    """What one instance's identity needs at every point, built once."""

    kind: TheoremKind
    composed: object  # the 2-sum or tensor product
    host: object
    tensored: Mapping  # host label -> index into factors
    factors: tuple  # per distinct factor, (resolved, its labels but the coupled edge)


def plan_instance(kind: TheoremKind, pg, factors, couplings) -> InstancePlan:
    """Build the composed object, the host, and each distinct factor once:
    a factor shared by every host edge once, any other namespaced with its
    host edge.  A recursion kind keeps the factor's one resolution DAG, its
    coupled edge first, whose root terms are the transfer system's
    right-hand side at every point; the subset-expansion kinds (planemvbr,
    tutte) keep the factor's two operation results.

    Shapes of ``factors``/``couplings``, as :func:`random_instance` returns
    them:

    * TWOSUM: a packaged presentation and a single :class:`Coupling`.
    * MAINMV / FULLTENSOR: a list of ``(f, ph, e)`` and matching couplings.
    * MAIN / CORZ / BR / BRZHAT: one ``(ph, e)`` pair, couplings a
      ``{f: swap}`` mapping (uniform tensor).
    * TRANSITION: list of ``(f, arrow_presentation, e)``; couplings as above.
    * PLANEMVBR: list of ``(f, arrow_presentation, e)`` with plane factors.
    * TUTTE: ``(h_graph, edge_index)``; couplings a list of orientation flips.
    """
    spec = SPECS[kind]
    parts = spec.parts(_labels(pg), factors, couplings)
    shared = spec.parts is _shared_parts
    if shared:
        solved = [parts[0][1:3]]
    else:
        solved = [(_namespaced(x, f), f"{f}.{e}") for f, x, e, _ in parts]
    return InstancePlan(
        kind, _compose(pg, parts), pg,
        {f: 0 if shared else i for i, (f, *_) in enumerate(parts)},
        tuple(_resolve(spec, x, e) for x, e in solved),
    )


class VerifyOutcome(NamedTuple):
    ok: bool
    comparisons: tuple  # (name, lhs, rhs)


def verify_identity(plan: InstancePlan, pt) -> VerifyOutcome:
    """Evaluate both sides of one planned identity at one point.

    Solves each distinct factor's coefficients once and gives them to its
    host edges.  Raises :class:`SingularAtPoint` when a transfer matrix, or a
    coefficient the formula divides by, degenerates at ``pt``.
    """
    kind = plan.kind
    spec = SPECS[kind]
    rows, scale = spec.rows(pt), spec.scale(pt)
    phis = [_solve(kind, rows, _columns(spec, factor, pt), scale) for factor in plan.factors]
    weights = spec.weights([l for l in _labels(plan.host) if l not in plan.tensored], pt)
    weights.update((f, spec.host_weight(phis[i])) for f, i in plan.tensored.items())
    lhs = _value(spec, plan.composed, pt)
    rhs = spec.value(plan.host, weights, pt)
    pairs = spec.finish(plan, phis, pt, lhs, rhs) if spec.finish else ((kind.value, lhs, rhs),)
    return VerifyOutcome(all(l == r for _, l, r in pairs), tuple(pairs))


# --------------------------------------------------------------------------
# instance generation and the verification loop


class Failure(NamedTuple):
    instance: str
    point: dict
    comparisons: tuple


class VerifyReport(NamedTuple):
    kind: str
    seed: int
    instances: int
    points: int
    failures: tuple
    elapsed: float
    comparisons: int  # comparisons made, over every instance and point
    resampled: int = 0  # singular points discarded and drawn again

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
    """One random admissible instance: (pg, factors, couplings, var names).

    ``size_budget`` bounds the composed object's edges.  Raises
    :class:`InvalidArgument` unless it is at least 1: below 0 no draw fits
    and the redrawing would never end.
    """
    if size_budget < 1:
        raise InvalidArgument(f"size_budget must be at least 1, got {size_budget}")
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


# Draws of one point before a run gives up.  Singular points form a thin
# set, so 50 singular draws in a row mean an instance singular everywhere.
MAX_RESAMPLE = 50


def run_verification(
    kind: TheoremKind,
    seed: int = 1,
    instances: int = 30,
    points: int = 10,
    size_budget: int = 6,
) -> VerifyReport:
    """Fuzz one identity: random instances, random nonsingular points.

    Raises :class:`InvalidArgument` unless ``instances`` and ``points`` are
    both at least 1, so that a report never passes having checked nothing,
    and (from :func:`random_instance`) unless ``size_budget`` is at least 1.
    Each point is drawn at most :data:`MAX_RESAMPLE` times; when every draw
    is singular, :class:`SingularAtPoint` is raised.
    """
    if instances < 1 or points < 1:
        raise InvalidArgument(
            f"verification needs at least one instance and one point, got "
            f"instances={instances} points={points}"
        )
    rng = random.Random(seed)
    failures = []
    comparisons = resampled = 0
    start = time.perf_counter()
    for _ in range(instances):
        pg, factors, couplings, names = random_instance(kind, rng, size_budget)
        plan = plan_instance(kind, pg, factors, couplings)
        for _ in range(points):
            outcome = None
            for _ in range(MAX_RESAMPLE):
                pt = random_point(rng, sorted(names))
                try:
                    outcome = verify_identity(plan, pt)
                except SingularAtPoint:
                    resampled += 1
                    continue
                break
            if outcome is None:
                raise SingularAtPoint(
                    f"no nonsingular point found in {MAX_RESAMPLE} samples"
                )
            comparisons += len(outcome.comparisons)
            if not outcome.ok:
                failures.append(
                    Failure(_describe(pg), {k: str(v) for k, v in pt.items()},
                            tuple((n, str(l), str(r)) for n, l, r in outcome.comparisons))
                )
    elapsed = time.perf_counter() - start
    return VerifyReport(
        kind.value, seed, instances, points, tuple(failures), elapsed, comparisons, resampled
    )

