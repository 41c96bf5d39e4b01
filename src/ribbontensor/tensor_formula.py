"""Tensor-product and 2-sum identities, verified by exact evaluation.

Every identity has the same shape: the polynomial of a composed presentation
(a 2-sum, or a tensor product factor by factor) equals the host polynomial
with each tensored edge's weights replaced by transfer coefficients, solved
from a small exact linear system over the factor's five (or four, three,
two) operation values.  ``SPECS`` holds what differs between the kinds.
A recursion kind reads its transfer matrix off the one-edge presentations
that realise its operations (:func:`_read_off`); planemvbr and tutte type it.
Either way its entries are monomials in the point's bases, and a point
gives them as integer rows (:func:`_monomial_rows`).

:func:`plan_instance` builds, once per instance, the composed object, the
host and each distinct factor, resolved: one resolution DAG with the coupled
edge first, whose root terms are the operation values, or for the subset
expansions the operation results themselves.  :func:`verify_identity` then
does the work of one point: evaluate, solve every factor's system in one
elimination, compare.  Points are
random rationals (numerators and denominators in [1, 10^4]); points where a
system degenerates are resampled.  Agreement is required to be exact.
"""

from __future__ import annotations

import functools
import math
import random
import time
from enum import Enum
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Mapping, NamedTuple, Optional

from .arrow import ArrowPresentation, contract_edge, delete_edge, surface_stats
from .errors import InvalidArgument, SingularAtPoint, SingularMatrix
from .files import presentation_to_dict
from .packaged import (
    Coupling,
    PackagedPresentation,
    compose_two_sums,
    incident_items,
    k_presentations,
    make_packaged,
    namespaced,
)
from .poly import common_denominator, determinant, solve_linear
from .polynomials import (
    OP_ORDER,
    TRANSITION_OPS,
    Multigraph,
    _powers,
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
# The uniform kinds' variables besides alpha, beta, a and b.
_UNIFORM = {
    TheoremKind.MAIN: {"gamma", "c", "x", "y"}, TheoremKind.CORZ: {"gamma"},
    TheoremKind.BR: {"c", "x"}, TheoremKind.BRZHAT: set(),
}
_ONE = Fraction(1)


# --------------------------------------------------------------------------
# what differs between the kinds


def _per_edge(*stems):
    """Weights read per label: stem ``s`` of label ``l`` is ``pt["s_l"]``,
    the names of a label built once into one getter (two stems at least, so
    it returns a tuple)."""

    @functools.lru_cache(maxsize=1024)
    def names(label):
        return itemgetter(*[f"{s}_{label}" for s in stems])

    return lambda labels, pt: {l: names(l)(pt) for l in labels}


def _uniform(*stems):
    """The same weights on every label; a number stands for itself."""

    def weights(labels, pt):
        w = tuple(pt[s] if isinstance(s, str) else Fraction(s) for s in stems)
        return dict.fromkeys(labels, w)

    return weights


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
    rows = [[x - 1, _ONE], [_ONE, y - 1]]
    ((phi, psi),) = _solve(TheoremKind.TUTTE, rows, [common_denominator([t_del, t_con])])
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

    rows: Callable  # pt -> (fresh unchecked integer rows, the rational factor they leave out)
    resolve: Callable  # (factor, e) -> what every point reads its columns off
    columns: Callable  # (resolved factor, weights, pt) -> (one integer per row, their denominator)
    weights: Callable  # (labels, pt) -> {label: weights}
    value: Callable  # (object, weights, pt) -> the invariant
    parts: Callable  # (host labels, factors, couplings) -> [(f, factor, e, swap)]
    host_weight: Callable = tuple  # coefficients -> their host edge's weights
    finish: Optional[Callable] = None  # (plan, coefficients, pt, lhs, rhs) -> comparisons


def _table(rows) -> tuple:
    """A matrix of monomials, each entry its exponent tuple over a kind's
    bases, as :func:`_monomial_rows` reads it: the least exponent of each
    base over the entries, which the rows leave out; the distinct entries
    less those; each base's top exponent over them; and the rows as
    positions among the entries."""
    least = tuple(map(min, zip(*(m for row in rows for m in row))))
    rows = [[tuple(map(int.__sub__, m, least)) for m in row] for row in rows]
    entries = sorted({m for row in rows for m in row})
    tops = tuple(map(max, zip(*entries)))
    return least, entries, tops, [[entries.index(m) for m in row] for row in rows]


def _monomial_rows(names, exponents):
    """A kind's ``rows``: a transfer matrix of monomials in the point's
    values of ``names``, each entry's exponents given by ``exponents()``,
    which is read once, when a point first asks for it (:func:`_table`).

    At a point each base n/d is tabled to its top exponent as the integers
    ``n**i * d**(top - i)`` (:func:`polynomials._powers`), so an entry is
    one product of table values and every entry is over the same
    denominator, the product of the ``d**top``.  The rows are those
    integers; the factor they leave out is the bases to their least
    exponents over that denominator."""
    table = functools.cache(lambda: _table(exponents()))

    def rows(pt):
        least, entries, tops, positions = table()
        tables, num, den = [], 1, 1
        for name, top, k in zip(names, tops, least):
            b = pt[name]
            powers, d = _powers(b, top, True)
            tables.append(powers)
            num *= b.numerator**k
            den *= d * b.denominator**k
        at = [math.prod([t[i] for t, i in zip(tables, m)]) for m in entries]
        return [[at[i] for i in row] for row in positions], Fraction(num, den)

    return rows


def _read_off(basis, ops, free: int) -> list:
    """A transfer matrix read off its basis, each entry its exponents over
    the free bases: column j holds the operation values of ``basis[j]``,
    which realises operation j of ``ops``.  Resolved with its edge ``e``
    first, it is one node whose live refs ``(-1, strip)`` hold the base
    exponents of its results; the first ``free`` are kept, the other bases
    being 1."""
    columns = []
    for x in basis:
        ((_, refs),) = resolution_dag(x, ("e",), ops)[1]
        columns.append([strip[:free] for _, strip in filter(None, refs)])
    return list(zip(*columns))


def _by_dag(ops, free, basis, value, fixed=()):
    """A recursion kind's factor is resolved once, its coupled edge first;
    at a point one fold gives the DAG root's terms, which are the values of
    the factor's operation results ``ops``, as integer numerators over one
    denominator; ``value(x, weights, bases)`` is the invariant.  The bases
    are the point's values of the names ``free``, then ``fixed``, bases held
    at 1 (gamma for the four-weight kinds).  The transfer matrix is read off
    ``basis()`` in the free bases only."""
    get = itemgetter(*free)
    free_bases = get if len(free) > 1 else lambda pt: (get(pt),)
    bases = (lambda pt: free_bases(pt) + fixed) if fixed else free_bases
    return {
        "rows": _monomial_rows(free, lambda: _read_off(basis(), ops, len(free))),
        "resolve": lambda x, e: resolution_dag(x, (e,), ops),
        "columns": lambda dag, w, pt: root_terms(dag, w, bases(pt)),
        "value": lambda x, w, pt: value(x, w, bases(pt)),
    }


def _by_results(ops, value):
    """A subset-expansion kind keeps the factor's operation results and
    evaluates each of them at a point with its invariant ``value``, the
    values split over their common denominator."""
    return {
        "resolve": lambda x, e: tuple(op(x, e) for op in ops),
        "columns": lambda results, w, pt: common_denominator([value(r, w, pt) for r in results]),
        "value": value,
    }


# The five-weight kinds read one matrix off K1-K5; the vertex-partitioned
# kinds drop the merge-contraction and K5, and fix gamma = 1.
_Q5 = _by_dag(
    OP_ORDER, ("alpha", "beta", "gamma"), k_presentations, lambda x, w, b: q_value(x, w, *b)
)
_Q4 = _by_dag(
    OP_ORDER[:4], ("alpha", "beta"), lambda: k_presentations()[:4],
    lambda x, w, b: q_value(x, w, *b), fixed=(_ONE,),
)


def _five(weights, parts):
    return KindSpec(**_Q5, weights=weights, parts=parts)


def _four(weights):
    return KindSpec(
        **_Q4, weights=weights, parts=_shared_parts,
        host_weight=lambda phis: phis + (Fraction(0),),
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
        **_by_dag(  # K2, K1, K3 realise contraction, deletion, Penrose contraction
            TRANSITION_OPS, ("t",),
            lambda: tuple(k.ap for k in itemgetter(1, 0, 2)(k_presentations())),
            lambda x, w, b: transition_table_value(transition_state_table(x), w, *b),
        ),
        weights=_per_edge("a", "b", "c"), parts=_listed_parts,
    ),
    TheoremKind.PLANEMVBR: KindSpec(
        _monomial_rows(("a", "c"), lambda: [[(1, 1), (0, 0)], [(0, 0), (0, 1)]]),
        **_by_results((delete_edge, contract_edge), _plane_value),
        weights=lambda labels, pt: {l: pt[f"b_{l}"] for l in labels},
        parts=_listed_parts, host_weight=_plane_weight, finish=_plane_finish,
    ),
    TheoremKind.TUTTE: KindSpec(
        _monomial_rows(("a",), lambda: [[(1,), (2,)], [(1,), (1,)]]),
        **_by_results((Multigraph.delete, Multigraph.contract), _zdot_at),
        weights=_uniform("b", 1), parts=_shared_parts, finish=_tutte_finish,
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


def _columns(spec: KindSpec, factor: tuple, pt) -> tuple:
    """The right-hand side of a factor's transfer system at ``pt``, as
    ``(integer numerators, their denominator)``."""
    resolved, labels = factor
    return spec.columns(resolved, spec.weights(labels, pt), pt)


# --------------------------------------------------------------------------
# transfer coefficients


def _singular(kind: TheoremKind) -> SingularAtPoint:
    return SingularAtPoint(f"{kind.value} matrix singular at the sampled point")


def _solve(kind: TheoremKind, rows, columns, scale=_ONE) -> list:
    """Solve ``(scale * rows) x = n / den`` exactly for every column
    ``(n, den)``, in one elimination: the numerators are put over the
    columns' least common denominator D, which joins ``scale``.  Returns one
    tuple of coefficients per column.  A singular system, a zero ``scale``
    included (the whole matrix then vanishes), marks a degenerate point and
    raises :class:`SingularAtPoint`, so that the caller resamples it."""
    den = math.lcm(*(d for _, d in columns))
    rhs = [n if d == den else [v * (den // d) for v in n] for n, d in columns]
    try:
        return list(map(tuple, solve_linear(rows, rhs, scale * den)))
    except SingularMatrix:
        raise _singular(kind) from None


def build_phi_matrix(kind: TheoremKind, pt: Mapping[str, Fraction]):
    """The exact transfer matrix of ``kind`` at ``pt``.

    Raises :class:`SingularAtPoint` when it degenerates there (the caller
    resamples the point).
    """
    rows, s = SPECS[kind].rows(pt)
    matrix = [[s * x for x in row] for row in rows]
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
    columns = _columns(spec, _resolve(spec, ph, e), pt)
    rows, scale = spec.rows(pt)
    return _solve(kind, rows, [columns], scale)[0]


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
    if ph.vparts.labels[c1] == ph.vparts.labels[c2]:
        zeros.add(0)
    if ph.bparts.labels[a] == ph.bparts.labels[b]:
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

    Solves every distinct factor's coefficients in one elimination and gives
    them to its host edges.  Raises :class:`SingularAtPoint` when a transfer
    matrix, or a coefficient the formula divides by, degenerates at ``pt``.
    """
    kind = plan.kind
    spec = SPECS[kind]
    rows, scale = spec.rows(pt)
    phis = _solve(kind, rows, [_columns(spec, factor, pt) for factor in plan.factors], scale)
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


def _per_edge_names(host_labels, factors, stems):
    """The per-edge variables of the host's and the namespaced factors' labels."""
    labels = set(host_labels) | {f"{f}.{l}" for f, x, _ in factors for l in _labels(x)}
    return {f"{s}_{l}" for l in labels for s in stems}


def random_instance(kind: TheoremKind, rng: random.Random, size_budget: int = 6):
    """One random admissible instance: (pg, factors, couplings, var names).

    ``size_budget`` bounds the composed object's edges for mainmv,
    fulltensor, main, corz, br and brzhat; transition allows one edge more.
    The rest ignore it: twosum and planemvbr compose at most 6 edges, tutte
    at most 12, from their fixed sizes.  Raises :class:`InvalidArgument`
    unless it is at least 1: below 0 no draw fits and the redrawing would
    never end.
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
            if len(edges) - k + sum(s - 1 for s in sizes) <= size_budget:
                break
        factors, couplings = [], []
        for f, size in zip(sorted(chosen), sizes):
            ph = random_packaged(rng, max_edges=size, min_edges=size)
            e = rng.choice(sorted(ph.ap.edges))
            factors.append((f, ph, e))
            couplings.append(Coupling(f, e, rng.random() < 0.5))
        names = {"alpha", "beta", "gamma"} | _per_edge_names(pg.ap.edges, factors, "abcxy")
        return pg, factors, couplings, names

    if kind in _UNIFORM:
        draw = random_vertex_partitioned if kind in _FOUR else random_packaged
        while True:
            pg = draw(rng, max_edges=3, min_edges=1)
            ph = draw(rng, max_edges=3, min_edges=1)
            e = rng.choice(sorted(ph.ap.edges))
            if len(pg.ap.edges) * (len(ph.ap.edges) - 1) <= size_budget:
                break
        couplings = {f: rng.random() < 0.5 for f in sorted(pg.ap.edges)}
        return pg, (ph, e), couplings, {"alpha", "beta", "a", "b"} | _UNIFORM[kind]

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

    if kind is TheoremKind.TRANSITION:
        while True:
            ag = random_presentation(rng, max_edges=4, min_edges=1, extra_circle_rate=0)
            edges = sorted(ag.edges)
            sizes = [rng.randint(1, 4) for _ in edges]
            if sum(s - 1 for s in sizes) <= size_budget + 1:
                break
        factors, couplings = [], []
        for f, size in zip(edges, sizes):
            ah = random_presentation(rng, max_edges=size, min_edges=size, extra_circle_rate=0)
            e = rng.choice(sorted(ah.edges))
            factors.append((f, ah, e))
            couplings.append(Coupling(f, e, rng.random() < 0.5))
        return ag, factors, couplings, {"t"} | _per_edge_names(edges, factors, "abc")

    if kind is TheoremKind.PLANEMVBR:
        while True:
            ag = random_presentation(rng, max_edges=3, min_edges=1, extra_circle_rate=0)
            if surface_stats(ag).orientable:
                break
        factors, couplings = [], []
        for f in sorted(ag.edges):
            ah, e = random_plane_presentation(rng, max_edges=3)
            factors.append((f, ah, e))
            couplings.append(Coupling(f, e, rng.random() < 0.5))
        return ag, factors, couplings, {"a", "c"} | _per_edge_names((), factors, "b")

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
        names = sorted(names)
        for _ in range(points):
            outcome = None
            for _ in range(MAX_RESAMPLE):
                pt = random_point(rng, names)
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

