"""Polynomial invariants of arrow presentations, packaged presentations and
multigraphs.

The central object is the five-weight polynomial of a packaged presentation:
the unique map satisfying, for any edge e,

    Q = a_e*Q(delete) + b_e*Q(contract) + c_e*Q(penrose)
        + x_e*Q(merge-delete) + y_e*Q(merge-contract)

with value alpha^{#circles} * beta^{#vertex classes} * gamma^{#boundary
classes} on edgeless presentations.  Everything else here (the two-weight
specialisation, its boundary-partition-free variants, the transition
polynomial, the one- and multivariate Bollobas-Riordan forms, and the
Whitney-rank Tutte polynomials of abstract multigraphs) is either a
specialisation or an independent subset expansion used as an oracle.

Isolated circles split off multiplicatively (one alpha each, a beta/gamma
when their class dies with them); the recursions strip them eagerly, which
changes no value and keeps intermediate presentations small.

Both deletion-style recursions, that of Q and that of the transition
polynomial, run through one engine: :func:`resolution_dag` resolves a
presentation once into the DAG of its distinct sub-presentations, and
:func:`fold_dag` evaluates that DAG over a ring, ``MultiPoly`` for the
polynomial or ``Fraction`` for its value at a point.  :func:`root_terms`
reads the root's unweighted terms off the same fold: resolved with an edge
first, a presentation's DAG gives the values of all of that edge's
operation results at once.  At a point the fold runs on integer
numerators and divides once per root term: each label's weights are put
over their common denominator ``d_e`` and the bases over ``d_b``, a node
keeps its value times the ``d_e`` of its edges and ``d_b`` to its largest
stripped base degree, and the root divides by ``d_root``, the ``d_e`` of
the labels below it and that power of ``d_b``.  A ``MultiPoly`` fold is the
same loop with every denominator 1.  The subset
expansions have the same shape: :func:`_spanning_table` enumerates the
spanning sub-presentations of an arrow presentation once, and
:func:`_subset_counts` the edge subsets of a multigraph, and one evaluator
per invariant sums either table in the ring of its arguments.

The edge cap is checked on every call, before any cache is consulted, so a
cap lowered after an instance was cached still applies.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache, wraps
from fractions import Fraction
from numbers import Rational
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

from .arrow import (
    ArrowPresentation,
    boundary_components,
    check_edge_cap,
    component_count,
    contract_edge,
    delete_edge,
    penrose_contract_edge,
    surface_stats,
)
from .packaged import EdgeOpKind, PackagedPresentation, apply_edge_op
from .poly import MultiPoly, VarRegistry, common_denominator, standard_registry

OP_ORDER = (
    EdgeOpKind.DELETE,
    EdgeOpKind.CONTRACT,
    EdgeOpKind.PENROSE,
    EdgeOpKind.MERGE_DELETE,
    EdgeOpKind.MERGE_CONTRACT,
)


class WeightSystem:
    """Per-edge quintuples (a_e, b_e, c_e, x_e, y_e) of polynomial weights."""

    def __init__(self, registry: VarRegistry, lookup: Callable[[str], tuple]):
        self.registry = registry
        self._lookup = lookup

    def for_edge(self, label: str) -> tuple:
        return self._lookup(label)

    @classmethod
    def global_weights(cls, registry: VarRegistry, names=("a", "b", "c", "x", "y")):
        """Every edge carries the same five global variables (zeros allowed
        via the name ``None``)."""
        weights = tuple(
            MultiPoly.zero(registry) if n is None else MultiPoly.var(registry, n)
            for n in names
        )
        return cls(registry, lambda label: weights)

    @classmethod
    def per_edge(cls, registry: VarRegistry):
        def lookup(label):
            return tuple(
                MultiPoly.var(registry, f"{stem}_{label}")
                for stem in ("a", "b", "c", "x", "y")
            )

        return cls(registry, lookup)

    @classmethod
    def from_mapping(cls, registry: VarRegistry, mapping: Mapping[str, tuple]):
        return cls(registry, lambda label: mapping[label])


def _strip_isolated(pg: PackagedPresentation):
    """Remove edgeless circles; return the exponent they contribute.

    Each removed circle contributes one alpha; a vertex class consisting
    entirely of removed circles contributes one beta, and a boundary class
    consisting entirely of their bare boundaries one gamma, so the betas and
    gammas are the classes the partition transfer drops.
    """
    keep = [ci for ci, circ in enumerate(pg.ap.circles) if circ]
    da = len(pg.ap.circles) - len(keep)
    if not da:
        return pg, (0, 0, 0)
    # Token boundaries keep their canonical ids (they precede bare ones and
    # circle reindexing is monotone); bare boundaries of removed circles drop.
    vparts = pg.vparts.transfer({ci: i for i, ci in enumerate(keep)})
    bparts = pg.bparts.transfer(
        {bd.id: bd.id for bd in boundary_components(pg.ap) if bd.circle is None}
    )
    stripped = PackagedPresentation(
        ArrowPresentation(tuple(pg.ap.circles[ci] for ci in keep), pg.ap.edges), vparts, bparts
    )
    return stripped, (
        da, len(pg.vparts.blocks) - len(vparts.blocks), len(pg.bparts.blocks) - len(bparts.blocks)
    )


def _edge_chooser(order: Optional[Sequence[str]]):
    if order is None:
        return lambda edges: min(edges)
    priority = {label: i for i, label in enumerate(order)}
    return lambda edges: min(edges, key=lambda l: (priority.get(l, len(priority)), l))


def _capped_cache(maxsize: int):
    """``lru_cache(maxsize)`` for a resolution-DAG builder whose first
    argument, a packaged or bare arrow presentation, is capped at
    ``edge_cap(16)`` edges.  The cap is checked on every call, cache hits
    included."""

    def decorate(build):
        cached = lru_cache(maxsize=maxsize)(build)

        @wraps(build)
        def call(root, *args):
            ap = root.ap if isinstance(root, PackagedPresentation) else root
            check_edge_cap(len(ap.edges), 16, "resolution DAG")
            return cached(root, *args)

        call.cache_info = cached.cache_info
        call.cache_clear = cached.cache_clear
        return call

    return decorate


# --------------------------------------------------------------------------
# the resolution DAG: one builder and one fold serve both deletion-style
# recursions, symbolically and at a point

# The transition recursion's operations, in the order of its weights (a, b, c).
TRANSITION_OPS = (contract_edge, delete_edge, penrose_contract_edge)


def _strip_bare(ap: ArrowPresentation):
    """Remove bare circles; return how many there were, as a 1-tuple."""
    bare = sum(1 for circ in ap.circles if not circ)
    if not bare:
        return ap, (0,)
    return ArrowPresentation(tuple(c for c in ap.circles if c), ap.edges), (bare,)


@_capped_cache(64)
def resolution_dag(root, order: Optional[tuple], live: tuple):
    """Resolve ``root`` once into the DAG of its distinct sub-presentations.

    A :class:`PackagedPresentation` follows the five-weight recursion
    (operations ``OP_ORDER``; isolated circles strip to alpha, beta, gamma
    exponents), a bare :class:`ArrowPresentation` the transition recursion
    (operations ``TRANSITION_OPS``; bare circles strip to a t exponent).
    Only the ``live`` operations are followed; ``order`` ranks the edges as
    in :func:`q_multivariate`.

    Returns ``(root_ref, nodes)``.  ``nodes`` holds every distinct stripped
    sub-presentation with edges once, keyed by value, children first, as
    ``(label, refs)``: the edge resolved there and, per operation, ``None``
    if it is not live, else a ref ``(child, strip)``.  ``child`` is a node
    index, or -1 for an edgeless result; ``strip`` holds the exponents
    stripped on the way, ``()`` when nothing was.

    A root with more edges than ``edge_cap(16)`` raises
    :class:`SizeLimitExceeded`, also when its DAG is cached.
    """
    packaged = isinstance(root, PackagedPresentation)
    strip = _strip_isolated if packaged else _strip_bare
    ops = OP_ORDER if packaged else TRANSITION_OPS
    choose = _edge_chooser(order)
    index: dict = {}
    nodes: list = []

    def visit(x):
        x, exps = strip(x)
        exps = exps if any(exps) else ()
        edges = x.ap.edges if packaged else x.edges
        if not edges:
            return -1, exps
        i = index.get(x)
        if i is None:
            e = choose(edges)
            refs = tuple(
                (visit(apply_edge_op(x, e, op) if packaged else op(x, e)) if op in live else None)
                for op in ops
            )
            i = index[x] = len(nodes)
            nodes.append((e, refs))
        return i, exps

    return visit(root), tuple(nodes)


def _fold(dag, weights: Mapping[str, tuple], bases: tuple, root_weights):
    """The one evaluation loop under :func:`fold_dag` and :func:`root_terms`.

    Evaluates every node below the root reached through a nonzero weight,
    children first, reading the root's weights from ``root_weights``.  Over
    the rationals it folds the integer numerators :func:`fold_dag`
    describes; in any other ring, ``MultiPoly``, every denominator is 1 and
    the numerators are the values.

    Returns the numerators of the root's terms (weight times strip factor
    times child value), one per live operation whose root weight is nonzero;
    the numerator of the root's own strip factor, ``None`` for an empty
    strip; and the denominator shared by the terms times the strip factor,
    ``d_root``, the ``d_e`` of the distinct labels below the root and
    ``d_b`` to the root's degree, or ``None`` outside the rationals.  The
    root must have edges.  Loops rather than a recursive closure keep the
    per-call values free of reference cycles, so they go as soon as the call
    returns.
    """
    (root, root_strip), nodes = dag
    rational = isinstance(bases[0], Rational)
    split = common_denominator if rational else (lambda ws: (ws, 1))
    bases, d_b = split(bases)
    zero = bases[0] - bases[0]
    pads = [1]  # pads[j] is d_b ** j
    strips: dict = {}

    def factor(strip):
        # The strip's numerator and its degree, the power of d_b under it.
        value = strips.get(strip)
        if value is None:
            value = strips[strip] = (
                math.prod(b**k for b, k in zip(bases, strip) if k),
                sum(strip),
            )
        return value

    # Children precede parents, so one descending sweep marks every node
    # reached from the root and splits the weights of their labels.
    root_nums, d_root = split(root_weights)
    below: dict = {}
    needed = [False] * (root + 1)
    needed[root] = True
    for i in range(root, -1, -1):
        if needed[i]:
            label, refs = nodes[i]
            if i == root:
                nums = root_nums
            else:
                if label not in below:
                    below[label] = split(weights[label])
                nums = below[label][0]
            for n, ref in zip(nums, refs):
                if ref is not None and n and ref[0] >= 0:
                    needed[ref[0]] = True
    values: list = [None] * root
    degrees = [0] * root
    for i in range(root + 1):
        if not needed[i]:
            continue
        label, refs = nodes[i]
        terms = []
        top = 0
        for n, ref in zip(root_nums if i == root else below[label][0], refs):
            if ref is None or not n:
                continue
            child, strip = ref
            k = 0
            if strip:
                m, k = factor(strip)
                n = n * m
            if child >= 0:
                n = n * values[child]
                k += degrees[child]
            terms.append((n, k))
            if k > top:
                top = k
        if top and d_b != 1:
            while len(pads) <= top:
                pads.append(pads[-1] * d_b)
            terms = [n * pads[top - k] if k < top else n for n, k in terms]
        else:
            terms = [n for n, _ in terms]
        if i < root:
            values[i] = sum(terms, zero)
            degrees[i] = top
    scale = None
    if root_strip:
        scale, k = factor(root_strip)
        top += k
    if not rational:
        return terms, scale, None
    return terms, scale, d_root * math.prod(d for _, d in below.values()) * d_b**top


def _at_root(numerator, scale, denominator):
    """A root numerator from :func:`_fold` as a value: times the root's
    strip, over the root's denominator."""
    if scale is not None:
        numerator = scale * numerator
    return numerator if denominator is None else Fraction(numerator, denominator)


def fold_dag(dag, weights: Mapping[str, tuple], bases: tuple):
    """Evaluate a resolution DAG in the ring of ``bases``: the root's terms
    from :func:`_fold`, summed, times its strip.

    ``weights`` maps each label to its weights in operation order; a strip
    ``s`` contributes the product of ``bases[j] ** s[j]``.  Over
    :class:`MultiPoly` this gives the polynomial, over ``Fraction`` its
    value at a point.  Only the nodes reached through nonzero weights are
    evaluated, and an empty strip costs no product.

    At a point the fold runs on integers and divides once, at the root.
    The value is multilinear in the per-edge weight tuples, since every
    resolution path takes exactly one weight of each edge.  So with each
    label's weights over their least common denominator ``d_e`` and the
    bases over ``d_b``, a node's value times the ``d_e`` of its edges and
    ``d_b ** k``, ``k`` its largest stripped base degree, is an integer; a
    term of smaller degree is padded by a power of ``d_b``.  The root's sum
    is divided by ``d_root``, the ``d_e`` of the distinct labels below the
    root and ``d_b`` to the root's degree, in one ``Fraction``.
    """
    (root, root_strip), nodes = dag
    if root < 0:  # an edgeless presentation: the value of its strip
        one = bases[0] ** 0
        return math.prod(b**k for b, k in zip(bases, root_strip) if k) if root_strip else one
    terms, scale, den = _fold(dag, weights, bases, weights[nodes[root][0]])
    total = sum(terms[1:], terms[0]) if terms else bases[0] - bases[0]
    return _at_root(total, scale, den)


def root_terms(dag, weights: Mapping[str, tuple], bases: tuple) -> list:
    """The unweighted terms of a resolution DAG's root, one per live
    operation in operation order: the strip factor times the child's value,
    times the root's own strip.

    They are the values of the root's operation results, so a factor resolved
    once with its coupled edge first (``resolution_dag(x, (e,), ops)``) gives
    all its operation values in one fold.  ``weights`` need not name the
    root's edge.  The root must have edges.
    """
    (root, _), nodes = dag
    one = bases[0] ** 0
    terms, scale, den = _fold(dag, weights, bases, (one,) * len(nodes[root][1]))
    return [_at_root(t, scale, den) for t in terms]


def _live(ops: tuple, weights: Mapping[str, tuple]) -> tuple:
    """The operations whose weight is nonzero on some edge."""
    return tuple(
        op for i, op in enumerate(ops) if any(ws[i] for ws in weights.values())
    )


def q_multivariate(
    pg: PackagedPresentation,
    w: Optional[WeightSystem] = None,
    order: Optional[Sequence[str]] = None,
) -> MultiPoly:
    """The five-weight polynomial, folded over the resolution DAG.

    ``order`` overrides the default least-label-first edge choice; the result
    is independent of it.
    """
    if w is None:
        w = WeightSystem.per_edge(standard_registry(pg.ap.edges))
    weights = {label: w.for_edge(label) for label in pg.ap.edges}
    order = None if order is None else tuple(order)
    dag = resolution_dag(pg, order, _live(OP_ORDER, weights))
    bases = tuple(MultiPoly.var(w.registry, n) for n in ("alpha", "beta", "gamma"))
    return fold_dag(dag, weights, bases)


def q_poly(pg: PackagedPresentation) -> MultiPoly:
    """Five-weight polynomial with the global weights a, b, c, x, y, over
    the standard registry."""
    return q_multivariate(pg, WeightSystem.global_weights(standard_registry()))


def z_poly(pg: PackagedPresentation) -> MultiPoly:
    """Two-weight specialisation: c = x = y = 0."""
    return q_multivariate(
        pg, WeightSystem.global_weights(standard_registry(), ("a", "b", None, None, None))
    )


def zhat_poly(vg: PackagedPresentation) -> MultiPoly:
    """Boundary-partition-free form of :func:`z_poly` (gamma set to 1).

    The attached boundary partition of ``vg`` does not influence the value.
    """
    return z_poly(vg).set_to_one("gamma")


def qhat_poly(vg: PackagedPresentation) -> MultiPoly:
    """Four-weight, boundary-partition-free form: y = 0 and gamma = 1."""
    p = q_multivariate(
        vg, WeightSystem.global_weights(standard_registry(), ("a", "b", "c", "x", None))
    )
    return p.set_to_one("gamma")


def state_sum_oracle(pg: PackagedPresentation, w: Optional[WeightSystem] = None) -> MultiPoly:
    """Direct sum over all five-colourings of the edge set.

    Independent of the recursion: every colouring is applied operation by
    operation (fixed label order, no stripping) and contributes its weight
    monomial times the base value of the fully resolved presentation.
    Capped at ``edge_cap(12)`` edges.
    """
    check_edge_cap(len(pg.ap.edges), 12, "state sum")
    if w is None:
        w = WeightSystem.per_edge(standard_registry(pg.ap.edges))
    registry = w.registry
    labels = sorted(pg.ap.edges)
    total = MultiPoly.zero(registry)

    def rec(pg, depth, weight):
        nonlocal total
        if depth == len(labels):
            base = MultiPoly.monomial(
                registry,
                {
                    "alpha": len(pg.ap.circles),
                    "beta": len(pg.vparts.blocks),
                    "gamma": len(pg.bparts.blocks),
                },
            )
            total = total + weight * base
            return
        e = labels[depth]
        for wpoly, kind in zip(w.for_edge(e), OP_ORDER):
            rec(apply_edge_op(pg, e, kind), depth + 1, weight * wpoly)

    rec(pg, 0, MultiPoly.const(registry, 1))
    return total


# --------------------------------------------------------------------------
# numeric evaluation (used heavily by the identity verifier)


def q_value(
    pg: PackagedPresentation,
    weights: Mapping[str, tuple],
    alpha: Fraction,
    beta: Fraction,
    gamma: Fraction,
) -> Fraction:
    """Exact value of the five-weight polynomial at a rational point."""
    dag = resolution_dag(pg, None, _live(OP_ORDER, weights))
    return fold_dag(dag, weights, (alpha, beta, gamma))


# The four state-table shims, this pair and the transition pair, stay though
# thin over resolution_dag and fold_dag: bench/tracer.py wraps all four by
# name and reads the tables' cache_info(), and bench/workloads.py calls the
# transition pair.
@_capped_cache(16)
def q_state_table(pg: PackagedPresentation):
    """The resolution DAG of ``pg`` with all five operations live.

    Built once, it supports cheap evaluation at many points through
    :func:`q_table_value`.
    """
    return resolution_dag(pg, None, OP_ORDER)


def q_table_value(table, weights, alpha, beta, gamma) -> Fraction:
    return fold_dag(table, weights, (alpha, beta, gamma))


# --------------------------------------------------------------------------
# transition polynomial


def transition_poly(
    ap: ArrowPresentation,
    w: Optional[Mapping[str, tuple]] = None,
    registry: Optional[VarRegistry] = None,
) -> MultiPoly:
    """Transition polynomial of a bare arrow presentation.

    Recursion a_e*(contract) + b_e*(delete) + c_e*(penrose), value t^p on an
    edgeless presentation with p circles.  Note the contract weight comes
    first.  ``w`` maps labels to weight triples; per-edge variables
    (a_l, b_l, c_l) by default.
    """
    registry = registry or standard_registry(ap.edges)
    if w is None:
        w = {
            label: tuple(
                MultiPoly.var(registry, f"{stem}_{label}") for stem in ("a", "b", "c")
            )
            for label in ap.edges
        }
    dag = resolution_dag(ap, None, _live(TRANSITION_OPS, w))
    return fold_dag(dag, w, (MultiPoly.var(registry, "t"),))


@_capped_cache(32)
def transition_state_table(ap: ArrowPresentation):
    """The resolution DAG of the 3-way transition recursion, all operations
    live, in weight order (contract, delete, penrose)."""
    return resolution_dag(ap, None, TRANSITION_OPS)


def transition_table_value(table, weights, t: Fraction) -> Fraction:
    return fold_dag(table, weights, (t,))


# --------------------------------------------------------------------------
# subset expansions: one table per domain, built once, evaluated in any ring


def _spanning(ap: ArrowPresentation, subset) -> ArrowPresentation:
    subset = frozenset(subset)
    return ArrowPresentation.from_circles(
        (tuple(o for o in circ if o.label in subset) for circ in ap.circles),
        subset,
    )


@lru_cache(maxsize=8)
def _spanning_table(ap: ArrowPresentation) -> tuple:
    """``(k(A), b(A), euler_genus(A))`` for every spanning sub-presentation
    of ``ap``, at the index whose bit i is set when A holds the i-th label in
    sorted order.  Equal rows are one object, so a table keeps little more
    than a pointer per subset.  The rows bypass the per-presentation caches,
    which would otherwise keep every sub-presentation.  Callers check the
    edge cap first."""
    labels = sorted(ap.edges)
    rows: dict = {}
    table = []
    for mask in range(1 << len(labels)):
        subset = [label for i, label in enumerate(labels) if mask >> i & 1]
        stats = surface_stats(_spanning(ap, subset), cached=False)
        row = (stats.k, stats.b, stats.euler_genus)
        table.append(rows.setdefault(row, row))
    return tuple(table)


def mv_br_value(ap: ArrowPresentation, a, b_by_label: Mapping, c):
    """Multivariate Bollobas-Riordan polynomial at ``a``, ``b_e``, ``c``.

    Sum over spanning sub-presentations A of
    a^{k(A)} * (prod of b_e over A) * c^{b(A)}, in the ring of the
    arguments: ``Fraction`` for a value, ``MultiPoly`` for the polynomial.
    Capped at ``edge_cap(16)`` edges.
    """
    check_edge_cap(len(ap.edges), 16, "subset expansion")
    one = a**0
    # prods[mask] is the product of b_e over the labels in mask.
    prods = [one]
    for label in sorted(ap.edges):
        b = b_by_label[label]
        prods += [p * b for p in prods]
    total = one - one
    for (k, nb, _), prod in zip(_spanning_table(ap), prods):
        total = total + a**k * c**nb * prod
    return total


def mv_br_poly(ap: ArrowPresentation) -> MultiPoly:
    """:func:`mv_br_value` at the variables a, b_e, c."""
    registry = VarRegistry(("a", "c") + tuple(f"b_{l}" for l in sorted(ap.edges)))
    var = lambda name: MultiPoly.var(registry, name)
    b_by_label = {l: var(f"b_{l}") for l in ap.edges}
    return mv_br_value(ap, var("a"), b_by_label, var("c"))


def br_poly(ap: ArrowPresentation) -> MultiPoly:
    """Bollobas-Riordan polynomial over (x, y, z).

    Sum over spanning sub-presentations of
    (x-1)^{r(E)-r(A)} * y^{|A|-r(A)} * z^{genus(A)} with r(A) = v - k(A) and
    genus the Euler genus, expanded into integer powers of x, y, z.  The
    spanning table is summed grouped by (k(A), |A|, genus(A)).  Capped at
    ``edge_cap(16)`` edges.
    """
    check_edge_cap(len(ap.edges), 16, "subset expansion")
    registry = VarRegistry(("x", "y", "z"))
    x, y, z = (MultiPoly.var(registry, n) for n in ("x", "y", "z"))
    rows = _spanning_table(ap)
    v = len(ap.circles)
    k_full = min(k for k, _, _ in rows)
    groups = Counter((k, mask.bit_count(), genus) for mask, (k, _, genus) in enumerate(rows))
    x1 = x - x**0
    total = MultiPoly.zero(registry)
    for (k, size, genus), count in groups.items():
        # r(E) - r(A) = k(A) - k(E) and |A| - r(A) = |A| - v + k(A)
        total = total + count * x1 ** (k - k_full) * y ** (size - v + k) * z**genus
    return total


# --------------------------------------------------------------------------
# abstract multigraphs (embedding forgotten)


class Multigraph(NamedTuple):
    """Vertices 0..n-1 with a tuple of (u, v) edges; loops and parallels
    allowed."""

    n: int
    edge_list: tuple

    @classmethod
    def make(cls, n: int, edges: Iterable) -> "Multigraph":
        return cls(n, tuple((min(u, v), max(u, v)) for u, v in edges))

    @property
    def m(self) -> int:
        return len(self.edge_list)

    def rank(self) -> int:
        return self.n - component_count(self.n, self.edge_list)

    def delete(self, i: int) -> "Multigraph":
        return Multigraph(self.n, self.edge_list[:i] + self.edge_list[i + 1 :])

    def contract(self, i: int) -> "Multigraph":
        u, v = self.edge_list[i]
        if u == v:
            return self.delete(i)
        remap = {}
        nxt = 0
        for w in range(self.n):
            if w == v:
                continue
            remap[w] = nxt
            nxt += 1
        remap[v] = remap[u]
        edges = [
            (remap[a], remap[b])
            for j, (a, b) in enumerate(self.edge_list)
            if j != i
        ]
        return Multigraph.make(self.n - 1, edges)

    def is_loop(self, i: int) -> bool:
        u, v = self.edge_list[i]
        return u == v


def graph_of_presentation(ap: ArrowPresentation) -> Multigraph:
    """Forget the embedding: circles become vertices, labels edges."""
    edges = []
    for label in sorted(ap.edges):
        (c1, _), (c2, _) = ap.occurrences(label)
        edges.append((c1, c2))
    return Multigraph.make(len(ap.circles), edges)


@lru_cache(maxsize=64)
def _subset_counts(g: Multigraph) -> tuple:
    """``((k(A), |A|), count)`` over the edge subsets A of ``g``; the
    Whitney-rank expansions depend on nothing else.  Callers check the edge
    cap first."""
    counts: Counter = Counter()
    for bits in itertools.product((0, 1), repeat=g.m):
        subset = tuple(itertools.compress(g.edge_list, bits))
        counts[component_count(g.n, subset), len(subset)] += 1
    return tuple(counts.items())


def zdot_value(g: Multigraph, a, b, c):
    """Sum over edge subsets A of a^{k(A)} b^{|A|} c^{|E-A|}, in the ring of
    the arguments.  Capped at ``edge_cap(16)`` edges."""
    check_edge_cap(g.m, 16, "subset expansion")
    one = a**0
    total = one - one
    for (k, size), count in _subset_counts(g):
        total = total + count * a**k * b**size * c ** (g.m - size)
    return total


def tutte_value(g: Multigraph, x, y):
    """Whitney-rank expansion of the Tutte polynomial at ``x``, ``y``, in the
    ring of the arguments.  Capped at ``edge_cap(16)`` edges."""
    check_edge_cap(g.m, 16, "subset expansion")
    one = x**0
    rows = _subset_counts(g)
    k_full = min(k for (k, _), _ in rows)
    total = one - one
    for (k, size), count in rows:
        # r(E) - r(A) = k(A) - k(E) and |A| - r(A) = |A| - n + k(A)
        total = total + count * (x - one) ** (k - k_full) * (y - one) ** (size - g.n + k)
    return total


def zdot_tutte(g: Multigraph) -> MultiPoly:
    """:func:`zdot_value` at the variables a, b, c."""
    registry = VarRegistry(("a", "b", "c"))
    a, b, c = (MultiPoly.var(registry, n) for n in ("a", "b", "c"))
    return zdot_value(g, a, b, c)


def tutte_poly(g: Multigraph) -> MultiPoly:
    """:func:`tutte_value` at the variables x, y, expanded."""
    registry = VarRegistry(("x", "y"))
    x, y = (MultiPoly.var(registry, n) for n in ("x", "y"))
    return tutte_value(g, x, y)


def graph_two_sum(g: Multigraph, i: int, h: Multigraph, j: int, flip: bool = False) -> Multigraph:
    """Identify edge i of g with edge j of h and delete it.

    Endpoints are matched in order, or crosswise when ``flip``.  The Tutte
    polynomial does not depend on that choice.
    """
    u, v = g.edge_list[i]
    s, t = h.edge_list[j]
    if flip:
        s, t = t, s
    remap = {}
    nxt = g.n
    for w in range(h.n):
        if w == s:
            remap[w] = u
        elif w == t:
            remap[w] = v
        else:
            remap[w] = nxt
            nxt += 1
    edges = [e for k, e in enumerate(g.edge_list) if k != i]
    edges += [
        (remap[a], remap[b]) for k, (a, b) in enumerate(h.edge_list) if k != j
    ]
    return Multigraph.make(nxt, edges)


def graph_tensor(g: Multigraph, h: Multigraph, j: int, flips: Optional[Sequence[bool]] = None) -> Multigraph:
    """2-sum a copy of h (along its edge j) onto every edge of g."""
    result = g
    flips = flips or [False] * g.m
    for _ in range(g.m):
        # After each 2-sum the remaining original edges of g sit first.
        result = graph_two_sum(result, 0, h, j, flips[_])
    return result
