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
polynomial or ``Fraction`` for its value at a point.  The build emits the
DAG in the form the fold reads: its distinct strips tabled once, and each
node's refs only its live operations.  Its nodes resolve their edges in
one static cut-width order, :func:`_edge_rank`, under which different
histories meet in shared nodes.  A node is flat integers in the
normal form of :class:`NormalForms` (arrow-code circles, each in its
least reading, sorted with equal circles in the order they come, and the
partitions' labels carried along), so sub-presentations that differ only
in the order or the reading direction of their circles are one node,
unless the labels tell apart two readings of a symmetric form.  The codes
number the edges by their place in the cut order, not by name, so a node's
sub-DAG depends only on its normal form, and one memo of forms, surgeries
and nodes serves both recursions: a build copies every node and reuses
every surgery that an earlier build of either has resolved.
:func:`root_terms` reads the root's unweighted terms off the same fold:
resolved with an edge first, a presentation's DAG gives the values of all
of that edge's operation results at once.  At a point the fold runs on integer
numerators: each label's weights are put over their common denominator
``d_e`` and the bases over ``d_b``, a node keeps its value times the
``d_e`` of its edges and ``d_b`` to its largest stripped base degree, and
the root's terms share one denominator, ``d_root``, the ``d_e`` of the
labels below it and that power of ``d_b``.  :func:`fold_dag` divides their
sum by it once; :func:`root_terms` hands back the numerators and that
denominator, which the transfer systems keep as integers.  A ``MultiPoly`` fold is the
same loop with every denominator 1.  The subset expansions follow the
same scheme: :func:`_spanning_table` and :func:`_subset_counts` enumerate
once the spanning sub-presentations of an arrow presentation and the edge
subsets of a multigraph, and :func:`_expand` sums an evaluator's rows, each
a coefficient times powers of the bases, in the ring of the arguments.  A
rational base n/d is tabled as the integers ``n**i * d**(top - i)`` over
``d**top``, so every row is integer products, summed in one accumulator
(:func:`ring_sum`) and divided once at the end.

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
    BoundaryComponent,
    BoundaryTrace,
    OpTraceArrow,
    boundary_trace,
    check_edge_cap,
    code_circles,
    code_surgery,
    code_trace,
    components,
    contract_edge,
    delete_edge,
    edge_links,
    penrose_contract_edge,
    reversed_reading,
    surgery_boundaries,
)
from .packaged import EdgeOpKind, PackagedPresentation, partition_ops
from .poly import MultiPoly, VarRegistry, common_denominator, ring_sum, standard_registry

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


def _edge_rank(root, order: Optional[Sequence[str]]) -> dict:
    """The rank of each edge of ``root``, packaged or bare, in the order a
    resolution DAG resolves them: the edges of ``order`` first, as given,
    then a greedy cut-width order.

    A run is a maximal cyclic stretch of resolved arrows on a circle; a
    circle whose arrows are all resolved holds none.  Each step resolves
    the edge whose two arrows add the fewest runs, ties by label.  Edges
    resolved near each other let different histories reach the same
    sub-presentation, which the DAG then shares.

    What an arrow at slot p adds depends only on slots p - 1, p and p + 1
    of its circle, so a step rescores only the edges with an arrow next to
    one of the resolved edge's, cyclically on the same circle.
    """
    ap = root.ap if isinstance(root, PackagedPresentation) else root
    rank: dict = {}
    for label in order or ():
        if label in ap.edges and label not in rank:
            rank[label] = len(rank)
    rest = sorted(ap.edges.difference(rank))
    if len(rest) > 2:
        places = {label: ap.occurrences(label) for label in ap.edges}
        lengths = [len(circ) for circ in ap.circles]
        # An arrow's slot and the next one are where its runs can start.
        near = {
            label: {(c, q % lengths[c]) for c, p in places[label] for q in (p, p + 1)}
            for label in rest
        }
        done = {slot for label in rank for slot in places[label]}

        def starts(slots):
            return sum((c, p) in done and (c, (p or lengths[c]) - 1) not in done for c, p in slots)

        def added(label):
            before = starts(near[label])
            done.update(places[label])
            after = starts(near[label])
            done.difference_update(places[label])
            return after - before

        score = {label: added(label) for label in rest}
        while len(rest) > 1:
            label = min(rest, key=score.__getitem__)
            rest.remove(label)
            del score[label]
            rank[label] = len(rank)
            done.update(places[label])
            beside = {
                ap.circles[c][q % lengths[c]].label
                for c, p in places[label]
                for q in (p - 1, p + 1)
            }
            for other in beside.intersection(score):
                score[other] = added(other)
    for label in rest:
        rank[label] = len(rank)
    return rank


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

# The normal forms of the DAG's nodes: circles of arrow codes


class CodeResult(NamedTuple):
    """One arrow operation on a normal form, its result in normal form.

    ``circles`` are the result's nonempty circles and ``bare`` counts its
    empty ones.  The maps are laid out as in :class:`EdgeOpResult`, into
    the result's frame: the circles of ``circles``, then the empty ones;
    the ``boundaries`` boundaries of ``circles``, then those of the empty
    circles."""

    circles: tuple
    circle_map: tuple
    created_circles: tuple
    boundary_map: tuple
    created_boundaries: tuple
    bare: int
    boundaries: int


class NormalForms:
    """Sub-presentations in a normal form, with their traces, surgeries and
    DAG nodes, memoised for every resolution DAG.

    A normal form's circles hold arrow codes.  A DAG numbers its root's
    edges by their place in its static cut order: the edge resolved when j
    edges are left has the forward code ``2j - 1`` and its backward arrow
    the even code below.  So a form with j edges resolves its greatest
    code, ``2j - 1``, and everything below it depends on the form alone,
    whatever the labels were called.  Each circle is stored in its least
    reading: the lesser of its rotation-least form and that of its reverse
    with every code's low bit flipped, which is the same circle read the
    other way round (slots are intrinsic, so every boundary stays where it
    was); a tie keeps the first.  The circles are sorted, ties in the order
    they come, and the empty ones are counted and dropped.  Equal forms are
    therefore the same presentation read differently.  A node keeps the
    labels its partitions carry into this frame, so where a form can be
    read in several ways, two readings of one sub-presentation may key two
    nodes with one value.

    :meth:`resolve` resolves the greatest code of a form by each arrow
    operation once, for whichever DAG meets it first, five-weight or
    transition, with the circle and boundary maps that the partitions
    follow; the transition fold reads none of them.  Only the circles a
    surgery rebuilt are read afresh: the others come from a normal form, so
    they already are.  ``nodes`` maps each tuple of live slots to the DAG
    nodes resolved under it: a node's key (its circles, and for packaged
    roots its vertex and boundary labels) to its refs: per slot, ``None``
    if the slot is not live, else its child's key (``None`` when edgeless)
    and strip.
    """

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self.forms: dict = {}  # circles -> their boundary trace
        self.padded: dict = {}  # (circles, bare) -> the trace with bare circles after
        self.resolved: dict = {}
        self.nodes: dict = {}  # live slots -> node key -> refs

    def size(self) -> int:
        """The entries of the forms, resolutions and nodes memos."""
        return len(self.forms) + len(self.resolved) + sum(map(len, self.nodes.values()))

    def _form(self, circles: tuple) -> BoundaryTrace:
        """The boundary trace of the normal form ``circles``."""
        trace = self.forms.get(circles)
        if trace is None:
            trace = self.forms[circles] = code_trace(circles)
        return trace

    def root(self, ap: ArrowPresentation, odd) -> CodeResult:
        """The normal form of ``ap``, whose labels have the forward codes
        ``odd``, with its partitions' maps from ``ap``'s circles and
        boundaries."""
        circles, occ_map = code_circles(ap, odd)
        moves = OpTraceArrow(list(range(len(circles))), (), occ_map, [])
        return self._normal(boundary_trace(ap), circles, moves, range(len(circles)), (), None)

    def resolve(self, circles: tuple, kinds) -> tuple:
        """``(incident, results, source)`` for the label of the normal form
        ``circles`` with the greatest code, the one its DAG resolves there:
        the circles and the boundaries through the heads of the label's two
        arrows, as :meth:`~ribbontensor.arrow.BoundaryTrace.incident` gives
        them; the :class:`CodeResult` of each arrow operation of ``kinds``
        (and of any other made before); and what a surgery of the label
        starts from."""
        entry = self.resolved.get(circles)
        if entry is None:
            codes = tuple(itertools.chain.from_iterable(circles))
            odd = len(codes) - 1
            g1, g2 = [g for g, code in enumerate(codes) if code | 1 == odd]
            old = self._form(circles)
            entry = self.resolved[circles] = (old.incident(g1, g2), {}, (old, codes, g1, g2))
        incident, results, (old, codes, g1, g2) = entry
        for kind in kinds:
            if kind not in results:
                pre, moves = code_surgery(circles, old.offsets, codes, g1, g2, kind)
                # deletion rebuilds its hosts in place, the glues append
                fresh = sorted(set(incident[0])) if kind == "delete" else moves.created_circles
                results[kind] = self._normal(old, pre, moves, fresh, (g1, g2), kind)
        return entry

    def _normal(self, old, circles, moves: OpTraceArrow, fresh, removed, kind) -> CodeResult:
        """The code circles ``circles`` in normal form, those of ``fresh``
        read afresh, the others in least reading and in order already, with
        the maps of ``moves``, the operation ``kind`` on the arrows
        ``removed`` of the form traced as ``old``, carried into the new
        frame."""
        circles = list(circles)
        turns = {}  # a circle read backward -> the rotation of its reverse
        for c in fresh:
            circ = circles[c]
            if circ:
                back, r = reversed_reading(circ)
                if back < circ:
                    circles[c], turns[c] = back, r
        ranked = sorted(filter(circles.__getitem__, range(len(circles))), key=circles.__getitem__)
        normal = tuple(map(circles.__getitem__, ranked))
        bare = len(circles) - len(ranked)
        if bare:
            ranked += [c for c, circ in enumerate(circles) if not circ]
        new = self._form(normal)
        tokens = len(new.components)
        if turns or ranked != list(range(len(circles))):
            # Carry the moves into the new frame.  place[c] is the new index
            # of circle c; its last entry, -1, is where a map's -1 leads.
            place = sorted(range(len(circles)), key=ranked.__getitem__) + [-1]
            # The new g of each arrow of a fresh circle; an arrow at
            # position p of a circle of n read backward from rotation r
            # lands at (n - 1 - p - r) % n.  Other circles keep their
            # positions.
            starts = list(itertools.accumulate(map(len, circles), initial=0))
            renumber = [-1] * (starts[-1] + 1)
            for c in fresh:
                n = len(circles[c])
                if n:
                    lo, to = starts[c], new.offsets[place[c]]
                    r = turns.get(c)
                    renumber[lo:lo + n] = (
                        range(to, to + n) if r is None
                        else [to + (n - 1 - p - r) % n for p in range(n)]
                    )
            moves = OpTraceArrow(
                tuple(map(place.__getitem__, moves.circle_map)),
                tuple(map(place.__getitem__, moves.created_circles)),
                list(map(renumber.__getitem__, moves.occ_map)),
                # only a contraction reads where its glued points went
                [
                    (place[c], t if t < 0 else 2 * renumber[t >> 1] + (t & 1))
                    for c, t in (moves.markers if kind == "contract" else ())
                ],
            )
        if bare:
            padded = self.padded.get((normal, bare))
            if padded is None:
                padded = self.padded[normal, bare] = BoundaryTrace(
                    new.components + tuple(
                        [BoundaryComponent(tokens + i, (), len(normal) + i) for i in range(bare)]
                    ),
                    new.token_bd,
                    new.offsets + (len(new.mate),) * bare,
                    {len(normal) + i: tokens + i for i in range(bare)},
                    new.mate,
                )
            new = padded
        bmap, created_b = surgery_boundaries(old, new, moves, removed, kind)
        return CodeResult(
            normal, tuple(moves.circle_map), tuple(moves.created_circles), bmap, created_b, bare,
            tokens,
        )


_FORMS = NormalForms()
_FORMS_BOUND = 4096  # memo entries kept from one DAG build to the next


def normal_forms() -> NormalForms:
    """The memo of normal forms that every DAG shares, cleared before a
    build that finds it holding more than ``_FORMS_BOUND`` forms,
    resolutions and nodes."""
    if _FORMS.size() > _FORMS_BOUND:
        _FORMS.clear()
    return _FORMS


# The transition recursion's operations, in the order of its weights (a, b, c).
TRANSITION_OPS = (contract_edge, delete_edge, penrose_contract_edge)
# The arrow operation under each operation of either recursion.
_ARROW_KIND = {
    **{op: op.arrow_kind for op in OP_ORDER},
    **dict(zip(TRANSITION_OPS, ("contract", "delete", "penrose"))),
}


@_capped_cache(64)
def resolution_dag(root, order: Optional[tuple], live: tuple):
    """Resolve ``root`` once into the DAG of its distinct sub-presentations.

    A :class:`PackagedPresentation` follows the five-weight recursion
    (operations ``OP_ORDER``; isolated circles strip to alpha, beta, gamma
    exponents), a bare :class:`ArrowPresentation` the transition recursion
    (operations ``TRANSITION_OPS``; bare circles strip to a t exponent).
    Only the ``live`` operations are followed.  The edges are resolved in
    the static order of :func:`_edge_rank`, computed once from the root: the
    edges of ``order`` first, then a greedy cut-width order, so every node
    at depth d resolves the d-th.

    A node is a sub-presentation in the normal form of
    :class:`NormalForms`, flat integers: its circles of arrow codes, each
    in its least reading and sorted, equal circles in the order they come,
    and for the five-weight recursion the restricted-growth vertex and
    boundary labels carried into that frame.  Equal nodes are isomorphic
    sub-presentations, so sub-presentations that differ only in the order
    or the reading direction of their circles share one node, unless the
    labels tell apart two readings of a symmetric form.  The arrow codes
    number the edges by their place in the cut order, so a node's whole
    sub-DAG depends only on its normal form and the live operations.  The
    memo of :func:`normal_forms` therefore keeps every node once for all
    DAGs: only a node that no earlier build has met is resolved, through
    its circles' memoised surgeries and the partition updates of
    :func:`~ribbontensor.packaged.partition_ops`; every other node is
    copied from the memo under this DAG's labels.

    Returns ``((root, root_strip, strips), nodes)``, the form
    :func:`fold_dag` reads.  ``nodes`` holds every distinct stripped node
    with edges once, children first, as ``(label, refs)``: the edge
    resolved there and one ref ``(slot, child, strip)`` per live operation,
    in operation order.  ``slot`` is the operation's place in ``OP_ORDER``
    or ``TRANSITION_OPS``; ``child`` is a node index, or -1 for an edgeless
    result; ``strip`` is an index into ``strips``, or -1 when nothing was
    stripped on the way.  ``strips`` holds the DAG's distinct nonempty
    strips, the exponents stripped, in the order of first use.  ``root`` is
    the root's index, the last, or -1 for an edgeless root, and
    ``root_strip`` the index of its own strip, or -1.

    A root with more edges than ``edge_cap(16)`` raises
    :class:`SizeLimitExceeded`, also when its DAG is cached.
    """
    packaged = isinstance(root, PackagedPresentation)
    ap = root.ap if packaged else root
    rank = _edge_rank(root, order)
    ops = OP_ORDER if packaged else TRANSITION_OPS
    live_ops = [op for op in ops if op in live]
    # per operation in order, its arrow kind if it is live, else None
    slots = tuple([_ARROW_KIND[op] if op in live else None for op in ops])
    kinds = tuple(dict.fromkeys(filter(None, slots)))
    forms = normal_forms()
    memo = forms.nodes.setdefault(slots, {})
    # by the number of edges left to resolve, less one: the label resolved
    # then, whose forward code is 2 * j + 1
    cut = sorted(ap.edges, key=rank.__getitem__, reverse=True)
    odd = {label: 2 * j + 1 for j, label in enumerate(cut)}

    if packaged:

        def child(res, vlabels, blabels):
            # The result's key, None when it is edgeless, and its strip: the
            # empty circles, the last of either frame, and the classes that
            # go with them.
            strip = ()
            if res.bare:
                n, nb = len(res.circles), res.boundaries
                kept, bkept = vlabels[:n], blabels[:nb]
                strip = (
                    res.bare,
                    max(vlabels, default=-1) - max(kept, default=-1),
                    max(blabels, default=-1) - max(bkept, default=-1),
                )
                vlabels, blabels = kept, bkept
            if not res.circles:
                return None, strip
            return (res.circles, vlabels, blabels), strip

        def resolve(key):
            circles, vlabels, blabels = key
            incident, results, _ = forms.resolve(circles, kinds)
            parts = iter(partition_ops(vlabels, blabels, incident, results, live_ops))
            return tuple([kind and child(results[kind], *next(parts)) for kind in slots])

        res = forms.root(ap, odd)
        top = child(  # the root's key and strip
            res,
            root.vparts.transfer(res.circle_map).labels,
            root.bparts.transfer(res.boundary_map).labels,
        )
    else:

        def child(res):
            return res.circles or None, (res.bare,) if res.bare else ()

        def resolve(circles):
            results = forms.resolve(circles, kinds)[1]
            return tuple([kind and child(results[kind]) for kind in slots])

        top = child(forms.root(ap, odd))

    def frame(key, j):
        # A node met first, with j + 1 edges left, and its refs to walk.
        refs = memo.get(key)
        if refs is None:
            refs = memo[key] = resolve(key)
        return key, j, refs, iter(refs)

    table: dict = {}  # each distinct nonempty strip -> its index

    def at(strip):
        return table.setdefault(strip, len(table)) if strip else -1

    # Children first, each child's whole sub-DAG before the next child's, on
    # an explicit stack: a DAG is as deep as its root has edges.
    index: dict = {}
    nodes: list = []
    stack = [] if top[0] is None else [frame(top[0], len(cut) - 1)]
    while stack:
        key, j, refs, rest = stack[-1]
        for ref in rest:
            if ref and ref[0] is not None and ref[0] not in index:
                stack.append(frame(ref[0], j - 1))
                break
        else:
            stack.pop()
            index[key] = len(nodes)
            nodes.append((cut[j], tuple([
                (slot, -1 if ref[0] is None else index[ref[0]], at(ref[1]))
                for slot, ref in enumerate(refs) if ref
            ])))
    # the root, if it has edges, comes last
    return (len(nodes) - 1, at(top[1]), tuple(table)), tuple(nodes)


def _fold(dag, weights: Mapping[str, tuple], bases: tuple, root_weights):
    """The one evaluation loop under :func:`fold_dag` and :func:`root_terms`.

    Evaluates every node below the root reached through a nonzero weight,
    children first, reading the root's weights from ``root_weights``, which
    it indexes by operation slot.  Over the rationals it folds the
    integer numerators :func:`fold_dag` describes; in any other ring,
    ``MultiPoly``, every denominator is 1 and the numerators are the values.

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
    (root, root_strip, strips), nodes = dag
    rational = isinstance(bases[0], Rational)
    if rational:
        bases, d_b = common_denominator(bases)
        root_nums, d_root = common_denominator(root_weights)
    else:
        d_b, root_nums = 1, root_weights
    zero = bases[0] - bases[0]
    # each strip's numerator, over d_b to its degree, the sum of its exponents
    factors = [math.prod([b**k for b, k in zip(bases, strip) if k]) for strip in strips]
    strip_degrees = list(map(sum, strips))

    # Children precede parents, so one descending sweep finds every node
    # reached from the root and the numerators of its weights, split once
    # per label.
    below: dict = {}
    rows: list = [None] * (root + 1)
    rows[root] = root_nums
    for i in range(root, -1, -1):
        nums = rows[i]
        if nums is None:
            continue
        for slot, child, _ in nodes[i][1]:
            if child >= 0 and nums[slot] and rows[child] is None:
                label = nodes[child][0]
                split = below.get(label)
                if split is None:
                    ws = weights[label]
                    split = below[label] = common_denominator(ws) if rational else (ws, 1)
                rows[child] = split[0]
    values: list = [None] * root
    degrees = [0] * root
    pads = [1]  # pads[j] is d_b ** j
    for i in range(root + 1):
        nums = rows[i]
        if nums is None:
            continue
        terms = []
        top = 0
        for slot, child, s in nodes[i][1]:
            n = nums[slot]
            if not n:
                continue
            k = 0
            if s >= 0:
                n = n * factors[s]
                k = strip_degrees[s]
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
    if root_strip >= 0:
        scale = factors[root_strip]
        top += strip_degrees[root_strip]
    if not rational:
        return terms, scale, None
    return terms, scale, d_root * math.prod(d for _, d in below.values()) * d_b**top


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
    (root, root_strip, strips), nodes = dag
    if root < 0:  # an edgeless presentation: the value of its strip
        if root_strip < 0:
            return bases[0] ** 0
        return math.prod(b**k for b, k in zip(bases, strips[root_strip]) if k)
    terms, scale, den = _fold(dag, weights, bases, weights[nodes[root][0]])
    total = sum(terms[1:], terms[0]) if terms else bases[0] - bases[0]
    if scale is not None:
        total = scale * total
    return total if den is None else Fraction(total, den)


def root_terms(dag, weights: Mapping[str, tuple], bases: tuple) -> tuple:
    """The unweighted terms of a resolution DAG's root, one per live
    operation in operation order: the strip factor times the child's value,
    times the root's own strip.

    They are the values of the root's operation results, so a factor resolved
    once with its coupled edge first (``resolution_dag(x, (e,), ops)``) gives
    all its operation values in one fold.  Returns them as :func:`_fold`
    leaves them, ``(numerators, den)``: the terms are ``n / den`` over the
    rationals, and ``den`` is ``None`` in any other ring, where the
    numerators are the terms.  ``weights`` need not name the root's edge.
    The root must have edges; its weights are all 1, one per operation up
    to its last live slot.
    """
    (root, _, _), nodes = dag
    refs = nodes[root][1]
    one = bases[0] ** 0
    terms, scale, den = _fold(dag, weights, bases, (one,) * (refs[-1][0] + 1 if refs else 0))
    return (terms if scale is None else [scale * t for t in terms]), den


def _live(ops: tuple, weights: Mapping[str, tuple]) -> tuple:
    """The operations whose weight is nonzero on some edge: the weights
    transposed into one column per operation, each scanned up to its first
    nonzero."""
    return tuple(op for op, column in zip(ops, zip(*weights.values())) if any(column))


def q_multivariate(pg: PackagedPresentation, w: Optional[WeightSystem] = None) -> MultiPoly:
    """The five-weight polynomial, folded over the resolution DAG.

    With the default per-edge weights the result has up to 5^m terms for m
    edges, so it is capped at ``edge_cap(8)`` edges (390,625 terms).
    """
    if w is None:
        # the DAG's own cap first, so that a lowered cap names the DAG
        check_edge_cap(len(pg.ap.edges), 16, "resolution DAG")
        check_edge_cap(len(pg.ap.edges), 8, "per-edge five-weight polynomial")
        w = WeightSystem.per_edge(standard_registry(pg.ap.edges))
    weights = {label: w.for_edge(label) for label in pg.ap.edges}
    dag = resolution_dag(pg, None, _live(OP_ORDER, weights))
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


def transition_poly(ap: ArrowPresentation) -> MultiPoly:
    """Transition polynomial of a bare arrow presentation, with the per-edge
    weights (a_l, b_l, c_l), all live.

    Recursion a_e*(contract) + b_e*(delete) + c_e*(penrose), value t^p on an
    edgeless presentation with p circles.  Note the contract weight comes
    first.  The result has up to 3^m terms for m edges, so it is capped at
    ``edge_cap(12)`` edges (531,441 terms).
    """
    check_edge_cap(len(ap.edges), 16, "resolution DAG")
    check_edge_cap(len(ap.edges), 12, "transition polynomial")
    registry = standard_registry(ap.edges)
    w = {
        label: tuple(MultiPoly.var(registry, f"{stem}_{label}") for stem in ("a", "b", "c"))
        for label in ap.edges
    }
    return fold_dag(resolution_dag(ap, None, TRANSITION_OPS), w, (MultiPoly.var(registry, "t"),))


@_capped_cache(32)
def transition_state_table(ap: ArrowPresentation):
    """The resolution DAG of the 3-way transition recursion, all operations
    live, in weight order (contract, delete, penrose)."""
    return resolution_dag(ap, None, TRANSITION_OPS)


def transition_table_value(table, weights, t: Fraction) -> Fraction:
    return fold_dag(table, weights, (t,))


# --------------------------------------------------------------------------
# subset expansions: one table per domain, built once, evaluated in any ring


@lru_cache(maxsize=8)
def _spanning_table(ap: ArrowPresentation) -> tuple:
    """``(k(A), b(A), euler_genus(A))`` for every spanning sub-presentation
    of ``ap``, at the index whose bit i is set when A holds the i-th label in
    sorted order.  k(A) is a component count over the links of A's labels,
    b(A) the length of an uncached trace of ``ap``'s circles with the arrows
    outside A removed (neither rotated nor cached, so no per-presentation
    cache keeps a sub-presentation), and the genus is 2k - v + |A| - b.
    Equal rows are one object, so a table keeps little more than a pointer
    per subset.  Callers check the edge cap first."""
    labels = sorted(ap.edges)
    bit = {label: 1 << i for i, label in enumerate(labels)}
    circles = [[(bit[occ.label], occ) for occ in circ] for circ in ap.circles]
    links = [(bit[label], link) for label, link in edge_links(ap).items()]
    trace = boundary_trace.__wrapped__
    v = len(ap.circles)
    rows: dict = {}
    table = []
    for mask in range(1 << len(labels)):
        k = components(v, [link for on, link in links if mask & on])[0]
        # the trace reads the circles only
        sub = tuple([tuple([occ for on, occ in circ if mask & on]) for circ in circles])
        b = len(trace(ArrowPresentation(sub, ap.edges)).components)
        row = (k, b, 2 * k - v + mask.bit_count() - b)
        table.append(rows.setdefault(row, row))
    return tuple(table)


def _powers(base, top: int, rational: bool) -> tuple:
    """The powers of ``base`` from 0 to ``top`` as ``(table, denominator)``.
    A rational n/d is tabled as the integers ``n**i * d**(top - i)`` over
    ``d**top``; in any other ring the table holds the powers over 1."""
    n, d = (base.numerator, base.denominator) if rational else (base, 1)
    table = [1 if rational else base**0]
    for _ in range(top):
        table.append(table[-1] * n)
    if d != 1:
        table = [t * d ** (top - i) for i, t in enumerate(table)]
    return table, d**top


def _expand(rows: Iterable, bases: tuple, rational: bool, den: int = 1):
    """The sum of ``coeff * prod(bases[j] ** exps[j])`` over ``rows`` of
    ``(coeff, exps)``, rows with equal exponents summed first.  Over the
    rationals the coefficients are integer numerators over ``den``, so
    every row is integer products only, and the sum becomes one
    ``Fraction`` at the end."""
    groups: dict = {}
    for coeff, exps in rows:
        groups.setdefault(exps, []).append(coeff)
    tables = []
    for base, top in zip(bases, map(max, zip(*groups))):
        table, d = _powers(base, top, rational)
        tables.append(table)
        den *= d
    total = ring_sum(
        (
            math.prod((t[e] for t, e in zip(tables, exps)), start=ring_sum(cs, cs[0] * 0))
            for exps, cs in groups.items()
        ),
        0 if rational else bases[0] * 0,
    )
    return Fraction(total, den) if rational else total


def mv_br_value(ap: ArrowPresentation, a, b_by_label: Mapping, c):
    """Multivariate Bollobas-Riordan polynomial at ``a``, ``b_e``, ``c``.

    Sum over spanning sub-presentations A of
    a^{k(A)} * (prod of b_e over A) * c^{b(A)}, in the ring of the
    arguments: ``Fraction`` for a value, ``MultiPoly`` for the polynomial.
    The products over A are built by doubling in sorted-label order, so a
    product's index is A's bitmask in the spanning table; at a rational
    point a label outside A contributes its ``d_e``.  Capped at
    ``edge_cap(16)`` edges.
    """
    check_edge_cap(len(ap.edges), 16, "subset expansion")
    bs = [b_by_label[label] for label in sorted(ap.edges)]
    rational = all(isinstance(v, Rational) for v in (a, c, *bs))
    prods, den = [1 if rational else a**0], 1
    for b in bs:
        (out, into), d = _powers(b, 1, rational)
        prods = ([p * out for p in prods] if d != 1 else prods) + [p * into for p in prods]
        den *= d
    rows = ((p, (k, nb)) for (k, nb, _), p in zip(_spanning_table(ap), prods))
    return _expand(rows, (a, c), rational, den)


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
    spanning table is summed grouped by those three exponents.  Capped at
    ``edge_cap(16)`` edges.
    """
    check_edge_cap(len(ap.edges), 16, "subset expansion")
    registry = VarRegistry(("x", "y", "z"))
    x, y, z = (MultiPoly.var(registry, n) for n in ("x", "y", "z"))
    table = _spanning_table(ap)
    v = len(ap.circles)
    k_full = min(k for k, _, _ in table)
    # r(E) - r(A) = k(A) - k(E) and |A| - r(A) = |A| - v + k(A)
    rows = (
        (1, (k - k_full, mask.bit_count() - v + k, genus))
        for mask, (k, _, genus) in enumerate(table)
    )
    return _expand(rows, (x - x**0, y, z), False)


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
        return self.n - components(self.n, [(u, v, 0) for u, v in self.edge_list])[0]

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
    links = edge_links(ap)
    return Multigraph.make(len(ap.circles), [links[label][:2] for label in sorted(links)])


@lru_cache(maxsize=64)
def _subset_counts(g: Multigraph) -> tuple:
    """``((k(A), |A|), count)`` over the edge subsets A of ``g``; the
    Whitney-rank expansions depend on nothing else.  Callers check the edge
    cap first."""
    links = [(u, v, 0) for u, v in g.edge_list]
    counts: Counter = Counter()
    for bits in itertools.product((0, 1), repeat=g.m):
        subset = list(itertools.compress(links, bits))
        counts[components(g.n, subset)[0], len(subset)] += 1
    return tuple(counts.items())


def zdot_value(g: Multigraph, a, b, c):
    """Sum over edge subsets A of a^{k(A)} b^{|A|} c^{|E-A|}, in the ring of
    the arguments.  Capped at ``edge_cap(16)`` edges."""
    check_edge_cap(g.m, 16, "subset expansion")
    rows = ((n, (k, size, g.m - size)) for (k, size), n in _subset_counts(g))
    return _expand(rows, (a, b, c), all(isinstance(v, Rational) for v in (a, b, c)))


def tutte_value(g: Multigraph, x, y):
    """Whitney-rank expansion of the Tutte polynomial at ``x``, ``y``, in the
    ring of the arguments.  Capped at ``edge_cap(16)`` edges."""
    check_edge_cap(g.m, 16, "subset expansion")
    rows = _subset_counts(g)
    k_full = min(k for (k, _), _ in rows)
    one = x**0
    # r(E) - r(A) = k(A) - k(E) and |A| - r(A) = |A| - n + k(A)
    rows = ((n, (k - k_full, size - g.n + k)) for (k, size), n in rows)
    return _expand(rows, (x - one, y - one), all(isinstance(v, Rational) for v in (x, y)))


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
