"""The resolution-DAG builder that the normal-form builder in
``ribbontensor.polynomials`` replaced, kept as the reference it is tested
against: nodes are the stripped ``PackagedPresentation`` or bare
``ArrowPresentation`` values themselves, keyed by value, each resolving its
edge of least rank through ``edge_ops`` or the three transition operations.

The bodies are the replaced code, unchanged but for the cache and the
form it returns: the reference ``resolution_dag`` is uncached, has no edge
cap, and tables its strips as the builder does.  The
restriction of a partition to some of its items, which only this reference
uses, is a helper here (``_restricted``).

``edge_rank`` is the greedy cut-width order as it ran before its steps
rescored only the edges next to the one just resolved: every step rescores
every remaining edge.  The ranks it gives are the ones
``ribbontensor.polynomials._edge_rank`` must give.
"""

from typing import Optional, Sequence

from ribbontensor.arrow import ArrowPresentation
from ribbontensor.packaged import Partition, PackagedPresentation, _first_appearance, edge_ops
from ribbontensor.polynomials import OP_ORDER, TRANSITION_OPS, _edge_rank


def edge_rank(root, order: Optional[Sequence[str]]) -> dict:
    """The rank of each edge of ``root``, packaged or bare, in the order a
    resolution DAG resolves them: the edges of ``order`` first, as given,
    then a greedy cut-width order.

    A run is a maximal cyclic stretch of resolved arrows on a circle; a
    circle whose arrows are all resolved holds none.  Each step resolves
    the edge whose two arrows add the fewest runs, ties by label.  Edges
    resolved near each other let different histories reach the same
    sub-presentation, which the DAG then shares.
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

        while len(rest) > 1:
            label = min(rest, key=added)
            rest.remove(label)
            rank[label] = len(rank)
            done.update(places[label])
    for label in rest:
        rank[label] = len(rank)
    return rank


def _restricted(part: Partition, items) -> Partition:
    """The partition of ``items``, increasing, renumbered 0, 1, ..."""
    return Partition(_first_appearance(map(part.labels.__getitem__, items)))


def _strip_isolated(pg: PackagedPresentation):
    """Remove edgeless circles; return the exponent they contribute.

    Each removed circle contributes one alpha; a vertex class consisting
    entirely of removed circles contributes one beta, and a boundary class
    consisting entirely of their bare boundaries one gamma, so the betas and
    gammas are the classes that restricting the partitions drops.
    """
    if () not in pg.ap.circles:
        return pg, (0, 0, 0)
    keep = [ci for ci, circ in enumerate(pg.ap.circles) if circ]
    da = len(pg.ap.circles) - len(keep)
    vparts = _restricted(pg.vparts, keep)
    # Token boundaries keep their canonical ids (they precede bare ones and
    # circle reindexing is monotone); the bare boundaries, the last da, drop.
    bparts = _restricted(pg.bparts, range(len(pg.bparts.labels) - da))
    stripped = PackagedPresentation(
        ArrowPresentation(tuple(filter(None, pg.ap.circles)), pg.ap.edges), vparts, bparts
    )
    return stripped, (
        da, pg.vparts.n_blocks - vparts.n_blocks, pg.bparts.n_blocks - bparts.n_blocks
    )


def _strip_bare(ap: ArrowPresentation):
    """Remove bare circles; return how many there were, as a 1-tuple."""
    bare = sum(1 for circ in ap.circles if not circ)
    if not bare:
        return ap, (0,)
    return ArrowPresentation(tuple(c for c in ap.circles if c), ap.edges), (bare,)


def resolution_dag(root, order: Optional[tuple], live: tuple):
    """Resolve ``root`` once into the DAG of its distinct sub-presentations.

    A :class:`PackagedPresentation` follows the five-weight recursion
    (operations ``OP_ORDER``; isolated circles strip to alpha, beta, gamma
    exponents), a bare :class:`ArrowPresentation` the transition recursion
    (operations ``TRANSITION_OPS``; bare circles strip to a t exponent).
    Only the ``live`` operations are followed.  Every node resolves its edge
    of least rank in :func:`_edge_rank`, computed once from the root: the
    edges of ``order`` first, then a greedy cut-width order.

    Returns ``((root, root_strip, strips), nodes)``.  ``nodes`` holds every
    distinct stripped sub-presentation with edges once, keyed by value,
    children first, as ``(label, refs)``: the edge resolved there and one
    ref ``(slot, child, strip)`` per live operation, ``slot`` its place in
    the operation order.  ``child`` is a node index, or -1 for an edgeless
    result; ``strip`` is an index into ``strips``, the distinct nonempty
    exponents stripped on the way in the order of first use, or -1 when
    nothing was.

    A root with more edges than ``edge_cap(16)`` raises
    :class:`SizeLimitExceeded`, also when its DAG is cached.
    """
    packaged = isinstance(root, PackagedPresentation)
    strip = _strip_isolated if packaged else _strip_bare
    ops = OP_ORDER if packaged else TRANSITION_OPS
    rank = _edge_rank(root, order).__getitem__
    live_ops = [op for op in ops if op in live]
    index: dict = {}
    nodes: list = []
    table: dict = {}

    def at(exps):
        return table.setdefault(exps, len(table)) if exps else -1

    def visit(x):
        x, exps = strip(x)
        exps = exps if any(exps) else ()
        edges = x.ap.edges if packaged else x.edges
        if not edges:
            return -1, exps
        i = index.get(x)
        if i is None:
            e = min(edges, key=rank)
            results = iter(edge_ops(x, e, live_ops) if packaged else [op(x, e) for op in live_ops])
            refs = [(slot, *visit(next(results))) for slot, op in enumerate(ops) if op in live]
            i = index[x] = len(nodes)
            nodes.append((e, tuple((slot, child, at(exps)) for slot, child, exps in refs)))
        return i, exps

    root, exps = visit(root)
    return (root, at(exps), tuple(table)), tuple(nodes)
