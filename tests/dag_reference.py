"""The resolution-DAG builder that the normal-form builder in
``ribbontensor.polynomials`` replaced, kept as the reference it is tested
against: nodes are the stripped ``PackagedPresentation`` or bare
``ArrowPresentation`` values themselves, keyed by value, each resolving its
edge of least rank through ``edge_ops`` or the three transition operations.

The bodies are the replaced code, unchanged but for the cache: the
reference ``resolution_dag`` is uncached and has no edge cap.  The
restriction of a partition to some of its items, which only this reference
uses, is a helper here (``_restricted``).
"""

from typing import Optional

from ribbontensor.arrow import ArrowPresentation
from ribbontensor.packaged import Partition, PackagedPresentation, _first_appearance, edge_ops
from ribbontensor.polynomials import OP_ORDER, TRANSITION_OPS, _edge_rank


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
    rank = _edge_rank(root, order).__getitem__
    live_ops = [op for op in ops if op in live]
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
            e = min(edges, key=rank)
            results = iter(edge_ops(x, e, live_ops) if packaged else [op(x, e) for op in live_ops])
            refs = tuple(visit(next(results)) if op in live else None for op in ops)
            i = index[x] = len(nodes)
            nodes.append((e, refs))
        return i, exps

    return visit(root), tuple(nodes)
