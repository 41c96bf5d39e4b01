"""Packaged arrow presentations.

A packaged presentation is an arrow presentation together with a partition of
its circles (vertex classes) and a partition of its canonical boundary ids
(boundary classes).  This module implements the five partition-aware edge
operations, 2-sums along couplings, tensor products, and the five one-edge
basis presentations that realise the operations as 2-sums.

A partition of the items 0..n-1 is stored as its restricted-growth string
``labels``: ``labels[i]`` is the block of item ``i``, blocks numbered in the
order of their least items, so equal partitions are equal flat tuples.
Partition bookkeeping follows one scheme throughout, :meth:`Partition.transfer`:
items destroyed by a surgery drop out of their blocks, freshly created items
enter as singletons, and the operation merges prescribed groups of blocks
(the classes of the items incident to the operated edge, plus whatever the
surgery created).  It makes one union-find pass over the old block numbers.

:class:`Partition`, :class:`PackagedPresentation`, :class:`Coupling` and
:class:`OpTrace` are ``typing.NamedTuple`` classes, so they compare equal to
plain tuples of the same fields; a partition's block count is
``p.n_blocks``, the number of distinct labels, and ``p.blocks`` derives its
blocks.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .arrow import (
    HEAD,
    TAIL,
    ArrowPresentation,
    boundary_components,
    boundary_trace,
    canonical_transforms,
    check_arrangements,
    edge_op_traced,
    edge_surgery,
    find,
    two_sum_traced,
    validate,
)
from .errors import (
    InvalidCoupling,
    InvariantViolation,
    MissingFactor,
    PartitionCoverError,
    PartitionOverlapError,
    UnknownEdge,
)


def _first_appearance(keys) -> tuple:
    """``keys`` renumbered 0, 1, ... in the order each first appears."""
    first: dict = {}
    return tuple([first.setdefault(k, len(first)) for k in keys])


class Partition(NamedTuple):
    """A partition of the items 0..n-1, stored as its restricted-growth string.

    ``labels[i]`` is the block number of item ``i``, and blocks are numbered
    in the order of their least items.  Equal partitions therefore have
    equal labels, so a partition hashes and compares as one flat tuple.
    :attr:`n_blocks` reads the block count off the labels; :attr:`blocks`
    derives the blocks themselves.
    """

    labels: tuple

    @classmethod
    def make(cls, blocks: Optional[Iterable[Iterable[int]]], universe: Iterable[int]):
        """Build a partition over ``universe``, which must be 0..n-1.

        ``blocks=None`` means all singletons; an explicit block list must
        cover the universe exactly.
        """
        if not (isinstance(universe, range) and universe.start == 0 and universe.step == 1):
            items = sorted(set(universe))
            if items != list(range(len(items))):
                raise PartitionCoverError(f"the universe {set(items)} is not the items 0..{len(items) - 1}")
            universe = range(len(items))
        n = len(universe)
        if blocks is None:
            return cls(tuple(universe))
        # Blocks numbered in the order of their least items.
        blocks = sorted(filter(None, map(tuple, blocks)), key=min)
        labels: list = [None] * n
        for k, block in enumerate(blocks):
            for x in block:
                if not 0 <= x < n:
                    raise PartitionCoverError(f"block {sorted(block)} mentions items outside 0..{n - 1}")
                if labels[x] is not None:
                    raise PartitionOverlapError(f"item {x} appears in two blocks")
                labels[x] = k
        if None in labels:
            missing = [x for x in universe if labels[x] is None]
            raise PartitionCoverError(f"items {missing} not covered by any block")
        return cls(tuple(labels))

    @classmethod
    def one_block(cls, universe: Iterable[int]):
        universe = frozenset(universe)
        return cls.make([universe] if universe else None, universe)

    @property
    def n_blocks(self) -> int:
        return len(set(self.labels))

    @property
    def blocks(self) -> tuple:
        """The blocks as sorted tuples, in the order of their least items."""
        blocks: list = [[] for _ in range(self.n_blocks)]
        for x, b in enumerate(self.labels):
            blocks[b].append(x)
        return tuple(map(tuple, blocks))

    def transfer(
        self, item_map: Mapping[int, int], created: Sequence[int] = (), groups: Iterable = ()
    ) -> "Partition":
        """Move the partition through a surgery.

        Items absent from ``item_map`` die and drop out of their blocks; the
        rest are renamed.  Each group ``(old items, new items)``, the new
        items created ones, becomes one block together with every old block
        its old items meet.  Groups meeting a common old block fuse, even
        when every member of that block dies.  Created items outside every
        group enter as singletons.  The renamed and created items must be
        exactly 0..n'-1.
        """
        labels = self.labels
        # Each new item's key: its old block number, or -1 - c for a
        # created item c.
        keys: dict = {}
        for x, y in item_map.items():
            keys[y] = labels[x]
        for c in created:
            keys[c] = -1 - c
        if groups:
            # A union-find over the keys, with one fresh node per group above
            # every block number.
            parent: dict = {}
            node = len(labels)
            for old, new in groups:
                node += 1
                for k in [labels[x] for x in old] + [-1 - c for c in new]:
                    r = find(parent, k)
                    if r != node:
                        parent[r] = node
            keys = {y: find(parent, k) for y, k in keys.items()}
        # A gap or a repeated target leaves some item of 0..n'-1 without a key.
        n = len(item_map) + len(created)
        try:
            return Partition(_first_appearance(map(keys.__getitem__, range(n))))
        except KeyError:
            raise InvariantViolation(
                f"transfer targets {sorted(item_map.values())} and created items "
                f"{sorted(created)} are not the items 0..{n - 1}"
            ) from None


class PackagedPresentation(NamedTuple):
    ap: ArrowPresentation
    vparts: Partition
    bparts: Partition


def make_packaged(
    ap: ArrowPresentation,
    vblocks: Optional[Iterable[Iterable[int]]] = None,
    bblocks: Optional[Iterable[Iterable[int]]] = None,
) -> PackagedPresentation:
    """Attach vertex and boundary partitions; omitted blocks are singletons."""
    validate(ap)
    vparts = Partition.make(vblocks, range(len(ap.circles)))
    bparts = Partition.make(bblocks, range(len(boundary_components(ap))))
    return PackagedPresentation(ap, vparts, bparts)


class EdgeOpKind(Enum):
    DELETE = "delete"
    CONTRACT = "contract"
    PENROSE = "penrose"
    MERGE_DELETE = "merge-delete"
    MERGE_CONTRACT = "merge-contract"


# Each operation's arrow surgery, then what merges on the vertex side and on
# the boundary side: nothing, the classes of the two incident items, or those
# classes together with every item the surgery created.
_KEEP, _INCIDENT, _WITH_CREATED = range(3)
_OPS = {
    EdgeOpKind.DELETE: ("delete", _KEEP, _WITH_CREATED),
    EdgeOpKind.CONTRACT: ("contract", _WITH_CREATED, _KEEP),
    EdgeOpKind.PENROSE: ("penrose", _WITH_CREATED, _WITH_CREATED),
    EdgeOpKind.MERGE_DELETE: ("delete", _INCIDENT, _WITH_CREATED),
    EdgeOpKind.MERGE_CONTRACT: ("contract", _WITH_CREATED, _INCIDENT),
}


class OpTrace(NamedTuple):
    """Natural identifications through one edge operation."""

    vertex_map: dict
    boundary_map: dict
    created_vertices: tuple
    created_boundaries: tuple


def natural_identification(
    before: ArrowPresentation, after: ArrowPresentation, e: str, kind: EdgeOpKind
) -> OpTrace:
    """Identify the untouched vertices/boundaries of ``before`` inside ``after``.

    ``after`` must be the arrow-level result of ``kind`` at ``e``; the
    identification is recomputed through the surgery itself, so it does not
    depend on how ``after`` happens to be indexed.
    """
    res = edge_op_traced(before, e, _OPS[kind][0])
    if res.presentation != after:
        raise InvariantViolation("'after' is not the result of the stated operation")
    return OpTrace(
        dict(res.circle_map),
        dict(res.boundary_map),
        res.created_circles,
        res.created_boundaries,
    )


def incident_items(pg: PackagedPresentation, e: str):
    """The circles ``(u, v)`` hosting the two arrows of ``e`` and the
    boundaries ``(a, b)`` through their heads, in occurrence order."""
    (c1, p1), (c2, p2) = pg.ap.occurrences(e)
    trace = boundary_trace(pg.ap)
    return (c1, c2), (trace.boundary_at(c1, p1, HEAD), trace.boundary_at(c2, p2, HEAD))


def _merges(rule, incident, created) -> tuple:
    if rule == _KEEP:
        return ()
    return ((incident, created if rule == _WITH_CREATED else ()),)


def apply_edge_op(pg: PackagedPresentation, e: str, kind: EdgeOpKind) -> PackagedPresentation:
    """One of the five operations, with the partition updates they prescribe.

    Deletion merges the classes of the two incident boundaries together with
    the boundaries the deletion creates; contraction does the same on the
    vertex side; the merge- variants additionally merge the other side's two
    incident classes; Penrose contraction merges on both sides with its own
    created sets.
    """
    if e not in pg.ap.edges:
        raise UnknownEdge(e)
    circles, boundaries = incident_items(pg, e)
    arrow_kind, vrule, brule = _OPS[kind]
    res = edge_op_traced(pg.ap, e, arrow_kind)
    vparts = pg.vparts.transfer(
        res.circle_map, res.created_circles, _merges(vrule, circles, res.created_circles)
    )
    bparts = pg.bparts.transfer(
        res.boundary_map, res.created_boundaries,
        _merges(brule, boundaries, res.created_boundaries),
    )
    return PackagedPresentation(res.presentation, vparts, bparts)


# --------------------------------------------------------------------------
# 2-sums and tensor products


class Coupling(NamedTuple):
    """One of the two bijections between the arrow pairs of two edges.

    ``swap=False`` pairs first-listed occurrence with first-listed occurrence.
    Matched arrows are glued tail to tail and head to head.
    """

    source: str
    target: str
    swap: bool = False


def two_sum(
    pg: PackagedPresentation, ph: PackagedPresentation, coupling: Coupling
) -> PackagedPresentation:
    """Cut the coupled edges out of both presentations and cross-glue.

    Edge label sets must be disjoint (namespace beforehand; see
    :func:`tensor_product`).  The vertex classes of the two host circles on
    each side merge, joined by the new circles through the glued points; the
    boundary classes merge chord-wise likewise.
    """
    res = two_sum_traced(pg.ap, ph.ap, coupling.source, coupling.target, coupling.swap)
    # The union lists the circles of G, then those of H; its boundaries
    # renumber both sides', so their labels are written through the maps.
    offset = pg.vparts.n_blocks
    vall = Partition(pg.vparts.labels + tuple(offset + b for b in ph.vparts.labels))
    offset = pg.bparts.n_blocks
    keys: list = [None] * (len(res.g_boundaries) + len(res.h_boundaries))
    for x, u in res.g_boundaries.items():
        keys[u] = pg.bparts.labels[x]
    for x, u in res.h_boundaries.items():
        keys[u] = offset + ph.bparts.labels[x]
    ball = Partition(_first_appearance(keys))

    # fo1 is glued to t1 at m1 (tails) and m2 (heads), fo2 to t2 at m3 and
    # m4.  The circles hosting each glued pair merge with the new circles
    # through its points; the boundaries through the two tails of the first
    # pair (which also run through the heads of the second, their chord
    # mates) merge with those through m1 and m4, and likewise the heads of
    # the first pair with m2 and m3.  The two groups chain through a class
    # holding both of its coupled pieces, although those pieces die.
    fo1, fo2, t1, t2 = res.arrows
    mark_circle, mark_bd = res.marker_circles, res.marker_boundaries
    vparts = vall.transfer(
        res.circle_map,
        res.created_circles,
        [
            ({fo1[0], t1[0]}, {mark_circle["m1"], mark_circle["m2"]}),
            ({fo2[0], t2[0]}, {mark_circle["m3"], mark_circle["m4"]}),
        ],
    )
    union_bd = boundary_trace(res.union).boundary_at
    bparts = ball.transfer(
        res.boundary_map,
        res.created_boundaries,
        [
            ({union_bd(*fo1, TAIL), union_bd(*t1, TAIL)}, {mark_bd["m1"], mark_bd["m4"]}),
            ({union_bd(*fo1, HEAD), union_bd(*t1, HEAD)}, {mark_bd["m2"], mark_bd["m3"]}),
        ],
    )
    return PackagedPresentation(res.presentation, vparts, bparts)


def transport_coupling(
    ph: PackagedPresentation, g: str, kind: EdgeOpKind, coupling: Coupling
) -> Coupling:
    """Re-express a coupling after an operation elsewhere in the factor.

    Rebuilding circles can swap which of the target edge's occurrences is
    listed first; the returned coupling denotes the same arrow bijection on
    the operated presentation.
    """
    new_ap, trace = edge_surgery(ph.ap, g, _OPS[kind][0])
    old = ph.ap.occurrences(coupling.target)
    new = new_ap.occurrences(coupling.target)
    flipped = trace.occ_map[old[0]] != new[0]
    return Coupling(coupling.source, coupling.target, coupling.swap ^ flipped)


def namespaced(ph: PackagedPresentation, prefix: str) -> PackagedPresentation:
    """``ph`` with every label ``l`` renamed ``prefix.l``."""
    mapping = {label: f"{prefix}.{label}" for label in ph.ap.edges}
    return PackagedPresentation(ph.ap.relabel(mapping), ph.vparts, ph.bparts)


def compose_two_sums(
    pg: PackagedPresentation, parts: Sequence
) -> PackagedPresentation:
    """Iterate 2-sums over distinct edges of ``pg``.

    ``parts`` holds ``(f, ph, e, swap)`` tuples.  Each factor is namespaced
    with its host edge (labels become ``f.label``) so the union stays
    label-disjoint; the order of composition does not matter.
    """
    result = pg
    for f, ph, e, swap in sorted(parts, key=lambda entry: entry[0]):
        if e not in ph.ap.edges:
            raise UnknownEdge(e)
        factor = namespaced(ph, f)
        clash = result.ap.edges & factor.ap.edges
        if clash:
            raise InvalidCoupling(f"namespaced labels collide: {sorted(clash)}")
        result = two_sum(result, factor, Coupling(f, f"{f}.{e}", swap))
    return result


def tensor_product(
    pg: PackagedPresentation, factors: Mapping[str, tuple]
) -> PackagedPresentation:
    """2-sum a factor onto every edge of ``pg``.

    ``factors`` maps each edge ``f`` of ``pg`` to ``(ph, e)`` or
    ``(ph, e, swap)``.
    """
    parts = []
    for f in sorted(pg.ap.edges):
        if f not in factors:
            raise MissingFactor(f)
        entry = factors[f]
        ph, e = entry[0], entry[1]
        swap = entry[2] if len(entry) > 2 else False
        parts.append((f, ph, e, swap))
    return compose_two_sums(pg, parts)


def uniform_tensor(
    pg: PackagedPresentation,
    ph: PackagedPresentation,
    e: str,
    swaps: Optional[Mapping[str, bool]] = None,
) -> PackagedPresentation:
    """Tensor with a fresh copy of the same factor on every edge."""
    swaps = swaps or {}
    return tensor_product(
        pg, {f: (ph, e, swaps.get(f, False)) for f in pg.ap.edges}
    )


def k_presentations():
    """The five one-edge packaged presentations without isolated vertices.

    2-summing onto an edge f realises, in order: deletion, contraction,
    Penrose contraction, merge-deletion, merge-contraction at f.
    """
    non_loop = ArrowPresentation.from_circles([[("e", True)], [("e", True)]])
    aligned = ArrowPresentation.from_circles([[("e", True), ("e", True)]])
    anti = ArrowPresentation.from_circles([[("e", True), ("e", False)]])
    k1 = make_packaged(non_loop)  # two vertex classes, one boundary
    k2 = make_packaged(aligned)  # one vertex, two boundary classes
    k3 = make_packaged(anti)  # one vertex, one boundary, genus 1
    k4 = make_packaged(non_loop, vblocks=[[0, 1]])
    k5 = make_packaged(aligned, bblocks=[[0, 1]])
    return k1, k2, k3, k4, k5


# --------------------------------------------------------------------------
# canonical form of packaged presentations


def _unique_orderings(groups):
    """Distinct arrangements of items where same-group items are
    interchangeable."""
    counts = [len(g) for g in groups]
    n = sum(counts)
    total = math.factorial(n)
    for c in counts:
        total //= math.factorial(c)
    check_arrangements(total, "empty-circle")

    def rec(remaining):
        if not any(remaining):
            yield ()
            return
        for gi, group in enumerate(remaining):
            if not group:
                continue
            head = group[0]
            rest = list(remaining)
            rest[gi] = group[1:]
            for tail in rec(rest):
                yield (head,) + tail

    return rec([tuple(g) for g in groups])


def _empty_circle_groups(pg: PackagedPresentation, bare_to_bd: Mapping[int, int]) -> list:
    """The empty circles of ``pg`` in groups whose members can trade places
    without changing the partition encodings.

    Two empty circles are interchangeable when, on the vertex side and on
    the boundary side alike, they share a block or each is alone in its
    block: swapping them then maps each partition to itself.  So under
    singleton partitions all empty circles form one group.
    """

    def sig(labels, item):
        block = labels[item]
        return block if labels.count(block) > 1 else None

    groups: dict = {}
    for ci, circ in enumerate(pg.ap.circles):
        if not circ:
            key = (sig(pg.vparts.labels, ci), sig(pg.bparts.labels, bare_to_bd[ci]))
            groups.setdefault(key, []).append(ci)
    return list(groups.values())


def _empty_circle_pieces(circles, old, vblocks, bblocks):
    """The empty circles of ``circles`` linked into pieces by the blocks
    they share, ``vblocks`` over the circles and ``bblocks`` over the
    boundaries of ``old``, their trace.

    Two empty circles share a piece when they share a vertex block or their
    bare boundaries share a boundary block.  Returns ``(anchored, free)``:
    the set of empty circles in pieces whose blocks also hold a nonempty
    circle or a token boundary, and the other pieces, each as ``(circles,
    vertex blocks, boundary blocks)`` with the blocks it alone touches.
    """
    if all(circles):
        return set(), []
    parent: dict = {}
    linked = []  # (block, is vertex block, its empty circles, anchored)
    for blocks, vertex in ((vblocks, True), (bblocks, False)):
        for blk in blocks:
            if vertex:
                empties = [c for c in blk if not circles[c]]
            else:
                empties = [old.components[b].circle for b in blk]
                empties = [c for c in empties if c is not None]
            if not empties:
                continue
            root = find(parent, empties[0])
            for c in empties[1:]:
                other = find(parent, c)
                if other != root:
                    parent[other] = root
            linked.append((blk, vertex, empties[0], len(empties) < len(blk)))
    pieces: dict = {}
    for c, circ in enumerate(circles):
        if not circ:
            pieces.setdefault(find(parent, c), ([], [], []))[0].append(c)
    anchored_roots = set()
    for blk, vertex, member, anchored in linked:
        root = find(parent, member)
        pieces[root][1 if vertex else 2].append(blk)
        if anchored:
            anchored_roots.add(root)
    anchored = {c for root in anchored_roots for c in pieces[root][0]}
    free = [piece for root, piece in pieces.items() if root not in anchored_roots]
    return anchored, free


def _restricted(groups, members) -> list:
    return [g for g in ([c for c in group if c in members] for group in groups) if g]


def _piece_code(piece, groups, bare_to_bd):
    """The least ``(vertex blocks, boundary blocks)`` of a free piece over
    the arrangements of its circles, in ids local to the piece."""
    circles, vblocks, bblocks = piece
    bd_circle = {bare_to_bd[c]: c for c in circles}
    best = None
    for arrangement in _unique_orderings(_restricted(groups, set(circles))):
        slot = {c: i for i, c in enumerate(arrangement)}
        code = (
            tuple(sorted(tuple(sorted(slot[c] for c in blk)) for blk in vblocks)),
            tuple(sorted(tuple(sorted(slot[bd_circle[b]] for b in blk)) for blk in bblocks)),
        )
        if best is None or code < best:
            best = code
    return best


def canonical_packaged(pg: PackagedPresentation) -> PackagedPresentation:
    """Canonical form of a packaged presentation.

    Takes the canonical arrow presentation, then the least vertex and
    boundary partition encodings over every traversal achieving it.  Empty
    circles whose blocks hold nothing else (free pieces, see
    :func:`_empty_circle_pieces`) go last, ordered by their own least
    encoding; the others are tried in every arrangement of their
    interchangeable groups.  Two packaged presentations are equal up to
    equivalence iff their canonical forms are identical.
    """
    canon_ap, transforms, rebuild_offsets = canonical_transforms(pg.ap)
    new = boundary_trace(canon_ap)
    n_circles, n_bds = len(canon_ap.circles), len(new.components)
    if pg.vparts.n_blocks == n_circles and pg.bparts.n_blocks == n_bds:
        # all singletons, which every relabelling fixes
        return PackagedPresentation(canon_ap, pg.vparts, pg.bparts)
    circles = pg.ap.circles
    old = boundary_trace(pg.ap)
    groups = _empty_circle_groups(pg, old.bare_to_bd)
    all_vblocks, all_bblocks = pg.vparts.blocks, pg.bparts.blocks
    anchored, free = _empty_circle_pieces(circles, old, all_vblocks, all_bblocks)
    anchored_groups = _restricted(groups, anchored)

    # Canonical circles are the nonempty ones, then the anchored empty
    # circles, then the free pieces; bare boundaries follow the token ones
    # in the same order.
    n_nonempty = sum(1 for circ in canon_ap.circles if circ)
    n_tokens = n_bds - (n_circles - n_nonempty)
    slot = len(anchored)
    free_v, free_b = [], []
    for code in sorted(_piece_code(piece, groups, old.bare_to_bd) for piece in free):
        venc, benc = code
        free_v += [tuple(n_nonempty + slot + i for i in blk) for blk in venc]
        free_b += [tuple(n_tokens + slot + i for i in blk) for blk in benc]
        slot += sum(len(blk) for blk in venc)
    free_vblocks = {blk for piece in free for blk in piece[1]}
    free_bblocks = {blk for piece in free for blk in piece[2]}
    vblocks = [blk for blk in all_vblocks if blk not in free_vblocks]
    bblocks = [blk for blk in all_bblocks if blk not in free_bblocks]

    # Each token boundary is followed from its first crossing.
    firsts = []
    for bd in old.components:
        if bd.circle is None:
            c, p, s = old.endpoint(bd.crossings[0])
            firsts.append((bd.id, c, p, s, circles[c][p].label))
    bare_bd = old.bare_to_bd

    best = None
    for order, _codes, headings in transforms:
        place = {c: (idx, start, direction) for idx, (c, start, direction) in enumerate(order)}
        cmap = {c: idx for idx, (c, _, _) in enumerate(order)}
        bd_map = {}
        for bid, c, p, s, label in firsts:
            idx, start, direction = place[c]
            newp = ((p - start) * direction - rebuild_offsets[idx]) % len(circles[c])
            # a label first emitted against its arrow is reversed in the
            # canonical form, swapping its tail and head slots
            bd_map[bid] = new.boundary_at(idx, newp, s ^ (not headings[label]))
        for arrangement in _unique_orderings(anchored_groups):
            for i, c in enumerate(arrangement):
                cmap[c] = n_nonempty + i
                bd_map[bare_bd[c]] = n_tokens + i
            venc = tuple(sorted(free_v + [tuple(sorted(cmap[x] for x in blk)) for blk in vblocks]))
            if best is not None and venc > best[0]:
                continue
            benc = tuple(sorted(free_b + [tuple(sorted(bd_map[x] for x in blk)) for blk in bblocks]))
            if best is None or (venc, benc) < best:
                best = (venc, benc)
    venc, benc = best
    return PackagedPresentation(
        canon_ap,
        Partition.make(venc, range(n_circles)),
        Partition.make(benc, range(n_bds)),
    )
