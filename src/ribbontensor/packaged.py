"""Packaged arrow presentations.

A packaged presentation is an arrow presentation together with a partition of
its circles (vertex classes) and a partition of its canonical boundary ids
(boundary classes).  This module implements the five partition-aware edge
operations, 2-sums along couplings, tensor products, and the five one-edge
basis presentations that realise the operations as 2-sums.

Partition bookkeeping follows one scheme throughout, :meth:`Partition.transfer`:
items destroyed by a surgery drop out of their blocks, freshly created items
enter as singletons, and the operation merges prescribed groups of blocks
(the classes of the items incident to the operated edge, plus whatever the
surgery created).

:class:`Partition`, :class:`PackagedPresentation`, :class:`Coupling` and
:class:`OpTrace` are ``typing.NamedTuple`` classes, so they compare equal to
plain tuples of the same fields; a partition's block count is
``len(p.blocks)``.
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


class Partition(NamedTuple):
    blocks: frozenset
    universe: frozenset

    @classmethod
    def make(cls, blocks: Optional[Iterable[Iterable[int]]], universe: Iterable[int]):
        """Build a partition over ``universe``.

        ``blocks=None`` means all singletons; an explicit block list must
        cover the universe exactly.
        """
        universe = frozenset(universe)
        if blocks is None:
            return cls(frozenset(frozenset([item]) for item in universe), universe)
        result = []
        seen: set = set()
        for block in blocks:
            block = frozenset(block)
            if not block <= universe:
                raise PartitionCoverError(
                    f"block {sorted(block)} mentions items outside {sorted(universe)}"
                )
            if block & seen:
                raise PartitionOverlapError(
                    f"item {sorted(block & seen)} appears in two blocks"
                )
            if block:
                seen |= block
                result.append(block)
        if seen != universe:
            raise PartitionCoverError(
                f"items {sorted(universe - seen)} not covered by any block"
            )
        return cls(frozenset(result), universe)

    @classmethod
    def one_block(cls, universe: Iterable[int]):
        universe = frozenset(universe)
        return cls.make([universe] if universe else None, universe)

    def block_of(self, item: int) -> frozenset:
        for block in self.blocks:
            if item in block:
                return block
        raise KeyError(item)

    def transfer(
        self, item_map: Mapping[int, int], created: Iterable[int] = (), groups: Iterable = ()
    ) -> "Partition":
        """Move the partition through a surgery.

        Items absent from ``item_map`` die and drop out of their blocks; the
        rest are renamed.  Each group ``(old items, new items)``, the new
        items created ones, becomes one block together with every old block
        its old items meet.  Groups meeting a common old block fuse, even
        when every member of that block dies.  Created items outside every
        group enter as singletons.
        """
        blocks = list(self.blocks)
        merged: list = []  # disjoint (old block indexes, new items)
        for old, new in groups:
            idx = {i for i, block in enumerate(blocks) if not block.isdisjoint(old)}
            new = set(new)
            for m in [m for m in merged if m[0] & idx or m[1] & new]:
                merged.remove(m)
                idx |= m[0]
                new |= m[1]
            merged.append((idx, new))
        grouped = {i for idx, _ in merged for i in idx}
        joined = {x for _, new in merged for x in new}
        new_blocks = [
            {item_map[x] for x in block if x in item_map}
            for i, block in enumerate(blocks)
            if i not in grouped
        ]
        new_blocks += [
            {item_map[x] for i in idx for x in blocks[i] if x in item_map} | new
            for idx, new in merged
        ]
        created = tuple(created)
        new_blocks += [{c} for c in created if c not in joined]
        universe = frozenset(item_map.values()) | frozenset(created)
        return Partition(frozenset(frozenset(b) for b in new_blocks if b), universe)

    def sorted_blocks(self):
        return tuple(sorted(tuple(sorted(b)) for b in self.blocks))


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
    offset = len(pg.ap.circles)
    g_to_u, h_to_u = res.g_boundaries, res.h_boundaries
    vall = Partition(
        pg.vparts.blocks | {frozenset(x + offset for x in blk) for blk in ph.vparts.blocks},
        frozenset(range(len(res.union.circles))),
    )
    ball = Partition(
        frozenset(frozenset(g_to_u[x] for x in blk) for blk in pg.bparts.blocks)
        | {frozenset(h_to_u[x] for x in blk) for blk in ph.bparts.blocks},
        frozenset(g_to_u.values()) | frozenset(h_to_u.values()),
    )

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

    def sig(block):
        return block if len(block) > 1 else None

    groups: dict = {}
    for ci, circ in enumerate(pg.ap.circles):
        if not circ:
            key = (sig(pg.vparts.block_of(ci)), sig(pg.bparts.block_of(bare_to_bd[ci])))
            groups.setdefault(key, []).append(ci)
    return list(groups.values())


def _empty_circle_pieces(pg: PackagedPresentation, old):
    """The empty circles of ``pg`` linked into pieces by the blocks they share.

    Two empty circles share a piece when they share a vertex block or their
    bare boundaries share a boundary block.  Returns ``(anchored, free)``:
    the set of empty circles in pieces whose blocks also hold a nonempty
    circle or a token boundary, and the other pieces, each as ``(circles,
    vertex blocks, boundary blocks)`` with the blocks it alone touches.
    """
    circles = pg.ap.circles
    if all(circles):
        return set(), []
    parent: dict = {}
    linked = []  # (block, is vertex block, its empty circles, anchored)
    for blocks, vertex in ((pg.vparts.blocks, True), (pg.bparts.blocks, False)):
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
    if len(pg.vparts.blocks) == n_circles and len(pg.bparts.blocks) == n_bds:
        return PackagedPresentation(
            canon_ap, Partition.make(None, range(n_circles)), Partition.make(None, range(n_bds))
        )
    circles = pg.ap.circles
    old = boundary_trace(pg.ap)
    groups = _empty_circle_groups(pg, old.bare_to_bd)
    anchored, free = _empty_circle_pieces(pg, old)
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
    vblocks = [blk for blk in pg.vparts.blocks if blk not in free_vblocks]
    bblocks = [blk for blk in pg.bparts.blocks if blk not in free_bblocks]

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
