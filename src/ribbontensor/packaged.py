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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Optional, Sequence

from .arrow import (
    HEAD,
    TAIL,
    ArrowPresentation,
    boundary_components,
    boundary_trace,
    canonical_transforms,
    edge_op_traced,
    two_sum_traced,
    validate,
)
from .errors import (
    InvalidCoupling,
    InvariantViolation,
    MissingFactor,
    PartitionCoverError,
    PartitionOverlapError,
    SizeLimitExceeded,
    UnknownEdge,
)


@dataclass(frozen=True)
class Partition:
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

    def __len__(self) -> int:
        return len(self.blocks)

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


@dataclass(frozen=True)
class PackagedPresentation:
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


@dataclass(frozen=True)
class OpTrace:
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
    token_to_bd = boundary_trace(pg.ap).token_to_bd
    return (c1, c2), (token_to_bd[(c1, p1, HEAD)], token_to_bd[(c2, p2, HEAD)])


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


@dataclass(frozen=True)
class Coupling:
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
    u_token = boundary_trace(res.union).token_to_bd
    bparts = ball.transfer(
        res.boundary_map,
        res.created_boundaries,
        [
            ({u_token[(*fo1, TAIL)], u_token[(*t1, TAIL)]}, {mark_bd["m1"], mark_bd["m4"]}),
            ({u_token[(*fo1, HEAD)], u_token[(*t1, HEAD)]}, {mark_bd["m2"], mark_bd["m3"]}),
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
    res = edge_op_traced(ph.ap, g, _OPS[kind][0])
    old = ph.ap.occurrences(coupling.target)
    new = res.presentation.occurrences(coupling.target)
    flipped = res.occ_map[old[0]] != new[0]
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


def _unique_orderings(groups, cap=100000):
    """Distinct arrangements of items where same-group items are
    interchangeable."""
    counts = [len(g) for g in groups]
    n = sum(counts)
    total = math.factorial(n)
    for c in counts:
        total //= math.factorial(c)
    if total > cap:
        raise SizeLimitExceeded(f"{total} empty-circle arrangements exceed cap {cap}")

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


def canonical_packaged(pg: PackagedPresentation, cap: Optional[int] = None) -> PackagedPresentation:
    """Canonical form of a packaged presentation.

    Minimises the arrow-presentation encoding first, then the induced vertex
    and boundary partition encodings over every traversal achieving it.  Two
    packaged presentations are equal up to equivalence iff their canonical
    forms are identical.
    """
    canon_ap, transforms, rebuild_offsets = canonical_transforms(pg.ap, cap=cap)
    old = boundary_trace(pg.ap)
    new = boundary_trace(canon_ap)
    nonempty_count = sum(1 for c in canon_ap.circles if c)
    empties = [ci for ci, circ in enumerate(pg.ap.circles) if not circ]

    groups: dict = {}
    for ci in empties:
        sig = (pg.vparts.block_of(ci), pg.bparts.block_of(old.bare_to_bd[ci]))
        groups.setdefault(sig, []).append(ci)

    best = None
    for order, _codes, headings in transforms:
        circle_map = {ci: idx for idx, (ci, _, _) in enumerate(order)}
        pos_map = {}
        for idx, (ci, start, direction) in enumerate(order):
            k = len(pg.ap.circles[ci])
            for p in range(k):
                newp = (p - start) % k if direction == 1 else (start - p) % k
                pos_map[(ci, p)] = (idx, (newp - rebuild_offsets[idx]) % k)
        # A label first emitted against its arrow is reversed in the
        # canonical form, swapping its tail/head slots.
        flipped = {label: not h for label, h in headings.items()}
        for arrangement in _unique_orderings(list(groups.values())):
            cmap = dict(circle_map)
            for slot, ci in enumerate(arrangement):
                cmap[ci] = nonempty_count + slot
            bd_map = {}
            for bd in old.components:
                if bd.circle is not None:
                    bd_map[bd.id] = new.bare_to_bd[cmap[bd.circle]]
                else:
                    c, p, s = bd.crossings[0]
                    if flipped[pg.ap.circles[c][p].label]:
                        s = 1 - s
                    bd_map[bd.id] = new.token_to_bd[(*pos_map[(c, p)], s)]
            venc = tuple(
                sorted(tuple(sorted(cmap[x] for x in blk)) for blk in pg.vparts.blocks)
            )
            benc = tuple(
                sorted(tuple(sorted(bd_map[x] for x in blk)) for blk in pg.bparts.blocks)
            )
            if best is None or (venc, benc) < best:
                best = (venc, benc)
    venc, benc = best
    return PackagedPresentation(
        canon_ap,
        Partition.make(venc, range(len(canon_ap.circles))),
        Partition.make(benc, range(len(new.components))),
    )
