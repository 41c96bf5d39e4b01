"""Packaged arrow presentations.

A packaged presentation is an arrow presentation together with a partition of
its circles (vertex classes) and a partition of its canonical boundary ids
(boundary classes).  This module implements the five partition-aware edge
operations, 2-sums along couplings, tensor products, and the five one-edge
basis presentations that realise the operations as 2-sums.

Partition bookkeeping follows one scheme throughout: items destroyed by a
surgery drop out of their blocks, freshly created items enter as singletons,
and the operation then merges a prescribed group of blocks (the classes of
the items incident to the operated edge, plus whatever the surgery created).
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

    def transfer(self, item_map: Mapping[int, int], created: Iterable[int]) -> "Partition":
        """Map items through a surgery: dead items drop, created ones enter
        as singletons."""
        new_blocks = []
        for block in self.blocks:
            mapped = frozenset(item_map[x] for x in block if x in item_map)
            if mapped:
                new_blocks.append(mapped)
        new_blocks.extend(frozenset([c]) for c in created)
        universe = frozenset(item_map.values()) | frozenset(created)
        return Partition(frozenset(new_blocks), universe)

    def merge_group(self, items: Iterable[int]) -> "Partition":
        """Union every block meeting ``items`` (plus the items) into one."""
        items = set(items)
        if not items:
            return self
        merged: set = set(items)
        rest = []
        for block in self.blocks:
            if block & items:
                merged |= block
            else:
                rest.append(block)
        rest.append(frozenset(merged))
        return Partition(frozenset(rest), self.universe)

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


_ARROW_KIND = {
    EdgeOpKind.DELETE: "delete",
    EdgeOpKind.MERGE_DELETE: "delete",
    EdgeOpKind.CONTRACT: "contract",
    EdgeOpKind.MERGE_CONTRACT: "contract",
    EdgeOpKind.PENROSE: "penrose",
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
    res = edge_op_traced(before, e, _ARROW_KIND[kind])
    if res.presentation != after:
        raise InvariantViolation("'after' is not the result of the stated operation")
    return OpTrace(
        dict(res.circle_map),
        dict(res.boundary_map),
        res.created_circles,
        res.created_boundaries,
    )


def _incident_classes(pg: PackagedPresentation, e: str):
    (c1, p1), (c2, p2) = pg.ap.occurrences(e)
    token_to_bd = boundary_trace(pg.ap).token_to_bd
    a = token_to_bd[(c1, p1, HEAD)]
    b = token_to_bd[(c2, p2, HEAD)]
    return (c1, c2), (a, b)


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
    (u, v), (a, b) = _incident_classes(pg, e)
    res = edge_op_traced(pg.ap, e, _ARROW_KIND[kind])
    vmap, bmap = res.circle_map, res.boundary_map

    vparts = pg.vparts.transfer(vmap, res.created_circles)
    bparts = pg.bparts.transfer(bmap, res.created_boundaries)

    def survivors(partition, item_map, *items):
        out = set()
        for item in items:
            for x in partition.block_of(item):
                if x in item_map:
                    out.add(item_map[x])
        return out

    if kind in (EdgeOpKind.DELETE, EdgeOpKind.MERGE_DELETE):
        group = survivors(pg.bparts, bmap, a, b) | set(res.created_boundaries)
        bparts = bparts.merge_group(group)
        if kind is EdgeOpKind.MERGE_DELETE:
            vparts = vparts.merge_group(survivors(pg.vparts, vmap, u, v))
    elif kind in (EdgeOpKind.CONTRACT, EdgeOpKind.MERGE_CONTRACT):
        group = survivors(pg.vparts, vmap, u, v) | set(res.created_circles)
        vparts = vparts.merge_group(group)
        if kind is EdgeOpKind.MERGE_CONTRACT:
            bparts = bparts.merge_group({bmap[a], bmap[b]})
    else:  # Penrose
        vgroup = survivors(pg.vparts, vmap, u, v) | set(res.created_circles)
        bgroup = survivors(pg.bparts, bmap, a, b) | set(res.created_boundaries)
        vparts = vparts.merge_group(vgroup)
        bparts = bparts.merge_group(bgroup)

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
    mark_circle, mark_bd = res.marker_circles, res.marker_boundaries

    # Named pieces: u, v host the coupled arrows of f; a holds tail(fo1) (and
    # head(fo2), its chord mate); b holds head(fo1).  Primed versions on the
    # H side.  The glued points give the new vertices alpha..delta and new
    # boundaries h, i, j, k.
    fo1, fo2, t1, t2 = res.arrows
    u, v = fo1[0], fo2[0]
    u_, v_ = t1[0], t2[0]
    u_token = boundary_trace(res.union).token_to_bd
    bd_a = u_token[(*fo1, TAIL)]
    bd_b = u_token[(*fo1, HEAD)]
    bd_a_ = u_token[(*t1, TAIL)]
    bd_b_ = u_token[(*t1, HEAD)]
    g_to_u, h_to_u = res.g_boundaries, res.h_boundaries

    vall = Partition(
        frozenset(
            list(pg.vparts.blocks)
            + [frozenset(x + offset for x in blk) for blk in ph.vparts.blocks]
        ),
        frozenset(range(len(res.union.circles))),
    )
    ball = Partition(
        frozenset(
            [frozenset(g_to_u[x] for x in blk) for blk in pg.bparts.blocks]
            + [frozenset(h_to_u[x] for x in blk) for blk in ph.bparts.blocks]
        ),
        frozenset(list(g_to_u.values()) + list(h_to_u.values())),
    )

    # The two merge groups chain through the classes of the four consumed
    # vertices (and likewise boundaries): a class holding both coupled
    # pieces unites the groups even though its members themselves die.
    vparts = _fuse(
        vall,
        res.circle_map,
        res.created_circles,
        [
            set(vall.block_of(u)) | set(vall.block_of(u_)),
            set(vall.block_of(v)) | set(vall.block_of(v_)),
        ],
        [
            {mark_circle["m1"], mark_circle["m2"]},
            {mark_circle["m3"], mark_circle["m4"]},
        ],
    )
    bparts = _fuse(
        ball,
        res.boundary_map,
        res.created_boundaries,
        [
            set(ball.block_of(bd_a)) | set(ball.block_of(bd_a_)),
            set(ball.block_of(bd_b)) | set(ball.block_of(bd_b_)),
        ],
        [
            {mark_bd["m1"], mark_bd["m4"]},
            {mark_bd["m2"], mark_bd["m3"]},
        ],
    )
    return PackagedPresentation(res.presentation, vparts, bparts)


def _fuse(partition, item_map, created, old_groups, new_groups):
    """Transfer a partition through a surgery while merging groups.

    ``old_groups[i]`` (old ids, dead members allowed) and ``new_groups[i]``
    (new ids) are merged into one block; dead items participate in the
    chaining and are then dropped.
    """
    parent: dict = {}

    def union(items):
        root = find(parent, items[0])
        for other in items[1:]:
            r = find(parent, other)
            if r != root:
                parent[r] = root

    for block in partition.blocks:
        union([("o", x) for x in block])
    for old_group, new_group in zip(old_groups, new_groups):
        union([("o", x) for x in old_group] + [("n", x) for x in new_group])

    comps: dict = {}
    for x in partition.universe:
        members = comps.setdefault(find(parent, ("o", x)), set())
        if x in item_map:
            members.add(item_map[x])
    for c in created:
        comps.setdefault(find(parent, ("n", c)), set()).add(c)
    blocks = frozenset(frozenset(b) for b in comps.values() if b)
    universe = frozenset(item_map.values()) | frozenset(created)
    return Partition(blocks, universe)


def transport_coupling(
    ph: PackagedPresentation, g: str, kind: EdgeOpKind, coupling: Coupling
) -> Coupling:
    """Re-express a coupling after an operation elsewhere in the factor.

    Rebuilding circles can swap which of the target edge's occurrences is
    listed first; the returned coupling denotes the same arrow bijection on
    the operated presentation.
    """
    res = edge_op_traced(ph.ap, g, _ARROW_KIND[kind])
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
