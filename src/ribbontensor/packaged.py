"""Packaged arrow presentations.

A packaged presentation is an arrow presentation together with a partition of
its circles (vertex classes) and a partition of its canonical boundary ids
(boundary classes).  This module implements the five partition-aware edge
operations, 2-sums along couplings, tensor products, and the five one-edge
basis presentations that realise the operations as 2-sums.

A partition of the items 0..n-1 is stored as its restricted-growth string
``labels``: ``labels[i]`` is the block of item ``i``, blocks numbered in the
order of their least items, so equal partitions are equal flat tuples.
:meth:`Partition.transfer` moves a partition along a surgery's flat item
map: items destroyed by the surgery drop out of their blocks.
:func:`partition_ops` makes the updates of the operations of one edge
together, on flat labels, for :func:`edge_ops` and for the resolution DAG's
normal-form nodes alike.

:class:`Partition`, :class:`PackagedPresentation` and :class:`Coupling` are
``typing.NamedTuple`` classes, so they compare equal to plain tuples of the
same fields; a partition's block count is ``p.n_blocks``, the number of
distinct labels, and ``p.blocks`` derives its blocks.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .arrow import (
    HEAD,
    TAIL,
    ArrowPresentation,
    arrow_codes,
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

    def transfer(self, item_map: Sequence[int]) -> "Partition":
        """Move the partition along ``item_map``: ``item_map[x]`` is the new
        item of old item ``x``, or -1 when ``x`` dies and drops out of its
        block.  The new items must be exactly 0..n'-1."""
        return Partition(_transfer(self.labels, item_map))


def _transfer(labels: Sequence[int], item_map: Sequence[int], created: Sequence[int] = (), groups=()):
    """Move ``labels``, any non-negative block keys, through a surgery into
    restricted-growth labels.

    ``item_map[x]`` is the new item of old item ``x``, or -1 when ``x``
    dies and drops out of its block.  Each group ``(old items, new
    items)``, the new items created ones, becomes one block together with
    every old block its old items meet.  Groups meeting a common old block
    fuse, even when every member of that block dies.  Created items outside
    every group enter as singletons.  The renamed and created items must be
    exactly 0..n'-1.
    """
    # Each new item's key: its old block key, or -1 - c for a
    # created item c.  keys[n] takes the dead items' keys; a gap, a
    # repeated or a misplaced target leaves some item of 0..n'-1 without
    # a key.
    n = len(item_map) - item_map.count(-1) + len(created)
    keys: list = [None] * (n + 1)
    ok = (
        len(item_map) == len(labels)
        and min(item_map, default=0) >= -1
        and min(created, default=0) >= 0
    )
    try:
        list(map(keys.__setitem__, item_map, labels))
        for c in created:
            keys[c] = -1 - c
    except IndexError:
        ok = False
    keys.pop()
    if not ok or None in keys:
        raise InvariantViolation(
            f"transfer of {len(labels)} items to targets {list(item_map)} and created "
            f"items {sorted(created)} does not give the items 0..{n - 1}"
        )
    if groups:
        # The groups' keys, fused while they share one; every key of a
        # fused set is renamed to one of them.
        fused: list = []
        for old, new in groups:
            merged = {labels[x] for x in old}.union([-1 - c for c in new])
            apart = []
            for other in fused:
                if merged.isdisjoint(other):
                    apart.append(other)
                else:
                    merged |= other
            fused = apart + [merged]
        rename: dict = {}
        for merged in filter(None, fused):
            rename.update(dict.fromkeys(merged, next(iter(merged))))
        keys = list(map(rename.get, keys, keys))
    return _first_appearance(keys)


def _merged(labels: tuple, x: int, y: int) -> tuple:
    """The restricted-growth ``labels`` with the blocks of items ``x`` and
    ``y`` joined."""
    a, b = sorted((labels[x], labels[y]))
    if a == b:
        return labels
    # Block b joins block a, whose least item comes first; the blocks
    # numbered after b move down one.
    rename = list(range(max(labels) + 1))
    rename[b] = a
    rename[b + 1:] = range(b, len(rename) - 1)
    return tuple(map(rename.__getitem__, labels))


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

    def __init__(self, value: str):
        # the arrow operation under this one: delete, contract or penrose,
        # a plain attribute since enum properties run Python code
        self.arrow_kind = value.removeprefix("merge-")


def incident_items(pg: PackagedPresentation, e: str):
    """The circles ``(u, v)`` hosting the two arrows of ``e`` and the
    boundaries ``(a, b)`` through their heads, in occurrence order."""
    return boundary_trace(pg.ap).incident(*arrow_codes(pg.ap).arrows(e))


def partition_ops(
    vlabels: tuple, blabels: tuple, incident, results: Mapping, kinds: Sequence[EdgeOpKind]
) -> tuple:
    """The partition updates of the operations ``kinds`` at one edge, in that
    order, as ``(vertex labels, boundary labels)`` pairs of
    restricted-growth labels.

    ``vlabels`` and ``blabels`` label the source; ``incident`` gives the
    circles ``(u, v)`` and boundaries ``(a, b)`` of the edge, as
    :func:`incident_items` does; ``results`` maps each arrow kind that
    ``kinds`` need to its surgery, any record with the fields
    ``circle_map``, ``created_circles``, ``boundary_map`` and
    ``created_boundaries`` of an :class:`~ribbontensor.arrow.EdgeOpResult`,
    whose maps lead into the result's frame.

    Deletion merges the classes of the two incident boundaries together with
    the boundaries the deletion creates; contraction does the same on the
    vertex side; the merge- variants additionally merge the other side's two
    incident classes; Penrose contraction merges on both sides with its own
    created sets.  Each update is made once for all of ``kinds``: deletion
    only renames the vertex classes (not at all when the circles stay in
    place), deletion and merge-deletion share their boundary transfer,
    contraction and merge-contraction their vertex transfer, and a merge-
    variant's other side is the plain operation's with two blocks joined.
    """
    (u, v), (a, b) = incident
    if "delete" in results:
        res = results["delete"]
        cmap, bmap, created = res.circle_map, res.boundary_map, res.created_boundaries
        deleted = _transfer(blabels, bmap, created, (((a, b), created),))
        kept = vlabels if cmap == tuple(range(len(cmap))) else _transfer(vlabels, cmap)
        if EdgeOpKind.MERGE_DELETE in kinds:
            merged_v = _merged(kept, cmap[u], cmap[v])
    if "contract" in results:
        res = results["contract"]
        cmap, bmap, created = res.circle_map, res.boundary_map, res.created_circles
        contracted = _transfer(vlabels, cmap, created, (((u, v), created),))
        renamed = _transfer(blabels, bmap)
        if EdgeOpKind.MERGE_CONTRACT in kinds:
            merged_b = _merged(renamed, bmap[a], bmap[b])
    if "penrose" in results:
        res = results["penrose"]
        circles, bds = res.created_circles, res.created_boundaries
        penrose = (
            _transfer(vlabels, res.circle_map, circles, (((u, v), circles),)),
            _transfer(blabels, res.boundary_map, bds, (((a, b), bds),)),
        )
    done = []
    for kind in kinds:  # identity tests: an Enum member hashes in Python
        if kind is EdgeOpKind.DELETE:
            done.append((kept, deleted))
        elif kind is EdgeOpKind.CONTRACT:
            done.append((contracted, renamed))
        elif kind is EdgeOpKind.PENROSE:
            done.append(penrose)
        elif kind is EdgeOpKind.MERGE_DELETE:
            done.append((merged_v, deleted))
        else:
            done.append((contracted, merged_b))
    return tuple(done)


def edge_ops(pg: PackagedPresentation, e: str, kinds: Sequence[EdgeOpKind]) -> tuple:
    """The operations ``kinds`` at ``e``, in that order, with the partition
    updates of :func:`partition_ops`: one arrow surgery per arrow kind
    (:func:`~ribbontensor.arrow.edge_op_traced`) and one set of updates
    serve all of ``kinds``.
    """
    if e not in pg.ap.edges:
        raise UnknownEdge(e)
    needed = {kind.arrow_kind for kind in kinds}
    results = {
        arrow: edge_op_traced(pg.ap, e, arrow)
        for arrow in ("delete", "contract", "penrose")
        if arrow in needed
    }
    parts = partition_ops(pg.vparts.labels, pg.bparts.labels, incident_items(pg, e), results, kinds)
    return tuple([
        PackagedPresentation(results[kind.arrow_kind].presentation, Partition(v), Partition(b))
        for kind, (v, b) in zip(kinds, parts)
    ])


def apply_edge_op(pg: PackagedPresentation, e: str, kind: EdgeOpKind) -> PackagedPresentation:
    """One of the five operations at ``e``: :func:`edge_ops` with one kind."""
    return edge_ops(pg, e, (kind,))[0]


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
    vall = pg.vparts.labels + tuple(offset + b for b in ph.vparts.labels)
    offset = pg.bparts.n_blocks
    keys: list = [None] * (len(res.g_boundaries) + len(res.h_boundaries))
    for label, u in zip(pg.bparts.labels, res.g_boundaries):
        keys[u] = label
    for label, u in zip(ph.bparts.labels, res.h_boundaries):
        keys[u] = offset + label

    # fo1 is glued to t1 at m1 (tails) and m2 (heads), fo2 to t2 at m3 and
    # m4.  The circles hosting each glued pair merge with the new circles
    # through its points; the boundaries through the two tails of the first
    # pair (which also run through the heads of the second, their chord
    # mates) merge with those through m1 and m4, and likewise the heads of
    # the first pair with m2 and m3.  The two groups chain through a class
    # holding both of its coupled pieces, although those pieces die.
    fo1, fo2, t1, t2 = res.arrows
    m1, m2, m3, m4 = res.marker_circles
    union = res.union_trace
    circle = union.circle_of
    vparts = _transfer(
        vall,
        res.circle_map,
        res.created_circles,
        [({circle(fo1), circle(t1)}, {m1, m2}), ({circle(fo2), circle(t2)}, {m3, m4})],
    )
    m1, m2, m3, m4 = res.marker_boundaries
    token_bd = union.token_bd
    bparts = _transfer(
        keys,
        res.boundary_map,
        res.created_boundaries,
        [
            ({token_bd[2 * fo1 + TAIL], token_bd[2 * t1 + TAIL]}, {m1, m4}),
            ({token_bd[2 * fo1 + HEAD], token_bd[2 * t1 + HEAD]}, {m2, m3}),
        ],
    )
    return PackagedPresentation(res.presentation, Partition(vparts), Partition(bparts))


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


def _relabel(signatures) -> list:
    """Each signature replaced by its rank among the distinct ones."""
    rank = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
    return [rank[sig] for sig in signatures]


def _pieces(ap: ArrowPresentation, canon_ap: ArrowPresentation, components, offsets):
    """Per piece its run (the first slot it may fill) and its distinct
    labellings, and per slot its canonical items; piece ``k`` starts in
    slot ``k``.

    A labelling ranks the circles in walk order, then the boundaries by
    their canonical ids in the run's first slot.  Equal codes give equal
    circles, so walk positions carry those ids to the run's other slots,
    whose stored rotations may differ with the label names.
    """
    old, new = boundary_trace(ap), boundary_trace(canon_ap)
    n = len(ap.circles)
    piece_of = {c: k for k, (_, walks) in enumerate(components) for c, _, _ in walks[0][0]}
    firsts: list = [[] for _ in components]
    for bd in old.components:
        if bd.circle is None:
            c, p, s = old.endpoint(bd.crossings[0])
            firsts[piece_of[c]].append((n + bd.id, c, p, s, ap.circles[c][p].label))
    runs, labellings, targets = [], [], []
    circle = bd = 0  # the slot's first canonical circle and boundary
    for k, (code, walks) in enumerate(components):
        if not k or components[k - 1][0] != code:
            run, run_circle, run_bd = k, circle, bd
        labels = []
        for order, _codes, headings in walks:
            place = {c: (i, start, direction) for i, (c, start, direction) in enumerate(order)}
            ranked = [None] * len(firsts[k])
            for item, c, p, s, label in firsts[k]:
                i, start, direction = place[c]
                newp = ((p - start) * direction - offsets[run_circle + i]) % len(ap.circles[c])
                # a label first emitted against its arrow is reversed in the
                # form, swapping its tail and head slots
                b = new.boundary_at(run_circle + i, newp, s ^ (not headings[label]))
                ranked[b - run_bd] = item
            labels.append(tuple(c for c, _, _ in order) + tuple(ranked))
        target = list(range(circle, circle + len(walks[0][0])))
        for b in range(run_bd, run_bd + len(firsts[k])):
            idx, p, s = new.endpoint(new.components[b].crossings[0])
            here = idx - run_circle + circle
            p = (p + offsets[idx] - offsets[here]) % len(canon_ap.circles[idx])
            target.append(n + new.boundary_at(here, p, s))
        runs.append(run)
        labellings.append(list(dict.fromkeys(labels)))
        targets.append(target)
        circle += len(walks[0][0])
        bd += len(firsts[k])
    for c, circ in enumerate(ap.circles):
        if not circ:
            runs.append(len(components))
            labellings.append([(c, n + old.bare_to_bd[c])])
            targets.append((circle, n + bd))
            circle, bd = circle + 1, bd + 1
    return runs, labellings, targets


class _Search:
    """Individualisation-refinement over the pieces of one presentation
    (McKay and Piperno, "Practical graph isomorphism, II", 2014).

    The first tied cell branches on which piece goes first; then the first
    piece with several labellings branches on them.  A leaf fills the slots
    in colour order.  Automorphisms mapping every block to a block prune a
    piece swapping with one tried, a labelling mapped onto one tried, and,
    on a leaf equal to the best, the rest of the branch where the paths to
    the two leaves split."""

    def __init__(self, labellings, targets, block, n_circles):
        self.labellings, self.targets, self.block = labellings, targets, block
        self.n_circles = n_circles
        self.members = [[] for _ in range(max(block) + 1)]
        for x, b in enumerate(block):
            self.members[b].append(x)
        self.owner, ranks = [None] * len(block), [[] for _ in block]
        for p, labels in enumerate(labellings):
            for labelling in labels:
                for i, x in enumerate(labelling):
                    self.owner[x] = p
                    ranks[x].append(i)
        self.ranks = [tuple(sorted(r)) for r in ranks]
        self.best = self.best_path = None

    def automorphic(self, perm) -> bool:
        """Whether the item permutation ``perm`` (the identity off its
        keys) maps every block to a block."""
        block, members = self.block, self.members
        for x, y in perm.items():
            here, there = members[block[x]], block[y]
            if len(here) != len(members[there]) or any(block[perm.get(z, z)] != there for z in here):
                return False
        return True

    def swaps(self, a: int, b: int) -> bool:
        """Whether pieces ``a`` and ``b`` trade places by an automorphism."""
        first = self.labellings[a][0]
        return any(
            self.automorphic({**dict(zip(first, other)), **dict(zip(other, first))})
            for other in self.labellings[b]
        )

    def least(self, runs) -> tuple:
        """The partitions of the least leaf.  Pieces start coloured by run,
        then by the sizes of their items' blocks.  When every cell is one
        swap class and at most one piece has labellings that no automorphism
        joins, the search is one path branching only over that piece's
        labellings, and refinement is skipped."""
        colours = _relabel([
            (run, tuple(sorted(len(self.members[self.block[x]]) for x in labels[0])))
            for run, labels in zip(runs, self.labellings)
        ])
        self.refining = any(
            not self.swaps(colours.index(c), p)
            for p, c in enumerate(colours) if colours.index(c) != p
        ) or sum(
            any(not self.automorphic(dict(zip(labels[0], other))) for other in labels[1:])
            for labels in self.labellings
        ) > 1
        self.search(colours, [labels[0] if len(labels) == 1 else None for labels in self.labellings], [])
        return self.best

    def refine(self, colours, chosen):
        """Colour refinement to a fixed point; returns piece and item colours.

        An item's colour is its piece's, its rank (its ranks over the
        piece's labellings while none is fixed) and its block's; a piece's
        colour adds its items'."""
        ranks = list(self.ranks)
        for labelling in filter(None, chosen):
            for i, x in enumerate(labelling):
                ranks[x] = (i,)
        tint = _relabel([(colours[p], rank) for p, rank in zip(self.owner, ranks)])
        counts = len(set(colours)), len(set(tint))
        while True:
            seen = [tuple(sorted(tint[x] for x in m)) for m in self.members]
            tint = _relabel([
                (colours[p], tint[x], seen[b]) for x, (p, b) in enumerate(zip(self.owner, self.block))
            ])
            colours = _relabel([
                (c, tuple(sorted(tint[x] for x in labels[0])))
                for c, labels in zip(colours, self.labellings)
            ])
            last, counts = counts, (len(set(colours)), len(set(tint)))
            if counts == last:
                return colours, tint

    def search(self, colours, chosen, path) -> int:
        """Explore the node ``path``; return the depth to resume at."""
        depth = len(path)
        if self.refining:
            colours, tint = self.refine(colours, chosen)
        ties = [c for c in set(colours) if colours.count(c) > 1]
        if ties:
            c, tried = min(ties), []
            for p in [q for q, k in enumerate(colours) if k == c]:
                if not any(self.swaps(q, p) for q in tried):
                    tried.append(p)
                    # p takes the cell's colour, the rest the next one
                    below = [2 * k + (k == c and q != p) for q, k in enumerate(colours)]
                    split = self.search(below, chosen, path + [p])
                    if split < depth:
                        return split
            return depth
        order = sorted(range(len(colours)), key=colours.__getitem__)
        options = {p: self.labellings[p] for p in order if chosen[p] is None}
        if self.refining and options:
            # only labellings whose item colours, read in rank order, are
            # least; a piece left with one is fixed at once
            chosen = list(chosen)
            for p, labels in options.items():
                keys = [tuple(tint[x] for x in labelling) for labelling in labels]
                least = min(keys)
                options[p] = [lab for lab, key in zip(labels, keys) if key == least]
                if len(options[p]) == 1:
                    chosen[p] = options[p][0]
        p = next((p for p in options if chosen[p] is None), None)
        if p is not None:
            tried = []
            for labelling in options[p]:
                if not any(self.automorphic(dict(zip(t, labelling))) for t in tried):
                    tried.append(labelling)
                    below = chosen[:p] + [labelling] + chosen[p + 1:]
                    split = self.search(colours, below, path + [(p, labelling)])
                    if split < depth:
                        return split
            return depth
        image = [None] * len(self.block)
        for target, p in zip(self.targets, order):
            for x, y in zip(chosen[p], target):
                image[y] = self.block[x]
        n = self.n_circles
        leaf = (_first_appearance(image[:n]), _first_appearance(image[n:]))
        if self.best is None or leaf < self.best:
            self.best, self.best_path = leaf, path
        elif leaf == self.best:
            # the leaves differ by an automorphism fixing the node where
            # their paths split, so the rest of its branch repeats one done
            return next(i for i, (a, b) in enumerate(zip(path, self.best_path)) if a != b)
        return depth


def canonical_packaged(pg: PackagedPresentation) -> PackagedPresentation:
    """Canonical form of a packaged presentation.

    Takes the canonical arrow presentation, then the least vertex and
    boundary partitions over the leaves of a search (:class:`_Search`)
    through the orders of equal components, the orders of empty circles,
    and each component's least walks.  Two packaged presentations are equal
    up to equivalence iff their canonical forms are identical.
    """
    canon_ap, components, offsets = canonical_transforms(pg.ap)
    n_circles, n_bds = len(canon_ap.circles), len(pg.bparts.labels)
    if pg.vparts.n_blocks == n_circles and pg.bparts.n_blocks == n_bds:
        # all singletons, which every relabelling fixes
        return PackagedPresentation(canon_ap, pg.vparts, pg.bparts)
    runs, labellings, targets = _pieces(pg.ap, canon_ap, components, offsets)
    block = pg.vparts.labels + tuple(n_circles + b for b in pg.bparts.labels)
    vlabels, blabels = _Search(labellings, targets, block, n_circles).least(runs)
    return PackagedPresentation(canon_ap, Partition(vlabels), Partition(blabels))
