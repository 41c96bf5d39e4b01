"""Arrow presentations of embedded graphs.

An arrow presentation is a set of circles carrying labelled, directed arrows,
with every label on exactly two arrows.  Circles play the role of vertices,
labels the role of edges.  This module computes boundary components and
surface invariants, and implements the three edge operations (deletion,
contraction, Penrose contraction) and the arrow side of a 2-sum as
cut-and-rejoin surgery on the circles.  Other modules use only the public
names here.

Conventions fixed here:

* A circle is a cyclic sequence of occurrences; rotations denote the same
  circle.  Each occurrence has a ``forward`` flag: ``True`` when the arrow
  points along the circle's reference direction.
* An endpoint is a triple ``(circle, position, slot)`` with slot ``0`` for
  the arrow's tail and ``1`` for its head.  Slots are intrinsic to the
  arrow and do not change when a circle is traversed the other way.
* Within one presentation an endpoint is stored as the integer token
  ``2 * g + slot``, where ``g`` is the circle's offset (the number of
  arrows on the circles before it) plus the position, so integer order is
  the order of the triples.  :class:`BoundaryTrace` alone translates:
  :meth:`~BoundaryTrace.boundary_at` takes a triple to its boundary id and
  :meth:`~BoundaryTrace.endpoint` a token back to its triple.
* Boundary components are traced through circle arcs (between consecutive
  arrows) and per-edge chords joining the head of one arrow to the tail of
  the other.  Components carrying tokens are enumerated by their least
  token; bare circles (no arrows) come after, ordered by circle index.
  A component records its tokens only: the arc after arrow ``i`` of circle
  ``c`` belongs to the component of the endpoint ``(c, i, s)`` whose slot
  ``s`` is the arrow's trailing end (its head when it points forward).
  :func:`boundary_trace` keeps, per presentation, the components together
  with the token and bare-circle indexes and each arrow's mate.  It is the
  one record of where arrows sit: ``offsets`` and ``mate`` place every
  arrow and its partner, and :meth:`ArrowPresentation.occurrences` reads
  them through :func:`arrow_codes`.
* :func:`components` is the one union-find.  Each label links the circles
  of its two arrows, twisted when their headings differ, so one pass gives
  the component count, orientability and the roots that group circles:
  :func:`surface_stats`, the canonical walks and both subset tables in
  ``polynomials`` run on it.
* Surgery runs on integer arrow codes (:func:`arrow_codes`): arrow ``g`` of
  the label with index ``i`` in sorted order is ``2 * i + forward``.  Code
  order is then ``Occ`` order, so :func:`_rotmin` picks the same rotation
  on codes as on arrows; a walk that meets an arrow backward flips the low
  bit; and result circles look up one ``Occ`` per code instead of building
  one per arrow.  One splice, :func:`_splice`, serves deletion,
  contraction, Penrose contraction and the 2-sum glue.  A caller that
  keeps no presentation, the resolution DAG, runs the same splice and
  trace loop on bare circles of codes (:func:`code_surgery`,
  :func:`code_trace`), numbered as it likes so long as a code's low bit
  says whether its arrow points forward.
* A surgery's maps are flat sequences indexed by old circle, old arrow
  ``g`` or old boundary id, holding the new index or -1 for an item the
  surgery destroyed.  An arrow on a circle that survives unchanged keeps
  its position there and has no entry of its own in the arrow map.
* A canonical form codes each connected component by its least rooted
  walk (:func:`_walk`) and is read straight off the sorted codes.
* Value types (:class:`ArrowPresentation`, :class:`SurfaceStats`, the
  surgery records) are ``typing.NamedTuple`` classes: immutable, compared and
  hashed by value, and so equal to a plain tuple of the same fields.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from collections import Counter
from functools import lru_cache
from itertools import chain, islice
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional

from .errors import (
    InvalidArgument,
    InvalidCoupling,
    InvariantViolation,
    LabelCountError,
    RegistryMismatch,
    SizeLimitExceeded,
    UnknownEdge,
)

TAIL, HEAD = 0, 1


class Occ(NamedTuple):
    """One arrow lying on a circle."""

    label: str
    forward: bool


def _as_occ(item) -> Occ:
    if isinstance(item, Occ):
        return item
    label, forward = item
    return Occ(str(label), bool(forward))


def _rotmin(circ):
    """Lexicographically least rotation of a circle and its offset.

    Presentations always store this representative, which makes value
    equality rotation-invariant.
    """
    circ = tuple(circ)
    k = len(circ)
    if k <= 1:
        return circ, 0
    # Only rotations starting at a least element compete; each is a slice
    # of the doubled tuple, compared in C.
    doubled = circ + circ
    first = min(circ)
    best, offset = None, 0
    for r in range(k):
        if circ[r] == first:
            cand = doubled[r:r + k]
            if best is None or cand < best:
                best, offset = cand, r
    return best, offset


class ArrowPresentation(NamedTuple):
    """Immutable arrow presentation: circles plus an edge registry."""

    circles: tuple
    edges: frozenset

    @classmethod
    def from_circles(cls, circles: Iterable[Iterable]):
        circs = tuple(
            _rotmin(tuple(_as_occ(o) for o in circ))[0] for circ in circles
        )
        return cls(circs, frozenset([o.label for circ in circs for o in circ]))

    def occurrences(self, label: str):
        """The two ``(circle, position)`` slots of ``label``, in index order."""
        trace = boundary_trace(self)
        places = []
        for g in arrow_codes(self).arrows(label):
            c = trace.circle_of(g)
            places.append((c, g - trace.offsets[c]))
        return tuple(places)

    def relabel(self, mapping) -> "ArrowPresentation":
        """Rename edges; labels absent from ``mapping`` are kept.

        An order-preserving renaming (e.g. prefixing every label) keeps the
        stored rotations, hence the canonical boundary enumeration, stable;
        an arbitrary one may permute boundary ids, so partitions attached to
        the old presentation should not be reused blindly.
        """
        circs = tuple(
            tuple(Occ(mapping.get(o.label, o.label), o.forward) for o in circ)
            for circ in self.circles
        )
        return ArrowPresentation.from_circles(circs)


def validate(ap: ArrowPresentation) -> None:
    """Check the two-occurrences-per-label invariant and registry consistency."""
    counts: dict = {}
    for circ in ap.circles:
        for occ in circ:
            counts[occ.label] = counts.get(occ.label, 0) + 1
    for label, count in sorted(counts.items()):
        if count != 2:
            raise LabelCountError(label, count)
    if frozenset(counts) != ap.edges:
        raise RegistryMismatch(
            f"registry {sorted(ap.edges)} != labels present {sorted(counts)}"
        )


# --------------------------------------------------------------------------
# boundary components


class BoundaryComponent(NamedTuple):
    """One closed curve of the boundary trace.

    ``crossings`` lists the integer endpoint tokens in cyclic order from the
    least (empty for a bare circle, in which case ``circle`` is set); the
    presentation's :class:`BoundaryTrace` turns them back into triples.  Arcs
    are not stored: the arc after an arrow lies on the component of the
    arrow's trailing endpoint, which :class:`BoundaryTrace` indexes.
    """

    id: int
    crossings: tuple
    circle: Optional[int] = None


class BoundaryTrace(NamedTuple):
    """The boundary components of one presentation with their indexes."""

    components: tuple  # BoundaryComponent, by id
    token_bd: tuple  # token 2 * g + slot -> boundary id
    offsets: tuple  # circle -> g of its first arrow
    bare_to_bd: dict  # bare circle -> boundary id
    mate: tuple  # g -> g of the other arrow of its label

    def boundary_at(self, circle: int, position: int, slot: int) -> int:
        """The boundary id through endpoint ``(circle, position, slot)``."""
        return self.token_bd[2 * (self.offsets[circle] + position) + slot]

    def endpoint(self, token: int) -> tuple:
        """The ``(circle, position, slot)`` triple of ``token``."""
        g, slot = divmod(token, 2)
        circle = self.circle_of(g)
        return (circle, g - self.offsets[circle], slot)

    def circle_of(self, g: int) -> int:
        """The circle holding arrow ``g``."""
        # the last circle starting at or before g: a bare circle sharing its
        # offset comes before it
        return bisect_right(self.offsets, g) - 1

    def incident(self, g1: int, g2: int) -> tuple:
        """The circles ``(u, v)`` holding arrows ``g1`` and ``g2`` and the
        boundaries ``(a, b)`` through their heads."""
        return (
            (self.circle_of(g1), self.circle_of(g2)),
            (self.token_bd[2 * g1 + HEAD], self.token_bd[2 * g2 + HEAD]),
        )


@lru_cache(maxsize=1024)
def boundary_trace(ap: ArrowPresentation) -> BoundaryTrace:
    """The boundary components of ``ap`` and their indexes, cached per
    presentation (``boundary_trace.__wrapped__`` traces without the cache).

    An entry, with the presentation it keys, takes about 2.8 KB on the
    surgery workload's tensor products of up to 24 edges (2,847 B,
    tracemalloc, pinned below 3.6 KB by
    ``test_surgery_cache_bytes_per_entry``), so at that size the
    1,024-entry bound admits about 2.9 MB (3.7 MB at the pinned bound,
    about what it holds after a surgery workload pass).  A
    result presentation's arrows are shared ``Occ`` objects (see
    :func:`_splice`), which is most of what it keys.  The bound is the
    measured reuse: one surgery workload pass (seed 1) makes 18,038
    lookups, and 14,470 of its 14,496 repeats come within 1,024 distinct
    presentations of the last one, so it traces 3,762 presentations where
    an unbounded cache would trace 3,619; most of the difference is inputs
    traced when they were drawn, long before their 2-sum reads them.
    Every repeat on the verify and symbolic workloads comes within 256.
    """
    return _trace(ap.circles, ap.circles)


def _trace(circles, arrows) -> BoundaryTrace:
    """The one trace loop: the trace of ``circles``, read from ``arrows``,
    which yields each circle's arrows as ``(key, forward)`` pairs, the two
    arrows of a label under one key (its ``Occ`` fields, or a code's label
    index and low bit)."""
    # Occurrence g (circle offset + position) owns the tokens 2g (tail) and
    # 2g + 1 (head).  arc[t] is the token across the vertex arc at t; the
    # chord step joins slot s of g to slot 1 - s of its mate.  Walking the
    # tokens in increasing order starts every component at its least token,
    # which is the canonical enumeration order.
    n = sum(map(len, circles))
    arc = [0] * (2 * n)
    mate = [-1] * n
    offsets = []
    first: dict = {}  # label -> g of its first arrow
    g = 0
    for circ in arrows:
        offsets.append(g)
        # the arc after each arrow runs from its trailing token to the
        # leading token of the next, the last arrow's to the first's
        trailing = None
        for label, forward in circ:
            other = first.setdefault(label, g)
            if other != g:
                mate[other] = g
                mate[g] = other
            leading = 2 * g + 1 - forward
            if trailing is None:
                opening = leading
            else:
                arc[trailing] = leading
                arc[leading] = trailing
            trailing = 2 * g + forward
            g += 1
        if trailing is not None:
            arc[trailing] = opening
            arc[opening] = trailing
    if 2 * len(first) != n or -1 in mate:
        # the least label left unpaired (an odd count), else any miscounted
        counts = Counter(label for circ in circles for label, _ in circ)
        _, label = min((count % 2 == 0, label) for label, count in counts.items() if count != 2)
        raise LabelCountError(label, counts[label])

    bd_of = [-1] * (2 * n)
    components = []
    for start in range(2 * n):
        if bd_of[start] >= 0:
            continue
        bid = len(components)
        seq = []
        t = start
        while True:
            u = arc[t]
            seq += (t, u)
            bd_of[t] = bd_of[u] = bid
            t = 2 * mate[u >> 1] + 1 - (u & 1)
            if t == start:
                break
        components.append(BoundaryComponent(bid, tuple(seq)))
    bare_to_bd = {}
    for c, circ in enumerate(circles):
        if not circ:
            bare_to_bd[c] = len(components)
            components.append(BoundaryComponent(len(components), (), c))
    return BoundaryTrace(tuple(components), tuple(bd_of), tuple(offsets), bare_to_bd, tuple(mate))


class ArrowCodes(NamedTuple):
    """The arrows of one presentation as integer codes: arrow ``g`` of label
    ``labels[i]`` is ``2 * i + forward``, so code order is ``Occ`` order."""

    labels: tuple  # the labels in sorted order
    codes: tuple  # g -> its arrow's code
    mate: tuple  # g -> g of the other arrow of its label
    firsts: tuple  # label index -> g of its first arrow
    occs: tuple  # code -> its Occ

    def arrows(self, label: str) -> tuple:
        """The g of the two arrows of ``label``, in increasing order."""
        i = bisect_left(self.labels, label)
        if i == len(self.labels) or self.labels[i] != label:
            raise UnknownEdge(label)
        g = self.firsts[i]
        return g, self.mate[g]


@lru_cache(maxsize=16384)
def _occ_pair(label: str) -> tuple:
    """The two arrows a label can carry, backward then forward, made once so
    that surgery results share them."""
    return Occ(label, False), Occ(label, True)


@lru_cache(maxsize=64)
def arrow_codes(ap: ArrowPresentation) -> ArrowCodes:
    """The arrow codes of ``ap``, cached per presentation.  Only a surgery's
    source needs them, and only while its operations run (the operations of
    one DAG node, of one edge or of every edge of one presentation), so the
    cache is small."""
    return _arrow_codes(ap, boundary_trace(ap).mate)


def _arrow_codes(ap: ArrowPresentation, mate: tuple) -> ArrowCodes:
    arrows = list(chain.from_iterable(ap.circles))  # g -> its Occ
    # each label's least g: inserted last, walking the arrows backward
    labels_at = reversed(list(map(itemgetter(0), arrows)))
    first = dict(zip(labels_at, range(len(arrows) - 1, -1, -1)))
    labels = tuple(sorted(first))
    index = {label: 2 * i for i, label in enumerate(labels)}
    return ArrowCodes(
        labels,
        tuple([index[label] + forward for label, forward in arrows]),
        mate,
        tuple(map(first.__getitem__, labels)),
        tuple(chain.from_iterable(map(_occ_pair, labels))),
    )


def boundary_components(ap: ArrowPresentation) -> tuple:
    """Trace the boundary curves of ``ap`` in canonical enumeration order."""
    return boundary_trace(ap).components


# --------------------------------------------------------------------------
# surface invariants


class SurfaceStats(NamedTuple):
    v: int
    e: int
    k: int
    b: int
    euler_genus: int
    orientable: bool


def components(n: int, links: Iterable) -> tuple:
    """The connected components of the items 0..n-1 joined by ``links``, each
    a ``(u, v, twist)`` triple, as ``(k, twisted, parent)``.

    ``k`` counts the components.  ``twisted`` is true when some cycle of
    links holds an odd number of twists, so that no 2-colouring of the
    items gives different colours to the ends of exactly the twisted links.
    For circles linked by their edges, an edge twisted when its arrows'
    headings differ (see :func:`edge_links`), it says that the surface is
    not orientable.  ``parent`` is the forest: following it from an item
    ends at the root of its component.  The smaller tree joins the larger
    and no path is compressed, so a tree of s items is at most log2(s) deep.
    """
    parent = list(range(n))
    side = [0] * n  # the parity of the twists from x to parent[x]
    size = [1] * n
    k, twisted = n, 0
    for u, v, twist in links:
        # up to the roots, twist becomes the parity the link asks of them
        while parent[u] != u:
            twist ^= side[u]
            u = parent[u]
        while parent[v] != v:
            twist ^= side[v]
            v = parent[v]
        if u == v:
            twisted |= twist
            continue
        if size[u] < size[v]:
            u, v = v, u
        parent[v] = u
        side[v] = twist
        size[u] += size[v]
        k -= 1
    return k, twisted == 1, parent


def edge_links(ap: ArrowPresentation) -> dict:
    """Each label's :func:`components` link, in the order of its first
    arrow: the circles of its two arrows, twisted when their headings
    differ."""
    circle = [c for c, circ in enumerate(ap.circles) for _ in circ]
    arrows = list(chain.from_iterable(ap.circles))
    return {
        arrows[g].label: (circle[g], circle[h], arrows[g].forward != arrows[h].forward)
        for g, h in enumerate(boundary_trace(ap).mate)
        if g < h
    }


def surface_stats(ap: ArrowPresentation) -> SurfaceStats:
    """Counts and genus of the surface of ``ap``.  An edge's band attaches
    with a half twist when its arrows' headings differ, so an anti-aligned
    loop alone makes the surface non-orientable (Euler genus 1)."""
    trace = boundary_trace(ap)
    v = len(ap.circles)
    e = len(ap.edges)
    k, twisted, _ = components(v, edge_links(ap).values())
    b = len(trace.components)
    return SurfaceStats(v, e, k, b, 2 * k - v + e - b, not twisted)


# --------------------------------------------------------------------------
# surgery


class OpTraceArrow(NamedTuple):
    """How circles, arrows and glued points move through one surgery.

    ``circle_map[c]`` is the new index of old circle ``c``, -1 when the
    surgery cut it.  ``occ_map[g]`` is the new g of arrow ``g`` when its
    circle was rebuilt, -1 for a removed arrow and for the arrows of a
    circle that survives unchanged, which keep their positions.
    ``markers[k]`` places glued point ``k``: its new circle and the new token
    of the arc it lies on (see :func:`_splice`), -1 on a bare circle.
    """

    circle_map: list
    created_circles: tuple
    occ_map: list
    markers: list


_FLIP = (1).__xor__


def _place(occ_map: list, gs: list, base: int) -> None:
    """Write the new g ``base``, ``base + 1``, ... of the arrows ``gs``."""
    list(map(occ_map.__setitem__, gs, range(base, base + len(gs))))


def _splice(circles, offsets, codes, occs, removed, glue):
    """Remove the arrows ``removed`` (their g, increasing) of ``circles``,
    which start at the g ``offsets`` and whose arrows have the flat
    ``codes``, and re-glue their endpoints.  A rebuilt circle is stored as
    ``occs[code]`` per arrow, or as its codes when ``occs`` is ``None``.

    ``glue`` lists ``(token, token, k)`` triples pairing the tokens of the
    removed arrows, each exactly once, at glued point ``k``; ``None``
    deletes instead, closing every cut circle up on itself in place.
    Circles hosting no removed arrow survive verbatim (and keep their
    relative order).  The others are cut into chains between removed
    arrows, and each rebuilt circle is one walk along its chains from its
    lowest chain.  The walk is turned, if need be, to meet the circle's
    least arrow forward and rotated to start there, so the result does not
    depend on where it began.  Rebuilt circles are appended in the order of
    their least arrow (bare ones by their least glued point, after) and
    stored rotation-least.  All of it runs on codes: a walk met backward
    flips each code's low bit, and code order is ``Occ`` order, so
    :func:`_rotmin` picks the rotation it would pick on the arrows.
    A glued point lies on the arc after the arrow before it, whose trailing
    token (its head when it points forward) names the arc.
    """
    hosts = sorted({bisect_right(offsets, g) - 1 for g in removed})
    occ_map = [-1] * len(codes)
    if glue is None:
        new_circles = list(circles)
        for c in hosts:
            lo = offsets[c]
            hi = lo + len(circles[c])
            kept: list = []
            start = lo
            for g in removed:
                if lo <= g < hi:
                    kept += range(start, g)
                    start = g + 1
            kept += range(start, hi)
            circ, offset = _rotmin(map(codes.__getitem__, kept))
            new_circles[c] = circ if occs is None else tuple(map(occs.__getitem__, circ))
            # the arrows removed before this circle shift its g down
            new_g = lo - bisect_left(removed, lo)
            _place(occ_map, kept[offset:] + kept[:offset], new_g)
        return tuple(new_circles), OpTraceArrow(list(range(len(circles))), (), occ_map, [])

    # the circles between hosts survive, in order
    circle_map = [-1] * len(circles)
    new_circles: list = []
    c = 0
    for host in hosts + [len(circles)]:
        circle_map[c:host] = range(len(new_circles), len(new_circles) + host - c)
        new_circles += circles[c:host]
        c = host + 1
    base = len(codes) - sum([len(circles[host]) for host in hosts])  # the next new g

    # Chain k runs from end 2k (the trailing token of the removed arrow
    # before it) to end 2k + 1 (the leading token of the next).
    chain_gs, chain_codes = [], []
    ends: dict = {}
    for c in hosts:
        lo = offsets[c]
        hi = lo + len(circles[c])
        cut = [g for g in removed if lo <= g < hi]
        for p, q in zip(cut, cut[1:] + cut[:1]):
            ends[2 * p + (codes[p] & 1)] = 2 * len(chain_gs)
            ends[2 * q + 1 - (codes[q] & 1)] = 2 * len(chain_gs) + 1
            if p < q:
                chain_gs.append(range(p + 1, q))
                chain_codes.append(codes[p + 1:q])
            else:
                chain_gs.append([*range(p + 1, hi), *range(lo, q)])
                chain_codes.append(codes[p + 1:hi] + codes[lo:q])
    joined = [-1] * len(ends)
    point_at: list = [None] * len(ends)
    for a, b, k in glue:
        x, y = ends.get(a, -1), ends.get(b, -1)
        if x < 0 or y < 0 or x == y or joined[x] >= 0 or joined[y] >= 0:
            raise InvariantViolation("glued point must join exactly two chain ends")
        joined[x], joined[y] = y, x
        point_at[x] = point_at[y] = k
    if -1 in joined:
        raise InvariantViolation("glued point must join exactly two chain ends")

    # One walk per component: its arrows, their codes as met, and each glued
    # point with the number of arrows before it.
    visited = [False] * len(chain_gs)
    walks = []
    for start in range(len(chain_gs)):
        if visited[start]:
            continue
        gs: list = []
        met: list = []
        points = []
        x = 2 * start
        while True:
            visited[x >> 1] = True
            if x & 1:  # entered at its end: walked backward, every code flipped
                gs += reversed(chain_gs[x >> 1])
                met += map(_FLIP, reversed(chain_codes[x >> 1]))
            else:
                gs += chain_gs[x >> 1]
                met += chain_codes[x >> 1]
            points.append((point_at[x ^ 1], len(gs)))
            x = joined[x ^ 1]
            if x == 2 * start:
                break
        if gs:
            walks.append(((0, min(gs)), gs, met, points))
        else:
            walks.append(((1, min(points)[0]), gs, met, points))

    markers: list = [None] * len(glue)
    created = []
    for (bare, anchor), gs, met, points in sorted(walks, key=itemgetter(0)):
        new_c = len(new_circles)
        created.append(new_c)
        if bare:
            new_circles.append(())
            for k, _ in points:
                markers[k] = (new_c, -1)
            continue
        n = len(gs)
        a = gs.index(anchor)
        if met[a] != codes[anchor]:  # met backward: turn the walk
            gs.reverse()
            met = list(map(_FLIP, reversed(met)))
            points = [(k, n - before) for k, before in points]
            a = n - 1 - a
        # pivot at the anchor, then store rotation-least
        circ, offset = _rotmin(met[a:] + met[:a])
        start = (a + offset) % n
        for k, before in points:
            gap = (before - 1 - start) % n
            markers[k] = (new_c, 2 * (base + gap) + (circ[gap] & 1))
        _place(occ_map, gs[start:] + gs[:start], base)
        base += n
        new_circles.append(circ if occs is None else tuple(map(occs.__getitem__, circ)))
    return tuple(new_circles), OpTraceArrow(circle_map, tuple(created), occ_map, markers)


# How the four endpoints of a contracted edge re-glue: slot of the first
# arrow, slot of the second, and the glued point's number.  Bare circles a
# surgery leaves are ordered by their least point, so the numbers fix that
# order: head-to-tail ("ht") before tail-to-head ("th"), head-to-head
# ("hh") before tail-to-tail ("tt").
_GLUES = {
    "contract": ((TAIL, HEAD, 1), (HEAD, TAIL, 0)),
    "penrose": ((TAIL, TAIL, 1), (HEAD, HEAD, 0)),
}


def edge_surgery(ap: ArrowPresentation, e: str, kind: str):
    """The arrow-level operation ``kind`` at ``e``, uncached: the resulting
    presentation and its :class:`OpTraceArrow`, whose ``occ_map`` says where
    each arrow of a rebuilt circle went.  ``kind`` is one of ``delete``,
    ``contract``, ``penrose``.  Deletion keeps every circle in place;
    contraction glues tail to head both ways (points ``ht`` = 0 and
    ``th`` = 1), Penrose contraction tail to tail and head to head (``hh``
    = 0, ``tt`` = 1)."""
    return _edge_surgery(ap, boundary_trace(ap).offsets, arrow_codes(ap), e, kind)


def _glue(g1: int, g2: int, kind: str):
    """The glue of operation ``kind`` on the arrows ``g1 < g2`` of one
    label, ``None`` for deletion."""
    if kind == "delete":
        return None
    if kind not in _GLUES:
        raise ValueError(f"unknown arrow operation {kind!r}")
    return [(2 * g1 + s1, 2 * g2 + s2, k) for s1, s2, k in _GLUES[kind]]


def _edge_surgery(ap: ArrowPresentation, offsets, arrows: ArrowCodes, e: str, kind: str):
    g1, g2 = arrows.arrows(e)
    glue = _glue(g1, g2, kind)
    circles, moves = _splice(ap.circles, offsets, arrows.codes, arrows.occs, (g1, g2), glue)
    return ArrowPresentation(circles, ap.edges - {e}), moves


def delete_edge(ap: ArrowPresentation, e: str) -> ArrowPresentation:
    """Remove both arrows of ``e``, leaving the circles in place."""
    return edge_surgery(ap, e, "delete")[0]


def contract_edge(ap: ArrowPresentation, e: str) -> ArrowPresentation:
    """Contract ``e``: cut both arrows and rejoin tail-to-head both ways."""
    return edge_surgery(ap, e, "contract")[0]


def penrose_contract_edge(ap: ArrowPresentation, e: str) -> ArrowPresentation:
    """Contract ``e`` with the half-twisted (tail-to-tail) identifications."""
    return edge_surgery(ap, e, "penrose")[0]


# --------------------------------------------------------------------------
# boundary transfer through a surgery


def _marker_boundary(new: BoundaryTrace, marker) -> int:
    """The boundary through a glued point: a bare circle's own boundary, or
    that of the arc the point lies on."""
    circle, token = marker
    return new.bare_to_bd[circle] if token < 0 else new.token_bd[token]


def _boundary_map(old: BoundaryTrace, new: BoundaryTrace, moves: OpTraceArrow, removed, touched):
    """Map old boundary ids to new ones through a surgery: ``mapping[b]`` is
    the new id of old boundary ``b``, -1 when it is destroyed.

    ``touched`` maps the id of an old boundary through a removed arrow to
    its new id; one it does not hold is destroyed.  Untouched boundaries
    follow their least token's arrow; bare circles follow the circle map.
    """
    circle_map, occ_map = moves.circle_map, moves.occ_map
    token_bd, new_bd = old.token_bd, new.token_bd
    old_offsets, new_offsets = old.offsets, new.offsets
    cut = {token_bd[t] for g in removed for t in (2 * g, 2 * g + 1)}
    mapping = [-1] * len(old.components)
    for b, (_, crossings, circle) in enumerate(old.components):
        if circle is not None:
            nc = circle_map[circle]
            if nc >= 0:
                mapping[b] = new.bare_to_bd[nc]
        elif b in cut:
            mapping[b] = touched.get(b, -1)
        else:
            t = crossings[0]
            g = occ_map[t >> 1]
            if g < 0:  # on a circle that survives unchanged
                c = bisect_right(old_offsets, t >> 1) - 1  # old.circle_of
                g = new_offsets[circle_map[c]] + (t >> 1) - old_offsets[c]
            mapping[b] = new_bd[2 * g + (t & 1)]
    created = tuple(sorted(set(range(len(new.components))).difference(mapping)))
    return tuple(mapping), created


class EdgeOpResult(NamedTuple):
    """Full record of one arrow-level edge operation.  The maps are flat
    tuples indexed by old circle and old boundary id, -1 for one destroyed."""

    presentation: ArrowPresentation
    circle_map: tuple
    created_circles: tuple
    boundary_map: tuple
    created_boundaries: tuple


@lru_cache(maxsize=64)
def edge_op_traced(ap: ArrowPresentation, e: str, kind: str) -> EdgeOpResult:
    """Apply an arrow-level operation and report the natural identifications.

    ``kind`` is one of ``delete``, ``contract``, ``penrose``.  Deletion keeps
    every circle; contraction keeps every boundary (its gluings happen exactly
    where the boundary chords of ``e`` ran); Penrose contraction keeps
    neither near ``e``.  The arrow map is not kept; :func:`edge_surgery`
    gives it.

    An entry takes about 0.36 KB on the surgery workload's tensor
    products, besides its result presentation, which :func:`boundary_trace`
    keys too (tracemalloc, pinned below 1.5 KB by
    ``test_surgery_cache_bytes_per_entry``), so at that size the 64-entry
    bound admits about 23 KB (96 KB at the pinned bound).  The operations
    on one presentation run together, so its repeats come soon: on one
    surgery workload pass (seed 1), 1,848 of its 1,866 repeats come within
    16 distinct surgeries of the last one.
    """
    old, arrows = boundary_trace(ap), arrow_codes(ap)
    new_ap, moves = _edge_surgery(ap, old.offsets, arrows, e, kind)
    new = boundary_trace(new_ap)
    bmap, created_b = surgery_boundaries(old, new, moves, arrows.arrows(e), kind)
    return EdgeOpResult(new_ap, tuple(moves.circle_map), moves.created_circles, bmap, created_b)


def surgery_boundaries(old: BoundaryTrace, new: BoundaryTrace, moves, removed, kind):
    """The boundary map and created boundaries of operation ``kind`` on the
    arrows ``removed`` of the presentation traced as ``old``, whose result
    is traced as ``new`` with ``moves`` in its frame."""
    touched = {}
    if kind == "contract":
        # The chord from the head of the first arrow to the tail of the
        # second shrinks to the glued point head(first)~tail(second), point
        # ht; the other chord to point th.
        g1 = removed[0]
        for slot, k in ((TAIL, 1), (HEAD, 0)):
            touched[old.token_bd[2 * g1 + slot]] = _marker_boundary(new, moves.markers[k])
    bmap, created_b = _boundary_map(old, new, moves, removed, touched)
    if kind == "contract" and created_b:
        raise InvariantViolation("contraction preserves every boundary component")
    return bmap, created_b


class TwoSumResult(NamedTuple):
    """Full record of one arrow-level 2-sum.

    The surgery runs on ``union``, the circles of G followed by those of H,
    traced as ``union_trace``; every old id below is an id of the union.  ``arrows`` holds the union
    g of f's two arrows and then of the arrows of e glued to them.  The
    glued points 0..3 (``m1``..``m4``) join tail to tail and head to head,
    in that order, and ``marker_circles``/``marker_boundaries`` say where
    each ends up.  The maps are flat tuples indexed by old id, -1 for one
    destroyed.
    """

    presentation: ArrowPresentation
    union: ArrowPresentation
    union_trace: BoundaryTrace
    g_boundaries: tuple  # boundary of G -> boundary of the union
    h_boundaries: tuple  # boundary of H -> boundary of the union
    arrows: tuple
    circle_map: tuple
    created_circles: tuple
    boundary_map: tuple
    created_boundaries: tuple
    marker_circles: tuple
    marker_boundaries: tuple


def _union_trace(gt: BoundaryTrace, ht: BoundaryTrace, circles: int) -> BoundaryTrace:
    """The trace of the circles of G followed by the ``circles``-th on, those
    of H, read off the traces ``gt`` of G and ``ht`` of H.  Tracing the union
    from its least token meets G's components first, in G's order, then H's
    with their tokens shifted past G's; the bare circles follow in circle
    order, G's before H's."""
    arrows = len(gt.mate)
    g_token = len(gt.components) - len(gt.bare_to_bd)
    h_token = len(ht.components) - len(ht.bare_to_bd)
    components = list(gt.components[:g_token])
    for b, crossings, _ in ht.components[:h_token]:
        components.append(BoundaryComponent(g_token + b, tuple([t + 2 * arrows for t in crossings])))
    bare_to_bd = {}
    for c in [*gt.bare_to_bd, *(c + circles for c in ht.bare_to_bd)]:
        bare_to_bd[c] = len(components)
        components.append(BoundaryComponent(len(components), (), c))
    return BoundaryTrace(
        tuple(components),
        gt.token_bd + tuple([g_token + b for b in ht.token_bd]),
        gt.offsets + tuple([arrows + offset for offset in ht.offsets]),
        bare_to_bd,
        gt.mate + tuple([arrows + g for g in ht.mate]),
    )


def two_sum_traced(
    g: ArrowPresentation, h: ArrowPresentation, f: str, e: str, swap: bool
) -> TwoSumResult:
    """Cut edge ``f`` of ``g`` and edge ``e`` of ``h`` and cross-glue.

    ``swap=False`` glues the first-listed arrow of ``f`` to the first-listed
    arrow of ``e``.  Edge label sets must be disjoint.
    """
    if f not in g.edges:
        raise UnknownEdge(f)
    if e not in h.edges:
        raise UnknownEdge(e)
    shared = g.edges & h.edges
    if shared:
        raise InvalidCoupling(
            f"edge labels must be disjoint, both sides carry {sorted(shared)}"
        )
    union = ArrowPresentation(g.circles + h.circles, g.edges | h.edges)
    u = _union_trace(boundary_trace(g), boundary_trace(h), len(g.circles))

    def locate(ap, circles, tokens):
        # the union holds ap's arrows ``tokens`` tokens and its circles
        # ``circles`` circles on
        return tuple([
            u.token_bd[crossings[0] + tokens] if circle is None
            else u.bare_to_bd[circle + circles]
            for _, crossings, circle in boundary_trace(ap).components
        ])

    codes = _arrow_codes(union, u.mate)
    fo1, fo2 = codes.arrows(f)
    t1, t2 = codes.arrows(e)
    if swap:
        t1, t2 = t2, t1
    glue = [
        (2 * fo1 + TAIL, 2 * t1 + TAIL, 0),
        (2 * fo1 + HEAD, 2 * t1 + HEAD, 1),
        (2 * fo2 + TAIL, 2 * t2 + TAIL, 2),
        (2 * fo2 + HEAD, 2 * t2 + HEAD, 3),
    ]
    removed = sorted((fo1, fo2, t1, t2))
    circles, moves = _splice(union.circles, u.offsets, codes.codes, codes.occs, removed, glue)
    new_ap = ArrowPresentation(circles, union.edges - {f, e})
    new = boundary_trace(new_ap)
    bmap, created_b = _boundary_map(u, new, moves, removed, {})
    return TwoSumResult(
        new_ap, union, u, locate(g, 0, 0), locate(h, len(g.circles), 2 * len(boundary_trace(g).mate)),
        (fo1, fo2, t1, t2), tuple(moves.circle_map), moves.created_circles, bmap, created_b,
        tuple([circle for circle, _ in moves.markers]),
        tuple([_marker_boundary(new, marker) for marker in moves.markers]),
    )


# --------------------------------------------------------------------------
# surgery on circles of arrow codes, for callers that keep no presentation
# (the resolution DAG's normal forms)

_LABEL = (1).__rrshift__  # a code's label index
_LOW = (1).__rand__  # a code's forward bit


def code_circles(ap: ArrowPresentation, odd) -> tuple:
    """The circles of ``ap`` as arrow codes, each rotation-least, and the
    new g of every arrow g of ``ap``.  ``odd`` maps each label to the code
    of its forward arrow, an odd number; its backward arrow's is one less."""
    circles, moved, g = [], [], 0
    for circ in ap.circles:
        least, r = _rotmin([odd[label] - (not forward) for label, forward in circ])
        circles.append(least)
        moved += [g + (p - r) % len(circ) for p in range(len(circ))]
        g += len(circ)
    return circles, moved


def code_trace(circles) -> BoundaryTrace:
    """The boundary trace of circles of arrow codes, as
    :func:`boundary_trace` traces a presentation, by the same loop."""
    return _trace(circles, [zip(map(_LABEL, circ), map(_LOW, circ)) for circ in circles])


def code_surgery(circles, offsets, codes, g1: int, g2: int, kind: str):
    """The arrow operation ``kind`` on the arrows ``g1 < g2`` of one label
    of code circles starting at the g ``offsets``, whose flat codes are
    ``codes``: the result's circles, as codes, and its
    :class:`OpTraceArrow`, from the one :func:`_splice`."""
    return _splice(circles, offsets, codes, None, (g1, g2), _glue(g1, g2, kind))


def reversed_reading(circ: tuple) -> tuple:
    """The code circle ``circ`` read the other way round, every code's low
    bit flipped, rotation-least, and the rotation that gives it."""
    return _rotmin(map(_FLIP, reversed(circ)))


# --------------------------------------------------------------------------
# canonical form


def edge_cap(default: int) -> int:
    """The edge cap of an exponential routine: ``default``, unless the
    environment variable ``RIBBONTENSOR_EDGE_CAP`` sets an integer of at
    least 1 (any other value raises :class:`InvalidArgument`)."""
    value = os.environ.get("RIBBONTENSOR_EDGE_CAP")
    if not value:
        return default
    try:
        cap = int(value)
    except ValueError:
        cap = 0
    if cap < 1:
        raise InvalidArgument(
            f"RIBBONTENSOR_EDGE_CAP must be an integer of at least 1, got {value!r}"
        )
    return cap


def check_edge_cap(n: int, default: int, what: str) -> None:
    """Refuse ``n`` edges beyond ``edge_cap(default)`` with
    :class:`SizeLimitExceeded` naming ``what``."""
    cap = edge_cap(default)
    if n > cap:
        raise SizeLimitExceeded(f"{what} capped at {cap} edges, got {n}")


def _walk(circles, offsets, mates, root, best):
    """The code of one rooted walk over a component, or ``None`` once its
    prefix exceeds ``best``.

    The root ``(circle, start, direction)`` is emitted first: the circle's
    length, then a ``(code, bit)`` pair per arrow in the walk's order.  Labels
    are coded by first appearance; a label's first emission has bit 0 and
    fixes its heading, the second emits whether its heading differs.  The
    first emission of a label queues its mate's circle, entered at the mate
    in the direction that gives the mate the first emission's heading:
    ``mates[g]`` is the ``(circle, position)`` of the mate of arrow ``g``,
    and the arrows of circle ``c`` start at ``g = offsets[c]``.  Returns
    ``(code, order, codes, headings)``: the circles as walked, the label
    coding and each label's first-emission heading.
    """
    code: list = []
    tied = best is not None
    order: list = []
    codes: dict = {}
    headings: dict = {}
    visited = set()
    queue = [root]
    for c, start, direction in queue:
        if c in visited:
            continue
        visited.add(c)
        order.append((c, start, direction))
        circ = circles[c]
        k = len(circ)
        items = [k]
        for step in range(k):
            p = (start + step * direction) % k
            label, forward = circ[p]
            h = forward == (direction == 1)
            x = codes.get(label)
            if x is None:
                x = codes[label] = len(codes)
                headings[label] = h
                items.append((x, 0))
                mc, mp = mates[offsets[c] + p]
                if mc not in visited:
                    queue.append((mc, mp, 1 if circles[mc][mp].forward == h else -1))
            else:
                items.append((x, 0 if h == headings[label] else 1))
        if tied:
            n = len(code)
            segment = best[n:n + len(items)]
            items = tuple(items)
            if items > segment:
                return None
            tied = items == segment
        code += items
    return tuple(code), order, codes, headings


def _component_codes(ap: ArrowPresentation):
    """Each connected component of the nonempty circles with its least walk
    and the walks achieving it, sorted by code.

    A component's walks all have the same length, and only roots on its
    shortest circles can start a least one.
    """
    circles = ap.circles
    trace = boundary_trace(ap)
    offsets, mate = trace.offsets, trace.mate
    circle = [c for c, circ in enumerate(circles) for _ in circ]
    mates = [(circle[h], h - offsets[circle[h]]) for h in mate]
    # the walks need no twists, only which circles each label joins
    links = [(circle[g], circle[h], 0) for g, h in enumerate(mate) if g < h]
    parent = components(len(circles), links)[2]
    members: dict = {}
    for c, circ in enumerate(circles):
        if circ:
            root = c
            while parent[root] != root:
                root = parent[root]
            members.setdefault(root, []).append(c)
    result = []
    for comp in members.values():
        shortest = min(len(circles[c]) for c in comp)
        best, walks = None, []
        for c in comp:
            if len(circles[c]) != shortest:
                continue
            for start in range(shortest):
                for direction in (1, -1):
                    walk = _walk(circles, offsets, mates, (c, start, direction), best)
                    if walk is None:
                        continue
                    if best is None or walk[0] < best:
                        best, walks = walk[0], [walk[1:]]
                    else:
                        walks.append(walk[1:])
        result.append((best, walks))
    result.sort(key=lambda entry: entry[0])
    return result


def canonical_form(ap: ArrowPresentation) -> ArrowPresentation:
    """Least presentation over roots in the equivalence class of ``ap``.

    Quotients by circle order, rotation, reflection, simultaneous reversal of
    the two arrows of any edge, and relabelling by first appearance.  Each
    connected component is coded by its least rooted walk (a root is a
    circle, a start arrow and a direction); the form lists the components by
    code, then the empty circles.  Two presentations are equivalent iff their
    canonical forms are equal.
    """
    return canonical_transforms(ap)[0]


def canonical_transforms(ap: ArrowPresentation):
    """Canonical form (least over roots) plus the walks achieving it.

    Returns ``(form, components, offsets)``.  ``components`` lists the
    connected components of the nonempty circles in the form's order, each
    as ``(code, walks)``; components of equal code may trade places.  Each
    walk of a component is ``(order, codes, headings)``: its circles as
    ``(old circle, start, direction)`` in canonical order, its label coding
    (local to the component), and each label's first-emission heading.  A
    label whose first emission ran against its arrow (heading ``False``) has
    both arrows reversed in the form, which swaps its tail and head slots.
    ``offsets`` gives, per canonical circle, the rotation applied to store
    it rotation-least.

    The form is read in one pass over the sorted codes: a circle's length
    ``k`` and ``k`` pairs ``(code, bit)``, each the arrow ``e{base + code}``
    (``base`` counts the labels of the components before it) pointing
    forward exactly when ``bit`` is 0.
    """
    check_edge_cap(len(ap.edges), 16, "canonical form")
    components = _component_codes(ap)
    circles: list = []
    offsets: list = []
    base = 0
    for code, walks in components:
        items = iter(code)
        for k in items:
            circ, offset = _rotmin(
                [Occ(f"e{base + x}", bit == 0) for x, bit in islice(items, k)]
            )
            circles.append(circ)
            offsets.append(offset)
        base += len(walks[0][1])
    circles += [()] * sum(1 for circ in ap.circles if not circ)
    edges = frozenset([f"e{i}" for i in range(base)])
    return ArrowPresentation(tuple(circles), edges), components, tuple(offsets)
