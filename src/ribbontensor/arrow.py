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
  with the token and bare-circle indexes.
* Value types (:class:`ArrowPresentation`, :class:`SurfaceStats`, the
  surgery records) are ``typing.NamedTuple`` classes: immutable, compared and
  hashed by value, and so equal to a plain tuple of the same fields.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from functools import lru_cache
from itertools import permutations, product
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

    def reversed(self) -> "Occ":
        return Occ(self.label, not self.forward)


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
    def from_circles(cls, circles: Iterable[Iterable], edges: Optional[Iterable[str]] = None):
        circs = tuple(
            _rotmin(tuple(_as_occ(o) for o in circ))[0] for circ in circles
        )
        if edges is None:
            edges = [o.label for circ in circs for o in circ]
        return cls(circs, frozenset(edges))

    def occurrences(self, label: str):
        """The two ``(circle, position)`` slots of ``label``, in index order."""
        try:
            return _occurrence_index(self)[label]
        except KeyError:
            raise UnknownEdge(label) from None

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


@lru_cache(maxsize=65536)
def _occurrence_index(ap: ArrowPresentation):
    index: dict = {}
    for ci, circ in enumerate(ap.circles):
        for p, occ in enumerate(circ):
            index.setdefault(occ.label, []).append((ci, p))
    return {label: tuple(sorted(places)) for label, places in index.items()}


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

    def boundary_at(self, circle: int, position: int, slot: int) -> int:
        """The boundary id through endpoint ``(circle, position, slot)``."""
        return self.token_bd[2 * (self.offsets[circle] + position) + slot]

    def endpoint(self, token: int) -> tuple:
        """The ``(circle, position, slot)`` triple of ``token``."""
        g, slot = divmod(token, 2)
        # the last circle starting at or before g holds it: a bare circle
        # sharing its offset comes before it
        circle = bisect_right(self.offsets, g) - 1
        return (circle, g - self.offsets[circle], slot)


def _leading_slot(occ: Occ) -> int:
    return TAIL if occ.forward else HEAD


def _trailing_slot(occ: Occ) -> int:
    return HEAD if occ.forward else TAIL


@lru_cache(maxsize=16384)
def boundary_trace(ap: ArrowPresentation) -> BoundaryTrace:
    """The boundary components of ``ap`` and their indexes, cached per
    presentation (``boundary_trace.__wrapped__`` traces without the cache).

    An entry, with the presentation it keys, takes about 3.0 KB on the
    surgery workload's tensor products of up to 24 edges (tracemalloc,
    pinned below 3.6 KB by ``test_surgery_cache_bytes_per_entry``), so at
    that size the 16,384-entry bound admits about 50 MB (59 MB at the
    pinned bound).  One benchmark pass holds at most 4,284 entries (the
    surgery workload, seed 1), so no pass evicts any.
    """
    # Occurrence g (circle offset + position) owns the tokens 2g (tail) and
    # 2g + 1 (head).  arc[t] is the token across the vertex arc at t; the
    # chord step joins slot s of g to slot 1 - s of its mate.  Walking the
    # tokens in increasing order starts every component at its least token,
    # which is the canonical enumeration order.
    arc: list = []
    mate: list = []
    offsets: list = []
    unpaired: dict = {}
    for c, circ in enumerate(ap.circles):
        base = len(mate)
        offsets.append(base)
        trail, lead = [], []
        for i, (label, forward) in enumerate(circ):
            g = base + i
            other = unpaired.pop(label, None)
            if other is None:
                unpaired[label] = g
                mate.append(-1)
            else:
                mate[other] = g
                mate.append(other)
            arc += (0, 0)
            trail.append(2 * g + forward)
            lead.append(2 * g + 1 - forward)
        for tt, tl in zip(trail, lead[1:] + lead[:1]):
            arc[tt] = tl
            arc[tl] = tt
    if unpaired:
        label = min(unpaired)
        raise LabelCountError(label, sum(o.label == label for circ in ap.circles for o in circ))

    bd_of = [-1] * len(arc)
    components = []
    for start in range(len(arc)):
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
    for c, circ in enumerate(ap.circles):
        if not circ:
            bare_to_bd[c] = len(components)
            components.append(BoundaryComponent(len(components), (), c))
    return BoundaryTrace(tuple(components), tuple(bd_of), tuple(offsets), bare_to_bd)


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


def find(parent: dict, x):
    """Root of ``x`` in the union-find forest ``parent`` (a key absent from
    it is a root), compressing the path walked."""
    r = x
    while parent.get(r, r) != r:
        r = parent[r]
    while parent.get(x, x) != x:
        parent[x], x = r, parent[x]
    return r


def component_count(n: int, pairs: Iterable) -> int:
    """Connected components of the graph on vertices 0..n-1 with edges
    ``pairs``."""
    parent: dict = {}
    k = n
    for u, v in pairs:
        ru, rv = find(parent, u), find(parent, v)
        if ru != rv:
            parent[rv] = ru
            k -= 1
    return k


def _orientable(ap: ArrowPresentation, places: dict) -> bool:
    # Choose a direction for every circle so that each edge band attaches
    # without a half twist.  An edge with headings h1, h2 on circles c1, c2
    # forces s(c1)*s(c2) = h1*h2; for a loop this reads h1 = h2.
    # Calibration: an aligned loop is orientable (genus 0), an anti-aligned
    # loop is not (genus 1).
    n = len(ap.circles)
    adj: dict = {i: [] for i in range(n)}
    for (c1, p1), (c2, p2) in places.values():
        h1 = ap.circles[c1][p1].forward
        h2 = ap.circles[c2][p2].forward
        want = 0 if h1 == h2 else 1
        if c1 == c2:
            if want:
                return False
        else:
            adj[c1].append((c2, want))
            adj[c2].append((c1, want))
    colour: dict = {}
    for start in range(n):
        if start in colour:
            continue
        colour[start] = 0
        stack = [start]
        while stack:
            x = stack.pop()
            for y, w in adj[x]:
                c = colour[x] ^ w
                if y not in colour:
                    colour[y] = c
                    stack.append(y)
                elif colour[y] != c:
                    return False
    return True


def surface_stats(ap: ArrowPresentation, cached: bool = True) -> SurfaceStats:
    """Counts and genus of the surface of ``ap``.  With ``cached=False`` no
    per-presentation cache is read or filled, for callers that visit many
    presentations once each (the subset expansions)."""
    if cached:
        places, trace = _occurrence_index(ap), boundary_trace(ap)
    else:
        places, trace = _occurrence_index.__wrapped__(ap), boundary_trace.__wrapped__(ap)
    v = len(ap.circles)
    e = len(ap.edges)
    k = component_count(v, ((c1, c2) for (c1, _), (c2, _) in places.values()))
    b = len(trace.components)
    genus = 2 * k - v + e - b
    return SurfaceStats(v, e, k, b, genus, _orientable(ap, places))


# --------------------------------------------------------------------------
# surgery

class OpTraceArrow(NamedTuple):
    """How circles, occurrences and glued points move through one surgery."""

    circle_map: dict  # surviving old circle -> new circle
    created_circles: tuple
    occ_map: dict  # old (circle, pos) -> new (circle, pos)
    markers: dict  # marker name -> (new circle, gap index or None for bare)


def _endpoint(circ, ci, p, trailing: bool):
    occ = circ[p]
    slot = _trailing_slot(occ) if trailing else _leading_slot(occ)
    return (ci, p, slot)


def _splice(circles, removed, glue):
    """Remove the given occurrences and re-glue their endpoints pairwise.

    ``removed`` is a set of ``(circle, pos)``; ``glue`` is a list of
    ``(endpointA, endpointB, marker_name)`` pairing the tokens of removed
    occurrences, each token exactly once.  Circles not hosting a removed
    occurrence survive verbatim (and keep their relative order).  The others
    are cut into chains between removed occurrences, and each rebuilt circle
    is one walk along its chains from its lowest chain.  The walk is turned,
    if need be, to meet the circle's least occurrence forward and rotated to
    start there, so the result does not depend on where it began.  Rebuilt
    circles are appended in the order of their least occurrence (bare ones
    by their least marker, after) and stored rotation-least.
    """
    affected = {c for c, _ in removed}
    new_circles: list = []
    circle_map: dict = {}
    occ_map: dict = {}
    for ci, circ in enumerate(circles):
        if ci in affected:
            continue
        circle_map[ci] = len(new_circles)
        for p in range(len(circ)):
            occ_map[(ci, p)] = (len(new_circles), p)
        new_circles.append(circ)

    # Chain i runs from end 2i (the trailing token of the removed
    # occurrence before it) to end 2i + 1 (the leading token of the next).
    chains = []
    ends = {}
    for ci in sorted(affected):
        circ = circles[ci]
        k = len(circ)
        rpos = sorted(p for c, p in removed if c == ci)
        for p, q in zip(rpos, rpos[1:] + rpos[:1]):
            ends[_endpoint(circ, ci, p, True)] = 2 * len(chains)
            ends[_endpoint(circ, ci, q, False)] = 2 * len(chains) + 1
            chains.append([(ci, j % k) for j in range(p + 1, q if q > p else q + k)])
    mate = [-1] * len(ends)
    name_at = [None] * len(ends)
    for a, b, name in glue:
        x, y = ends.get(a, -1), ends.get(b, -1)
        if x < 0 or y < 0 or x == y or mate[x] >= 0 or mate[y] >= 0:
            raise InvariantViolation("glued point must join exactly two chain ends")
        mate[x], mate[y] = y, x
        name_at[x] = name_at[y] = name
    if -1 in mate:
        raise InvariantViolation("glued point must join exactly two chain ends")

    # One walk per component: (None, name) marks a glued point, (place,
    # flipped) an occurrence met against its circle's direction or not.
    visited = [False] * len(chains)
    comps = []
    for start in range(len(chains)):
        if visited[start]:
            continue
        events = []
        x = 2 * start
        while True:
            visited[x >> 1] = True
            back = bool(x & 1)
            chain = chains[x >> 1]
            events += [(place, back) for place in (reversed(chain) if back else chain)]
            events.append((None, name_at[x ^ 1]))
            x = mate[x ^ 1]
            if x == 2 * start:
                break
        occs = [ev for ev in events if ev[0] is not None]
        if occs:
            anchor, met_back = min(occs)
            comps.append(((0, anchor), events, met_back))
        else:
            comps.append(((1, min(name for _, name in events)), events, False))

    markers: dict = {}
    created = []
    for (bare, anchor), events, met_back in sorted(comps, key=lambda comp: comp[0]):
        if not bare:
            if met_back:
                events = [
                    ev if ev[0] is None else (ev[0], not ev[1]) for ev in reversed(events)
                ]
            pivot = events.index((anchor, False))
            events = events[pivot:] + events[:pivot]
        new_ci = len(new_circles)
        circ_occs = []
        local_occs = []
        marker_gaps = []
        for place, tag in events:
            if place is None:  # tag names the glued point
                marker_gaps.append((tag, len(circ_occs)))
            else:  # tag says whether the walk met the occurrence backward
                ci, p = place
                occ = circles[ci][p]
                local_occs.append(place)
                circ_occs.append(Occ(occ.label, occ.forward ^ tag))
        total = len(circ_occs)
        normalized, offset = _rotmin(circ_occs)
        for raw, place in enumerate(local_occs):
            occ_map[place] = (new_ci, (raw - offset) % total)
        for name, count in marker_gaps:
            markers[name] = (
                new_ci,
                (count - 1 - offset) % total if total else None,
            )
        new_circles.append(normalized)
        created.append(new_ci)

    return (
        tuple(new_circles),
        OpTraceArrow(circle_map, tuple(created), occ_map, markers),
    )


def _delete_traced(ap: ArrowPresentation, e: str):
    removed = set(ap.occurrences(e))
    affected = {c for c, _ in removed}
    new_circles = []
    occ_map: dict = {}
    for ci, circ in enumerate(ap.circles):
        if ci not in affected:
            # stored rotation-least already, so the circle stays as it is
            for p in range(len(circ)):
                occ_map[(ci, p)] = (ci, p)
            new_circles.append(circ)
            continue
        gone = [p for c, p in removed if c == ci]
        kept_positions = [p for p in range(len(circ)) if p not in gone]
        kept = [circ[p] for p in kept_positions]
        normalized, offset = _rotmin(kept)
        k = len(kept)
        for slot, p in enumerate(kept_positions):
            occ_map[(ci, p)] = (ci, (slot - offset) % k)
        new_circles.append(normalized)
    trace = OpTraceArrow({ci: ci for ci in range(len(ap.circles))}, (), occ_map, {})
    return ArrowPresentation(tuple(new_circles), ap.edges - {e}), trace


# How the four endpoints of a contracted edge re-glue: slot of the first
# occurrence, slot of the second, marker of the glued point.
_GLUES = {
    "contract": ((TAIL, HEAD, "th"), (HEAD, TAIL, "ht")),
    "penrose": ((TAIL, TAIL, "tt"), (HEAD, HEAD, "hh")),
}


def _glued_traced(ap: ArrowPresentation, e: str, kind: str):
    (c1, p1), (c2, p2) = ap.occurrences(e)
    glue = [((c1, p1, s1), (c2, p2, s2), name) for s1, s2, name in _GLUES[kind]]
    circles, trace = _splice(ap.circles, {(c1, p1), (c2, p2)}, glue)
    return ArrowPresentation(circles, ap.edges - {e}), trace


def delete_edge(ap: ArrowPresentation, e: str) -> ArrowPresentation:
    """Remove both arrows of ``e``, leaving the circles in place."""
    return _delete_traced(ap, e)[0]


def contract_edge(ap: ArrowPresentation, e: str) -> ArrowPresentation:
    """Contract ``e``: cut both arrows and rejoin tail-to-head both ways."""
    return _glued_traced(ap, e, "contract")[0]


def penrose_contract_edge(ap: ArrowPresentation, e: str) -> ArrowPresentation:
    """Contract ``e`` with the half-twisted (tail-to-tail) identifications."""
    return _glued_traced(ap, e, "penrose")[0]


# --------------------------------------------------------------------------
# boundary transfer through a surgery


def _resolve_marker(new_ap, new, markers, name):
    """The boundary of ``new_ap`` (traced as ``new``) through a glued point:
    a bare circle's own boundary, or the boundary of the arc the point lies
    on, which is that of the arc's trailing token."""
    nc, gap = markers[name]
    if gap is None:
        return new.bare_to_bd[nc]
    return new.boundary_at(nc, gap, _trailing_slot(new_ap.circles[nc][gap]))


def _transfer_boundaries(ap, new_ap, trace, removed_places, touched_to_new):
    """Map old boundary ids to new ones through a surgery.

    ``touched_to_new`` maps the id of an old boundary incident to a removed
    occurrence to its new id; one it does not hold is destroyed.
    Untouched boundaries are matched by their surviving tokens; bare circles
    follow the circle map.
    """
    old = boundary_trace(ap)
    new = boundary_trace(new_ap)
    touched = {old.boundary_at(c, p, s) for c, p in removed_places for s in (TAIL, HEAD)}
    mapping: dict = {}
    for bd in old.components:
        if bd.circle is not None:
            nc = trace.circle_map.get(bd.circle)
            if nc is not None:
                mapping[bd.id] = new.bare_to_bd[nc]
        elif bd.id in touched:
            target = touched_to_new.get(bd.id)
            if target is not None:
                mapping[bd.id] = target
        else:
            c, p, s = old.endpoint(bd.crossings[0])
            mapping[bd.id] = new.boundary_at(*trace.occ_map[(c, p)], s)
    created = tuple(sorted(set(range(len(new.components))) - set(mapping.values())))
    return mapping, created


def edge_surgery(ap: ArrowPresentation, e: str, kind: str):
    """The arrow-level operation ``kind`` at ``e``, uncached: the resulting
    presentation and its :class:`OpTraceArrow`, whose ``occ_map`` says where
    each surviving arrow went.  ``kind`` is one of ``delete``, ``contract``,
    ``penrose``."""
    if kind == "delete":
        return _delete_traced(ap, e)
    if kind in _GLUES:
        return _glued_traced(ap, e, kind)
    raise ValueError(f"unknown arrow operation {kind!r}")


class EdgeOpResult(NamedTuple):
    """Full record of one arrow-level edge operation."""

    presentation: ArrowPresentation
    circle_map: dict
    created_circles: tuple
    boundary_map: dict
    created_boundaries: tuple


@lru_cache(maxsize=16384)
def edge_op_traced(ap: ArrowPresentation, e: str, kind: str) -> EdgeOpResult:
    """Apply an arrow-level operation and report the natural identifications.

    ``kind`` is one of ``delete``, ``contract``, ``penrose``.  Deletion keeps
    every circle; contraction keeps every boundary (its gluings happen exactly
    where the boundary chords of ``e`` ran); Penrose contraction keeps
    neither near ``e``.  The arrow map is not kept; :func:`edge_surgery`
    gives it.

    An entry takes about 1.2 KB on the surgery workload's tensor products,
    besides its result presentation, which :func:`boundary_trace` keys too
    (tracemalloc, pinned below 1.5 KB by
    ``test_surgery_cache_bytes_per_entry``), so at that size the
    16,384-entry bound admits about 20 MB (25 MB at the pinned bound).
    """
    removed_places = set(ap.occurrences(e))
    new_ap, trace = edge_surgery(ap, e, kind)
    touched_to_new = {}
    if kind == "contract":
        # The chord from the head of the first occurrence to the tail of the
        # second shrinks to the glued point head(first)~tail(second), marker
        # "ht"; the other chord to marker "th".
        old, new = boundary_trace(ap), boundary_trace(new_ap)
        c1, p1 = min(removed_places)
        for slot, name in ((TAIL, "th"), (HEAD, "ht")):
            touched_to_new[old.boundary_at(c1, p1, slot)] = _resolve_marker(
                new_ap, new, trace.markers, name
            )
    bmap, created_b = _transfer_boundaries(ap, new_ap, trace, removed_places, touched_to_new)
    if kind == "contract" and created_b:
        raise InvariantViolation("contraction preserves every boundary component")
    return EdgeOpResult(new_ap, trace.circle_map, trace.created_circles, bmap, created_b)


_TWO_SUM_MARKERS = ("m1", "m2", "m3", "m4")


class TwoSumResult(NamedTuple):
    """Full record of one arrow-level 2-sum.

    The surgery runs on ``union``, the circles of G followed by those of H;
    every old id below is an id of the union.  ``arrows`` holds the union
    places of f's two arrows and then of the arrows of e glued to them.  The
    glued points ``m1``..``m4`` join tail to tail and head to head, in that
    order, and ``marker_circles``/``marker_boundaries`` say where each ends
    up.
    """

    presentation: ArrowPresentation
    union: ArrowPresentation
    g_boundaries: dict  # boundary of G -> boundary of the union
    h_boundaries: dict  # boundary of H -> boundary of the union
    arrows: tuple
    circle_map: dict
    created_circles: tuple
    boundary_map: dict
    created_boundaries: tuple
    marker_circles: dict
    marker_boundaries: dict


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
    offset = len(g.circles)
    union = ArrowPresentation(g.circles + h.circles, g.edges | h.edges)
    u = boundary_trace(union)

    def locate(ap, off):
        trace = boundary_trace(ap)
        ids = {}
        for bd in trace.components:
            if bd.circle is not None:
                ids[bd.id] = u.bare_to_bd[bd.circle + off]
            else:
                c, p, s = trace.endpoint(bd.crossings[0])
                ids[bd.id] = u.boundary_at(c + off, p, s)
        return ids

    fo1, fo2 = g.occurrences(f)
    eo = [(c + offset, p) for c, p in h.occurrences(e)]
    t1, t2 = (eo[1], eo[0]) if swap else (eo[0], eo[1])
    glue = [
        ((*fo1, TAIL), (*t1, TAIL), "m1"),
        ((*fo1, HEAD), (*t1, HEAD), "m2"),
        ((*fo2, TAIL), (*t2, TAIL), "m3"),
        ((*fo2, HEAD), (*t2, HEAD), "m4"),
    ]
    removed = {fo1, fo2, t1, t2}
    circles, trace = _splice(union.circles, removed, glue)
    new_ap = ArrowPresentation(circles, union.edges - {f, e})
    bmap, created_b = _transfer_boundaries(union, new_ap, trace, removed, {})
    new = boundary_trace(new_ap)
    return TwoSumResult(
        new_ap, union, locate(g, 0), locate(h, offset),
        (fo1, fo2, t1, t2), trace.circle_map, trace.created_circles, bmap, created_b,
        {name: trace.markers[name][0] for name in _TWO_SUM_MARKERS},
        {name: _resolve_marker(new_ap, new, trace.markers, name) for name in _TWO_SUM_MARKERS},
    )


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


def check_arrangements(total: int, what: str) -> None:
    """Refuse more than 100,000 ``what`` arrangements to try with
    :class:`SizeLimitExceeded`; unlike the edge caps, no setting moves it."""
    if total > 100000:
        raise SizeLimitExceeded(f"{total} {what} arrangements exceed cap 100000")


def _walk(circles, mates, root, best):
    """The code of one rooted walk over a component, or ``None`` once its
    prefix exceeds ``best``.

    The root ``(circle, start, direction)`` is emitted first: the circle's
    length, then a ``(code, bit)`` pair per arrow in the walk's order.  Labels
    are coded by first appearance; a label's first emission has bit 0 and
    fixes its heading, the second emits whether its heading differs.  The
    first emission of a label queues its mate's circle, entered at the mate
    in the direction that gives the mate the first emission's heading.
    Returns ``(code, order, codes, headings)``: the circles as walked, the
    label coding and each label's first-emission heading.
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
                mc, mp = mates[c][p]
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
    places = _occurrence_index(ap)
    circles = ap.circles
    mates = [[None] * len(circ) for circ in circles]
    parent: dict = {}
    for a, b in places.values():
        mates[a[0]][a[1]] = b
        mates[b[0]][b[1]] = a
        ra, rb = find(parent, a[0]), find(parent, b[0])
        if ra != rb:
            parent[rb] = ra
    members: dict = {}
    for c, circ in enumerate(circles):
        if circ:
            members.setdefault(find(parent, c), []).append(c)
    result = []
    for comp in members.values():
        shortest = min(len(circles[c]) for c in comp)
        best, walks = None, []
        for c in comp:
            if len(circles[c]) != shortest:
                continue
            for start in range(shortest):
                for direction in (1, -1):
                    walk = _walk(circles, mates, (c, start, direction), best)
                    if walk is None:
                        continue
                    if best is None or walk[0] < best:
                        best, walks = walk[0], [walk[1:]]
                    else:
                        walks.append(walk[1:])
        result.append((best, walks))
    result.sort(key=lambda entry: entry[0])
    return result


def _encoding(components):
    """The presentation's code: the sorted component codes, each
    component's label codes offset past those of the components before it."""
    enc: list = []
    offset = 0
    for code, walks in components:
        enc += [item if type(item) is int else (item[0] + offset, item[1]) for item in code]
        offset += len(walks[0][1])
    return tuple(enc)


def _transforms(components):
    """Every combination of each component's least walks with every order of
    the components sharing a code, as ``(order, codes, headings)``."""
    runs: list = []
    for code, walks in components:
        if runs and runs[-1][0] == code:
            runs[-1][1].append(walks)
        else:
            runs.append((code, [walks]))
    total = 1
    for _, comps in runs:
        total *= math.factorial(len(comps))
        for walks in comps:
            total *= len(walks)
    check_arrangements(total, "canonical")
    choices = [
        [chosen for perm in permutations(comps) for chosen in product(*perm)]
        for _, comps in runs
    ]
    for combo in product(*choices):
        order: list = []
        codes: dict = {}
        headings: dict = {}
        for run in combo:
            for walk_order, walk_codes, walk_headings in run:
                offset = len(codes)
                order += walk_order
                codes.update((label, x + offset) for label, x in walk_codes.items())
                headings.update(walk_headings)
        yield tuple(order), codes, headings


def _rebuild_from_encoding(enc, empty_count):
    """Materialise the canonical presentation; also report, per circle, the
    rotation applied to reach the stored lex-least representative."""
    circles = []
    offsets = []
    i = 0
    seen: dict = {}
    enc = list(enc)
    while i < len(enc):
        k = enc[i]
        i += 1
        occs = []
        for _ in range(k):
            code, bit = enc[i]
            i += 1
            if code not in seen:
                seen[code] = True
                occs.append(Occ(f"e{code}", True))
            else:
                occs.append(Occ(f"e{code}", bit == 0))
        normalized, offset = _rotmin(occs)
        circles.append(normalized)
        offsets.append(offset)
    circles.extend(() for _ in range(empty_count))
    ap = ArrowPresentation(tuple(circles), frozenset(o.label for c in circles for o in c))
    return ap, tuple(offsets)


def canonical_form(ap: ArrowPresentation) -> ArrowPresentation:
    """Least presentation over roots in the equivalence class of ``ap``.

    Quotients by circle order, rotation, reflection, simultaneous reversal of
    the two arrows of any edge, and relabelling by first appearance.  Each
    connected component is coded by its least rooted walk (a root is a
    circle, a start arrow and a direction); the form lists the components by
    code, then the empty circles.  Two presentations are equivalent iff their
    canonical forms are equal.
    """
    check_edge_cap(len(ap.edges), 16, "canonical form")
    empty = sum(1 for circ in ap.circles if not circ)
    return _rebuild_from_encoding(_encoding(_component_codes(ap)), empty)[0]


def canonical_transforms(ap: ArrowPresentation):
    """Canonical form (least over roots) plus every traversal achieving it.

    Returns ``(form, transforms, offsets)``.  ``transforms`` is an iterator,
    to be consumed once, over ``(order, codes, headings)``: the circle
    traversal choices ``(old circle, start, direction)`` in canonical circle
    order, the label coding, and each label's first-emission heading.  A
    label whose first emission ran against its arrow (heading ``False``) has
    both arrows reversed in the form, which swaps its tail and head slots.
    More than 100,000 transforms raise :class:`SizeLimitExceeded` when
    iteration starts.  ``offsets`` gives, per canonical circle, the rotation
    applied to store it rotation-least.
    """
    check_edge_cap(len(ap.edges), 16, "canonical form")
    components = _component_codes(ap)
    empty = sum(1 for circ in ap.circles if not circ)
    canon, offsets = _rebuild_from_encoding(_encoding(components), empty)
    return canon, _transforms(components), offsets
