"""Arrow presentations of embedded graphs.

An arrow presentation is a set of circles carrying labelled, directed arrows,
with every label on exactly two arrows.  Circles play the role of vertices,
labels the role of edges.  This module computes boundary components and
surface invariants, and implements the three edge operations (deletion,
contraction, Penrose contraction) as cut-and-rejoin surgery on the circles.

Conventions fixed here:

* A circle is a cyclic sequence of occurrences; rotations denote the same
  circle.  Each occurrence has a ``forward`` flag: ``True`` when the arrow
  points along the circle's reference direction.
* Endpoint tokens are triples ``(circle, position, slot)`` with slot ``0``
  for the arrow's tail and ``1`` for its head.  Slots are intrinsic to the
  arrow and do not change when a circle is traversed the other way.
* Boundary components are traced through circle arcs (between consecutive
  arrows) and per-edge chords joining the head of one arrow to the tail of
  the other.  Components carrying tokens are enumerated by their least
  token; bare circles (no arrows) come after, ordered by circle index.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional

from .errors import (
    InvalidArgument,
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
    k = len(circ)
    if k <= 1:
        return tuple(circ), 0
    best, offset = None, 0
    for r in range(k):
        cand = tuple(circ[(r + i) % k] for i in range(k))
        if best is None or cand < best:
            best, offset = cand, r
    return best, offset


@dataclass(frozen=True)
class ArrowPresentation:
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


@dataclass(frozen=True)
class BoundaryComponent:
    """One closed curve of the boundary trace.

    ``crossings`` lists the endpoint tokens in cyclic order (empty for a bare
    circle, in which case ``circle`` is set).  ``arcs`` records the vertex
    arcs ``(circle, position-after)`` the curve runs along; it is derived
    data used to locate points lying between arrows.
    """

    id: int
    crossings: tuple
    circle: Optional[int] = None
    arcs: frozenset = frozenset()


def _leading_slot(occ: Occ) -> int:
    return TAIL if occ.forward else HEAD


def _trailing_slot(occ: Occ) -> int:
    return HEAD if occ.forward else TAIL


@lru_cache(maxsize=65536)
def boundary_components(ap: ArrowPresentation):
    """Trace the boundary curves of ``ap`` in canonical enumeration order."""
    arc_partner: dict = {}
    chord_partner: dict = {}
    for ci, circ in enumerate(ap.circles):
        k = len(circ)
        for i, occ in enumerate(circ):
            j = (i + 1) % k
            t_trail = (ci, i, _trailing_slot(occ))
            t_lead = (ci, j, _leading_slot(circ[j]))
            arc_partner[t_trail] = (t_lead, (ci, i))
            arc_partner[t_lead] = (t_trail, (ci, i))
    for label in sorted(ap.edges):
        (c1, p1), (c2, p2) = ap.occurrences(label)
        chord_partner[(c1, p1, HEAD)] = (c2, p2, TAIL)
        chord_partner[(c2, p2, TAIL)] = (c1, p1, HEAD)
        chord_partner[(c2, p2, HEAD)] = (c1, p1, TAIL)
        chord_partner[(c1, p1, TAIL)] = (c2, p2, HEAD)

    components = []
    seen: set = set()
    for start in sorted(arc_partner):
        if start in seen:
            continue
        seq = []
        arcs = set()
        cur, use_arc = start, True
        while True:
            seq.append(cur)
            seen.add(cur)
            if use_arc:
                cur, arc = arc_partner[cur]
                arcs.add(arc)
            else:
                cur = chord_partner[cur]
            use_arc = not use_arc
            if cur == start:
                break
        components.append((tuple(seq), frozenset(arcs), None))
    for ci, circ in enumerate(ap.circles):
        if not circ:
            components.append(((), frozenset(), ci))

    def key(entry):
        crossings, _, circle = entry
        return (1, circle) if circle is not None else (0, crossings[0])

    components.sort(key=key)
    return tuple(
        BoundaryComponent(i, crossings, circle, arcs)
        for i, (crossings, arcs, circle) in enumerate(components)
    )


# --------------------------------------------------------------------------
# surface invariants


@dataclass(frozen=True)
class SurfaceStats:
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


def _orientable(ap: ArrowPresentation) -> bool:
    # Choose a direction for every circle so that each edge band attaches
    # without a half twist.  An edge with headings h1, h2 on circles c1, c2
    # forces s(c1)*s(c2) = h1*h2; for a loop this reads h1 = h2.
    # Calibration: an aligned loop is orientable (genus 0), an anti-aligned
    # loop is not (genus 1).
    n = len(ap.circles)
    adj: dict = {i: [] for i in range(n)}
    for label in ap.edges:
        (c1, p1), (c2, p2) = ap.occurrences(label)
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


def surface_stats(ap: ArrowPresentation) -> SurfaceStats:
    v = len(ap.circles)
    e = len(ap.edges)
    k = component_count(
        v, ((c1, c2) for (c1, _), (c2, _) in map(ap.occurrences, ap.edges))
    )
    b = len(boundary_components(ap))
    genus = 2 * k - v + e - b
    return SurfaceStats(v, e, k, b, genus, _orientable(ap))


# --------------------------------------------------------------------------
# surgery

FWD, BWD = 0, 1


@dataclass(frozen=True)
class OpTraceArrow:
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
    ``(endpointA, endpointB, marker_name)`` where endpoints are tokens of
    removed occurrences.  Circles not hosting a removed occurrence survive
    verbatim (and keep their relative order); rebuilt circles are appended in
    the order of their least surviving occurrence and stored rotation-least.
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

    parent: dict = {}
    for a, b, _ in glue:
        ra, rb = find(parent, a), find(parent, b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    names_at: dict = {}
    for a, _, name in glue:
        names_at.setdefault(find(parent, a), []).append(name)

    # Cut affected circles into chains running between removed occurrences.
    chains = []  # (items, start_endpoint, end_endpoint)
    for ci in sorted(affected):
        circ = circles[ci]
        rpos = sorted(p for c, p in removed if c == ci)
        k = len(circ)
        for idx, p in enumerate(rpos):
            q = rpos[(idx + 1) % len(rpos)]
            items = []
            j = (p + 1) % k
            while j != q:
                items.append((ci, j))
                j = (j + 1) % k
            chains.append(
                (tuple(items), _endpoint(circ, ci, p, True), _endpoint(circ, ci, q, False))
            )

    ends: dict = {}
    for idx, (_, s, e) in enumerate(chains):
        ends.setdefault(find(parent, s), []).append((idx, 0))
        ends.setdefault(find(parent, e), []).append((idx, 1))
    for rep, entries in ends.items():
        if len(entries) != 2:
            raise InvariantViolation("glued point must join exactly two chain ends")

    def walk(start_idx):
        events = []
        cur, direction = start_idx, FWD
        while True:
            items, s, e = chains[cur]
            seq = items if direction == FWD else tuple(reversed(items))
            for pos in seq:
                events.append(("occ", pos, direction == BWD))
            node = e if direction == FWD else s
            rep = find(parent, node)
            for name in sorted(names_at.get(rep, ())):
                events.append(("marker", name))
            arrived = (cur, 1 if direction == FWD else 0)
            entries = list(ends[rep])
            entries.remove(arrived)
            nxt, flag = entries[0]
            direction = FWD if flag == 0 else BWD
            cur = nxt
            if cur == start_idx and direction == FWD:
                break
        return events

    # Group chains into components and order them deterministically.
    comp_of: dict = {}
    comps = []
    for idx in range(len(chains)):
        if idx in comp_of:
            continue
        members = []
        cur, direction = idx, FWD
        while True:
            members.append(cur)
            _, s, e = chains[cur]
            node = e if direction == FWD else s
            arrived = (cur, 1 if direction == FWD else 0)
            entries = list(ends[find(parent, node)])
            entries.remove(arrived)
            nxt, flag = entries[0]
            direction = FWD if flag == 0 else BWD
            cur = nxt
            if cur == idx and direction == FWD:
                break
        for m in members:
            comp_of[m] = len(comps)
        comps.append(members)

    def comp_anchor(members):
        items = [pos for m in members for pos in chains[m][0]]
        if items:
            return (0, min(items))
        marks = [
            name
            for m in members
            for node in (chains[m][1], chains[m][2])
            for name in names_at.get(find(parent, node), ())
        ]
        return (1, min(marks))

    markers: dict = {}
    created = []
    for members in sorted(comps, key=comp_anchor):
        items = [pos for m in members for pos in chains[m][0]]
        if items:
            anchor = min(items)
            start_chain = next(m for m in members if anchor in chains[m][0])
        else:
            start_chain = min(members)
        events = walk(start_chain)
        occ_events = [ev for ev in events if ev[0] == "occ"]
        if occ_events:
            anchor = min(pos for _, pos, _ in occ_events)
            pivot = next(
                i for i, ev in enumerate(events) if ev[0] == "occ" and ev[1] == anchor
            )
            events = events[pivot:] + events[:pivot]
        new_ci = len(new_circles)
        circ_occs = []
        local_occs = []
        marker_gaps = []
        for ev in events:
            if ev[0] == "occ":
                _, (ci, p), flipped = ev
                occ = circles[ci][p]
                local_occs.append((ci, p))
                circ_occs.append(Occ(occ.label, occ.forward ^ flipped))
            else:
                marker_gaps.append((ev[1], len(circ_occs)))
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
    new_circles = []
    occ_map: dict = {}
    for ci, circ in enumerate(ap.circles):
        kept_positions = [p for p in range(len(circ)) if (ci, p) not in removed]
        kept = [circ[p] for p in kept_positions]
        normalized, offset = _rotmin(kept)
        k = len(kept)
        for slot, p in enumerate(kept_positions):
            occ_map[(ci, p)] = (ci, (slot - offset) % k)
        new_circles.append(normalized)
    trace = OpTraceArrow({ci: ci for ci in range(len(ap.circles))}, (), occ_map, {})
    return ArrowPresentation(tuple(new_circles), ap.edges - {e}), trace


def _contract_traced(ap: ArrowPresentation, e: str):
    (c1, p1), (c2, p2) = ap.occurrences(e)
    glue = [
        ((c1, p1, TAIL), (c2, p2, HEAD), "th"),
        ((c1, p1, HEAD), (c2, p2, TAIL), "ht"),
    ]
    circles, trace = _splice(ap.circles, {(c1, p1), (c2, p2)}, glue)
    return ArrowPresentation(circles, ap.edges - {e}), trace


def _penrose_traced(ap: ArrowPresentation, e: str):
    (c1, p1), (c2, p2) = ap.occurrences(e)
    glue = [
        ((c1, p1, TAIL), (c2, p2, TAIL), "tt"),
        ((c1, p1, HEAD), (c2, p2, HEAD), "hh"),
    ]
    circles, trace = _splice(ap.circles, {(c1, p1), (c2, p2)}, glue)
    return ArrowPresentation(circles, ap.edges - {e}), trace


def delete_edge(ap: ArrowPresentation, e: str) -> ArrowPresentation:
    """Remove both arrows of ``e``, leaving the circles in place."""
    return _delete_traced(ap, e)[0]


def contract_edge(ap: ArrowPresentation, e: str) -> ArrowPresentation:
    """Contract ``e``: cut both arrows and rejoin tail-to-head both ways."""
    return _contract_traced(ap, e)[0]


def penrose_contract_edge(ap: ArrowPresentation, e: str) -> ArrowPresentation:
    """Contract ``e`` with the half-twisted (tail-to-tail) identifications."""
    return _penrose_traced(ap, e)[0]


# --------------------------------------------------------------------------
# boundary transfer through a surgery


def _resolve_marker(markers, name, arc_to_bd, bare_to_bd):
    nc, gap = markers[name]
    if gap is None:
        return bare_to_bd[nc]
    return arc_to_bd[(nc, gap)]


@lru_cache(maxsize=65536)
def _boundary_indexes(bds):
    token_to_bd: dict = {}
    arc_to_bd: dict = {}
    bare_to_bd: dict = {}
    for bd in bds:
        if bd.circle is not None:
            bare_to_bd[bd.circle] = bd.id
        for t in bd.crossings:
            token_to_bd[t] = bd.id
        for a in bd.arcs:
            arc_to_bd[a] = bd.id
    return token_to_bd, arc_to_bd, bare_to_bd


def _transfer_boundaries(ap, new_ap, trace, removed_places, touched_to_new):
    """Map old boundary ids to new ones through a surgery.

    ``touched_to_new`` maps an old boundary incident to the operated edge to
    its new id (or ``None`` when the operation destroys it).  Untouched
    boundaries are matched by their surviving tokens; bare circles follow the
    circle map.
    """
    old_bds = boundary_components(ap)
    new_bds = boundary_components(new_ap)
    token_to_bd, _, bare_to_bd = _boundary_indexes(new_bds)
    mapping: dict = {}
    for bd in old_bds:
        if bd.circle is not None:
            nc = trace.circle_map.get(bd.circle)
            if nc is not None:
                mapping[bd.id] = bare_to_bd[nc]
            continue
        if any((t[0], t[1]) in removed_places for t in bd.crossings):
            target = touched_to_new(bd)
            if target is not None:
                mapping[bd.id] = target
            continue
        c, p, s = bd.crossings[0]
        nc, np_ = trace.occ_map[(c, p)]
        mapping[bd.id] = token_to_bd[(nc, np_, s)]
    created = tuple(sorted(set(b.id for b in new_bds) - set(mapping.values())))
    return mapping, created


@dataclass(frozen=True)
class EdgeOpResult:
    """Full record of one arrow-level edge operation."""

    presentation: ArrowPresentation
    circle_map: dict
    created_circles: tuple
    boundary_map: dict
    created_boundaries: tuple
    occ_map: dict  # surviving old (circle, pos) -> new (circle, pos)


@lru_cache(maxsize=16384)
def edge_op_traced(ap: ArrowPresentation, e: str, kind: str) -> EdgeOpResult:
    """Apply an arrow-level operation and report the natural identifications.

    ``kind`` is one of ``delete``, ``contract``, ``penrose``.  Deletion keeps
    every circle; contraction keeps every boundary (its gluings happen exactly
    where the boundary chords of ``e`` ran); Penrose contraction keeps
    neither near ``e``.
    """
    removed_places = set(ap.occurrences(e))
    if kind == "delete":
        new_ap, trace = _delete_traced(ap, e)
        bmap, created_b = _transfer_boundaries(
            ap, new_ap, trace, removed_places, lambda bd: None
        )
        return EdgeOpResult(new_ap, trace.circle_map, (), bmap, created_b, trace.occ_map)
    if kind == "contract":
        new_ap, trace = _contract_traced(ap, e)
        (c1, p1), (c2, p2) = sorted(removed_places)
        new_bds = boundary_components(new_ap)
        _, arc_to_bd, bare_to_bd = _boundary_indexes(new_bds)

        def via_marker(bd):
            # The chord through head of the first occurrence shrinks to the
            # glued point head(first)~tail(second), marker "ht"; the other
            # chord to marker "th".
            tokens = set(bd.crossings)
            if (c1, p1, HEAD) in tokens or (c2, p2, TAIL) in tokens:
                return _resolve_marker(trace.markers, "ht", arc_to_bd, bare_to_bd)
            return _resolve_marker(trace.markers, "th", arc_to_bd, bare_to_bd)

        bmap, created_b = _transfer_boundaries(
            ap, new_ap, trace, removed_places, via_marker
        )
        if created_b:
            raise InvariantViolation("contraction preserves every boundary component")
        return EdgeOpResult(
            new_ap, trace.circle_map, trace.created_circles, bmap, created_b,
            trace.occ_map,
        )
    if kind == "penrose":
        new_ap, trace = _penrose_traced(ap, e)
        bmap, created_b = _transfer_boundaries(
            ap, new_ap, trace, removed_places, lambda bd: None
        )
        return EdgeOpResult(
            new_ap, trace.circle_map, trace.created_circles, bmap, created_b,
            trace.occ_map,
        )
    raise ValueError(f"unknown arrow operation {kind!r}")


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


def check_edge_cap(n: int, default: int, what: str, cap: Optional[int] = None) -> None:
    """Refuse ``n`` edges beyond ``cap``, or beyond ``edge_cap(default)`` when
    ``cap`` is ``None``, with :class:`SizeLimitExceeded` naming ``what``."""
    cap = edge_cap(default) if cap is None else cap
    if n > cap:
        raise SizeLimitExceeded(f"{what} capped at {cap} edges, got {n}")


def _encode_candidate(circ, start, direction, codes, headings, counter):
    """Encode one traversal of a circle under the running label coding.

    Returns ``(segment, codes', headings', counter')``.  Labels are coded by
    first appearance; the first emission of a label is normalised to heading
    bit 0, the second emits whether its heading (relative to the chosen
    traversal directions) differs from the first.
    """
    k = len(circ)
    seg = [k]
    codes = dict(codes)
    headings = dict(headings)
    for step in range(k):
        p = (start + step * direction) % k
        occ = circ[p]
        h = occ.forward if direction == 1 else not occ.forward
        if occ.label not in codes:
            codes[occ.label] = counter
            counter += 1
            headings[occ.label] = h
            seg.append((codes[occ.label], 0))
        else:
            seg.append((codes[occ.label], 0 if h == headings[occ.label] else 1))
    return tuple(seg), codes, headings, counter


def _canonical_search(ap: ArrowPresentation):
    """All optimal traversal choices producing the minimal encoding.

    Returns ``(encoding, transforms)`` where each transform is the list of
    ``(old circle, start, direction)`` choices in canonical circle order,
    together with the final label coding.
    """
    nonempty = [ci for ci, circ in enumerate(ap.circles) if circ]
    best: dict = {"enc": None, "transforms": []}

    def rec(used, prefix, codes, headings, counter, order):
        if best["enc"] is not None:
            limit = min(len(prefix), len(best["enc"]))
            if tuple(prefix[:limit]) > best["enc"][:limit]:
                return
        if len(used) == len(nonempty):
            enc = tuple(prefix)
            if best["enc"] is None or enc < best["enc"]:
                best["enc"] = enc
                best["transforms"] = [(tuple(order), dict(codes), dict(headings))]
            elif enc == best["enc"]:
                best["transforms"].append((tuple(order), dict(codes), dict(headings)))
            return
        candidates = []
        for ci in nonempty:
            if ci in used:
                continue
            circ = ap.circles[ci]
            for start in range(len(circ)):
                for direction in (1, -1):
                    seg, c2, h2, n2 = _encode_candidate(
                        circ, start, direction, codes, headings, counter
                    )
                    candidates.append((seg, ci, start, direction, c2, h2, n2))
        best_seg = min(c[0] for c in candidates)
        for seg, ci, start, direction, c2, h2, n2 in candidates:
            if seg != best_seg:
                continue
            rec(
                used | {ci},
                prefix + list(seg),
                c2,
                h2,
                n2,
                order + [(ci, start, direction)],
            )

    rec(frozenset(), [], {}, {}, 0, [])
    return best["enc"] or (), best["transforms"] or [((), {}, {})]


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


def canonical_form(ap: ArrowPresentation, cap: Optional[int] = None) -> ArrowPresentation:
    """Lexicographically least presentation in the equivalence class of ``ap``.

    Quotients by circle order, rotation, reflection, simultaneous reversal of
    the two arrows of any edge, and relabelling by first appearance.  Two
    presentations are equivalent iff their canonical forms are equal.
    """
    check_edge_cap(len(ap.edges), 8, "canonical form", cap)
    enc, _ = _canonical_search(ap)
    empty = sum(1 for circ in ap.circles if not circ)
    return _rebuild_from_encoding(enc, empty)[0]


def canonical_transforms(ap: ArrowPresentation, cap: Optional[int] = None):
    """Canonical form plus every optimal traversal achieving it.

    Each transform is ``(order, codes, headings)``: the circle traversal
    choices, the label coding, and each label's first-emission heading.  A
    label whose first emission ran against its arrow (heading ``False``) has
    both arrows reversed in the canonical form, which swaps its tail and
    head slots.
    """
    check_edge_cap(len(ap.edges), 8, "canonical form", cap)
    enc, transforms = _canonical_search(ap)
    empty = sum(1 for circ in ap.circles if not circ)
    canon, offsets = _rebuild_from_encoding(enc, empty)
    return canon, transforms, offsets
