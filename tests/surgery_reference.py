"""The arrow surgery and partition transfer that the integer kernel in
``ribbontensor.arrow`` replaced, kept as the reference it is tested against:
the splice over ``Occ`` circles with maps keyed by ``(circle, position)``,
the boundary transfer through those maps, the dict-keyed partition
transfer, and the packaged operations and 2-sum built on them.

The bodies are the replaced code, unchanged but for names: the cached
``edge_op_traced`` is uncached here, ``Partition.transfer`` is the function
``transfer``, and the packaged functions call the references.
"""

from typing import Iterable, Mapping, NamedTuple, Sequence

from ribbontensor.arrow import (
    HEAD,
    TAIL,
    ArrowPresentation,
    Occ,
    _rotmin,
    boundary_trace,
)
from ribbontensor.errors import InvalidCoupling, InvariantViolation, UnknownEdge
from ribbontensor.packaged import (
    Coupling,
    EdgeOpKind,
    PackagedPresentation,
    Partition,
    _first_appearance,
)
from subset_reference import find


def _leading_slot(occ: Occ) -> int:
    return TAIL if occ.forward else HEAD


def _trailing_slot(occ: Occ) -> int:
    return HEAD if occ.forward else TAIL


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


def transfer(
    self: Partition, item_map: Mapping[int, int], created: Sequence[int] = (), groups: Iterable = ()
) -> Partition:
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
    vparts = transfer(
        pg.vparts,
        res.circle_map, res.created_circles, _merges(vrule, circles, res.created_circles)
    )
    bparts = transfer(
        pg.bparts,
        res.boundary_map, res.created_boundaries,
        _merges(brule, boundaries, res.created_boundaries),
    )
    return PackagedPresentation(res.presentation, vparts, bparts)


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
    vparts = transfer(
        vall,
        res.circle_map,
        res.created_circles,
        [
            ({fo1[0], t1[0]}, {mark_circle["m1"], mark_circle["m2"]}),
            ({fo2[0], t2[0]}, {mark_circle["m3"], mark_circle["m4"]}),
        ],
    )
    union_bd = boundary_trace(res.union).boundary_at
    bparts = transfer(
        ball,
        res.boundary_map,
        res.created_boundaries,
        [
            ({union_bd(*fo1, TAIL), union_bd(*t1, TAIL)}, {mark_bd["m1"], mark_bd["m4"]}),
            ({union_bd(*fo1, HEAD), union_bd(*t1, HEAD)}, {mark_bd["m2"], mark_bd["m3"]}),
        ],
    )
    return PackagedPresentation(res.presentation, vparts, bparts)


# --------------------------------------------------------------------------
# the kernel's records read in the reference's form


def reference_form(ap, new_ap, moves, names=()):
    """An ``OpTraceArrow`` of the kernel as the reference writes it: the
    circle map as a dict of survivors, the arrow map keyed by ``(circle,
    position)`` over every surviving arrow, and the glued points by
    ``names[k]`` (by ``k`` without names) at ``(new circle, gap index or
    None for bare)``."""
    old, new = boundary_trace(ap), boundary_trace(new_ap)
    circle_map = {c: nc for c, nc in enumerate(moves.circle_map) if nc >= 0}
    occ_map = {}
    for c, circ in enumerate(ap.circles):
        for p in range(len(circ)):
            if circ[p].label not in new_ap.edges:  # removed
                continue
            g = moves.occ_map[old.offsets[c] + p]
            if g >= 0:
                nc = new.circle_of(g)
                occ_map[(c, p)] = (nc, g - new.offsets[nc])
            elif c in circle_map:
                occ_map[(c, p)] = (circle_map[c], p)
    markers = {
        names[k] if names else k: (nc, None if token < 0 else (token >> 1) - new.offsets[nc])
        for k, (nc, token) in enumerate(moves.markers)
    }
    return circle_map, moves.created_circles, occ_map, markers


def as_dict(mapping) -> dict:
    """A kernel list map as the reference's dict of survivors."""
    return {x: y for x, y in enumerate(mapping) if y >= 0}
