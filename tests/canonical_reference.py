"""The greedy backtracking canonical form and the packaged loop over its
transforms and every arrangement of the empty circles, kept as the
reference the rooted-walk and refinement forms are tested against.  It
decodes its flat code with its own decoder and shares no canonical-form
code with the package.

Forms from the two differ as presentations; only the equivalence they
induce must agree.
"""

from ribbontensor.arrow import ArrowPresentation, Occ, boundary_trace, check_edge_cap
from ribbontensor.packaged import PackagedPresentation, Partition


def _unique_orderings(groups):
    """Distinct arrangements of items where same-group items are
    interchangeable."""

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


def _empty_circle_groups(pg, bare_to_bd):
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


def canonical_search(ap):
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


def flat_code(components):
    """The flat code of ``canonical_transforms``'s sorted components: their
    codes in order, each component's label codes offset past those of the
    components before it."""
    enc: list = []
    base = 0
    for code, walks in components:
        enc += [item if type(item) is int else (item[0] + base, item[1]) for item in code]
        base += len(walks[0][1])
    return tuple(enc)


def rebuild_from_encoding(enc, empty_count):
    """Materialise the presentation a flat code describes; also report, per
    circle, the rotation applied to reach its lex-least representative.

    The code is a run of circles, each its length ``k`` followed by ``k``
    ``(code, bit)`` pairs.  A code's first pair gives its arrow forward;
    a later one gives it forward exactly when its bit is 0.
    """
    circles = []
    offsets = []
    i = 0
    seen = set()
    while i < len(enc):
        k = enc[i]
        i += 1
        occs = []
        for code, bit in enc[i:i + k]:
            occs.append(Occ(f"e{code}", code not in seen or bit == 0))
            seen.add(code)
        i += k
        offset = min(range(k), key=lambda r: occs[r:] + occs[:r])
        circles.append(tuple(occs[offset:] + occs[:offset]))
        offsets.append(offset)
    circles.extend(() for _ in range(empty_count))
    ap = ArrowPresentation(tuple(circles), frozenset(o.label for c in circles for o in c))
    return ap, tuple(offsets)


def reference_canonical_form(ap):
    check_edge_cap(len(ap.edges), 8, "canonical form")
    enc, _ = canonical_search(ap)
    empty = sum(1 for circ in ap.circles if not circ)
    return rebuild_from_encoding(enc, empty)[0]


def reference_canonical_packaged(pg):
    check_edge_cap(len(pg.ap.edges), 8, "canonical form")
    enc, transforms = canonical_search(pg.ap)
    empty = sum(1 for circ in pg.ap.circles if not circ)
    canon_ap, rebuild_offsets = rebuild_from_encoding(enc, empty)
    old = boundary_trace(pg.ap)
    new = boundary_trace(canon_ap)
    nonempty_count = sum(1 for c in canon_ap.circles if c)
    groups = _empty_circle_groups(pg, old.bare_to_bd)

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
        for arrangement in _unique_orderings(groups):
            cmap = dict(circle_map)
            for slot, ci in enumerate(arrangement):
                cmap[ci] = nonempty_count + slot
            bd_map = {}
            for bd in old.components:
                if bd.circle is not None:
                    bd_map[bd.id] = new.bare_to_bd[cmap[bd.circle]]
                else:
                    c, p, s = old.endpoint(bd.crossings[0])
                    if flipped[pg.ap.circles[c][p].label]:
                        s = 1 - s
                    bd_map[bd.id] = new.boundary_at(*pos_map[(c, p)], s)
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
