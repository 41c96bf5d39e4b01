"""Hypothesis strategies and helpers shared by the test modules."""

from hypothesis import strategies as st

from ribbontensor.arrow import (
    ArrowPresentation,
    Occ,
    _rotmin,
    boundary_components,
    boundary_trace,
)
from ribbontensor.packaged import PackagedPresentation, Partition, make_packaged


@st.composite
def presentations(draw, min_edges=0, max_edges=6):
    """Arrow presentations with empty circles, one-arrow circles, and aligned
    and anti-aligned loops all likely."""
    m = draw(st.integers(min_edges, max_edges))
    ends = draw(st.permutations(
        [(f"e{i}", draw(st.booleans())) for i in range(m) for _ in range(2)]
    ))
    n = draw(st.integers(1, m + 2))
    circles = [[] for _ in range(n)]
    for occ in ends:
        circles[draw(st.integers(0, n - 1))].append(occ)
    return ArrowPresentation.from_circles(circles)


def _blocks(draw, n):
    # a restricted growth string: item i joins one of the blocks so far or
    # opens the next one
    blocks: list = []
    for i in range(n):
        b = draw(st.integers(0, len(blocks)))
        if b == len(blocks):
            blocks.append([])
        blocks[b].append(i)
    return blocks


@st.composite
def packaged_presentations(draw, min_edges=0, max_edges=4):
    ap = draw(presentations(min_edges, max_edges))
    return make_packaged(
        ap, _blocks(draw, len(ap.circles)), _blocks(draw, len(boundary_components(ap)))
    )


@st.composite
def packaged_with_empty_circles(draw, max_edges=3, max_empty=6):
    """Packaged presentations with 1-``max_empty`` empty circles (at most
    ``max_edges + 2`` of them come with the arrows), under singleton
    partitions or random ones."""
    ap = draw(presentations(0, max_edges))
    empty = sum(not circ for circ in ap.circles)
    extra = draw(st.integers(max(0, 1 - empty), max(0, max_empty - empty)))
    ap = ArrowPresentation.from_circles(list(ap.circles) + [()] * extra)
    if draw(st.booleans()):
        return make_packaged(ap)
    return make_packaged(
        ap, _blocks(draw, len(ap.circles)), _blocks(draw, len(boundary_components(ap)))
    )


def symmetry_image(pg, rng, relabel=True):
    """A random image of ``pg`` under the equivalence moves (circle
    permutation, rotations, reflections, flipping both arrows of an edge,
    relabelling), with both partitions carried through it by matching
    endpoints.  Without ``relabel`` the image keeps every label and every
    edge's arrows: it is ``pg`` with its circles reordered and each read
    from another start, some of them backward."""
    n = len(pg.ap.circles)
    perm = list(range(n))
    rng.shuffle(perm)  # old circle i becomes image circle perm[i]
    flips, rename = set(), {}
    if relabel:
        flips = {label for label in sorted(pg.ap.edges) if rng.random() < 0.5}
        rename = {label: f"r{label}" for label in sorted(pg.ap.edges) if rng.random() < 0.5}
    raw = [None] * n
    where = {}  # old (circle, position) -> position on the raw image circle
    for ci, circ in enumerate(pg.ap.circles):
        k = len(circ)
        rot = rng.randrange(k) if k else 0
        reflect = rng.random() < 0.5
        occs = []
        for newp in range(k):
            p = (rot - newp) % k if reflect else (rot + newp) % k
            label, forward = circ[p]
            occs.append(Occ(rename.get(label, label), forward ^ reflect ^ (label in flips)))
            where[(ci, p)] = newp
        raw[perm[ci]] = occs
    image_ap = ArrowPresentation.from_circles(raw)
    # from_circles stores each circle rotation-least
    offsets = [_rotmin(tuple(circ))[1] for circ in raw]
    old, new = boundary_trace(pg.ap), boundary_trace(image_ap)

    def image_of(bd):
        if bd.circle is not None:
            return new.bare_to_bd[perm[bd.circle]]
        c, p, s = old.endpoint(bd.crossings[0])
        nc = perm[c]
        newp = (where[(c, p)] - offsets[nc]) % len(raw[nc])
        # flipping an edge's arrows swaps their tail and head slots
        return new.boundary_at(nc, newp, 1 - s if pg.ap.circles[c][p].label in flips else s)

    bd_map = {bd.id: image_of(bd) for bd in old.components}
    return PackagedPresentation(
        image_ap,
        Partition.make([[perm[x] for x in b] for b in pg.vparts.blocks], range(n)),
        Partition.make(
            [[bd_map[x] for x in b] for b in pg.bparts.blocks], range(len(new.components))
        ),
    )
