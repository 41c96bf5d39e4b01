"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from ribbontensor.arrow import ArrowPresentation, boundary_components
from ribbontensor.packaged import make_packaged


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
