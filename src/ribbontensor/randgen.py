"""Seeded random instance generators for fuzz tests and the verify command."""

from __future__ import annotations

import random
from fractions import Fraction

from .arrow import ArrowPresentation, boundary_components, surface_stats
from .packaged import PackagedPresentation, Partition, make_packaged
from .polynomials import Multigraph


def random_presentation(
    rng: random.Random,
    max_edges: int = 4,
    min_edges: int = 0,
    extra_circle_rate: float = 0.25,
) -> ArrowPresentation:
    m = rng.randint(min_edges, max_edges)
    ends = []
    for i in range(m):
        ends.append((f"e{i}", rng.random() < 0.5))
        ends.append((f"e{i}", rng.random() < 0.5))
    rng.shuffle(ends)
    circles_n = rng.randint(1, m + 1) if m else 1
    circles = [[] for _ in range(circles_n)]
    for occ in ends:
        circles[rng.randrange(circles_n)].append(occ)
    while rng.random() < extra_circle_rate:
        circles.append([])
    return ArrowPresentation.from_circles(circles)


def random_blocks(rng: random.Random, n: int):
    blocks: list = []
    for i in range(n):
        if blocks and rng.random() < 0.4:
            rng.choice(blocks).append(i)
        else:
            blocks.append([i])
    return blocks


def random_packaged(
    rng: random.Random, max_edges: int = 4, min_edges: int = 0
) -> PackagedPresentation:
    ap = random_presentation(rng, max_edges, min_edges)
    return make_packaged(
        ap,
        random_blocks(rng, len(ap.circles)),
        random_blocks(rng, len(boundary_components(ap))),
    )


def random_vertex_partitioned(
    rng: random.Random, max_edges: int = 3, min_edges: int = 1
) -> PackagedPresentation:
    """Vertex-partitioned presentation, realised with a one-block boundary
    partition (the boundary side never matters for the gamma=1 polynomials)."""
    ap = random_presentation(rng, max_edges, min_edges)
    bd_n = len(boundary_components(ap))
    return PackagedPresentation(
        ap,
        Partition.make(random_blocks(rng, len(ap.circles)), range(len(ap.circles))),
        Partition.one_block(range(bd_n)),
    )


def _insert_occurrences(rng, circles, label):
    """Place the two arrows of a fresh edge at random positions."""
    circles = [list(c) for c in circles]
    for _ in range(2):
        ci = rng.randrange(len(circles))
        pos = rng.randint(0, len(circles[ci]))
        circles[ci].insert(pos, (label, rng.random() < 0.5))
    return circles


def random_plane_presentation(rng: random.Random, max_edges: int = 4) -> tuple:
    """A genus-0 presentation together with a designated edge.

    The designated edge joins two distinct circles.  Further edges are added
    greedily wherever they keep the genus at zero.
    """
    circles = [[("e0", True)], [("e0", True)]]
    target = rng.randint(1, max_edges)
    i = 1
    attempts = 0
    while i < target and attempts < 60:
        candidate = _insert_occurrences(rng, circles, f"e{i}")
        ap = ArrowPresentation.from_circles(candidate)
        if surface_stats(ap).euler_genus == 0:
            circles = candidate
            i += 1
        attempts += 1
    return ArrowPresentation.from_circles(circles), "e0"


def random_connected_multigraph(
    rng: random.Random,
    max_edges: int = 4,
    min_edges: int = 1,
    loopless: bool = False,
) -> Multigraph:
    m = rng.randint(min_edges, max_edges)
    n = rng.randint(1 if not loopless else 2, m + 1)
    edges = []
    for v in range(1, n):
        edges.append((rng.randrange(v), v))  # spanning tree keeps it connected
    while len(edges) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if loopless and u == v:
            continue
        edges.append((u, v))
    return Multigraph.make(n, edges)


def random_point(rng: random.Random, names, bound: int = 10000):
    """Uniform rationals with numerator/denominator in [1, bound]."""
    return {
        name: Fraction(rng.randint(1, bound), rng.randint(1, bound)) for name in names
    }
