"""The per-row subset expansions, kept as the reference the power-table
evaluators in ``polynomials`` are tested against, and the builders the one
forest ``arrow.components`` replaced.

Each row is summed in the ring of the arguments with its own powers and
products, so a rational point runs in ``Fraction`` throughout.  Only the
tables (``_spanning_table``, ``_subset_counts``) are shared with the
library.

The replaced routines are kept unchanged but for names: the dict forest
``find``/``component_count``, the 2-colouring ``_orientable``, the
occurrence index, ``surface_stats`` on them (its uncached path), the
spanning sub-presentation ``_spanning`` and the two table builders
``spanning_table`` and ``subset_counts``.
"""

import itertools
from collections import Counter
from functools import lru_cache
from typing import Iterable

from ribbontensor.arrow import ArrowPresentation, SurfaceStats, boundary_trace
from ribbontensor.poly import MultiPoly, VarRegistry
from ribbontensor.polynomials import _spanning_table, _subset_counts


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


@lru_cache(maxsize=65536)
def _occurrence_index(ap: ArrowPresentation):
    index: dict = {}
    for ci, circ in enumerate(ap.circles):
        for p, occ in enumerate(circ):
            index.setdefault(occ.label, []).append((ci, p))
    return {label: tuple(sorted(places)) for label, places in index.items()}


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


def surface_stats(ap: ArrowPresentation) -> SurfaceStats:
    places, trace = _occurrence_index.__wrapped__(ap), boundary_trace.__wrapped__(ap)
    v = len(ap.circles)
    e = len(ap.edges)
    k = component_count(v, ((c1, c2) for (c1, _), (c2, _) in places.values()))
    b = len(trace.components)
    genus = 2 * k - v + e - b
    return SurfaceStats(v, e, k, b, genus, _orientable(ap, places))


def occurrences(ap: ArrowPresentation, label: str):
    return _occurrence_index(ap)[label]


def _spanning(ap: ArrowPresentation, subset) -> ArrowPresentation:
    subset = frozenset(subset)
    return ArrowPresentation.from_circles(
        tuple(o for o in circ if o.label in subset) for circ in ap.circles
    )


def spanning_table(ap: ArrowPresentation) -> tuple:
    labels = sorted(ap.edges)
    rows: dict = {}
    table = []
    for mask in range(1 << len(labels)):
        subset = [label for i, label in enumerate(labels) if mask >> i & 1]
        stats = surface_stats(_spanning(ap, subset))
        row = (stats.k, stats.b, stats.euler_genus)
        table.append(rows.setdefault(row, row))
    return tuple(table)


def subset_counts(g) -> tuple:
    counts: Counter = Counter()
    for bits in itertools.product((0, 1), repeat=g.m):
        subset = tuple(itertools.compress(g.edge_list, bits))
        counts[component_count(g.n, subset), len(subset)] += 1
    return tuple(counts.items())


def mv_br_value(ap, a, b_by_label, c):
    one = a**0
    # prods[mask] is the product of b_e over the labels in mask.
    prods = [one]
    for label in sorted(ap.edges):
        b = b_by_label[label]
        prods += [p * b for p in prods]
    total = one - one
    for (k, nb, _), prod in zip(_spanning_table(ap), prods):
        total = total + a**k * c**nb * prod
    return total


def br_poly(ap):
    registry = VarRegistry(("x", "y", "z"))
    x, y, z = (MultiPoly.var(registry, n) for n in ("x", "y", "z"))
    rows = _spanning_table(ap)
    v = len(ap.circles)
    k_full = min(k for k, _, _ in rows)
    groups = Counter((k, mask.bit_count(), genus) for mask, (k, _, genus) in enumerate(rows))
    x1 = x - x**0
    total = MultiPoly.zero(registry)
    for (k, size, genus), count in groups.items():
        total = total + count * x1 ** (k - k_full) * y ** (size - v + k) * z**genus
    return total


def zdot_value(g, a, b, c):
    one = a**0
    total = one - one
    for (k, size), count in _subset_counts(g):
        total = total + count * a**k * b**size * c ** (g.m - size)
    return total


def tutte_value(g, x, y):
    one = x**0
    rows = _subset_counts(g)
    k_full = min(k for (k, _), _ in rows)
    total = one - one
    for (k, size), count in rows:
        total = total + count * (x - one) ** (k - k_full) * (y - one) ** (size - g.n + k)
    return total
