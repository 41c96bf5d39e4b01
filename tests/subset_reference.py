"""The per-row subset expansions, kept as the reference the power-table
evaluators in ``polynomials`` are tested against.

Each row is summed in the ring of the arguments with its own powers and
products, so a rational point runs in ``Fraction`` throughout.  Only the
tables (``_spanning_table``, ``_subset_counts``) are shared with the
library.
"""

from collections import Counter

from ribbontensor.poly import MultiPoly, VarRegistry
from ribbontensor.polynomials import _spanning_table, _subset_counts


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
