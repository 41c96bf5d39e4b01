"""The typed transfer matrices of the eight recursion kinds, kept as the
reference the matrices ``tensor_formula`` reads off its basis presentations
are tested against, and each kind's basis.

Each matrix is ``scale(pt)`` times ``rows(pt)``, written out by hand from the
operation values of the one-edge basis presentations.

Also kept: every kind's rows as ``Fraction`` values, the reading that the
integer rows of ``tensor_formula`` replaced (:func:`fraction_rows`): one
product of the point's bases per distinct entry (``_product``), the entries
read off the basis as base indexes (``_read_off``).
"""

import math
from fractions import Fraction

from ribbontensor.packaged import k_presentations
from ribbontensor.polynomials import OP_ORDER, TRANSITION_OPS, resolution_dag
from ribbontensor.tensor_formula import TheoremKind

_ONE = Fraction(1)

FIVE = (
    TheoremKind.MAINMV,
    TheoremKind.MAIN,
    TheoremKind.CORZ,
    TheoremKind.FULLTENSOR,
    TheoremKind.TWOSUM,
)
FOUR = (TheoremKind.BR, TheoremKind.BRZHAT)
RECURSION_KINDS = FIVE + FOUR + (TheoremKind.TRANSITION,)


def five_rows(pt):
    al, be, ga = pt["alpha"], pt["beta"], pt["gamma"]
    one = _ONE
    return [
        [al * be, one, one, al, one],
        [one, al * ga, one, one, al],
        [one, one, al, one, one],
        [al, one, one, al, one],
        [one, al, one, one, al],
    ]


def four_rows(pt):
    # The vertex-partitioned kinds drop the merge-contraction and fix gamma = 1.
    return [row[:4] for row in five_rows({**pt, "gamma": _ONE})[:4]]


def transition_rows(pt):
    t = pt["t"]
    return [[t**2 if i == j else t for j in range(3)] for i in range(3)]


def matrix(kind, pt):
    """The full transfer matrix of a recursion kind at ``pt``."""
    if kind in FIVE:
        return [[pt["alpha"] * pt["beta"] * pt["gamma"] * x for x in row] for row in five_rows(pt)]
    if kind in FOUR:
        return [[pt["alpha"] * pt["beta"] * x for x in row] for row in four_rows(pt)]
    return transition_rows(pt)


def basis(kind):
    """The one-edge presentations realising the kind's operations in order,
    each with its edge ``e``: K1-K5 for the five-weight kinds, K1-K4 for the
    vertex-partitioned ones, and the bare K2, K1, K3 for the transition
    polynomial's contraction, deletion and Penrose contraction."""
    ks = k_presentations()
    if kind in FIVE:
        return ks
    if kind in FOUR:
        return ks[:4]
    return ks[1].ap, ks[0].ap, ks[2].ap


def _product(b, ks):
    """The product of ``b[k]`` over the base indexes ``ks``; 1 for none."""
    return math.prod(map(b.__getitem__, ks[1:]), start=b[ks[0]]) if ks else _ONE


def _read_off(basis, ops, free: int) -> tuple:
    """A transfer matrix read off its basis: column j holds the operation
    values of ``basis[j]``, which realises operation j of ``ops``.  Resolved
    with its edge ``e`` first, it is one node whose live refs ``(slot, -1,
    s)`` point to the base exponents of its results, ``strips[s]``; the
    first ``free`` are kept, the other bases being 1.  The scale takes each base to its least exponent
    over the entries, and an entry is its strip minus the scale.  Returns
    the scale and then the distinct entries as base indexes (k repeated to
    base k's exponent), and the rows as positions among those products.
    """
    columns = []
    for x in basis:
        (_, _, strips), ((_, refs),) = resolution_dag(x, ("e",), ops)
        columns.append([strips[s][:free] for _, _, s in refs])
    least = [min(exps) for exps in zip(*sum(columns, []))]

    def indexes(exps):
        return tuple(k for k, n in enumerate(exps) for _ in range(n))

    rows = [[indexes(map(int.__sub__, s, least)) for s in row] for row in zip(*columns)]
    products = [indexes(least)] + sorted({m for row in rows for m in row})
    return products, [[products.index(m, 1) for m in row] for row in rows]


def fraction_rows(kind, pt):
    """A kind's rows at ``pt`` as ``Fraction`` values, and the common factor
    they leave out."""
    if kind is TheoremKind.PLANEMVBR:
        return [[pt["a"] * pt["c"], _ONE], [_ONE, pt["c"]]], _ONE
    if kind is TheoremKind.TUTTE:
        return [[pt["a"], pt["a"] ** 2], [pt["a"], pt["a"]]], _ONE
    if kind in FIVE:
        ops, free = OP_ORDER, ("alpha", "beta", "gamma")
    elif kind in FOUR:
        ops, free = OP_ORDER[:4], ("alpha", "beta")
    else:
        ops, free = TRANSITION_OPS, ("t",)
    products, positions = _read_off(basis(kind), ops, len(free))
    b = tuple(pt[n] for n in free)
    at = [_product(b, m) for m in products]
    return [[at[i] for i in row] for row in positions], at[0]
