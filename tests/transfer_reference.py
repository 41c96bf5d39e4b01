"""The typed transfer matrices of the eight recursion kinds, kept as the
reference the matrices ``tensor_formula`` reads off its basis presentations
are tested against, and each kind's basis.

Each matrix is ``scale(pt)`` times ``rows(pt)``, written out by hand from the
operation values of the one-edge basis presentations.
"""

from fractions import Fraction

from ribbontensor.packaged import k_presentations
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
