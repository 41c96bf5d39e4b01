"""The state-sum oracle of the five-weight polynomial and polynomial
substitution, kept as references the recursion and its specialisations are
tested against, the monomial and registry constructors the tests build
polynomials with, and the five-weight polynomial folded with chosen edges
resolved first (``q_in_order``).

The oracle shares no evaluation code with ``polynomials``: it applies every
five-colouring of the edges operation by operation and reads the base value
off the fully resolved presentation.
"""

from ribbontensor.arrow import check_edge_cap
from ribbontensor.packaged import apply_edge_op
from ribbontensor.poly import MultiPoly, VarRegistry
from ribbontensor.polynomials import OP_ORDER, fold_dag, resolution_dag


def registry_of(*names: str) -> VarRegistry:
    return VarRegistry(names)


def monomial(registry: VarRegistry, powers, coeff: int = 1) -> MultiPoly:
    """``coeff`` times the variables of ``registry`` to the ``powers``, a
    mapping of names to exponents."""
    key = registry._pack(powers)
    return MultiPoly._make(registry, {key: coeff} if coeff else {})


def state_sum_oracle(pg, w):
    """Direct sum over all five-colourings of the edge set, with the
    weights of the :class:`WeightSystem` ``w``.

    Independent of the recursion: every colouring is applied operation by
    operation (fixed label order, no stripping) and contributes its weight
    monomial times the base value of the fully resolved presentation.
    Capped at ``edge_cap(12)`` edges.
    """
    check_edge_cap(len(pg.ap.edges), 12, "state sum")
    registry = w.registry
    labels = sorted(pg.ap.edges)
    total = MultiPoly.zero(registry)

    def rec(pg, depth, weight):
        nonlocal total
        if depth == len(labels):
            base = monomial(
                registry,
                {
                    "alpha": len(pg.ap.circles),
                    "beta": pg.vparts.n_blocks,
                    "gamma": pg.bparts.n_blocks,
                },
            )
            total = total + weight * base
            return
        e = labels[depth]
        for wpoly, kind in zip(w.for_edge(e), OP_ORDER):
            rec(apply_edge_op(pg, e, kind), depth + 1, weight * wpoly)

    rec(pg, 0, MultiPoly.const(registry, 1))
    return total


def substitute(p, assignments):
    """``p`` with variables replaced by polynomials over the same registry."""
    names = p.registry.names
    result = MultiPoly.zero(p.registry)
    for exps, coeff in p.items():
        term = MultiPoly.const(p.registry, coeff)
        for name, power in zip(names, exps):
            if not power:
                continue
            if name in assignments:
                term = term * assignments[name] ** power
            else:
                term = term * monomial(p.registry, {name: power})
        result = result + term
    return result


def q_in_order(pg, w, order):
    """``q_multivariate(pg, w)`` with the edges of ``order`` resolved first,
    before the DAG's cut-width order."""
    weights = {label: w.for_edge(label) for label in pg.ap.edges}
    bases = tuple(MultiPoly.var(w.registry, n) for n in ("alpha", "beta", "gamma"))
    return fold_dag(resolution_dag(pg, tuple(order), OP_ORDER), weights, bases)
