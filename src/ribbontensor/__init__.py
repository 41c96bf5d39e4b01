"""Exact arithmetic for arrow presentations of embedded graphs.

Arrow presentations (circles with paired, labelled, directed arrows) model
ribbon graphs; adding vertex and boundary partitions packages them into
models of graphs embedded in pseudo-surfaces.  The package implements the
edge operations, 2-sums and tensor products of these objects, computes their
topological Tutte polynomials with exact integer/rational arithmetic, and
verifies the tensor-product transfer identities pointwise.

Importing the package loads none of its submodules: each public name below
imports its submodule on first access (PEP 562), so a process pays only for
the modules it uses.
"""

from importlib import import_module as _import_module

# Each submodule and the public names it provides at the package root.
_EXPORTS = {
    "arrow": (
        "ArrowPresentation",
        "BoundaryComponent",
        "Occ",
        "SurfaceStats",
        "boundary_components",
        "canonical_form",
        "contract_edge",
        "delete_edge",
        "penrose_contract_edge",
        "surface_stats",
        "validate",
    ),
    "errors": (
        "InvalidArgument",
        "InvalidCoupling",
        "InvariantViolation",
        "LabelCountError",
        "MissingFactor",
        "MissingVariable",
        "ParseError",
        "PartitionCoverError",
        "PartitionOverlapError",
        "RegistryMismatch",
        "RibbonTensorError",
        "SingularAtPoint",
        "SingularMatrix",
        "SizeLimitExceeded",
        "UnknownEdge",
    ),
    "files": ("dumps_presentation", "loads_presentation"),
    "packaged": (
        "Coupling",
        "EdgeOpKind",
        "PackagedPresentation",
        "Partition",
        "apply_edge_op",
        "canonical_packaged",
        "compose_two_sums",
        "edge_ops",
        "k_presentations",
        "make_packaged",
        "tensor_product",
        "two_sum",
        "uniform_tensor",
    ),
    "poly": (
        "MultiPoly",
        "Rational",
        "VarRegistry",
        "parse_poly",
        "solve_linear",
        "standard_registry",
        "to_canonical_string",
    ),
    "polynomials": (
        "Multigraph",
        "WeightSystem",
        "br_poly",
        "graph_of_presentation",
        "graph_tensor",
        "graph_two_sum",
        "mv_br_poly",
        "q_multivariate",
        "q_poly",
        "qhat_poly",
        "transition_poly",
        "tutte_poly",
        "z_poly",
        "zdot_tutte",
        "zhat_poly",
    ),
    "randgen": (),
    "tensor_formula": (
        "TheoremKind",
        "VerifyReport",
        "build_phi_matrix",
        "phi0_structural_zeros",
        "plan_instance",
        "run_verification",
        "solve_phis",
        "verify_identity",
    ),
}

# Every public name, the submodules included, and the submodule it lives in.
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in (mod, *names)}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    mod = _HOME.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f".{mod}", __name__)
    if name != mod:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _HOME.keys())
