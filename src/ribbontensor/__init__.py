"""Exact arithmetic for arrow presentations of embedded graphs.

Arrow presentations (circles with paired, labelled, directed arrows) model
ribbon graphs; adding vertex and boundary partitions packages them into
models of graphs embedded in pseudo-surfaces.  The package implements the
edge operations, 2-sums and tensor products of these objects, computes their
topological Tutte polynomials with exact integer/rational arithmetic, and
verifies the tensor-product transfer identities pointwise.
"""

from .arrow import (
    ArrowPresentation,
    BoundaryComponent,
    Occ,
    SurfaceStats,
    boundary_components,
    canonical_form,
    contract_edge,
    delete_edge,
    penrose_contract_edge,
    surface_stats,
    validate,
)
from .errors import (
    InvalidArgument,
    InvalidCoupling,
    InvariantViolation,
    LabelCountError,
    MissingFactor,
    MissingVariable,
    ParseError,
    PartitionCoverError,
    PartitionOverlapError,
    RegistryMismatch,
    RibbonTensorError,
    SingularAtPoint,
    SingularMatrix,
    SizeLimitExceeded,
    UnknownEdge,
)
from .files import dumps_presentation, loads_presentation
from .packaged import (
    Coupling,
    EdgeOpKind,
    OpTrace,
    PackagedPresentation,
    Partition,
    apply_edge_op,
    canonical_packaged,
    compose_two_sums,
    k_presentations,
    make_packaged,
    natural_identification,
    tensor_product,
    two_sum,
    uniform_tensor,
)
from .poly import (
    MultiPoly,
    Rational,
    VarRegistry,
    parse_poly,
    solve_linear,
    standard_registry,
    to_canonical_string,
)
from .polynomials import (
    Multigraph,
    WeightSystem,
    br_poly,
    graph_of_presentation,
    graph_tensor,
    graph_two_sum,
    mv_br_poly,
    q_multivariate,
    q_poly,
    qhat_poly,
    state_sum_oracle,
    transition_poly,
    tutte_poly,
    z_poly,
    zdot_tutte,
    zhat_poly,
)
from .tensor_formula import (
    TheoremKind,
    VerifyReport,
    build_phi_matrix,
    phi0_structural_zeros,
    plan_instance,
    run_verification,
    solve_phis,
    verify_identity,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
