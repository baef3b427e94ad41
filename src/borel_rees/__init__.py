"""Strongly stable ideals, their multigraded toric presentations, and
fiber-graph certification of explicit quadratic Groebner bases."""

from .borel import (
    InvalidIdeal,
    StronglyStableIdeal,
    TwoQuadricView,
    borel_closure,
    load_collection,
    order_view,
    region_partition,
    validate_collection,
)
from .monomial import (
    Monomial,
    all_one_step_reductions,
    one_step_reduction,
    parse_monomial,
    rlex_compare,
    strongly_stable_precedes,
)
from .orders import (
    PresOrder,
    build_G1,
    build_G2,
    build_G3,
    build_fiber_type_basis,
    build_head_and_tail_basis,
    build_syzygy_set,
)
from .presentation import (
    MixedMonomial,
    MultiDegree,
    PresMonomial,
    PresVar,
    content,
    enumerate_fiber,
    enumerate_mixed_fiber,
    fibers_by_multidegree,
    phi,
)
from .reduction import (
    MarkedBinomial,
    RankRules,
    ReductionGraph,
    applicable_reductions,
    build_graph,
    ell_max,
    fiber_edges,
    has_cycle,
    normal_form,
    rank_rewrites,
    rank_rules,
    rule_indices,
    to_dot,
)
from .verifier import (
    KoszulReport,
    ObstructionWitness,
    VerificationReport,
    check_membership,
    detect_obstructions,
    kernel_membership,
    koszul_report,
    mixed_fibers,
    mixed_x_degree,
    parameter_gate,
    toric_kernel_span,
    verify_gb,
)

__version__ = "0.1.0"
