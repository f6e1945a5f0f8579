"""centerlab: restricted centers and ball-intersection diagnostics in
finite-dimensional normed spaces."""

from .centers import (
    CenterProblem,
    CenterResult,
    FiniteSet,
    PowerSum,
    UnionOfLines,
    WeightedMax,
    WeightedSum,
    delta_center_probe,
    eval_rf,
    p1_modulus,
    sacp_experiment,
    solve_center,
    uniform_max,
)
from .geometry import (
    BallFamily,
    ProjectionData,
    ac_dominator,
    almost_constrained_probe,
    balls_intersect,
    central_subspace_check,
    compose_direct_sum_projections,
    decompose_min_sum,
    esum_dominator,
    gamma_estimate,
    lift_projection_linf_sum,
    locally_constrained_transfer,
    locally_constrained_verify,
    mideal_three_ball_check,
    verify_norm1_projection,
)
from .norms import (
    Subspace,
    dist_to_subspace,
    dist_to_subspace_many,
    eval_norm,
    l1,
    l2,
    linf,
    lp_norm,
    make_direct_sum,
    make_esum,
    polyhedral,
    subspace_from_basis,
    subspace_from_kernel,
    sum_subspaces,
    validate_norm,
)
from .sequences import (
    GeometricTail,
    GeometricTailSeq,
    c0_constrained_criterion,
    c0_hyperplane_gc,
    seq_norms,
)

__version__ = "0.1.0"
