"""Exact rank-counting experiments over sofic approximations of group rings.

The package turns a finiteness argument for endomorphisms of induced
representations into checkable finite linear algebra: Cayley balls and
approximation graphs are built exactly, group-ring elements live as
finitely supported matrix-valued kernels over F_p, and every inequality in
the rank transfer is evaluated with exact integer and rational arithmetic.
"""

__version__ = "0.1.0"

from .digraph import LabeledDigraph, ball_charts, ball_isomorphism, distance, neighborhood
from .exactfield import (
    FpMatrix,
    kernel_basis,
    mat_mul,
    rank,
)
from .groupring import (
    GroupRingKernel,
    check_right_inverse,
    compose,
    kernel_radius,
    restriction_matrix,
    support_data,
)
from .groups import (
    CayleyBall,
    FiniteByTable,
    FreeAbelian,
    cayley_ball,
    cyclic_group,
    direct_product_table,
)
from .sofic import (
    SoficApproximation,
    finite_cayley_graph,
    finite_group_approximation,
    torus_approximation,
    torus_graph,
    verify_approximation,
)
from .transfer import (
    TransferInstance,
    TransferReport,
    build_bar_phi,
    build_bar_psi,
    build_instance,
    choose_epsilon,
    lower_bound_check,
    plan_instance,
    run_experiment,
    upper_bound_check,
    verify_transfer_identity,
)
from .weiss import WeissSelection, weiss_select

__all__ = [
    "CayleyBall",
    "FiniteByTable",
    "FpMatrix",
    "FreeAbelian",
    "GroupRingKernel",
    "LabeledDigraph",
    "SoficApproximation",
    "TransferInstance",
    "TransferReport",
    "WeissSelection",
    "ball_charts",
    "ball_isomorphism",
    "build_bar_phi",
    "build_bar_psi",
    "build_instance",
    "cayley_ball",
    "check_right_inverse",
    "choose_epsilon",
    "compose",
    "cyclic_group",
    "direct_product_table",
    "distance",
    "finite_cayley_graph",
    "finite_group_approximation",
    "kernel_basis",
    "kernel_radius",
    "lower_bound_check",
    "mat_mul",
    "neighborhood",
    "plan_instance",
    "rank",
    "restriction_matrix",
    "run_experiment",
    "support_data",
    "torus_approximation",
    "torus_graph",
    "upper_bound_check",
    "verify_approximation",
    "verify_transfer_identity",
    "weiss_select",
]
