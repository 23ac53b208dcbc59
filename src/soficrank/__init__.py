"""Exact rank-counting experiments over sofic approximations of group rings.

The package turns a finiteness argument for endomorphisms of induced
representations into checkable finite linear algebra: Cayley balls and
approximation graphs are built exactly, group-ring elements live as
finitely supported matrix-valued kernels over F_p, and every inequality in
the rank transfer is evaluated with exact integer and rational arithmetic.
"""

__version__ = "0.1.0"

from .digraph import LabeledDigraph, ball_charts
from .exactfield import (
    FpMatrix,
    FpSparse,
    kernel_basis,
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
)
from .sofic import (
    SoficApproximation,
    quotient_approximation,
    quotient_graph,
    verify_approximation,
)
from .transfer import (
    TransferInstance,
    TransferReport,
    build_instance,
    choose_epsilon,
    lower_bound_check,
    plan_instance,
    run_experiment,
    sparse_bar_phi,
    upper_bound_check,
    verify_transfer_identity,
)
from .weiss import WeissSelection, weiss_select

__all__ = [
    "CayleyBall",
    "FiniteByTable",
    "FpMatrix",
    "FpSparse",
    "FreeAbelian",
    "GroupRingKernel",
    "LabeledDigraph",
    "SoficApproximation",
    "TransferInstance",
    "TransferReport",
    "WeissSelection",
    "ball_charts",
    "build_instance",
    "cayley_ball",
    "check_right_inverse",
    "choose_epsilon",
    "compose",
    "kernel_basis",
    "kernel_radius",
    "lower_bound_check",
    "plan_instance",
    "quotient_approximation",
    "quotient_graph",
    "rank",
    "restriction_matrix",
    "run_experiment",
    "sparse_bar_phi",
    "support_data",
    "upper_bound_check",
    "verify_approximation",
    "verify_transfer_identity",
    "weiss_select",
]
