"""Rank-counting transfer of group-ring elements onto approximation graphs.

Given an element phi of Mat_d(F_p[G]) (optionally with a candidate right
inverse psi) and a sofic approximation of G, this module:

  * selects the radii r1 (combined supports), r2 (smallest ball with a
    nonzero restricted kernel, when one is found) and r0 = max(r1, r2),
    plus an exact rational tolerance epsilon < 1/(2 * d * |N_{2r0+1}(B)|);
  * scans the graph for the vertex sets V' (vertices whose r0-neighborhood
    is ball-isomorphic) and V'' (vertices of V' all of whose r0-neighbors
    are in V'), taking the per-vertex isomorphisms of good vertices from
    the approximation's verified charts;
  * transplants phi and psi through those isomorphisms into finite block
    matrices over the graph;
  * verifies the composition identity on V'' x V'' and evaluates both
    sides of the rank-counting argument with exact integer and rational
    arithmetic.

The two verdicts exclude each other: an element with a verified right
inverse never exhibits a restricted kernel vector, so at most one of the
lower-bound and upper-bound chains can ever apply to the same element.
Violations of any theory-guaranteed inequality raise
InternalInconsistency, which always signals an implementation bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .digraph import ball_isomorphism
from .errors import (
    ApproximationTooCoarse,
    CardinalityViolation,
    CheckFailedError,
    InternalInconsistency,
    KernelSearchExhausted,
)
from .exactfield import FpMatrix, mat_mul, rank
from .groupring import (
    GroupRingKernel,
    check_right_inverse,
    kernel_radius,
    restriction_matrix,
    support_data,
)
from .groups import CayleyBall, FiniteByTable, FreeAbelian, cayley_ball
from .limits import DEFAULT_MAX_BALL_ELEMENTS, DEFAULT_MAX_VERTICES, default_kernel_search_bound
from .sofic import SoficApproximation, finite_group_approximation, torus_approximation
from .weiss import WeissSelection, weiss_select

LOWER_HOLDS = "LOWER_HOLDS"
UPPER_HOLDS = "UPPER_HOLDS"
NEITHER = "NEITHER"


def choose_epsilon(d: int, ball_size: int) -> Fraction:
    """Canonical tolerance strictly below 1 / (2 * d * ball_size).

    Returns 1 / (2 * d * ball_size + 1), the smallest-denominator rational
    under the bound, so that reports are reproducible.
    """
    if d < 1 or ball_size < 1:
        raise ValueError("d and ball_size must be at least 1")
    return Fraction(1, 2 * d * ball_size + 1)


@dataclass(eq=False)
class InstancePlan:
    """Radii and tolerance derived from the element(s) alone."""

    r1: int
    r2: Optional[int]
    r0: int
    epsilon: Fraction
    kernel_search_bound: int
    ball_big_size: int  # |N_{2 r0 + 1}(B)|


def plan_instance(
    phi: GroupRingKernel,
    psi: Optional[GroupRingKernel] = None,
    max_kernel_search: Optional[int] = None,
    max_ball_elements: int = DEFAULT_MAX_BALL_ELEMENTS,
) -> InstancePlan:
    """Compute r1, r2, r0 and epsilon for the given element(s)."""
    _, r1 = support_data(phi, psi)
    bound = max_kernel_search if max_kernel_search is not None else default_kernel_search_bound(
        phi.support_radius()
    )
    r2 = kernel_radius(phi, bound, max_ball_elements=max_ball_elements)
    r0 = max(r1, r2) if r2 is not None else r1
    ball_big = cayley_ball(phi.group, 2 * r0 + 1, max_elements=max_ball_elements)
    return InstancePlan(
        r1=r1,
        r2=r2,
        r0=r0,
        epsilon=choose_epsilon(phi.d, ball_big.size),
        kernel_search_bound=bound,
        ball_big_size=ball_big.size,
    )


@dataclass(eq=False)
class TransferInstance:
    phi: GroupRingKernel
    psi: Optional[GroupRingKernel]
    approx: SoficApproximation
    r0: int
    r1: int
    r2: Optional[int]
    epsilon: Fraction
    kernel_search_bound: int
    v_prime: tuple[int, ...]
    v_dprime: tuple[int, ...]
    maps: dict[int, tuple[int, ...]]  # v' -> (ball position -> graph vertex)
    ball_r0: CayleyBall
    ball_big_size: int

    @property
    def d(self) -> int:
        return self.phi.d

    @property
    def vertex_count(self) -> int:
        return self.approx.vertex_count


def build_instance(
    phi: GroupRingKernel,
    psi: Optional[GroupRingKernel],
    approx: SoficApproximation,
    max_kernel_search: Optional[int] = None,
    plan: Optional[InstancePlan] = None,
    max_ball_elements: int = DEFAULT_MAX_BALL_ELEMENTS,
) -> TransferInstance:
    """Derive all radii, the tolerance, V', V'' and the per-vertex isomorphisms.

    The approximation must be verified at radius >= 2*r0 + 1
    (ApproximationTooCoarse otherwise) and its good set must be large
    enough for the instance's own epsilon (CardinalityViolation otherwise).
    The r0-chart of a good vertex is the prefix of its verified chart over
    the radius-r0 ball (smaller Cayley balls are prefixes of larger ones),
    so only vertices outside the good set are charted here.
    """
    if approx.group != phi.group:
        raise ValueError("approximation and element groups differ")
    if psi is not None:
        phi._require_compatible(psi)
    if plan is None:
        plan = plan_instance(
            phi, psi, max_kernel_search=max_kernel_search, max_ball_elements=max_ball_elements
        )
    r0 = plan.r0
    needed = 2 * r0 + 1
    if approx.radius < needed:
        raise ApproximationTooCoarse(
            f"approximation verified at radius {approx.radius}, instance needs {needed}"
        )
    if not plan.epsilon < Fraction(1, 2 * phi.d * plan.ball_big_size):
        raise ValueError(f"epsilon {plan.epsilon} is not strictly below the selection bound")
    n = approx.vertex_count
    if Fraction(len(approx.good_vertices)) < (1 - plan.epsilon) * n:
        raise CardinalityViolation(
            f"good set of size {len(approx.good_vertices)} is too small for epsilon {plan.epsilon}"
        )

    graph = approx.graph
    ball_r0 = cayley_ball(phi.group, r0, max_elements=max_ball_elements)
    maps: dict[int, tuple[int, ...]] = {}
    v_prime: list[int] = []
    for v in range(n):
        chart = approx.iso_maps.get(v)
        f = chart[: ball_r0.size] if chart is not None else ball_isomorphism(graph, v, ball_r0)
        if f is not None:
            v_prime.append(v)
            maps[v] = f
    v_prime_set = set(v_prime)
    v_dprime = [v for v in v_prime if all(w in v_prime_set for w in maps[v])]

    good_set = set(approx.good_vertices)
    if not good_set.issubset(v_dprime):
        # Good vertices carry (2*r0+1)-isomorphisms, which restrict to
        # r0-isomorphisms at the vertex and at each of its r0-neighbors.
        raise InternalInconsistency("a good vertex fell outside V''")
    return TransferInstance(
        phi=phi,
        psi=psi,
        approx=approx,
        r0=r0,
        r1=plan.r1,
        r2=plan.r2,
        epsilon=plan.epsilon,
        kernel_search_bound=plan.kernel_search_bound,
        v_prime=tuple(v_prime),
        v_dprime=tuple(v_dprime),
        maps=maps,
        ball_r0=ball_r0,
        ball_big_size=plan.ball_big_size,
    )


def build_bar_phi(inst: TransferInstance) -> FpMatrix:
    """Transplanted matrix of phi: rows indexed by V x d, columns by V' x d.

    The block in column v' at row vertex w is phi's coefficient at the ball
    element that w corresponds to in the chart at v'; blocks vanish outside
    the r0-neighborhood of v'.
    """
    phi = inst.phi
    d, p = phi.d, phi.p
    n = inst.vertex_count
    out = np.zeros((d * n, d * len(inst.v_prime)), dtype=np.int64)
    idx = inst.ball_r0.element_index
    for j, vp in enumerate(inst.v_prime):
        f = inst.maps[vp]
        for s, mat in phi.support.items():
            w = f[idx[s]]  # support lies in the r0 ball since r0 >= r1
            out[w * d : (w + 1) * d, j * d : (j + 1) * d] = mat.array
    return FpMatrix(out, p, _normalized=True)


def build_bar_psi(inst: TransferInstance) -> FpMatrix:
    """Transplanted matrix of psi: rows indexed by V' x d, columns by V'' x d."""
    if inst.psi is None:
        raise ValueError("psi is absent on this instance")
    psi = inst.psi
    group = psi.group
    d, p = psi.d, psi.p
    out = np.zeros((d * len(inst.v_prime), d * len(inst.v_dprime)), dtype=np.int64)
    idx = inst.ball_r0.element_index
    col_of = {v: m for m, v in enumerate(inst.v_dprime)}
    for j, vp in enumerate(inst.v_prime):
        f = inst.maps[vp]
        for s, mat in psi.support.items():
            # The (v', v'') block is psi's coefficient at s exactly when
            # v'' sits at ball position s^{-1} relative to v'.
            u = f[idx[group.inverse(s)]]
            m = col_of.get(u)
            if m is not None:
                out[j * d : (j + 1) * d, m * d : (m + 1) * d] = mat.array
    return FpMatrix(out, p, _normalized=True)


def verify_transfer_identity(
    inst: TransferInstance,
    bar_phi: Optional[FpMatrix] = None,
    bar_psi: Optional[FpMatrix] = None,
) -> bool:
    """Check that bar_phi * bar_psi restricted to V'' rows is the block identity.

    True exactly when for all v1, v2 in V'' the (v2, v1) block of the
    product is the d x d identity for v1 == v2 and zero otherwise.
    """
    if inst.psi is None:
        raise ValueError("psi is absent on this instance")
    if bar_phi is None:
        bar_phi = build_bar_phi(inst)
    if bar_psi is None:
        bar_psi = build_bar_psi(inst)
    prod = mat_mul(bar_phi, bar_psi).array
    d = inst.d
    eye = np.eye(d, dtype=np.int64)
    zero = np.zeros((d, d), dtype=np.int64)
    for a, v1 in enumerate(inst.v_dprime):
        col = prod[:, a * d : (a + 1) * d]
        for v2 in inst.v_dprime:
            block = col[v2 * d : (v2 + 1) * d, :]
            want = eye if v1 == v2 else zero
            if not np.array_equal(block, want):
                return False
    return True


@dataclass(eq=False)
class TransferReport:
    """Everything needed to replay and audit one experiment."""

    mode: str
    verdict: str
    group: str
    p: int
    d: int
    r0: int
    r1: int
    r2: Optional[int]
    kernel_search_bound: int
    epsilon: Fraction
    vertex_count: int
    good_count: int
    v_prime_count: int
    v_dprime_count: int
    ball_r0_size: int
    ball_big_size: int
    bar_phi_rank: Optional[int]
    lower_bound: Fraction
    upper_bound: Fraction
    identity_on_vpp: Optional[bool]
    local_rank_bound: Optional[int]
    per_v1_ranks: Optional[tuple[int, ...]]
    weiss: Optional[WeissSelection]
    torus_n: Optional[int]

    def to_json_dict(self) -> dict:
        from .exactfield import rational_to_json

        out = {
            "mode": self.mode,
            "verdict": self.verdict,
            "group": self.group,
            "p": self.p,
            "d": self.d,
            "r0": self.r0,
            "r1": self.r1,
            "r2": self.r2,
            "kernel_search_bound": self.kernel_search_bound,
            "epsilon": rational_to_json(self.epsilon),
            "vertex_count": self.vertex_count,
            "good_count": self.good_count,
            "v_prime_count": self.v_prime_count,
            "v_dprime_count": self.v_dprime_count,
            "ball_r0_size": self.ball_r0_size,
            "ball_big_size": self.ball_big_size,
            "bar_phi_rank": self.bar_phi_rank,
            "lower_bound": rational_to_json(self.lower_bound),
            "upper_bound": rational_to_json(self.upper_bound),
            "identity_on_vpp": self.identity_on_vpp,
            "local_rank_bound": self.local_rank_bound,
            "per_v1_ranks": list(self.per_v1_ranks) if self.per_v1_ranks is not None else None,
            "torus_n": self.torus_n,
        }
        if self.weiss is None:
            out["weiss"] = None
        else:
            out["weiss"] = {
                "v1": list(self.weiss.v1),
                "r0": self.weiss.r0,
                "density_bound": rational_to_json(self.weiss.density_bound),
                "achieved_density": rational_to_json(self.weiss.achieved_density),
                "min_pairwise_distance": self.weiss.min_pairwise_distance,
            }
        return out


def _report_base(inst: TransferInstance, mode: str, torus_n: Optional[int]) -> dict:
    d = inst.d
    n = inst.vertex_count
    return dict(
        mode=mode,
        group=inst.phi.group.describe(),
        p=inst.phi.p,
        d=d,
        r0=inst.r0,
        r1=inst.r1,
        r2=inst.r2,
        kernel_search_bound=inst.kernel_search_bound,
        epsilon=inst.epsilon,
        vertex_count=n,
        good_count=len(inst.approx.good_vertices),
        v_prime_count=len(inst.v_prime),
        v_dprime_count=len(inst.v_dprime),
        ball_r0_size=inst.ball_r0.size,
        ball_big_size=inst.ball_big_size,
        lower_bound=(1 - inst.epsilon) * n * d,
        upper_bound=Fraction(d * n) - Fraction(n, 2 * inst.ball_big_size),
        torus_n=torus_n,
    )


def lower_bound_check(inst: TransferInstance, torus_n: Optional[int] = None) -> TransferReport:
    """Verify the lower rank chain rank >= d|V''| >= d|V0| >= (1-eps)|V|d.

    Requires psi with a verified right inverse.  Every step is guaranteed
    by theory once the composition identity holds on V'', so any violation
    raises InternalInconsistency.
    """
    if inst.psi is None:
        raise ValueError("lower-bound check requires psi")
    if not check_right_inverse(inst.phi, inst.psi):
        raise CheckFailedError("psi is not a right inverse of phi")
    bar_phi = build_bar_phi(inst)
    bar_psi = build_bar_psi(inst)
    identity_ok = verify_transfer_identity(inst, bar_phi, bar_psi)
    if not identity_ok:
        raise InternalInconsistency("composition identity failed on V'' despite phi*psi = 1")
    rk = rank(bar_phi)
    d, n = inst.d, inst.vertex_count
    if rk < d * len(inst.v_dprime):
        raise InternalInconsistency(
            f"rank {rk} < d*|V''| = {d * len(inst.v_dprime)} despite the identity"
        )
    if len(inst.v_dprime) < len(inst.approx.good_vertices):
        raise InternalInconsistency("|V''| < |V0|")
    lower = (1 - inst.epsilon) * n * d
    if Fraction(d * len(inst.approx.good_vertices)) < lower:
        raise InternalInconsistency("d*|V0| fell below (1-eps)*|V|*d")
    base = _report_base(inst, "lower", torus_n)
    return TransferReport(
        verdict=LOWER_HOLDS,
        bar_phi_rank=rk,
        identity_on_vpp=identity_ok,
        local_rank_bound=None,
        per_v1_ranks=None,
        weiss=None,
        **base,
    )


def upper_bound_check(inst: TransferInstance, torus_n: Optional[int] = None) -> TransferReport:
    """Verify the upper rank chain for an element with a restricted kernel vector.

    Selects V1 by weiss_select on the instance's approximation, then checks
    in order: (a) for every selected vertex the column restriction of the
    transplanted matrix has rank <= d*|N_r0(B)| - 1; (b) the total rank is
    at most d|V| - |V| / (2|N_{2r0+1}(B)|); (c) strictly below (1-eps)|V|d.
    All three are theory-guaranteed, so failures raise
    InternalInconsistency.
    """
    if inst.r2 is None:
        raise ValueError("upper-bound check requires a kernel radius r2")
    weiss = weiss_select(inst.approx, inst.r0)
    d, n = inst.d, inst.vertex_count
    bar_phi = build_bar_phi(inst)
    rk = rank(bar_phi)

    col_of = {v: j for j, v in enumerate(inst.v_prime)}
    local_bound = d * inst.ball_r0.size - 1
    per_ranks = []
    for v in weiss.v1:
        cols = []
        for w in inst.maps[v]:  # the r0-neighborhood of v, all inside V'
            j = col_of[w]
            cols.extend(range(j * d, (j + 1) * d))
        sub = FpMatrix(bar_phi.array[:, cols], bar_phi.p, _normalized=True)
        r_local = rank(sub)
        per_ranks.append(r_local)
        if r_local > local_bound:
            raise InternalInconsistency(
                f"restricted rank {r_local} at vertex {v} exceeds {local_bound}"
            )

    upper = Fraction(d * n) - Fraction(n, 2 * inst.ball_big_size)
    if Fraction(rk) > upper:
        raise InternalInconsistency(f"rank {rk} exceeds the counting bound {upper}")
    strict = (1 - inst.epsilon) * n * d
    if not Fraction(rk) < strict:
        raise InternalInconsistency(f"rank {rk} not strictly below (1-eps)|V|d = {strict}")

    base = _report_base(inst, "upper", torus_n)
    return TransferReport(
        verdict=UPPER_HOLDS,
        bar_phi_rank=rk,
        identity_on_vpp=None,
        local_rank_bound=local_bound,
        per_v1_ranks=tuple(per_ranks),
        weiss=weiss,
        **base,
    )


def commutative_square_matrix(inst: TransferInstance, v: int) -> Optional[FpMatrix]:
    """Submatrix of bar_phi at v, pulled back through the ball charts.

    Takes the columns of the r0-neighborhood of v and the rows of its
    2*r0-neighborhood, reindexed by the rooted isomorphism at radius 2*r0.
    When v carries such an isomorphism the result equals
    restriction_matrix(phi, r0-ball, 2*r0-ball) entry for entry; returns
    None when v has no radius-2*r0 chart.
    """
    group = inst.phi.group
    ball_small = inst.ball_r0
    ball_large = cayley_ball(group, 2 * inst.r0)
    f = ball_isomorphism(inst.approx.graph, v, ball_large)
    if f is None:
        return None
    bar_phi = build_bar_phi(inst)
    d = inst.d
    col_of = {u: j for j, u in enumerate(inst.v_prime)}
    cols = []
    # Smaller balls are prefixes of larger ones, so position i in the small
    # ball is position i in the large one.
    for i in range(ball_small.size):
        j = col_of[f[i]]
        cols.extend(range(j * d, (j + 1) * d))
    rows = []
    for i in range(ball_large.size):
        w = f[i]
        rows.extend(range(w * d, (w + 1) * d))
    sub = bar_phi.array[np.ix_(rows, cols)]
    return FpMatrix(sub, bar_phi.p, _normalized=True)


def run_experiment(
    phi: GroupRingKernel,
    psi: Optional[GroupRingKernel],
    mode: str,
    torus_n: Optional[int] = None,
    max_kernel_search: Optional[int] = None,
    max_vertices: int = DEFAULT_MAX_VERTICES,
    max_ball_elements: int = DEFAULT_MAX_BALL_ELEMENTS,
) -> TransferReport:
    """Plan, build and check one experiment end to end.

    mode "lower" requires a verified right inverse, mode "upper" requires a
    discovered kernel radius, and mode "both" dispatches on whichever
    precondition holds, raising InternalInconsistency if ever both do (the
    exclusion at the heart of the rank argument).  For Z^k the torus side
    length defaults to the smallest valid choice 2*(2*r0+1) + 2.
    """
    if mode not in ("lower", "upper", "both"):
        raise ValueError(f"unknown mode {mode!r}")
    group = phi.group
    plan = plan_instance(
        phi, psi, max_kernel_search=max_kernel_search, max_ball_elements=max_ball_elements
    )
    radius = 2 * plan.r0 + 1
    if isinstance(group, FreeAbelian):
        n = torus_n if torus_n is not None else 2 * radius + 2
        if n < 2 * radius + 2:
            raise ApproximationTooCoarse(
                f"torus side {n} cannot support verification radius {radius}; "
                f"need n >= {2 * radius + 2}"
            )
        torus_n = n
        approx = torus_approximation(
            group.rank, n, radius, max_vertices=max_vertices, max_ball_elements=max_ball_elements
        )
    elif isinstance(group, FiniteByTable):
        approx = finite_group_approximation(group, radius, max_ball_elements=max_ball_elements)
        torus_n = None
    else:
        raise ValueError(f"no approximation builder for group {group.describe()}")
    inst = build_instance(phi, psi, approx, plan=plan, max_ball_elements=max_ball_elements)

    has_rinv = psi is not None and check_right_inverse(phi, psi)
    has_kernel = inst.r2 is not None
    if has_rinv and has_kernel:
        raise InternalInconsistency(
            "element has both a verified right inverse and a restricted kernel vector"
        )

    if mode == "lower" or (mode == "both" and has_rinv):
        if not has_rinv:
            raise CheckFailedError("lower mode requires psi with phi o psi = identity")
        report = lower_bound_check(inst, torus_n=torus_n)
        report.mode = mode
        return report
    if mode == "upper" or (mode == "both" and has_kernel):
        if not has_kernel:
            raise KernelSearchExhausted(
                f"no kernel vector found up to radius {inst.kernel_search_bound}; "
                "upper mode cannot run"
            )
        report = upper_bound_check(inst, torus_n=torus_n)
        report.mode = mode
        return report

    # mode == "both" with neither precondition: report the parameters only.
    base = _report_base(inst, "both", torus_n)
    identity_flag = None
    if psi is not None:
        identity_flag = verify_transfer_identity(inst)
    return TransferReport(
        verdict=NEITHER,
        bar_phi_rank=rank(build_bar_phi(inst)),
        identity_on_vpp=identity_flag,
        local_rank_bound=None,
        per_v1_ranks=None,
        weiss=None,
        **base,
    )
