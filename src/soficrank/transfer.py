"""Rank-counting transfer of group-ring elements onto approximation graphs.

Given an element phi of Mat_d(F_p[G]) (optionally with a candidate right
inverse psi) and a sofic approximation of G, this module:

  * selects the radii r1 (combined supports), r2 (smallest ball with a
    nonzero restricted kernel, when one is found; none, with no search,
    when psi is a left inverse of phi) and r0 = max(r1, r2),
    plus an exact rational tolerance epsilon < 1/(2 * d * |N_{2r0+1}(B)|);
  * scans the graph for the vertex sets V' (vertices whose r0-neighborhood
    is ball-isomorphic) and V'' (vertices of V' all of whose r0-neighbors
    are in V'), taking the charts of good vertices from the approximation's
    verified chart array and charting the rest in one label walk;
  * transplants phi through those isomorphisms into a sparse block matrix
    over the graph, read off the charts;
  * verifies the composition identity on V'' x V'' block by block from
    the charts and evaluates both sides of the rank-counting argument with
    exact integer and rational arithmetic, eliminating (sparsely) only the
    ranks the charts leave open.

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

from .digraph import ball_charts
from .errors import (
    ApproximationTooCoarse,
    CardinalityViolation,
    CheckFailedError,
    InternalInconsistency,
    KernelSearchExhausted,
)
from .exactfield import FpMatrix, FpSparse, rank
from .groupring import (
    GroupRingKernel,
    check_right_inverse,
    compose,
    kernel_radius,
    kernel_search_top,
    support_data,
    support_walk,
    transplant,
)
from .groups import CayleyBall, cayley_ball
from .limits import DEFAULT_MAX_BALL_ELEMENTS, DEFAULT_MAX_VERTICES, default_kernel_search_bound
from .sofic import SoficApproximation, quotient_approximation
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
    """Compute r1, r2, r0 and epsilon for the given element(s).

    r2 comes from kernel_radius, except when psi is given and is a left
    inverse of phi, compose(psi, phi) being the identity: then r2 is None
    and no search runs.  That is exact, not a guess.  compose(a, b) is the
    kernel of a o b, and restriction_matrix(c, ...) is the operator M_c
    whose block at (g2, g1) is c(g1^{-1} g2), so psi o phi = 1 gives
    M_psi M_phi = id on finitely supported vectors, and no x != 0 has
    M_phi x = 0 within any ball.  phi o psi = 1 alone proves nothing here:
    that it forces psi o phi = 1 is the paper's theorem itself, which the
    rank chains only illustrate, so a right inverse still searches.
    """
    _, r1 = support_data(phi, psi)
    rs = phi.support_radius()
    bound = max_kernel_search if max_kernel_search is not None else default_kernel_search_bound(rs)
    searches = psi is None or not compose(psi, phi).is_identity()
    # The largest ball first, so that the search's balls and ball_big, unless r2 outgrows it, are its prefixes.
    first = max(2 * r1 + 1, kernel_search_top(phi, bound) + rs) if searches else 2 * r1 + 1
    cayley_ball(phi.group, first, max_elements=max_ball_elements)
    r2 = kernel_radius(phi, bound, max_ball_elements=max_ball_elements) if searches else None
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
    plan: InstancePlan
    v_prime: np.ndarray  # V' and V'', each sorted, read-only int64, like approx.good_vertices
    v_dprime: np.ndarray
    charts: np.ndarray  # row k: ball_r0 position -> graph vertex, at v_prime[k]; the approximation's width
    ball_r0: CayleyBall
    has_right_inverse: bool  # psi is given and phi * psi = 1

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
    plan: InstancePlan,
) -> TransferInstance:
    """Derive V', V'' and the per-vertex isomorphisms for plan's radii and tolerance.

    The approximation must be verified at radius >= 2*r0 + 1
    (ApproximationTooCoarse otherwise) and its good set must be large
    enough for the instance's own epsilon (CardinalityViolation otherwise).
    The radius-r0 ball is cut from the approximation's ball, and the
    r0-chart of a good vertex is the prefix of its verified chart over it,
    so only vertices outside the good set are charted here, all in one
    label walk.  Whether psi is a right inverse of phi is checked here,
    once per instance; an incompatible psi raises in that check.
    """
    if approx.group != phi.group:
        raise ValueError("approximation and element groups differ")
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

    ball_r0 = approx.ball.prefix(r0)
    good = approx.good_vertices
    in_v_prime = np.zeros(n, dtype=bool)
    in_v_prime[good] = True
    others = np.flatnonzero(~in_v_prime)
    # With every vertex good, V' = V0 and the verified prefix, a read-only view, is already aligned to it.
    charts = approx.charts[:, : ball_r0.size]
    if others.size:
        full = np.empty((n, ball_r0.size), dtype=charts.dtype)
        full[good] = charts
        full[others], in_v_prime[others] = ball_charts(approx.graph, others, ball_r0)
        charts = full[in_v_prime]
        charts.flags.writeable = False
    v_prime = np.flatnonzero(in_v_prime)
    in_v_dprime = np.zeros(n, dtype=bool)
    in_v_dprime[v_prime] = in_v_prime[charts].all(axis=1)
    v_dprime = np.flatnonzero(in_v_dprime)
    v_prime.flags.writeable = v_dprime.flags.writeable = False

    outside = good[~in_v_dprime[good]]
    if outside.size:
        # Good vertices carry (2*r0+1)-isomorphisms, which restrict to
        # r0-isomorphisms at the vertex and at each of its r0-neighbors.
        raise InternalInconsistency(f"good vertex {outside[0]} fell outside V''")
    return TransferInstance(
        phi=phi,
        psi=psi,
        approx=approx,
        plan=plan,
        v_prime=v_prime,
        v_dprime=v_dprime,
        charts=charts,
        ball_r0=ball_r0,
        has_right_inverse=psi is not None and check_right_inverse(phi, psi),
    )


def sparse_bar_phi(inst: TransferInstance) -> FpSparse:
    """Transplanted matrix of phi: rows indexed by V x d, columns by V' x d.

    The block in column v' at row vertex w is phi's coefficient at the ball
    element that w corresponds to in the chart at v'; blocks vanish outside
    the r0-neighborhood of v'.  So column v' holds phi_s at row vertex
    charts[v', idx[s]] for each s in supp phi, and nothing else.
    """
    # support lies in the r0 ball since r0 >= r1
    return transplant(inst.phi, inst.charts, inst.ball_r0, inst.vertex_count)


def build_bar_phi(inst: TransferInstance) -> FpMatrix:
    """Dense form of sparse_bar_phi.

    No verdict path builds it; it stays as the dense reference that tests
    compare against, and the benchmark's tracer (bench/spans.py) wraps it
    by name.
    """
    return sparse_bar_phi(inst).dense()


def build_bar_psi(inst: TransferInstance) -> FpMatrix:
    """Transplanted matrix of psi: rows indexed by V' x d, columns by V'' x d.

    No verdict path builds it: verify_transfer_identity sums the product's
    blocks straight from the charts.  It stays as the dense reference that
    tests compare that check against, and the benchmark's tracer
    (bench/spans.py) wraps it by name.
    """
    if inst.psi is None:
        raise ValueError("psi is absent on this instance")
    psi, d = inst.psi, inst.d
    out = np.zeros((d * len(inst.v_prime), d * len(inst.v_dprime)), dtype=np.int64)
    idx = inst.ball_r0.element_index
    col_of = {v: m for m, v in enumerate(inst.v_dprime.tolist())}
    for j, f in enumerate(inst.charts.tolist()):
        for s, mat in zip(psi.support, psi.coeffs):
            # The (v', v'') block is psi's coefficient at s exactly when
            # v'' sits at ball position s^{-1} relative to v'.
            u = f[idx[psi.group.inverse(s)]]
            m = col_of.get(u)
            if m is not None:
                out[j * d : (j + 1) * d, m * d : (m + 1) * d] = mat
    return FpMatrix(out, psi.p)


def verify_transfer_identity(inst: TransferInstance) -> bool:
    """Check that bar_phi * bar_psi restricted to V'' x V'' is the block identity.

    Sums the (v2, v1) blocks of the product for v1, v2 in V'' from the
    charts, joining the two factors on their shared V' index: at v' the
    psi block is psi_s when v1 sits at ball position s^{-1}, and the phi
    block is phi_t when v2 sits at position t.  Each (v', t, s) with both
    in V'' is a term phi_t psi_s of the block keyed v2*|V| + v1
    (_pair_keys).  The terms are sorted by key once, each carrying the
    code t*|supp psi| + s of its product, and the d^2 entries of the blocks
    are summed over the sorted codes packed into int64 words, one 1-D
    np.add.reduceat per word.  With m the most terms one key collects, a
    block entry sums at most m (p - 1), so it gets a field of
    bits = (m (p - 1)).bit_length() bits and a word holds 63 // bits
    fields, none of which carries into the next; each field is shifted
    out and reduced mod p on its own.  True exactly when every diagonal
    block is the d x d identity and every other block is zero.
    """
    if inst.psi is None:
        raise ValueError("psi is absent on this instance")
    phi, psi, p = inst.phi, inst.psi, inst.phi.p
    n, idx = inst.vertex_count, inst.ball_r0.element_index
    in_vpp = np.zeros(n, dtype=bool)
    in_vpp[inst.v_dprime] = True
    v2 = inst.charts[:, [idx[t] for t in phi.support]]  # [v', t]
    v1 = inst.charts[:, [idx[psi.group.inverse(s)] for s in psi.support]]  # [v', s]
    term = in_vpp[v2][:, :, None] & in_vpp[v1][:, None, :]  # [v', t, s]
    pairs = v2.shape[1] * v1.shape[1]
    codes = np.arange(pairs, dtype=np.min_scalar_type(max(pairs - 1, 0))).reshape(v2.shape[1], -1)
    keys = _pair_keys(v2, v1, n)[term]
    order = np.argsort(keys)
    keys, codes = keys[order], np.broadcast_to(codes, term.shape)[term][order]
    del term, order
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    start = np.flatnonzero(first)
    found = keys[start]
    diagonal = found // n == found % n
    largest = int(np.diff(start, append=keys.size).max(initial=0))
    del keys, first  # the entry sums read only the codes and the group starts
    if int(np.count_nonzero(diagonal)) != len(inst.v_dprime):
        return False
    entries = inst.d**2
    # products[a * d + c, code] is entry (a, c) of phi_t psi_s; a == c exactly when d + 1 divides a * d + c
    products = np.einsum("tab,sbc->acts", phi.coeffs, psi.coeffs).reshape(entries, -1) % p
    bits = max(largest * (p - 1), 1).bit_length()
    fields, mask = 63 // bits, (1 << bits) - 1
    for lo in range(0, entries, fields):
        shifts = np.arange(min(fields, entries - lo), dtype=np.int64) * bits
        packed = (products[lo : lo + shifts.size] << shifts[:, None]).sum(axis=0)
        sums = np.add.reduceat(packed[codes], start)
        for entry, shift in enumerate(shifts.tolist(), lo):
            field = sums >> shift
            field &= mask
            field %= p
            if (field != (diagonal if entry % (inst.d + 1) == 0 else 0)).any():
                return False
    return True


def _pair_keys(v2: np.ndarray, v1: np.ndarray, n: int) -> np.ndarray:
    """The int64 block keys v2*n + v1, [v', t, s], of chart columns v2 [v', t] and v1 [v', s] of any width."""
    return v2.astype(np.int64)[:, :, None] * n + v1[:, None, :]


@dataclass(eq=False)
class TransferReport:
    """Everything needed to replay and audit one experiment.

    The chain-specific results are None where the experiment's chain does
    not produce them.
    """

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
    lower_bound: Fraction
    upper_bound: Fraction
    torus_n: Optional[int]
    bar_phi_rank: Optional[int] = None
    identity_on_vpp: Optional[bool] = None
    local_rank_bound: Optional[int] = None
    per_v1_ranks: Optional[tuple[int, ...]] = None
    weiss: Optional[WeissSelection] = None


def _report(inst: TransferInstance, mode: str, verdict: str, **chain) -> TransferReport:
    """The instance's plan, sizes and quotient side with both bounds, plus the chain's own results."""
    d, n, plan = inst.d, inst.vertex_count, inst.plan
    return TransferReport(
        mode=mode,
        verdict=verdict,
        group=inst.phi.group.describe(),
        p=inst.phi.p,
        d=d,
        vertex_count=n,
        good_count=len(inst.approx.good_vertices),
        v_prime_count=len(inst.v_prime),
        v_dprime_count=len(inst.v_dprime),
        ball_r0_size=inst.ball_r0.size,
        lower_bound=(1 - plan.epsilon) * n * d,
        upper_bound=Fraction(d * n) - Fraction(n, 2 * plan.ball_big_size),
        torus_n=inst.approx.side,
        **vars(plan),
        **chain,
    )


def lower_bound_check(inst: TransferInstance) -> TransferReport:
    """Verify the lower rank chain rank >= d|V''| >= d|V0| >= (1-eps)|V|d.

    Requires psi with a verified right inverse (CheckFailedError
    otherwise).  Every step is guaranteed by theory once the composition
    identity holds on V'', so any violation raises InternalInconsistency.
    When V'' = V' the identity forces the rank to d|V'|, and bar_phi is
    neither built nor eliminated.
    """
    if not inst.has_right_inverse:  # also when psi is absent
        raise CheckFailedError("lower mode requires psi with phi o psi = identity")
    if not verify_transfer_identity(inst):
        raise InternalInconsistency("composition identity failed on V'' despite phi*psi = 1")
    d = inst.d
    if len(inst.v_dprime) == len(inst.v_prime):
        # The identity gives rank >= d|V''|, and bar_phi has only d|V'| columns.
        rk = d * len(inst.v_prime)
    else:
        rk = rank(sparse_bar_phi(inst))
    if rk < d * len(inst.v_dprime):
        raise InternalInconsistency(
            f"rank {rk} < d*|V''| = {d * len(inst.v_dprime)} despite the identity"
        )
    v0 = len(inst.approx.good_vertices)
    if len(inst.v_dprime) < v0:
        raise InternalInconsistency(f"|V''| = {len(inst.v_dprime)} < |V0| = {v0}")
    report = _report(inst, "lower", LOWER_HOLDS, bar_phi_rank=rk, identity_on_vpp=True)
    if Fraction(d * v0) < report.lower_bound:
        raise InternalInconsistency(f"d*|V0| = {d * v0} fell below (1-eps)*|V|*d = {report.lower_bound}")
    return report


def upper_bound_check(inst: TransferInstance) -> TransferReport:
    """Verify the upper rank chain for an element with a restricted kernel vector.

    Requires a kernel radius r2 (KernelSearchExhausted otherwise).  Selects
    V1 by weiss_select on the instance's approximation, then checks in
    order: (a) every selected vertex's column slice, one shared ball
    restriction by check_local_slices, has rank <= d*|N_r0(B)| - 1; (b) the
    total rank is at most d|V| - |V| / (2|N_{2r0+1}(B)|); (c) strictly below
    (1-eps)|V|d.  All three are theory-guaranteed, so failures raise
    InternalInconsistency.
    """
    if inst.plan.r2 is None:
        raise KernelSearchExhausted(
            f"no kernel vector found up to radius {inst.plan.kernel_search_bound}; upper mode cannot run"
        )
    weiss = weiss_select(inst.approx, inst.plan.r0)
    rk = rank(sparse_bar_phi(inst))
    r_local = rank(check_local_slices(inst, weiss.v1))
    local_bound = inst.d * inst.ball_r0.size - 1
    if r_local > local_bound:
        raise InternalInconsistency(f"rank {r_local} of phi on N_r0 exceeds d|N_r0| - 1 = {local_bound}")

    report = _report(
        inst, "upper", UPPER_HOLDS, bar_phi_rank=rk, local_rank_bound=local_bound,
        per_v1_ranks=(r_local,) * len(weiss.v1), weiss=weiss,
    )
    if Fraction(rk) > report.upper_bound:
        raise InternalInconsistency(f"rank {rk} exceeds the counting bound {report.upper_bound}")
    if not Fraction(rk) < report.lower_bound:
        raise InternalInconsistency(
            f"rank {rk} not strictly below (1-eps)|V|d = {report.lower_bound}"
        )
    return report


def check_local_slices(inst: TransferInstance, v1) -> FpSparse:
    """Check from the charts that bar_phi's slice at each v in v1 is one restriction; return it.

    Each v in v1 is good, with verified chart f over the approximation's
    ball.  The slice at v has the columns of the vertices f(g), g in N_r0,
    and the column of u holds phi_s in the row of u's own chart at s.  The
    support walk (support_walk) from each g in N_r0 finds every g s.  When
    that row is f(g s) for every g and every s in supp phi, the slice
    is the transplant of phi over that walk, restriction_matrix(phi, r0,
    ball.radius), with rows permuted by the injective f, plus zero rows, so
    all slices share its rank.  A mismatch raises InternalInconsistency.
    """
    approx, ball, small, phi = inst.approx, inst.approx.ball, inst.ball_r0, inst.phi
    # walk[g, i] is the ball position of g*s_i for g in N_r0 and s_i in N_rs; N_{2r0} lies in the ball
    walk, support_ball = support_walk(phi, ball, small.size)
    at_s = np.array([support_ball.element_index[s] for s in phi.support], dtype=np.int64)
    # good vertices and V' are sorted, and v1 lies in the one, their r0-neighbors in the other
    f = approx.charts[np.searchsorted(approx.good_vertices, v1)]
    got = inst.charts[np.searchsorted(inst.v_prime, f[:, : small.size, None]), at_s]  # [v, g, s]
    want = f[:, walk[:, at_s]]
    mismatch = got != want
    if mismatch.any():  # argwhere of an N-d mask is slow, so only on a mismatch
        k, i, j = np.argwhere(mismatch)[0].tolist()
        fmt = phi.group.format_element
        g, s, gs = small.elements[i], phi.support[j], ball.elements[walk[i, at_s[j]]]
        raise InternalInconsistency(
            f"Weiss pick {v1[k]}: the column of vertex {f[k, i]} (ball position {i}, element "
            f"{fmt(g)}) holds phi's coefficient at {fmt(s)} in the row of vertex {got[k, i, j]}, "
            f"but the pick's chart puts {fmt(gs)} at vertex {want[k, i, j]}"
        )
    return transplant(phi, walk, support_ball, ball.size)


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

    mode "lower" runs lower_bound_check and mode "upper" upper_bound_check,
    each of which checks its own precondition; mode "both" dispatches on
    whichever precondition holds, raising InternalInconsistency if ever both
    do (the exclusion at the heart of the rank argument).  The approximation
    is the group's quotient at radius 2*r0+1 (quotient_approximation): for
    Z^k a torus whose side torus_n defaults to the smallest valid choice
    2*(2*r0+1) + 2 and is rejected when smaller.
    """
    if mode not in ("lower", "upper", "both"):
        raise ValueError(f"unknown mode {mode!r}")
    plan = plan_instance(
        phi, psi, max_kernel_search=max_kernel_search, max_ball_elements=max_ball_elements
    )
    approx = quotient_approximation(
        phi.group, 2 * plan.r0 + 1, torus_n, max_vertices=max_vertices, max_ball_elements=max_ball_elements
    )
    inst = build_instance(phi, psi, approx, plan=plan)

    has_rinv = inst.has_right_inverse
    has_kernel = plan.r2 is not None
    if has_rinv and has_kernel:
        raise InternalInconsistency(
            "element has both a verified right inverse and a restricted kernel vector"
        )

    if mode == "lower" or (mode == "both" and has_rinv):
        report = lower_bound_check(inst)
    elif mode == "upper" or (mode == "both" and has_kernel):
        report = upper_bound_check(inst)
    else:  # mode "both" with neither precondition: report the parameters only
        report = _report(
            inst, mode, NEITHER,
            bar_phi_rank=rank(sparse_bar_phi(inst)),
            identity_on_vpp=verify_transfer_identity(inst) if psi is not None else None,
        )
    report.mode = mode
    return report
