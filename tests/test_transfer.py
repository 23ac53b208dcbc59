import dataclasses
import gc
import random
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from oracles import ball_isomorphism, commutative_square_matrix, cyclic_group, dense_rank, json_value, slice_ranks
from test_groups import assert_same_ball
from soficrank.cli import parse_instance_file
from soficrank.corpus import random_invertible_pair
from soficrank.digraph import LabeledDigraph, ball_charts, label_walk
from soficrank.errors import (
    ApproximationTooCoarse,
    CheckFailedError,
    InternalInconsistency,
    KernelSearchExhausted,
)
from soficrank.exactfield import MAX_MODULUS, FpMatrix, is_prime, json_text, mat_mul, rank
from soficrank import digraph, exactfield, groups, sofic, transfer, weiss
from soficrank.groupring import (
    GroupRingKernel,
    check_right_inverse,
    compose,
    kernel_radius,
    restriction_matrix,
)
from soficrank.groups import FreeAbelian, cayley_ball, read_finite_group_file
from soficrank.limits import default_kernel_search_bound
from soficrank.sofic import quotient_approximation, torus_approximation, verify_approximation
from soficrank.transfer import (
    LOWER_HOLDS,
    NEITHER,
    UPPER_HOLDS,
    build_bar_phi,
    build_bar_psi,
    build_instance,
    check_local_slices,
    choose_epsilon,
    lower_bound_check,
    plan_instance,
    run_experiment,
    sparse_bar_phi,
    upper_bound_check,
    verify_transfer_identity,
)

Z1 = FreeAbelian(1)
S3 = read_finite_group_file(Path(__file__).parent / "data" / "golden" / "s3.table")


def instance(phi, psi, approx):
    """build_instance with the pair's own plan."""
    return build_instance(phi, psi, approx, plan_instance(phi, psi))


def scalar_kernel(group, p, terms):
    return GroupRingKernel(group, 1, p, {g: FpMatrix([[c]], p) for g, c in terms.items()})


def involution():
    eye = FpMatrix.identity(2, 2)
    off = FpMatrix([[0, 1], [0, 0]], 2)
    return GroupRingKernel(Z1, 2, 2, {(0,): eye, (1,): off})


def singular_diag():
    return GroupRingKernel(Z1, 2, 2, {(0,): FpMatrix([[1, 0], [0, 0]], 2)})


class TestChooseEpsilon:
    def test_examples(self):
        assert choose_epsilon(1, 7) == Fraction(1, 15)
        assert choose_epsilon(1, 1) == Fraction(1, 3)
        assert choose_epsilon(3, 5) == Fraction(1, 31)

    def test_strictly_below_bound(self):
        for d in (1, 2, 3):
            for size in (1, 5, 11):
                assert choose_epsilon(d, size) < Fraction(1, 2 * d * size)


class TestPlanAndInstance:
    def test_identity_pair_plan(self):
        ident = GroupRingKernel.identity(Z1, 1, 2)
        plan = plan_instance(ident, ident)
        assert (plan.r1, plan.r2, plan.r0) == (1, None, 1)

    def test_singular_plan(self):
        plan = plan_instance(singular_diag())
        assert (plan.r1, plan.r2, plan.r0) == (1, 1, 1)

    def test_support_radius_one_pair_needs_radius_five(self):
        phi = scalar_kernel(Z1, 2, {(0,): 1, (1,): 1})
        psi = scalar_kernel(Z1, 2, {(0,): 1, (-1,): 1})
        plan = plan_instance(phi, psi)
        assert plan.r1 == 2
        assert plan.r0 == 2  # so the approximation must be verified at radius 5

    def test_identity_instance_on_c8(self):
        ident = GroupRingKernel.identity(Z1, 1, 2)
        approx = torus_approximation(Z1, 8, 3)
        inst = instance(ident, ident, approx)
        assert inst.plan.r0 == 1
        assert inst.v_prime == tuple(range(8))
        assert inst.v_dprime == tuple(range(8))

    def test_too_coarse_rejected(self):
        x = involution()  # r0 = 2, needs approximation radius 5
        approx = torus_approximation(Z1, 12, 3)
        with pytest.raises(ApproximationTooCoarse):
            instance(x, x, approx)


class TestLeftInverseSettlesKernel:
    """A psi with psi o phi = 1 sets r2 to None without a search; anything else still searches."""

    @given(st.sampled_from([Z1, FreeAbelian(2), S3]), st.integers(1, 2), st.sampled_from([2, 3]), st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_invertible_pair_skips_the_search(self, group, d, p, seed):
        x, y = random_invertible_pair(random.Random(seed), group, d, p, max_factors=3)

        def refuse(*args, **kwargs):
            raise AssertionError("kernel_radius ran for an element with a left inverse")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(transfer, "kernel_radius", refuse)
            plan = plan_instance(x, y)
        assert plan.r2 is None
        assert plan.r0 == plan.r1
        # The search it skips would have found nothing either.
        assert kernel_radius(x, default_kernel_search_bound(x.support_radius())) is None

    @pytest.mark.parametrize(
        "phi, psi",
        [
            (singular_diag(), None),
            (singular_diag(), GroupRingKernel.identity(Z1, 2, 2)),  # psi o phi = phi != 1
            (involution(), None),
            (involution(), GroupRingKernel.zero(Z1, 2, 2)),
        ],
        ids=["singular-no-psi", "singular-identity-psi", "invertible-no-psi", "invertible-zero-psi"],
    )
    def test_other_elements_still_search(self, monkeypatch, phi, psi):
        bound = default_kernel_search_bound(phi.support_radius())
        expected = kernel_radius(phi, bound)
        calls = []

        def counting(phi, bound, **kwargs):
            calls.append((phi, bound))
            return kernel_radius(phi, bound, **kwargs)

        monkeypatch.setattr(transfer, "kernel_radius", counting)
        assert plan_instance(phi, psi).r2 == expected
        assert calls == [(phi, bound)]

    def test_run_experiment_keeps_the_exclusion_check(self, monkeypatch):
        # A left inverse settles r2 only in the plan: a kernel reported anyway still trips the check.
        monkeypatch.setattr(transfer, "compose", lambda a, b: GroupRingKernel.zero(a.group, a.d, a.p))
        monkeypatch.setattr(transfer, "kernel_radius", lambda *args, **kwargs: 1)
        with pytest.raises(InternalInconsistency, match="both a verified right inverse and a restricted kernel"):
            run_experiment(involution(), involution(), "both")


class TestIncompatiblePsi:
    """plan_instance rejects a psi over another group or with other d or p; given a plan, the right-inverse check does."""

    CASES = [
        (GroupRingKernel.identity(FreeAbelian(2), 2, 2), r"^kernels live over different groups$"),
        (GroupRingKernel.identity(Z1, 1, 3), r"^kernel parameters differ: d=2,p=2 vs d=1,p=3$"),
    ]

    @pytest.mark.parametrize("psi, message", CASES)
    def test_plan_instance(self, psi, message):
        with pytest.raises(ValueError, match=message):
            plan_instance(involution(), psi)

    @pytest.mark.parametrize("psi, message", CASES)
    def test_build_instance_with_plan(self, psi, message):
        x = involution()
        plan = plan_instance(x)
        approx = quotient_approximation(Z1, 2 * plan.r0 + 1)
        with pytest.raises(ValueError, match=message):
            build_instance(x, psi, approx, plan=plan)


class TestBarMatrices:
    def test_identity_bar_phi_is_block_identity(self):
        ident = GroupRingKernel.identity(Z1, 1, 2)
        approx = torus_approximation(Z1, 8, 3)
        inst = instance(ident, ident, approx)
        bar = build_bar_phi(inst)
        assert bar == FpMatrix.identity(8, 2)
        assert build_bar_psi(inst) == FpMatrix.identity(8, 2)

    def test_one_plus_t_bar_phi_is_circulant(self):
        phi = scalar_kernel(Z1, 2, {(0,): 1, (1,): 1})
        psi = scalar_kernel(Z1, 2, {(0,): 1, (1,): 1})
        approx = torus_approximation(Z1, 12, 5)
        inst = instance(phi, psi, approx)
        bar = build_bar_phi(inst)
        n = 12
        expected = np.zeros((n, n), dtype=np.int64)
        for v in range(n):
            expected[v, v] = 1
            expected[(v + 1) % n, v] = 1
        assert np.array_equal(bar.array, expected)

    def test_zero_phi_bar_is_zero(self):
        zero = GroupRingKernel.zero(Z1, 2, 2)
        approx = torus_approximation(Z1, 8, 3)
        inst = instance(zero, None, approx)
        assert build_bar_phi(inst).is_zero()

    def test_bar_psi_requires_psi(self):
        approx = torus_approximation(Z1, 8, 3)
        inst = instance(GroupRingKernel.identity(Z1, 1, 2), None, approx)
        with pytest.raises(ValueError):
            build_bar_psi(inst)


class TestTransferIdentity:
    def test_identity_pair(self):
        ident = GroupRingKernel.identity(Z1, 1, 2)
        approx = torus_approximation(Z1, 8, 3)
        inst = instance(ident, ident, approx)
        assert verify_transfer_identity(inst)

    def test_involution_pair(self):
        x = involution()
        approx = torus_approximation(Z1, 12, 5)
        inst = instance(x, x, approx)
        assert verify_transfer_identity(inst)

    def test_failure_when_not_right_inverse(self):
        phi = scalar_kernel(Z1, 2, {(0,): 1, (1,): 1})
        approx = torus_approximation(Z1, 12, 5)
        inst = instance(phi, phi, approx)
        assert not verify_transfer_identity(inst)


def test_pair_keys_past_int32():
    # v2 * |V| + v1 from int32 chart columns on 2^31 vertices; no graph is built
    v2 = np.array([[2**31 - 1, 7]], dtype=np.int32)
    v1 = np.array([[2**31 - 2, 0, 1]], dtype=np.int32)
    keys = transfer._pair_keys(v2, v1, 2**31)
    assert keys.shape == (1, 2, 3)
    assert keys.tolist() == [[[a * 2**31 + b for b in v1[0].tolist()] for a in v2[0].tolist()]]


def test_identity_check_memory_bound():
    """The identity check peaks below 100 bytes per (v', t, s) term on a torus instance."""
    phi, psi = random_invertible_pair(random.Random(10), FreeAbelian(2), 3, 3)
    inst = smallest_instance(phi, psi)
    terms = len(inst.v_prime) * len(phi.support) * len(psi.support)
    tracemalloc.start()
    try:
        holds = verify_transfer_identity(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert holds and inst.v_dprime == inst.v_prime and terms >= 10**4
    assert peak < 100 * terms


def dense_identity_on_vpp(inst):
    """Reference check: the V'' rows of the dense bar_phi * bar_psi against the block identity."""
    d = inst.d
    prod = mat_mul(build_bar_phi(inst), build_bar_psi(inst)).array
    rows = [w * d + k for w in inst.v_dprime for k in range(d)]
    return np.array_equal(prod[rows, :], np.eye(len(rows), dtype=np.int64))


def smallest_instance(phi, psi):
    """Instance on the smallest torus, or the full Cayley graph, that the pair's plan allows."""
    plan = plan_instance(phi, psi)
    return build_instance(phi, psi, quotient_approximation(phi.group, 2 * plan.r0 + 1), plan=plan)


def open_path_instance(phi, psi, n):
    """Instance on the open Z^1 path of n vertices, good set = vertices charted at radius 2*r0+1."""
    plan = plan_instance(phi, psi)
    graph = open_path(n)
    big = cayley_ball(Z1, 2 * plan.r0 + 1)
    good = [v for v in range(n) if ball_isomorphism(graph, v, big) is not None]
    approx = verify_approximation(graph, good, plan.epsilon, big.radius, Z1)
    return build_instance(phi, psi, approx, plan=plan)


def z2_unipotent_pair():
    """I + E12 t^(1,0) and its inverse I - E12 t^(1,0) over F_3."""
    Z2 = FreeAbelian(2)
    eye = FpMatrix.identity(2, 3)
    phi = GroupRingKernel(Z2, 2, 3, {(0, 0): eye, (1, 0): FpMatrix([[0, 1], [0, 0]], 3)})
    psi = GroupRingKernel(Z2, 2, 3, {(0, 0): eye, (1, 0): FpMatrix([[0, 2], [0, 0]], 3)})
    return phi, psi


def s3_involution():
    x = parse_instance_file(Path(__file__).parent / "data" / "golden" / "s3.ring").elements["x"]
    return x, x


def open_path_involution():
    """The involution pair on an open path: V'' is a proper subset of V', and the
    product's blocks cancel to the identity on V'' but not next to the ends."""
    inst = open_path_instance(involution(), involution(), 450)  # eps = 1/45, 10 bad vertices
    assert set(inst.v_dprime) < set(inst.v_prime)
    return inst


def large_prime_transvection():
    """I + N t and I - N t over the largest prime p <= MAX_MODULUS, N = u v^T with v^T u = 0.

    N's entries are near p, so the block product N (-N), zero mod p, has
    entries near 2 p^2 ~ 2^41 before reduction.
    """
    p = 1048573
    assert is_prime(p) and not any(is_prime(q) for q in range(p + 1, MAX_MODULUS + 1))
    u, v = (3, 524287), (524287, -3)
    nil = [[a * b for b in v] for a in u]
    eye = FpMatrix.identity(2, p)
    phi = GroupRingKernel(Z1, 2, p, {(0,): eye, (1,): FpMatrix(nil, p)})
    psi = GroupRingKernel(Z1, 2, p, {(0,): eye, (1,): FpMatrix([[-x for x in row] for row in nil], p)})
    assert int(FpMatrix(nil, p).array.max()) > p // 2
    return phi, psi


ORACLE_CASES = {
    "z1-torus-involution": (lambda: smallest_instance(involution(), involution()), True),
    "z2-torus-unipotent": (lambda: smallest_instance(*z2_unipotent_pair()), True),
    "s3-involution": (lambda: smallest_instance(*s3_involution()), True),
    "z1-open-path-involution": (open_path_involution, True),
    "z1-large-prime-transvection": (lambda: smallest_instance(*large_prime_transvection()), True),
    "off-diagonal-1+t": (
        lambda: smallest_instance(
            scalar_kernel(Z1, 2, {(0,): 1, (1,): 1}), scalar_kernel(Z1, 2, {(0,): 1, (1,): 1})
        ),
        False,
    ),
    "wrong-diagonal-2I": (
        lambda: smallest_instance(
            scalar_kernel(Z1, 3, {(0,): 2}), GroupRingKernel.identity(Z1, 1, 3)
        ),
        False,
    ),
    "zero-psi": (
        lambda: smallest_instance(involution(), GroupRingKernel.zero(Z1, 2, 2)),
        False,
    ),
}


class TestTransferIdentityOracle:
    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_matches_dense_product(self, case):
        build, expected = ORACLE_CASES[case]
        inst = build()
        assert dense_identity_on_vpp(inst) is expected
        assert verify_transfer_identity(inst) is expected


class TestInstanceCharts:
    @pytest.mark.parametrize(
        "pair",
        [lambda: (involution(), involution()), z2_unipotent_pair, s3_involution],
        ids=["z1-involution", "z2-unipotent", "s3-involution"],
    )
    def test_perfect_approximation_charts_are_a_view(self, pair):
        inst = smallest_instance(*pair())
        approx, n = inst.approx, inst.vertex_count
        assert inst.v_prime == approx.good_vertices == tuple(range(n))
        charts, ok = ball_charts(approx.graph, np.arange(n), inst.ball_r0)
        assert ok.all()
        assert np.array_equal(inst.charts, charts)
        assert np.shares_memory(inst.charts, approx.charts)
        assert not inst.charts.flags.writeable

    def test_open_path_rows_are_r0_charts(self):
        inst = open_path_involution()
        graph = inst.approx.graph
        charted = [v for v in range(graph.vertex_count) if ball_isomorphism(graph, v, inst.ball_r0)]
        assert inst.v_prime == tuple(charted)
        assert inst.charts.shape == (len(charted), inst.ball_r0.size)
        assert not inst.charts.flags.writeable
        for row, v in zip(inst.charts.tolist(), inst.v_prime):
            assert tuple(row) == ball_isomorphism(graph, v, inst.ball_r0)
        vp = set(inst.v_prime)
        assert inst.v_dprime == tuple(
            v for v, row in zip(inst.v_prime, inst.charts.tolist()) if vp.issuperset(row)
        )


class TestLowerBound:
    def test_identity_pair_on_c8(self):
        ident = GroupRingKernel.identity(Z1, 1, 2)
        approx = torus_approximation(Z1, 8, 3)
        inst = instance(ident, ident, approx)
        report = lower_bound_check(inst)
        assert report.verdict == LOWER_HOLDS
        assert report.bar_phi_rank == 8
        assert report.identity_on_vpp is True

    def test_involution_on_c12(self):
        x = involution()
        approx = torus_approximation(Z1, 12, 5)
        inst = instance(x, x, approx)
        report = lower_bound_check(inst)
        assert report.bar_phi_rank == 24  # full rank: 2 * |V''| = 2 * 12
        assert Fraction(report.bar_phi_rank) >= report.lower_bound

    def test_report_carries_the_approximation_side(self):
        x = involution()  # r0 = 2, so radius 5 and torus sides from 12
        assert lower_bound_check(instance(x, x, quotient_approximation(Z1, 5, 14))).torus_n == 14
        assert lower_bound_check(smallest_instance(*s3_involution())).torus_n is None

    def test_finite_group_identity(self):
        G = cyclic_group(3)
        ident = GroupRingKernel.identity(G, 1, 2)
        report = run_experiment(ident, ident, "lower")
        assert report.bar_phi_rank == 3

    def test_precondition_enforced(self):
        phi = scalar_kernel(Z1, 2, {(0,): 1, (1,): 1})
        approx = torus_approximation(Z1, 12, 5)
        inst = instance(phi, phi, approx)
        with pytest.raises(CheckFailedError, match=r"^lower mode requires psi with phi o psi = identity$"):
            lower_bound_check(inst)

    def test_absent_psi_fails_the_same_check(self):
        # the check's owner raises the text the CLI prints, psi or not
        x = involution()
        inst = instance(x, None, torus_approximation(Z1, 12, 5))
        with pytest.raises(CheckFailedError, match=r"^lower mode requires psi with phi o psi = identity$"):
            lower_bound_check(inst)


class TestInconsistencyMessages:
    """Hand-broken approximations, instances and plans force the theory-guaranteed checks, which state their values."""

    def test_good_vertex_outside_v_dprime_is_named(self):
        inst = open_path_involution()
        approx = inst.approx
        # vertex 1 passed off as good: its r0-chart reaches vertex 0, which has no r0-chart
        fake = label_walk(approx.graph, [1], approx.ball)
        broken = dataclasses.replace(
            approx, good_vertices=(1, *approx.good_vertices), charts=np.vstack([fake, approx.charts])
        )
        with pytest.raises(InternalInconsistency, match=r"^good vertex 1 fell outside V''$"):
            build_instance(inst.phi, inst.psi, broken, plan=inst.plan)

    def test_v_dprime_below_v0_states_both_sizes(self):
        x = involution()
        inst = instance(x, x, torus_approximation(Z1, 12, 5))
        broken = dataclasses.replace(inst, v_dprime=inst.v_dprime[:-1])
        with pytest.raises(InternalInconsistency, match=r"^\|V''\| = 11 < \|V0\| = 12$"):
            lower_bound_check(broken)

    def test_good_set_below_the_bound_states_both_sides(self):
        inst = open_path_involution()  # 440 good vertices of 450, d = 2
        broken = dataclasses.replace(inst, plan=dataclasses.replace(inst.plan, epsilon=Fraction(0)))
        with pytest.raises(InternalInconsistency, match=r"^d\*\|V0\| = 880 fell below \(1-eps\)\*\|V\|\*d = 900$"):
            lower_bound_check(broken)


class TestUpperBound:
    def test_singular_diag_on_c12(self):
        phi = singular_diag()
        approx = torus_approximation(Z1, 12, 3)
        inst = instance(phi, None, approx)
        assert inst.plan.r0 == 1 and inst.plan.r2 == 1
        report = upper_bound_check(inst)
        assert report.verdict == UPPER_HOLDS
        assert report.bar_phi_rank == 12
        assert report.local_rank_bound == 5  # 2 * |N_1| - 1
        assert report.per_v1_ranks == (3, 3, 3, 3)
        assert Fraction(report.bar_phi_rank) <= report.upper_bound
        assert Fraction(report.bar_phi_rank) < (1 - report.epsilon) * 12 * 2

    def test_zero_phi(self):
        report = run_experiment(GroupRingKernel.zero(Z1, 2, 2), None, "upper", torus_n=12)
        assert report.verdict == UPPER_HOLDS
        assert report.bar_phi_rank == 0

    def test_upper_requires_kernel(self):
        x = involution()
        with pytest.raises(KernelSearchExhausted):
            run_experiment(x, None, "upper", torus_n=20)

    def test_check_owns_the_kernel_precondition(self):
        inst = instance(involution(), None, torus_approximation(Z1, 20, 5))
        assert inst.plan.r2 is None and inst.plan.kernel_search_bound == 6
        with pytest.raises(KernelSearchExhausted, match=r"^no kernel vector found up to radius 6; upper mode cannot run$"):
            upper_bound_check(inst)


class TestForcedRank:
    """Lower mode takes rank d|V'| when V'' = V'; the eliminator must agree with it."""

    @pytest.mark.parametrize("case", [c for c, (_, holds) in ORACLE_CASES.items() if holds])
    def test_eliminator_agrees_with_reported_rank(self, monkeypatch, case):
        inst = ORACLE_CASES[case][0]()
        builds = []

        def counting(inst):
            builds.append(inst)
            return sparse_bar_phi(inst)

        monkeypatch.setattr(transfer, "sparse_bar_phi", counting)
        report = lower_bound_check(inst)
        assert len(builds) == (0 if inst.v_dprime == inst.v_prime else 1)
        assert dense_rank(build_bar_phi(inst)) == report.bar_phi_rank


def radius_two_z2_element(seed):
    """d=2, p=3: a random coefficient at every element of the radius-2 ball of Z^2."""
    Z2 = FreeAbelian(2)
    rng = np.random.default_rng(seed)
    return GroupRingKernel(
        Z2, 2, 3, {g: FpMatrix(rng.integers(0, 3, (2, 2)), 3) for g in cayley_ball(Z2, 2).elements}
    )


class TestSparseRank:
    """The sparse bar_phi, ranked by sparse elimination, against its dense form and closed forms."""

    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_oracle_cases_match_dense(self, case):
        inst = ORACLE_CASES[case][0]()
        sparse = sparse_bar_phi(inst)
        assert sparse.dense() == build_bar_phi(inst)
        assert rank(sparse) == dense_rank(build_bar_phi(inst))

    def test_one_plus_t_torus_closed_form(self):
        # (1+t) I_2 over F_2 on Z/400: gcd(1+x, x^400 - 1) = 1+x removes one dimension per coordinate
        eye = FpMatrix.identity(2, 2)
        phi = GroupRingKernel(Z1, 2, 2, {(0,): eye, (1,): eye})
        inst = instance(phi, None, torus_approximation(Z1, 400, 5))
        assert rank(sparse_bar_phi(inst)) == 2 * 400 - 2

    def test_upper_z1_ranks_need_only_singleton_passes(self, monkeypatch):
        # diag(1, 0) on Z^1 puts at most one nonzero in each column of bar_phi, of the kernel
        # search's restrictions and of the local slice, so the singleton pass settles each rank
        phi = singular_diag()
        restrictions = {n: restriction_matrix(phi, n, n) for n in (1, 2, 3)}
        expected = {n: dense_rank(m.dense()) for n, m in restrictions.items()}

        def refuse(*args):
            raise AssertionError("only singleton passes were expected")

        monkeypatch.setattr(exactfield, "_pivot_round", refuse)
        monkeypatch.setattr(exactfield, "_forward_eliminate", refuse)
        assert {n: rank(m) for n, m in restrictions.items()} == expected == {1: 3, 2: 5, 3: 7}
        plan = plan_instance(phi, None)
        assert plan.r2 == 1
        inst = build_instance(phi, None, torus_approximation(Z1, 300, 2 * plan.r0 + 1), plan=plan)
        assert rank(sparse_bar_phi(inst)) == 300
        report = upper_bound_check(inst)
        assert report.bar_phi_rank == 300 and set(report.per_v1_ranks) == {inst.ball_r0.size}

    def test_random_radius_two_z2_element(self):
        phi = radius_two_z2_element(1)
        plan = plan_instance(phi, None, max_kernel_search=1)
        approx = torus_approximation(phi.group, 20, 2 * plan.r0 + 1)
        inst = build_instance(phi, None, approx, plan=plan)
        assert rank(sparse_bar_phi(inst)) == dense_rank(build_bar_phi(inst))


def upper_instances():
    Z2 = FreeAbelian(2)
    z2_phi = GroupRingKernel(
        Z2, 2, 3,
        {(0, 0): FpMatrix([[1, 0], [0, 0]], 3), (1, 0): FpMatrix([[0, 0], [2, 0]], 3)},
    )
    sigma = parse_instance_file(Path(__file__).parent / "data" / "golden" / "s3.ring").elements["sigma"]
    return {
        "z1-torus-projector": lambda: smallest_instance(singular_diag(), None),
        "z2-torus-shifted": lambda: smallest_instance(z2_phi, None),
        "s3-sum-of-elements": lambda: smallest_instance(sigma, None),
        "z1-open-path-projector": lambda: open_path_instance(singular_diag(), None, 200),
    }


class TestLocalSlices:
    @pytest.mark.parametrize("case", list(upper_instances()))
    def test_per_v1_ranks_match_dense_slices(self, case):
        inst = upper_instances()[case]()
        report = upper_bound_check(inst)
        assert len(report.per_v1_ranks) == len(report.weiss.v1) > 0
        assert report.per_v1_ranks == slice_ranks(inst, report.weiss.v1)

    @pytest.mark.parametrize("case", list(upper_instances()))
    def test_slices_return_the_ball_restriction(self, case):
        inst = upper_instances()[case]()
        v1 = weiss.weiss_select(inst.approx, inst.plan.r0).v1
        got = check_local_slices(inst, v1)
        assert got.dense() == restriction_matrix(inst.phi, inst.plan.r0, inst.approx.radius).dense()

    @pytest.mark.parametrize("pick", [0, -1])
    def test_swapped_chart_entry_names_the_pick(self, pick):
        inst = smallest_instance(singular_diag(), None)
        v = upper_bound_check(inst).weiss.v1[pick]
        charts = inst.charts.copy()
        row = inst.v_prime.index(v)
        charts[row, [0, 1]] = charts[row, [1, 0]]  # phi's support is the identity, position 0
        broken = dataclasses.replace(inst, charts=charts)
        with pytest.raises(InternalInconsistency, match=rf"^Weiss pick {v}: the column of vertex {v} "):
            upper_bound_check(broken)


def open_path(n):
    """Z^1 labels on 0..n-1 without wrap-around: +1, -1 and the identity self-loop."""
    edges = [(v, v, 2) for v in range(n)]
    edges += [(v, v + 1, 0) for v in range(n - 1)] + [(v + 1, v, 1) for v in range(n - 1)]
    return LabeledDigraph(n, 3, edges)


class TestImperfectApproximation:
    def test_open_path_upper_chain(self):
        n = 200
        inst = open_path_instance(singular_diag(), None, n)
        assert inst.plan.r0 == 1

        v0 = set(inst.approx.good_vertices)
        vpp, vp = set(inst.v_dprime), set(inst.v_prime)
        assert v0 < vpp < vp < set(range(n))
        assert (min(v0), min(vpp), min(vp)) == (3, 2, 1)

        report = upper_bound_check(inst)
        assert report.verdict == UPPER_HOLDS
        assert set(report.weiss.v1) <= v0
        assert len(report.weiss.v1) * 2 * inst.plan.ball_big_size >= n
        assert all(r <= report.local_rank_bound for r in report.per_v1_ranks)
        assert Fraction(report.bar_phi_rank) <= report.upper_bound
        assert Fraction(report.bar_phi_rank) < report.lower_bound
        assert report.weiss.min_pairwise_distance >= 3


class TestCommutativeSquare:
    def test_square_matches_restriction(self):
        phi = singular_diag()
        approx = torus_approximation(Z1, 12, 3)
        inst = instance(phi, None, approx)
        restr = restriction_matrix(phi, 1, 2)
        for v in (0, 4, 7):
            square = commutative_square_matrix(inst, v)
            assert square is not None
            assert square == restr.dense()

    def test_square_for_shifted_support(self):
        phi = GroupRingKernel(
            Z1, 2, 2,
            {(0,): FpMatrix([[1, 0], [0, 0]], 2), (1,): FpMatrix([[0, 0], [1, 0]], 2)},
        )
        approx = torus_approximation(Z1, 20, 5)
        inst = instance(phi, None, approx)
        restr = restriction_matrix(phi, inst.plan.r0, 2 * inst.plan.r0)
        square = commutative_square_matrix(inst, 3)
        assert square == restr.dense()

    def test_square_two_dimensional(self):
        Z2 = FreeAbelian(2)
        phi = GroupRingKernel(
            Z2, 2, 3,
            {(0, 0): FpMatrix([[1, 0], [0, 0]], 3), (1, 0): FpMatrix([[0, 0], [2, 0]], 3)},
        )
        approx = torus_approximation(Z2, 12, 5)
        inst = instance(phi, None, approx)
        restr = restriction_matrix(phi, inst.plan.r0, 2 * inst.plan.r0)
        for v in (0, 17, 100):
            assert commutative_square_matrix(inst, v) == restr.dense()


class TestRunExperiment:
    def test_lower_verdict(self):
        x = involution()
        report = run_experiment(x, x, "lower", torus_n=12)
        assert report.verdict == LOWER_HOLDS

    def test_upper_verdict(self):
        report = run_experiment(singular_diag(), None, "upper", torus_n=12)
        assert report.verdict == UPPER_HOLDS

    def test_both_mode_dispatch(self):
        assert run_experiment(involution(), involution(), "both").verdict == LOWER_HOLDS
        assert run_experiment(singular_diag(), None, "both").verdict == UPPER_HOLDS

    def test_both_mode_neither(self):
        phi = scalar_kernel(Z1, 2, {(0,): 1, (1,): 1})
        report = run_experiment(phi, phi, "both")
        assert report.verdict == NEITHER
        assert report.identity_on_vpp is False

    def test_exclusion_never_both(self):
        # right inverse verified -> no kernel found; kernel found -> no right
        # inverse supplied. Check over the instances used above.
        x = involution()
        assert kernel_radius(x, 9) is None
        phi = singular_diag()
        assert kernel_radius(phi, 6) is not None
        assert not check_both(phi)

    @pytest.mark.parametrize("mode", ["lower", "both"])
    def test_right_inverse_checked_once(self, monkeypatch, mode):
        calls = []

        def counting(phi, psi):
            calls.append((phi, psi))
            return check_right_inverse(phi, psi)

        monkeypatch.setattr(transfer, "check_right_inverse", counting)
        report = run_experiment(involution(), involution(), mode)
        assert report.verdict == LOWER_HOLDS
        assert len(calls) == 1

    def test_no_per_vertex_charts_on_perfect_approximations(self, monkeypatch):
        calls = []

        def counting(graph, v, ball):
            calls.append(v)
            return ball_isomorphism(graph, v, ball)

        for module in (digraph, sofic, transfer, weiss):
            if hasattr(module, "ball_isomorphism"):
                monkeypatch.setattr(module, "ball_isomorphism", counting)
        assert run_experiment(involution(), involution(), "lower").verdict == LOWER_HOLDS
        assert run_experiment(singular_diag(), None, "upper", torus_n=12).verdict == UPPER_HOLDS
        assert run_experiment(*s3_involution(), "both").verdict == LOWER_HOLDS
        assert calls == []

    def test_approximation_reuses_the_plan_ball(self, monkeypatch):
        """No ball is built after plan_instance, and the approximation's ball is the plan's cut, field by field."""
        approxes, built, planned = [], [], []
        build = groups._build_ball

        def counting(group, r, max_elements):
            built.append(r)
            return build(group, r, max_elements)

        def planning(*args, **kwargs):
            plan = plan_instance(*args, **kwargs)
            planned.append(len(built))
            return plan

        def recording(phi, psi, approx, **kwargs):
            approxes.append(approx)
            return build_instance(phi, psi, approx, **kwargs)

        monkeypatch.setattr(groups, "_build_ball", counting)
        monkeypatch.setattr(transfer, "plan_instance", planning)
        monkeypatch.setattr(transfer, "build_instance", recording)
        x = involution()
        report = run_experiment(x, x, "lower")
        (approx,) = approxes
        assert planned == [len(built)]
        assert_same_ball(approx.ball, cayley_ball(x.group, 2 * report.r0 + 1))
        assert planned == [len(built)]

    def test_auto_torus_side(self):
        report = run_experiment(involution(), involution(), "lower")
        # r0 = 2 -> radius 5 -> smallest valid torus side 12
        assert report.torus_n == 12

    def test_torus_too_small_rejected(self):
        with pytest.raises(ApproximationTooCoarse):
            run_experiment(involution(), involution(), "lower", torus_n=8)

    def test_report_json_round_trip(self):
        import json

        report = run_experiment(singular_diag(), None, "upper", torus_n=12)
        text = json_text(report)
        again = json.loads(text)
        assert again == json_value(report)
        assert text == json.dumps(again, sort_keys=True, indent=2)
        assert again["verdict"] == UPPER_HOLDS
        assert again["epsilon"] == {"num": 1, "den": 29}
        assert again["weiss"]["v1"] == [0, 3, 6, 9]


def check_both(phi):
    """True when phi has both a right inverse among its own powers and a kernel."""
    sq = compose(phi, phi)
    return sq.is_identity() and kernel_radius(phi, 6) is not None


@pytest.mark.parametrize("element, mode", [("x", "lower"), ("sigma", "upper")])
def test_parsed_group_freed_without_cycle_collection(element, mode):
    # Balls do not refer back to their group, so dropping the instance frees the group by reference counting.
    gc.disable()
    try:
        parsed = parse_instance_file(Path(__file__).parent / "data" / "golden" / "s3.ring")
        group = weakref.ref(parsed.group)
        phi = parsed.elements[element]
        run_experiment(phi, phi if mode == "lower" else None, mode)
        del parsed, phi
        assert group() is None
    finally:
        gc.enable()
