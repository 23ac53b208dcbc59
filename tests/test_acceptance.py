"""Acceptance suite: every criterion is exact (tolerance zero) and timed.

Each test prints one `ACCEPTANCE <n> ... PASS/FAIL` line; run with
`pytest -s tests/test_acceptance.py -v` to see them.
"""

import functools
import json
import random
import time
from fractions import Fraction

import networkx as nx
import pytest

from oracles import cyclic_group, direct_product_table, random_kernel, write_graph_file
from soficrank.cli import main
from soficrank.corpus import random_invertible_pair, random_singular_kernel
from soficrank.errors import BallMismatch
from soficrank.exactfield import mat_mul
from soficrank.groupring import (
    GroupRingKernel,
    compose,
    kernel_radius,
    restriction_matrix,
)
from soficrank.groups import FreeAbelian, cayley_ball
from soficrank.limits import default_kernel_search_bound
from soficrank.sofic import quotient_graph, verify_approximation
from soficrank.transfer import LOWER_HOLDS, UPPER_HOLDS, plan_instance, run_experiment
from soficrank.weiss import weiss_select

Z1 = FreeAbelian(1)
Z2 = FreeAbelian(2)


class Timer:
    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start


def report(num, name, failures, timer, budget):
    ok = not failures and timer.elapsed < budget
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status} ({timer.elapsed:.2f}s, budget {budget}s)")
    assert timer.elapsed < budget, f"criterion {num} exceeded {budget}s: {timer.elapsed:.2f}s"
    assert not failures, f"criterion {num} failures: {failures[:5]}"


def test_criterion_1_ball_size_oracle():
    failures = []
    with Timer() as t:
        for n in range(0, 51):
            size = cayley_ball(Z1, n).size
            if size != 2 * n + 1:
                failures.append(f"Z^1 n={n}: {size} != {2 * n + 1}")
        for n in range(0, 21):
            brute = sum(
                1
                for x in range(-n, n + 1)
                for y in range(-n, n + 1)
                if abs(x) + abs(y) <= n and max(abs(x), abs(y)) <= n
            )
            size = cayley_ball(Z2, n).size
            if size != brute:
                failures.append(f"Z^2 n={n}: {size} != {brute}")
    report(1, "ball-size oracle", failures, t, 5)


def test_criterion_2_sofic_verifier_torus_threshold():
    failures = []
    with Timer() as t:
        for n in range(1, 41):
            graph = quotient_graph(Z1, n)
            for r in range(0, 11):
                try:
                    verify_approximation(graph, range(n), Fraction(1, 2), r, Z1)
                    verified = True
                    err = None
                except BallMismatch as exc:
                    verified = False
                    err = exc
                should = n >= 2 * r + 2
                if verified != should:
                    failures.append(f"n={n} r={r}: verified={verified}, expected {should}")
                if n == 2 * r + 1 and not isinstance(err, BallMismatch):
                    failures.append(f"n={n} r={r}: expected BallMismatch, got {type(err)}")
    report(2, "sofic verifier threshold", failures, t, 5)


def _nx_digraph(graph):
    g = nx.DiGraph()
    g.add_nodes_from(range(graph.vertex_count))
    g.add_edges_from((s, d) for s, d, _ in graph.edges())
    return g


def test_criterion_3_weiss_guarantees_randomized():
    failures = []
    rng = random.Random(20240)
    with Timer() as t:
        for i in range(200):
            kind = i % 4
            if kind == 0:
                r0 = i % 3
                n = rng.randint(4 * r0 + 4, 40)
                group, graph = Z1, quotient_graph(Z1, n)
            elif kind == 1:
                r0 = i % 2
                n = rng.randint(4 * r0 + 4, 10)
                group, graph = Z2, quotient_graph(Z2, n)
            elif kind == 2:
                group = cyclic_group(rng.randint(1, 30))
                graph = quotient_graph(group)
                r0 = i % 3
            else:
                group = direct_product_table(
                    cyclic_group(rng.randint(2, 5)), cyclic_group(rng.randint(2, 5))
                )
                graph = quotient_graph(group)
                r0 = i % 2
            v = graph.vertex_count
            good_size = rng.randint((v + 1) // 2, v)
            good = sorted(rng.sample(range(v), good_size))
            ball = cayley_ball(group, 2 * r0 + 1)
            approx = verify_approximation(graph, good, Fraction(1, 2), 2 * r0 + 1, group)
            sel = weiss_select(approx, r0)

            if len(sel.v1) * 2 * ball.size < v:
                failures.append(f"run {i}: density |V1|={len(sel.v1)} ball={ball.size} V={v}")
            oracle = _nx_digraph(graph)
            for u in sel.v1:
                lengths = nx.single_source_shortest_path_length(oracle, u)
                for w in sel.v1:
                    if u != w and lengths.get(w, 10**9) < 2 * r0 + 1:
                        failures.append(f"run {i}: d({u},{w}) = {lengths.get(w)} < {2 * r0 + 1}")
    report(3, "selection guarantees (200 runs)", failures, t, 30)


_RING_CONFIGS = [(Z1, 2), (Z2, 3), (cyclic_group(6), 2)]


def test_criterion_4_group_ring_algebra():
    failures = []
    rng = random.Random(40412)
    with Timer() as t:
        per_config = {idx: [] for idx in range(3)}
        for i in range(500):
            idx = i % 3
            group, p = _RING_CONFIGS[idx]
            d = 1 + (i // 3) % 3
            k = random_kernel(rng, group, d, p, radius=2, max_terms=4)
            ident = GroupRingKernel.identity(group, d, p)
            if compose(k, ident) != k or compose(ident, k) != k:
                failures.append(f"kernel {i}: identity law failed")
            per_config[idx].append(k)
        for idx, kernels in per_config.items():
            by_d = {}
            for k in kernels:
                by_d.setdefault(k.d, []).append(k)
            for group_kernels in by_d.values():
                for a, b, c in zip(group_kernels, group_kernels[1:], group_kernels[2:]):
                    if compose(compose(a, b), c) != compose(a, compose(b, c)):
                        failures.append("associativity failed")
        # restriction naturality on 100 fresh pairs
        for i in range(100):
            idx = i % 3
            group, p = _RING_CONFIGS[idx]
            d = 1 + i % 3
            a = random_kernel(rng, group, d, p, radius=2, max_terms=3)
            b = random_kernel(rng, group, d, p, radius=2, max_terms=3)
            ra, rb = a.support_radius(), b.support_radius()
            dom, mid, cod = 1, 1 + rb, 1 + ra + rb
            lhs = restriction_matrix(compose(a, b), dom, cod).dense()
            rhs = mat_mul(restriction_matrix(a, mid, cod).dense(), restriction_matrix(b, dom, mid).dense())
            if lhs != rhs:
                failures.append(f"naturality failed on pair {i}")
    report(4, "group-ring algebra (500 kernels)", failures, t, 60)


@functools.lru_cache(maxsize=None)
def _invertible_corpus():
    """100 invertible elements as products of <= 6 elementary factors."""
    corpus = []
    for i in range(100):
        rng = random.Random(51000 + i)
        k = 1 if i % 10 < 7 else 2
        group = Z1 if k == 1 else Z2
        d = 1 + i % 3
        p = 2 if i % 2 == 0 else 3
        max_factors = 6 if k == 1 else 2
        x, y = random_invertible_pair(rng, group, d, p, max_factors=max_factors)
        corpus.append((x, y))
    return corpus


def test_criterion_5_direct_finiteness_empirical():
    failures = []
    with Timer() as t:
        corpus = _invertible_corpus()
        assert len(corpus) == 100
        for i, (x, y) in enumerate(corpus):
            xy = compose(x, y)
            yx = compose(y, x)
            if not xy.is_identity():
                failures.append(f"pair {i}: x*y != 1")
            if not yx.is_identity():
                failures.append(f"pair {i}: y*x != 1")
            bound = default_kernel_search_bound(x.support_radius())
            if kernel_radius(x, bound) is not None:
                failures.append(f"pair {i}: unexpected kernel vector")
    report(5, "direct finiteness (100 invertibles)", failures, t, 120)


@functools.lru_cache(maxsize=None)
def _lower_reports():
    """50 right-inverse pairs (same construction as criterion 5) run in lower mode."""
    reports = []
    attempt = 0
    while len(reports) < 50:
        attempt += 1
        rng = random.Random(62000 + attempt)
        k = 1 if len(reports) % 10 < 7 else 2
        group = Z1 if k == 1 else Z2
        d = 1 + attempt % 3
        p = 2 if attempt % 2 == 0 else 3
        max_factors = 4 if k == 1 else 2
        x, y = random_invertible_pair(rng, group, d, p, max_factors=max_factors)
        plan = plan_instance(x, y)
        if plan.r0 > (6 if k == 1 else 3):
            continue  # keep torus sizes small enough for the time budget
        reports.append((x, y, run_experiment(x, y, "lower")))
    return reports


def test_criterion_6_transfer_lower_bound():
    failures = []
    with Timer() as t:
        reports = _lower_reports()
        assert len(reports) == 50
        for i, (x, y, rep) in enumerate(reports):
            if rep.verdict != LOWER_HOLDS:
                failures.append(f"pair {i}: verdict {rep.verdict}")
            if rep.identity_on_vpp is not True:
                failures.append(f"pair {i}: transfer identity failed on V''")
            if not Fraction(rep.bar_phi_rank) >= rep.lower_bound:
                failures.append(f"pair {i}: rank {rep.bar_phi_rank} < {rep.lower_bound}")
            if rep.torus_n is not None and rep.torus_n < 2 * rep.r0 + 2:
                failures.append(f"pair {i}: torus side below 2*r0+2")
    report(6, "transfer lower bound (50 pairs)", failures, t, 120)


@functools.lru_cache(maxsize=None)
def _upper_reports():
    """50 kernels with a restricted kernel vector within radius 2, upper mode."""
    reports = []
    for i in range(50):
        rng = random.Random(73000 + i)
        k = 1 if i % 5 < 4 else 2
        group = Z1 if k == 1 else Z2
        d = 2 + i % 2
        p = 2 if i % 2 == 0 else 3
        eb = 2 if k == 1 else 1
        wide = k == 1 and i % 4 == 1  # mix in kernels whose r2 is exactly 2
        c = random_singular_kernel(rng, group, d, p, exponent_bound=eb, wide=wide)
        reports.append((c, run_experiment(c, None, "upper")))
    return reports


def test_criterion_7_transfer_upper_bound():
    failures = []
    with Timer() as t:
        reports = _upper_reports()
        assert len(reports) == 50
        for i, (c, rep) in enumerate(reports):
            if rep.verdict != UPPER_HOLDS:
                failures.append(f"kernel {i}: verdict {rep.verdict}")
            if rep.r2 is None or rep.r2 > 2:
                failures.append(f"kernel {i}: r2 = {rep.r2} not <= 2")
            if any(r > rep.local_rank_bound for r in rep.per_v1_ranks):
                failures.append(f"kernel {i}: a per-vertex rank exceeded {rep.local_rank_bound}")
            d, n = rep.d, rep.vertex_count
            counting = Fraction(d * n) - Fraction(n, 2 * rep.ball_big_size)
            if not Fraction(rep.bar_phi_rank) <= counting:
                failures.append(f"kernel {i}: rank above counting bound")
            if not Fraction(rep.bar_phi_rank) < (1 - rep.epsilon) * n * d:
                failures.append(f"kernel {i}: strict bound failed")
    report(7, "transfer upper bound (50 kernels)", failures, t, 120)


def test_criterion_8_exclusion():
    failures = []
    with Timer() as t:
        for i, (x, y, rep) in enumerate(_lower_reports()):
            has_rinv = compose(x, y).is_identity()
            has_kernel = rep.r2 is not None
            if has_rinv and has_kernel:
                failures.append(f"lower instance {i} satisfies both preconditions")
            if not has_rinv:
                failures.append(f"lower instance {i} lost its right inverse")
        for i, (c, rep) in enumerate(_upper_reports()):
            has_kernel = rep.r2 is not None
            has_rinv = False  # no right inverse was ever supplied or verified
            if has_rinv and has_kernel:
                failures.append(f"upper instance {i} satisfies both preconditions")
            if not has_kernel:
                failures.append(f"upper instance {i} lost its kernel vector")
    report(8, "exclusion over both corpora", failures, t, 30)


def test_criterion_9_cli_determinism(tmp_path):
    failures = []
    with Timer() as t:
        ring = tmp_path / "inv.ring"
        ring.write_text(
            "ring p=2 d=2 group=Z^1\n"
            "element x\nterm 1,0;0,1 @ 0\nterm 0,1;0,0 @ 1\n"
            "element y\nterm 1,0;0,1 @ 0\nterm 0,1;0,0 @ 1\n"
        )
        sing = tmp_path / "sing.ring"
        sing.write_text("ring p=2 d=2 group=Z^1\nelement s\nterm 1,0;0,0 @ 0\n")
        graph = tmp_path / "c12.graph"
        write_graph_file(graph, quotient_graph(Z1, 12))
        out = tmp_path / "report.json"
        cases = [
            ["cayley-ball", "-g", "Z^2", "-r", "4"],
            ["sofic-verify", str(graph), "-g", "Z^1", "-r", "2", "-e", "1/10"],
            ["weiss-select", str(graph), "-g", "Z^1", "--r0", "1"],
            ["df-check", str(ring), "x", "y"],
            ["transfer-run", str(ring), "x", "y", "--mode", "lower", "--torus-n", "12"],
            ["transfer-run", str(sing), "s", "--mode", "upper", "--torus-n", "12"],
        ]
        for argv in cases:
            runs = []
            for _ in range(2):
                code = main(argv + ["--out", str(out)])
                if code != 0:
                    failures.append(f"{argv[0]} exited {code}")
                    break
                runs.append(out.read_bytes())
            if len(runs) == 2 and runs[0] != runs[1]:
                failures.append(f"{argv[0]} produced different bytes on rerun")
            if len(runs) == 2:
                json.loads(runs[0])  # must be valid JSON
    report(9, "CLI determinism", failures, t, 60)
