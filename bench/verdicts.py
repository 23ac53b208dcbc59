"""Closed-form check of a transfer-run report.

Every approximation the benchmark builds is perfect: a torus (Z/nZ)^k for
Z^k, or the full Cayley graph of a finite group.  The transplanted matrix
bar_phi is then phi acting on F_p[Gamma]^d for that finite group Gamma,
so its rank is known without elimination:

  * an element with a two-sided inverse is invertible there, so the rank
    is d|V|, the lower chain holds with the identity on all of V'' = V;
  * a coordinate projector, and s, s*u, u*s for a unit u, kill exactly
    one coordinate, so the rank is (d-1)|V| and the upper chain holds.

Upper-mode reports also carry the Weiss selection and the per-vertex
ranks, whose guarantees are re-checked here from the report alone.
"""

from __future__ import annotations

from fractions import Fraction


def _fraction(q: dict) -> Fraction:
    return Fraction(q["num"], q["den"])


def check_report(slot, payload: dict) -> list[str]:
    """Every way the report's payload departs from the slot's closed form; [] when none."""
    problems = []

    def expect(key: str, want) -> None:
        got = payload.get(key)
        if got != want:
            problems.append(f"{key} = {got!r}, closed form {want!r}")

    n, d = slot.vertex_count, slot.d
    expect("d", d)
    expect("p", slot.p)
    expect("r0", slot.r0)
    expect("vertex_count", n)
    if slot.invertible:
        expect("verdict", "LOWER_HOLDS")
        expect("bar_phi_rank", d * n)
        expect("identity_on_vpp", True)
        expect("v_dprime_count", n)
        return problems

    expect("verdict", "UPPER_HOLDS")
    expect("bar_phi_rank", (d - 1) * n)
    weiss, ranks, bound = payload.get("weiss"), payload.get("per_v1_ranks"), payload.get("local_rank_bound")
    if weiss is None or ranks is None or bound is None:
        problems.append("upper report lacks its Weiss selection or per-vertex ranks")
        return problems
    if len(ranks) != len(weiss["v1"]):
        problems.append(f"{len(ranks)} per-vertex ranks for {len(weiss['v1'])} selected vertices")
    problems += [
        f"per_v1_ranks[{i}] = {r} exceeds local_rank_bound {bound}"
        for i, r in enumerate(ranks)
        if r > bound
    ]
    achieved, wanted = _fraction(weiss["achieved_density"]), _fraction(weiss["density_bound"])
    if achieved < wanted:
        problems.append(f"achieved_density {achieved} < density_bound {wanted}")
    separation = 2 * slot.r0 + 1
    distance = weiss["min_pairwise_distance"]
    if len(weiss["v1"]) > 1 and (distance is None or distance < separation):
        problems.append(f"min_pairwise_distance {distance} < 2*r0+1 = {separation}")
    return problems
