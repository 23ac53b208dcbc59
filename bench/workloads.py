"""Seeded, size-stable experiment lists for the transfer-run benchmark.

Each workload is a fixed list of experiment slots.  A slot fixes the
group, the module dimension d, the prime p, the radius r0 and the vertex
count |V| of its approximation; the workload seed only picks which element
fills the slot.  Random elements are drawn by rejection sampling until
their r0 equals the slot's, so every seed gives the program the same
amount of work and a claim can be re-checked on an unseen seed.

`write_inputs` turns a workload and a seed into the files a user would
hand to `soficrank transfer-run`: one instance file per slot and, for the
finite groups, their multiplication tables.  Nothing else reaches the
program.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from soficrank.cli import InstanceFile, format_instance
from soficrank.corpus import random_invertible_pair, random_singular_kernel, transvection
from soficrank.exactfield import FpMatrix
from soficrank.groupring import GroupRingKernel, kernel_radius, support_data
from soficrank.groups import FiniteByTable, FreeAbelian, GroupModel, write_finite_group_file

MAX_DRAWS = 10_000


@dataclass(frozen=True)
class Slot:
    """One experiment of a workload, with the shape its element must have.

    `element` names the construction: "transvection" (I + c E_ij t^g with
    |g| = 2, its inverse as psi), "pair" (corpus.random_invertible_pair),
    "projector" (a diagonal 0/1 coordinate projector), "wide" and
    "singular" (corpus.random_singular_kernel with and without `wide`).
    """

    name: str
    group: str  # "Z^1", "Z^2", "S5" or "D98"
    element: str
    mode: str
    d: int
    p: int
    r0: int
    torus_n: Optional[int] = None
    max_factors: int = 3
    support_radius: Optional[int] = None  # required of phi and psi when set

    @property
    def invertible(self) -> bool:
        return self.element in ("transvection", "pair")

    @property
    def vertex_count(self) -> int:
        if self.torus_n is not None:
            return self.torus_n ** int(self.group[2:])
        return FINITE_ORDERS[self.group]


FINITE_ORDERS = {"S5": 120, "D98": 196}

WORKLOADS: dict[str, tuple[Slot, ...]] = {
    "lower-z2": (
        Slot("transvection", "Z^2", "transvection", "lower", d=2, p=3, r0=4, torus_n=20),
        Slot("pair", "Z^2", "pair", "lower", d=3, p=3, r0=4, torus_n=20, support_radius=2),
    ),
    "upper-z1": (
        Slot("projector-300", "Z^1", "projector", "upper", d=2, p=2, r0=1, torus_n=300),
        Slot("projector-400", "Z^1", "projector", "upper", d=2, p=2, r0=1, torus_n=400),
    ),
    "mixed-z2-finite": (
        Slot("wide", "Z^2", "wide", "both", d=2, p=3, r0=6, torus_n=28),
        Slot("s5-pair", "S5", "pair", "both", d=2, p=3, r0=8, max_factors=2),
        Slot("s5-singular", "S5", "singular", "both", d=2, p=3, r0=1),
        Slot("d98-pair", "D98", "pair", "both", d=2, p=3, r0=48, max_factors=2),
        Slot("d98-singular", "D98", "singular", "both", d=2, p=3, r0=1),
    ),
}


# Reference kernels (reference.py) each workload's times are scaled by: the
# kinds of work that dominate it in the traced run.  Charts, table parsing
# and the Weiss re-check are interpreted code; lower-z2's large products
# and identity loop are numpy loops with interpreted code around them.
REFERENCE: dict[str, tuple[str, ...]] = {
    "lower-z2": ("interpreted", "numpy"),
    "upper-z1": ("interpreted",),
    "mixed-z2-finite": ("interpreted",),
}


def smoke_slots(workload: str) -> tuple[Slot, ...]:
    """The workload's slots with every torus shrunk to its smallest valid side."""
    return tuple(
        replace(s, torus_n=2 * (2 * s.r0 + 1) + 2) if s.torus_n else s for s in WORKLOADS[workload]
    )


def symmetric_group_table() -> tuple[list[list[int]], list[int]]:
    """S_5 on its 120 permutations, generated by (0 1), (0 1 2 3 4) and its inverse."""
    perms = sorted(itertools.permutations(range(5)))
    index = {perm: i for i, perm in enumerate(perms)}
    table = [[index[tuple(a[b[i]] for i in range(5))] for b in perms] for a in perms]
    gens = [index[(1, 0, 2, 3, 4)], index[(1, 2, 3, 4, 0)], index[(4, 0, 1, 2, 3)]]
    return table, gens


def dihedral_table(m: int) -> tuple[list[list[int]], list[int]]:
    """Dihedral group of order 2m; index k + m*f stands for r^k s^f.

    Generated by the rotation r, its inverse and the reflection s.
    """

    def mul(a: int, b: int) -> int:
        k1, f1 = a % m, a // m
        k2, f2 = b % m, b // m
        return (k1 + (-k2 if f1 else k2)) % m + m * (f1 ^ f2)

    n = 2 * m
    return [[mul(a, b) for b in range(n)] for a in range(n)], [1, m - 1, m]


def make_group(name: str) -> GroupModel:
    if name.startswith("Z^"):
        return FreeAbelian(int(name[2:]))
    if name == "S5":
        table, gens = symmetric_group_table()
    elif name == "D98":
        table, gens = dihedral_table(98)
    else:
        raise ValueError(f"unknown benchmark group {name!r}")
    group = FiniteByTable(table, gens, name=name)
    if group.size != FINITE_ORDERS[name]:
        raise ValueError(f"{name} has order {group.size}, expected {FINITE_ORDERS[name]}")
    return group


def _r0(slot: Slot, phi: GroupRingKernel, psi: Optional[GroupRingKernel]) -> Optional[int]:
    """r0 = max(r1, r2) as the program plans it, when that can equal the slot's r0.

    An element with a two-sided inverse has no restricted kernel, so its
    r0 is r1.  For singular elements the kernel search stops at the
    slot's r0, which is all the comparison needs: None means r2 is larger.
    """
    _, r1 = support_data(phi, psi)
    if slot.invertible or r1 > slot.r0:
        return r1
    r2 = kernel_radius(phi, slot.r0)
    return None if r2 is None else max(r1, r2)


def _draw(slot: Slot, group: GroupModel, rng: random.Random):
    d, p = slot.d, slot.p
    if slot.element == "transvection":
        i = rng.randrange(d)
        j = rng.choice([c for c in range(d) if c != i])
        g = rng.choice([v for v in itertools.product(range(-2, 3), repeat=group.rank)
                        if sum(map(abs, v)) == 2])
        return transvection(group, d, p, i, j, rng.randint(1, p - 1), g)
    if slot.element == "pair":
        return random_invertible_pair(rng, group, d, p, max_factors=slot.max_factors)
    if slot.element == "projector":
        diag = np.eye(d, dtype=np.int64)
        killed = rng.randrange(d)
        diag[killed, killed] = 0
        return GroupRingKernel(group, d, p, {group.identity(): FpMatrix(diag, p)}), None
    if slot.element in ("wide", "singular"):
        return random_singular_kernel(rng, group, d, p, wide=slot.element == "wide"), None
    raise ValueError(f"unknown element construction {slot.element!r}")


def draw_element(slot: Slot, group: GroupModel, seed: int):
    """Seeded (phi, psi) for the slot, redrawn until its r0 is the slot's."""
    rng = random.Random(f"{seed}/{slot.name}")
    for _ in range(MAX_DRAWS):
        phi, psi = _draw(slot, group, rng)
        if slot.support_radius is not None and any(
            x.support_radius() != slot.support_radius for x in (phi, psi)
        ):
            continue
        if _r0(slot, phi, psi) == slot.r0:
            return phi, psi
    raise RuntimeError(f"slot {slot.name}: no element with r0={slot.r0} in {MAX_DRAWS} draws")


@dataclass(frozen=True)
class Experiment:
    """A generated slot: its files and the command-line arguments that run it."""

    slot: Slot
    instance: Path
    report: Path

    def argv(self) -> list[str]:
        argv = ["transfer-run", str(self.instance), "phi"]
        if self.slot.invertible:
            argv.append("psi")
        argv += ["--mode", self.slot.mode, "--out", str(self.report)]
        if self.slot.torus_n is not None:
            argv += ["--torus-n", str(self.slot.torus_n)]
        return argv


def write_inputs(slots: tuple[Slot, ...], seed: int, outdir: Path) -> list[Experiment]:
    """Generate every slot's element and write the instance and table files."""
    outdir.mkdir(parents=True, exist_ok=True)
    groups: dict[str, GroupModel] = {}
    experiments = []
    for slot in slots:
        group = groups.get(slot.group)
        if group is None:
            group = groups[slot.group] = make_group(slot.group)
            if isinstance(group, FiniteByTable):
                write_finite_group_file(outdir / f"{slot.group}.table", group)
        desc = slot.group if isinstance(group, FreeAbelian) else f"finite:{slot.group}.table"
        phi, psi = draw_element(slot, group, seed)
        elements = {"phi": phi} if psi is None else {"phi": phi, "psi": psi}
        inst = InstanceFile(p=slot.p, d=slot.d, group_desc=desc, group=group, elements=elements)
        path = outdir / f"{slot.name}.ring"
        path.write_text(format_instance(inst), encoding="utf-8")
        experiments.append(Experiment(slot, path, outdir / f"{slot.name}.json"))
    return experiments
