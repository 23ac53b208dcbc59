#!/usr/bin/env python3
"""Run the two canonical transfer experiments and write their JSON reports.

Lower bound: the involution [[1, t], [0, 1]] over F_2[Z] is its own right
inverse, so its transplanted matrix over a torus must reach full rank on
the interior vertices.  Upper bound: the block-diagonal projector
diag(1, 0) has an obvious kernel vector, so its transplanted rank must
fall strictly below (1 - eps) * |V| * d.  Running both on the same element
is impossible; the demo prints which verdict each element earns.
"""

import argparse
from pathlib import Path

from soficrank.exactfield import FpMatrix, json_text
from soficrank.groupring import GroupRingKernel
from soficrank.groups import FreeAbelian
from soficrank.transfer import run_experiment

Z1 = FreeAbelian(1)


def involution():
    return GroupRingKernel(
        Z1, 2, 2,
        {(0,): FpMatrix.identity(2, 2), (1,): FpMatrix([[0, 1], [0, 0]], 2)},
    )


def projector():
    return GroupRingKernel(Z1, 2, 2, {(0,): FpMatrix([[1, 0], [0, 0]], 2)})


def show(title, report):
    print(f"== {title} ==")
    print(f"  verdict      {report.verdict}")
    print(f"  r0/r1/r2     {report.r0}/{report.r1}/{report.r2}")
    print(f"  epsilon      {report.epsilon}")
    print(f"  |V|          {report.vertex_count} (torus side {report.torus_n})")
    print(f"  rank         {report.bar_phi_rank}")
    print(f"  lower bound  {report.lower_bound}")
    print(f"  upper bound  {report.upper_bound}")
    if report.weiss is not None:
        print(f"  V1           {list(report.weiss.v1)}")
    print()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="demo_reports")
    parser.add_argument("--torus-n", type=int, default=None)
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    x = involution()
    lower = run_experiment(x, x, "lower", torus_n=args.torus_n)
    show("involution, lower mode", lower)

    s = projector()
    upper = run_experiment(s, None, "upper", torus_n=args.torus_n)
    show("projector, upper mode", upper)

    for name, rep in [("lower_involution", lower), ("upper_projector", upper)]:
        path = outdir / f"{name}.json"
        path.write_text(json_text(rep) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
