#!/usr/bin/env python3
"""Sweep discrete tori against the Z Cayley ball and print the pass/fail grid.

The verification threshold sits at n = 2r + 2: one vertex short and the
wrap-around edge between the extreme layers breaks two-way edge
correspondence, which shows up below as the diagonal of failures at
n = 2r + 1.
"""

import argparse
from fractions import Fraction

from soficrank.errors import BallMismatch
from soficrank.groups import FreeAbelian
from soficrank.sofic import quotient_graph, verify_approximation

Z1 = FreeAbelian(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=24)
    parser.add_argument("--max-r", type=int, default=8)
    args = parser.parse_args()

    radii = list(range(args.max_r + 1))
    print("n\\r " + " ".join(f"{r:>2}" for r in radii))
    for n in range(1, args.max_n + 1):
        graph = quotient_graph(Z1, n)
        row = []
        for r in radii:
            try:
                verify_approximation(graph, range(n), Fraction(1, 2), r, Z1)
                row.append(" ok")
            except BallMismatch:
                row.append("  .")
        print(f"{n:>3} " + "".join(row))


if __name__ == "__main__":
    main()
