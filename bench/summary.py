#!/usr/bin/env python3
"""Per-layer summary: one untraced and one traced run of each workload.

    python3 bench/summary.py [--seed N] [--seconds S] [--workload NAME ...]

Prints, per workload, every end-to-end metric and every per-layer metric
by name with its unit, the largest self times of the traced run, and the
tracing overhead: traced median pass time minus untraced median pass
time, both at the reference speed of reference.py.  Both runs use the
same seed and length.
"""

from __future__ import annotations

import argparse
import json
import sys

from spread import ROOT, run_lines


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append", help="default: every workload")
    args = parser.parse_args()

    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        print(f"=== {workload} (seed {args.seed}, {args.seconds:g} s per run)")
        results = {}
        for trace in (0, 1):
            lines = run_lines(workload, args.seed, args.seconds, trace)
            print("\n".join(lines[:-1]))
            results[trace] = json.loads(lines[-1])
        untraced = results[0]["metrics"]["wall_ref_s"]["value"]
        traced = results[1]["metrics"]["bench.traced_wall_ref_s"]["value"]
        print(f"tracing overhead: {traced - untraced:+.4f} s on a median pass of {untraced:.4f} s "
              f"({(traced - untraced) / untraced:+.1%})\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
