#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --seeds 1-10 --seconds 30 [--workload NAME ...] [--json FILE]

Runs bench/run.py once per workload and seed, one run at a time, and
prints for each metric the median, the first and third quartiles
(statistics.quantiles with n=4) and the quartile distance as a share of
the median.  A metric is steady when that share stays within a third of
its bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_lines(workload: str, seed: int, seconds: float, trace: int = 0) -> list[str]:
    """Stdout lines of one bench/run.py run; the last one is its JSON result."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=900,
    )
    return done.stdout.strip().splitlines()


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / median, "n": len(values)}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--json", help="also write the table to this file")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table: dict[str, dict] = {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        results = [json.loads(run_lines(workload, seed, args.seconds)[-1]) for seed in parse_seeds(args.seeds)]
        if not all(r["correct"] and r["failed"] == 0 for r in results):
            print(f"{workload}: a run reported failed experiments", file=sys.stderr)
        table[workload] = {
            name: spread([r["metrics"][name]["value"] for r in results]) for name in bounds
        }
        for name, row in table[workload].items():
            flag = "" if row["iqr_share"] <= bounds[name] / 3 else "  above a third of its bound"
            print(f"{workload:16s} {name:12s} median {row['median']:10.5g}  q1 {row['q1']:10.5g}  "
                  f"q3 {row['q3']:10.5g}  spread {row['iqr_share']:7.2%}  bound {bounds[name]:.0%}{flag}",
                  flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(table, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
