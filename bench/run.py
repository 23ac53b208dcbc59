#!/usr/bin/env python3
"""Transfer-run benchmark: closed-loop `soficrank transfer-run` experiments.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Set-up generates the workload's inputs
from the seed (instance files and finite-group tables, see workloads.py).
Then one single-threaded client calls `soficrank.cli.main` with a
`transfer-run` command line per experiment, each one starting when the
previous returned, and passes over the workload's experiment list until
the next pass would end after S seconds.  Every experiment re-parses its
files, so it starts cold, as a user's invocation does.  Every report is
checked against its closed form (verdicts.py).

The host's speed drifts by up to 2x in phases of seconds to minutes
(reference.py), so the pass times are reported at a reference speed: the
workload's reference kernels run before every experiment and after the
last one of a pass, and each pass's times are scaled by the kernels'
nominal time over their mean time in that pass.  The raw medians are
printed alongside.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones: median scaled pass time, median scaled slowest
experiment, peak RSS and median set-up time (set-up is repeated after
every pass, and scaled the same way).  With --trace 1 they are the per-layer
ones of spans.py, and the spans are written to bench/out/.  The lines
before it print every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
OUT = BENCH / "out"

END_TO_END = [
    ("wall_ref_s", "s"),
    ("exp_max_ref_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


def import_package():
    """Import soficrank from this checkout's src/, never from anywhere else."""
    if not (SRC / "soficrank" / "__init__.py").is_file():
        sys.exit(f"bench: no package source under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import soficrank

    if Path(soficrank.__file__).resolve().parent != (SRC / "soficrank").resolve():
        sys.exit(f"bench: imported soficrank from {soficrank.__file__}, not from {SRC}")


def import_seconds() -> float:
    """Time to import the CLI in a fresh interpreter, as every user invocation pays it."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import soficrank.cli; print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(SRC)], capture_output=True, text=True, check=True, timeout=120
    )
    return float(done.stdout)


class SetUp:
    """Input generation for one run, timed each time it is repeated.

    One set-up is an import of the CLI in a fresh interpreter plus the
    generation of every input file.  The first one writes the inputs the
    experiments use.  `repeat` sets up again in a second directory, checks
    that the same seed wrote byte-identical files, and throws them away;
    the untraced run repeats after every pass, so the reported median
    samples the machine over the whole run, as the pass times do.  Each
    set-up is also scaled to the reference speed by the reference kernels
    run right before and after it, as the passes are.
    """

    def __init__(self, slots, seed: int, workdir: Path, reference):
        self.slots, self.seed, self.workdir, self.reference = slots, seed, workdir, reference
        self.seconds: list[float] = []
        self.scaled: list[float] = []
        self.experiments = self._once(workdir / "inputs")
        self._files = self._listing(workdir / "inputs")

    @staticmethod
    def _listing(outdir: Path) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}

    def _once(self, outdir: Path):
        from workloads import write_inputs

        before = self.reference.seconds()
        imported = import_seconds()
        start = time.perf_counter()
        experiments = write_inputs(self.slots, self.seed, outdir)
        seconds = imported + time.perf_counter() - start
        self.seconds.append(seconds)
        speed = statistics.mean((before, self.reference.seconds()))
        self.scaled.append(seconds * self.reference.nominal_s / speed)
        return experiments

    def repeat(self) -> None:
        outdir = self.workdir / "repeat"
        self._once(outdir)
        files = self._listing(outdir)
        shutil.rmtree(outdir)
        if files != self._files:
            raise RuntimeError(f"seed {self.seed} generated different inputs on a repeated set-up")


def run_cli(argv: list[str]) -> tuple[object, str]:
    """One in-process CLI invocation: (exit code or None if it raised, captured stderr)."""
    from soficrank import cli

    sink, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # an escaped exception is a failed experiment, not a dead benchmark
        code = None
        err.write(traceback.format_exc())
    return code, err.getvalue()


def check(experiment, code, stderr: str) -> list[str]:
    from verdicts import check_report

    if code != 0:
        return [f"exit code {code}: {stderr.strip()}"]
    try:
        envelope = json.loads(experiment.report.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"unreadable report: {exc}"]
    return check_report(experiment.slot, envelope["payload"])


def measure(experiments, seconds: float, tracer=None, between=None, reference=None):
    """Passes over the experiment list while the next pass fits in `seconds`; at least one.

    Returns the per-pass list of per-experiment seconds; per pass, the
    mean time of `reference()` run before each experiment and after the
    last (None without `reference`); and every failure as (pass, slot
    name, problems).  Report checks run between experiments and
    `between()` after each pass, outside the timed calls; the `seconds`
    budget counts everything the loop does.
    """
    passes, speeds, failures, lengths = [], [], [], []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        times, refs = [], []
        for experiment in experiments:
            if reference is not None:
                refs.append(reference())
            experiment.report.unlink(missing_ok=True)
            if tracer is not None:
                tracer.experiment = (len(passes), experiment.slot.name)
            t0 = time.perf_counter()
            code, stderr = run_cli(experiment.argv())
            times.append(time.perf_counter() - t0)
            problems = check(experiment, code, stderr)
            if problems:
                failures.append((len(passes), experiment.slot.name, problems))
        if reference is not None:
            refs.append(reference())
        passes.append(times)
        speeds.append(statistics.mean(refs) if refs else None)
        if between is not None:
            between()
        now = time.perf_counter()
        lengths.append(now - pass_start)
        if now - start + statistics.median(lengths) > seconds:
            return passes, speeds, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    from reference import Reference
    from spans import PER_LAYER, Tracer
    from workloads import REFERENCE, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    reference = Reference(REFERENCE[args.workload])
    reference.seconds()  # warm-up: the first run also pins the kernels' checksums
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup = SetUp(WORKLOADS[args.workload], args.seed, workdir, reference)
        if args.trace:
            tracer, between = Tracer(), None
        else:
            tracer, between = None, setup.repeat
        origin = time.perf_counter()
        with tracer.installed() if tracer else contextlib.nullcontext():
            passes, speeds, failures = measure(
                setup.experiments, args.seconds, tracer, between, reference.seconds
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    walls = [sum(t) for t in passes]
    scaled = [[t * reference.nominal_s / speed for t in times] for times, speed in zip(passes, speeds)]
    attempted = sum(len(t) for t in passes)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  experiments {attempted}")
    print(f"raw medians: pass {statistics.median(walls):.6g} s, slowest experiment "
          f"{statistics.median(max(t) for t in passes):.6g} s, set-up "
          f"{statistics.median(setup.seconds):.6g} s; reference kernels "
          f"{'+'.join(REFERENCE[args.workload])} median {statistics.median(speeds):.6g} s "
          f"(nominal {reference.nominal_s:g} s)")
    for pass_index, slot, problems in failures:
        print(f"FAILED pass {pass_index} {slot}: {'; '.join(problems)}")
    print(f"failed_frac {len(failures) / attempted:.6g} ratio")
    if tracer:
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path, origin)
        print(f"spans written to {trace_path.relative_to(ROOT)}")
        print("top self time:")
        for name, self_s, share in tracer.top_self_times():
            print(f"  {name:42s} {self_s:10.4f} s  {share:6.1%}")
        values = tracer.layer_metrics([sum(t) for t in scaled])
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        values = {
            "wall_ref_s": statistics.median(sum(t) for t in scaled),
            "exp_max_ref_s": statistics.median(max(t) for t in scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup.scaled),
        }
        units = dict(END_TO_END)
    for name, value in values.items():
        print(f"{name:44s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
