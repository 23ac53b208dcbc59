#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 bench/selftest.py

* A reduced-size smoke pass of every workload (tori shrunk to their
  smallest valid side, one pass, traced) must finish with no failed
  experiment and must yield every per-layer metric.
* Each smoke report must pass the closed-form check untouched, and must
  fail it when tampered: rank off by one, verdict swapped, and in upper
  mode a per-vertex rank above its bound.  A nonzero exit must fail too.
* The metric names and units in BENCHMARK.json must be the ones run.py
  and spans.py report.

Exits 0 when all of that holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys

import run


def tampered(payload: dict) -> dict[str, dict]:
    """The tampered copies of a report payload, by what was changed."""
    out = {}
    off = copy.deepcopy(payload)
    off["bar_phi_rank"] += 1
    out["rank off by one"] = off
    swapped = copy.deepcopy(payload)
    swapped["verdict"] = {"LOWER_HOLDS": "UPPER_HOLDS", "UPPER_HOLDS": "LOWER_HOLDS"}[payload["verdict"]]
    out["swapped verdict"] = swapped
    if payload.get("per_v1_ranks"):
        above = copy.deepcopy(payload)
        above["per_v1_ranks"][0] = payload["local_rank_bound"] + 1
        out["per_v1_ranks entry above its bound"] = above
    return out


def main() -> int:
    run.import_package()
    from spans import PER_LAYER, Tracer
    from verdicts import check_report
    from workloads import WORKLOADS, smoke_slots, write_inputs

    errors = []
    rejected = 0
    workdir = run.WORK / f"selftest-{os.getpid()}"
    try:
        for workload in WORKLOADS:
            experiments = write_inputs(smoke_slots(workload), 0, workdir / workload)
            tracer = Tracer()
            with tracer.installed():
                passes, _, failures = run.measure(experiments, 0, tracer)
            errors += [f"{workload} smoke: {slot}: {problems}" for _, slot, problems in failures]
            print(f"{workload}: smoke pass of {len(experiments)} experiments in "
                  f"{sum(passes[0]):.2f} s, failed_frac {len(failures) / len(experiments):g}")
            missing = {name for name, _, _ in PER_LAYER} - set(tracer.layer_metrics([sum(passes[0])]))
            if missing:
                errors.append(f"{workload}: per-layer metrics not computed: {sorted(missing)}")
            for experiment in experiments:
                payload = json.loads(experiment.report.read_text(encoding="utf-8"))["payload"]
                if check_report(experiment.slot, payload):
                    continue  # already counted as a smoke failure
                for what, bad in tampered(payload).items():
                    if check_report(experiment.slot, bad):
                        rejected += 1
                    else:
                        errors.append(f"{workload}/{experiment.slot.name}: {what} passed the check")
                if not run.check(experiment, 1, "simulated failure"):
                    errors.append(f"{workload}/{experiment.slot.name}: exit code 1 passed the check")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {(m["name"], m["unit"]) for m in spec["end_to_end"]}
    if declared != set(run.END_TO_END):
        errors.append(f"BENCHMARK.json end_to_end {sorted(declared)} != run.py {run.END_TO_END}")
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if declared != PER_LAYER:
        errors.append("BENCHMARK.json per_layer differs from spans.PER_LAYER")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    print(f"{rejected} tampered reports rejected by the closed-form check")
    for error in errors:
        print("FAIL", error)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
