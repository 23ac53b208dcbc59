"""Outside-in tracing of the soficrank layers, for the benchmark's traced run.

The tracer wraps each traced public function at every module binding the
package calls it through (`transfer.rank` and `groupring.rank` are both
`exactfield.rank`, for instance), so no file of the package is edited.
Each call becomes a span: name, start, end, parent span and experiment
id.  Spans stay in memory until the run ends.  A span's self time is its
duration minus the time its child spans cover; calls in one thread nest,
so that is the sum of the children's durations.

Size counters are computed at the same boundaries from the arguments and
return values: multiply-add count of `mat_mul`, cells fed to `rank`, and
bytes and fill of the transplanted matrices.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps

# Functions wrapped, by defining module.  cli.main, sofic.verify_approximation,
# transfer.run_experiment and transfer.lower_bound_check have no metric of
# their own; their spans keep their callers' self times to the callers' own work.
TRACED = {
    "cli": ("main", "parse_instance_file"),
    "groups": ("read_finite_group_file", "cayley_ball"),
    "groupring": ("kernel_radius", "restriction_matrix", "check_right_inverse"),
    "sofic": ("torus_approximation", "finite_group_approximation", "verify_approximation"),
    "digraph": ("ball_isomorphism", "neighborhood", "distance"),
    "weiss": ("weiss_select",),
    "transfer": (
        "run_experiment",
        "plan_instance",
        "build_instance",
        "build_bar_phi",
        "build_bar_psi",
        "verify_transfer_identity",
        "lower_bound_check",
        "upper_bound_check",
    ),
    "exactfield": ("mat_mul", "rank"),
}

# (name, unit, better) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = [
    ("cli.parse_instance_file.s", "s", "lower"),
    ("groups.read_finite_group_file.s", "s", "lower"),
    ("groups.cayley_ball.s", "s", "lower"),
    ("groups.cayley_ball.calls", "count", "lower"),
    ("groupring.kernel_radius.s", "s", "lower"),
    ("groupring.restriction_matrix.calls", "count", "lower"),
    ("groupring.check_right_inverse.s", "s", "lower"),
    ("sofic.torus_approximation.s", "s", "lower"),
    ("sofic.torus_approximation.self_s", "s", "lower"),
    ("sofic.finite_group_approximation.s", "s", "lower"),
    ("sofic.finite_group_approximation.self_s", "s", "lower"),
    ("digraph.ball_isomorphism.s", "s", "lower"),
    ("digraph.ball_isomorphism.calls", "count", "lower"),
    ("digraph.neighborhood.s", "s", "lower"),
    ("digraph.neighborhood.calls", "count", "lower"),
    ("digraph.distance.s", "s", "lower"),
    ("digraph.distance.calls", "count", "lower"),
    ("weiss.weiss_select.s", "s", "lower"),
    ("weiss.weiss_select.self_s", "s", "lower"),
    ("transfer.plan_instance.s", "s", "lower"),
    ("transfer.build_instance.self_s", "s", "lower"),
    ("transfer.build_bar_phi.s", "s", "lower"),
    ("transfer.build_bar_phi.calls", "count", "lower"),
    ("transfer.build_bar_psi.s", "s", "lower"),
    ("transfer.verify_transfer_identity.self_s", "s", "lower"),
    ("transfer.upper_bound_check.self_s", "s", "lower"),
    ("transfer.bar_phi.bytes", "B", "lower"),
    ("transfer.bar_psi.bytes", "B", "lower"),
    ("transfer.bar_phi.nnz_frac", "ratio", "higher"),
    ("exactfield.mat_mul.s", "s", "lower"),
    ("exactfield.mat_mul.calls", "count", "lower"),
    ("exactfield.mat_mul.ops", "count", "lower"),
    ("exactfield.rank.s", "s", "lower"),
    ("exactfield.rank.calls", "count", "lower"),
    ("exactfield.rank.cells", "count", "lower"),
    ("bench.traced_wall_ref_s", "s", "lower"),
]


def _matrix_counts(name: str, matrix) -> dict[str, float]:
    """Bytes held by a transplanted matrix, and its nonzero and dense cell counts."""
    array = matrix.array
    return {
        f"{name}.bytes": array.nbytes,
        f"{name}.nnz": int((array != 0).sum()),
        f"{name}.cells": array.size,
    }


COUNTERS = {
    "exactfield.mat_mul": lambda args, out: {
        "exactfield.mat_mul.ops": args[0].rows * args[0].cols * args[1].cols
    },
    "exactfield.rank": lambda args, out: {"exactfield.rank.cells": args[0].rows * args[0].cols},
    "transfer.build_bar_phi": lambda args, out: _matrix_counts("transfer.bar_phi", out),
    "transfer.build_bar_psi": lambda args, out: _matrix_counts("transfer.bar_psi", out),
}


class Tracer:
    """Span recorder for one benchmark run; `experiment` is set by the caller."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, experiment)
        self.counts: list = []  # (name, value, experiment)
        self.experiment = None
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.experiment)
            if counter is not None:
                counts.extend((k, v, self.experiment) for k, v in counter(args, out).items())
            return out

        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced function at each soficrank module binding it; undo on exit."""
        modules = [m for n, m in list(sys.modules.items()) if n == "soficrank" or n.startswith("soficrank.")]
        undo = []
        for modname, names in TRACED.items():
            defining = sys.modules[f"soficrank.{modname}"]
            for fname in names:
                fn = getattr(defining, fname)
                traced = self._wrap(f"{modname}.{fname}", fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, traced)
                            undo.append((module, attr, fn))
        try:
            yield self
        finally:
            for module, attr, fn in undo:
                setattr(module, attr, fn)

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def per_pass(self) -> dict[int, dict[str, float]]:
        """Inclusive time, self time, calls and counters of every span name, per pass.

        Experiments are identified as (pass index, slot name).  Byte counts
        keep the largest matrix of the pass; other counters add up.
        """
        stats: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for (name, start, end, _, exp), self_s in zip(self.spans, self.self_times()):
            row = stats[exp[0]]
            row[f"{name}.s"] += end - start
            row[f"{name}.self_s"] += self_s
            row[f"{name}.calls"] += 1
        for name, value, exp in self.counts:
            row = stats[exp[0]]
            row[name] = max(row[name], value) if name.endswith(".bytes") else row[name] + value
        for row in stats.values():
            cells = row.get("transfer.bar_phi.cells", 0)
            row["transfer.bar_phi.nnz_frac"] = row["transfer.bar_phi.nnz"] / cells if cells else 0.0
        return stats

    def layer_metrics(self, pass_walls: list[float]) -> dict[str, float]:
        """Median over passes of every PER_LAYER metric; 0 for a layer the workload never calls."""
        stats = self.per_pass()
        rows = [stats.get(i, {}) for i in range(len(pass_walls))]
        out = {name: statistics.median(row.get(name, 0.0) for row in rows) for name, _, _ in PER_LAYER}
        out["bench.traced_wall_ref_s"] = statistics.median(pass_walls)
        return out

    def top_self_times(self, limit: int = 8) -> list[tuple[str, float, float]]:
        """(name, self seconds, share of all traced time) for the largest self times."""
        totals: dict[str, float] = defaultdict(float)
        for (name, *_), self_s in zip(self.spans, self.self_times()):
            totals[name] += self_s
        whole = sum(totals.values()) or 1.0
        ranked = sorted(totals.items(), key=lambda kv: -kv[1])[:limit]
        return [(name, s, s / whole) for name, s in ranked]

    def write(self, path, origin: float) -> None:
        """Spans as JSON lines, times in seconds since `origin`."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, exp in self.spans:
                fh.write(json.dumps({
                    "name": name,
                    "start": round(start - origin, 7),
                    "end": round(end - origin, 7),
                    "parent": parent,
                    "experiment": f"{exp[0]}/{exp[1]}",
                }) + "\n")
