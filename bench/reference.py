"""Reference kernels: the benchmark's yardstick for the machine's current speed.

The benchmark's host is a small virtual machine on a shared host.  Its
speed swings in phases lasting from under a second to minutes, in CPU
time as much as in wall time: interpreted Python code by up to 2x,
vectorised numpy loops by less.  Raw pass times of one workload spread
by 15-40% from run to run.

The kernels below are fixed code that does not touch the package, one
for each of those two kinds of work:

* "interpreted": breadth-first search over a dict adjacency (as
  digraph.distance and Cayley balls do), tuple-keyed dict updates (as
  charts and group tables do) and small int64 matrix products reduced
  mod p (as the per-vertex ranks do);
* "numpy": whole-array int64 arithmetic reduced mod p, the vectorised
  loops that large exactfield products and the transplant spend their
  time in.

Each workload names the kernels that match the work dominating it
(workloads.REFERENCE).  run.py times them next to every experiment and
scales each pass by their nominal time over their mean measured time
around that pass, so the reported times are seconds on a machine where
the kernels take their nominal time.  A change to the program moves
them; a change of the machine's speed moves the kernels along with the
program and mostly cancels out.
"""

from __future__ import annotations

import random
import time
from collections import deque

import numpy as np

_NODES = 2000
_rng = random.Random(0)
_ADJ = {v: [_rng.randrange(_NODES) for _ in range(4)] for v in range(_NODES)}
_MAT = (np.arange(250 * 250, dtype=np.int64).reshape(250, 250) * 7919) % 3
_VEC = np.arange(250_000, dtype=np.int64)
_OUT = np.empty_like(_VEC)


def _interpreted() -> int:
    reached = 0
    for source in range(60):
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in _ADJ[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        reached += sum(dist.values())
    table: dict[tuple[int, int], int] = {}
    for i in range(150_000):
        key = (i % 97, i % 89)
        table[key] = (table.get(key, 0) + i) % 1_000_003
    product = _MAT
    for _ in range(2):
        product = (product @ _MAT) % 3
    return reached + sum(table.values()) + int(product.sum())


def _numpy() -> int:
    for _ in range(96):
        np.multiply(_VEC, 3, out=_OUT)
        np.remainder(_OUT, 7, out=_OUT)
    return int(_OUT.sum())


# Kernel and its nominal time: about its median time on the 2-vCPU Xeon
# virtual machine the baseline was measured on (Python 3.11.7, numpy 2.4.6).
KERNELS = {"interpreted": (_interpreted, 0.1), "numpy": (_numpy, 0.1)}


class Reference:
    """The named kernels, run back to back as one timed sample."""

    def __init__(self, kinds: tuple[str, ...]):
        self.kernels = [KERNELS[kind][0] for kind in kinds]
        self.nominal_s = sum(KERNELS[kind][1] for kind in kinds)
        self._checksums = None

    def seconds(self) -> float:
        """Time one run of the kernels, checking that they computed what they always do."""
        start = time.perf_counter()
        checksums = [kernel() for kernel in self.kernels]
        seconds = time.perf_counter() - start
        if self._checksums is None:
            self._checksums = checksums
        elif checksums != self._checksums:
            raise RuntimeError(f"reference kernel checksums {checksums} != {self._checksums}")
        return seconds
