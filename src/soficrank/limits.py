"""Resource limits and their environment-variable overrides.

Library functions take explicit limit arguments with these defaults; the
CLI additionally honors the SOFICRANK_* environment variables below.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

DEFAULT_MAX_BALL_ELEMENTS = 10**6
DEFAULT_MAX_VERTICES = 10**4
# Cap on |ball| * |B| * coordinates, the cells of a ball's products: 512 MiB as int64.
# A build holds (|ball|, |B|) tables of keys and positions, never the products'
# coordinates, so a high-rank ball peaks far below that (Z^100 at radius 1: 3.6 MiB
# against 30.8 MiB).  It binds at radius 1 from Z^256 on, and at radius 0 from Z^5793
# on, where FreeAbelian refuses the rank.  Not configurable.
MAX_BALL_PRODUCT_CELLS = 1 << 26

ENV_MAX_BALL_ELEMENTS = "SOFICRANK_MAX_BALL_ELEMENTS"
ENV_MAX_VERTICES = "SOFICRANK_MAX_VERTICES"
ENV_MAX_KERNEL_RADIUS = "SOFICRANK_MAX_KERNEL_RADIUS"


def default_kernel_search_bound(support_radius: int) -> int:
    """Search bound for kernel-radius scans: 3 * support radius + 3.

    Every search is capped.  A miss proves the kernel empty only when the
    bound reaches the group model's complete radius (for Z^k with d <= 4
    this one does); below it, a miss means "not found up to the bound".
    """
    return 3 * support_radius + 3


@dataclass(frozen=True)
class Limits:
    max_ball_elements: int = DEFAULT_MAX_BALL_ELEMENTS
    max_vertices: int = DEFAULT_MAX_VERTICES
    max_kernel_radius: int | None = None  # None: use default_kernel_search_bound

    @classmethod
    def from_env(cls) -> "Limits":
        def _read(name: str, fallback):
            raw = os.environ.get(name)
            if raw is None:
                return fallback
            try:
                value = int(raw)
            except ValueError:
                raise ValueError(f"environment variable {name} must be an integer, got {raw!r}")
            if value <= 0:
                raise ValueError(f"environment variable {name} must be positive, got {value}")
            return value

        return cls(
            max_ball_elements=_read(ENV_MAX_BALL_ELEMENTS, DEFAULT_MAX_BALL_ELEMENTS),
            max_vertices=_read(ENV_MAX_VERTICES, DEFAULT_MAX_VERTICES),
            max_kernel_radius=_read(ENV_MAX_KERNEL_RADIUS, None),
        )
