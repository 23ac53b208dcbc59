"""Resource limits, their environment-variable overrides, and the one rule that resolves them.

Library functions take explicit limit arguments with these defaults; the
CLI resolves each limit it applies with `limit`, from its flag, its
SOFICRANK_* environment variable below, or its default.
"""

from __future__ import annotations

import os
from typing import Optional

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


def limit(env: Optional[str], default, value: Optional[int] = None, flag: Optional[str] = None):
    """A limit: its flag's value when given, else its environment variable's when set, else the default.

    A given flag value must be positive.  A variable that is set must be a
    positive integer, and is checked even when the flag overrides it.
    """
    raw = None if env is None else os.environ.get(env)
    if raw is not None:
        try:
            default = int(raw)
        except ValueError:
            raise ValueError(f"environment variable {env} must be an integer, got {raw!r}")
        if default <= 0:
            raise ValueError(f"environment variable {env} must be positive, got {default}")
    if value is not None and value <= 0:
        raise ValueError(f"{flag} must be a positive integer, got {value}")
    return default if value is None else value
