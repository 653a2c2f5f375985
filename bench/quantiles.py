"""Nearest-rank percentiles, shared by the worker, the checks and the summary."""

from __future__ import annotations

import math


def nearest_rank(values, q: float) -> float:
    """The smallest value with at least a ``q`` share of ``values`` at or below it.

    0 for no values.
    """
    ordered = sorted(values)
    if not ordered:
        return 0
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
