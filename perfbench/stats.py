"""Order statistics used by the benchmark report."""
from __future__ import annotations

import math

# Percentile levels the tail may be reported at, lowest first.
TAIL_LEVELS = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10


def nearest_rank(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """(value, samples strictly beyond its rank) at a nearest-rank percentile."""
    n = len(sorted_values)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return sorted_values[rank - 1], n - rank


def tail(values: list[float]) -> dict:
    """Latency at the highest level in TAIL_LEVELS with >= MIN_BEYOND samples beyond.

    With too few samples for even the median to qualify, the median is
    returned and ``qualified`` is false, so the shortfall is visible.
    """
    if not values:
        raise ValueError("tail of an empty sample")
    ordered = sorted(values)
    chosen = None
    for pct in TAIL_LEVELS:
        value, beyond = nearest_rank(ordered, pct)
        if beyond >= MIN_BEYOND:
            chosen = (pct, value, beyond)
    qualified = chosen is not None
    if chosen is None:
        value, beyond = nearest_rank(ordered, 50.0)
        chosen = (50.0, value, beyond)
    pct, value, beyond = chosen
    return {
        "percentile": pct,
        "value": value,
        "beyond": beyond,
        "samples": len(ordered),
        "qualified": qualified,
    }
