"""Small statistics helpers for the result tables."""

from __future__ import annotations

import math

import numpy as np


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile: the ceil(q*n)-th smallest sample (1-indexed)."""
    values = np.sort(np.asarray(samples, dtype=float))
    if values.size == 0:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    rank = max(1, math.ceil(q * values.size))
    return float(values[rank - 1])


def empirical_cdf(samples) -> list[tuple[float, float]]:
    """Sorted (value, i/n) pairs; plot-ready, ends at fraction 1.0."""
    values = np.sort(np.asarray(samples, dtype=float))
    if values.size == 0:
        raise ValueError("empirical CDF of an empty sample")
    n = values.size
    return [(float(v), (i + 1) / n) for i, v in enumerate(values)]
