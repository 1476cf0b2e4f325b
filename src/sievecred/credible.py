"""Credible radius from posterior draws, and the Wilson interval for coverage.

The base radius r_alpha is the empirical (1 - alpha)-quantile of the draw
distances to the center, using the lower order statistic of rank
ceil((1 - alpha) S). The harness inflates it by L sqrt(log n).
"""

from __future__ import annotations

import math

import numpy as np


def credible_radius(draws, center: np.ndarray, family, alpha: float) -> float:
    """Lower empirical (1 - alpha)-quantile of d(theta_s, center) over draws."""
    if draws.count == 0:
        raise ValueError("no draws")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    distances = family.draw_distances(draws, center)
    rank = math.ceil((1.0 - alpha) * distances.size)
    rank = min(max(rank, 1), distances.size)
    return float(np.partition(distances, rank - 1)[rank - 1])


def wilson_interval(successes: int, total: int, z: float = 1.96):
    """Wilson 95% interval for a binomial proportion."""
    if total == 0:
        return 0.0, 1.0
    p = successes / total
    denom = 1.0 + z**2 / total
    mid = (p + z**2 / (2 * total)) / denom
    half = z * math.sqrt(p * (1 - p) / total + z**2 / (4 * total**2)) / denom
    return max(mid - half, 0.0), min(mid + half, 1.0)
