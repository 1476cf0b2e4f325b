"""Semi-metrics between parameters and their embeddings.

Four kinds are supported:

  l2                   -- coefficient-space Euclidean distance (zero padding)
  empirical_l2         -- root mean square difference over design points
  hellinger            -- Hellinger distance between densities on a quadrature grid
  empirical_hellinger  -- averaged per-point Bernoulli Hellinger over design points

All are genuine metrics on their embedding spaces, so symmetry, identity and
the triangle inequality hold up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import interval_rule

METRIC_KINDS = ("l2", "empirical_l2", "hellinger", "empirical_hellinger")


def _pad_pair(a: np.ndarray, b: np.ndarray):
    if a.shape[-1] == b.shape[-1]:
        return a, b
    m = max(a.shape[-1], b.shape[-1])
    pa = np.zeros(a.shape[:-1] + (m,))
    pb = np.zeros(b.shape[:-1] + (m,))
    pa[..., : a.shape[-1]] = a
    pb[..., : b.shape[-1]] = b
    return pa, pb


@dataclass(frozen=True)
class SemiMetric:
    kind: str
    weights: np.ndarray | None = None  # quadrature weights, hellinger only

    def distance(self, a, b) -> float:
        return float(self.distances(np.asarray(a, float)[None, :], np.asarray(b, float))[0])

    def distances(self, rows: np.ndarray, point: np.ndarray) -> np.ndarray:
        """Distance from each row of `rows` to `point`."""
        rows = np.asarray(rows, dtype=float)
        point = np.asarray(point, dtype=float)
        if self.kind == "l2":
            rows, point = _pad_pair(rows, point)
            d2 = np.sum((rows - point) ** 2, axis=-1)
        elif self.kind == "empirical_l2":
            d2 = np.mean((rows - point) ** 2, axis=-1)
        elif self.kind == "hellinger":
            if self.weights is None:
                raise ValueError("hellinger metric requires quadrature weights")
            diff = np.sqrt(np.clip(rows, 0.0, None)) - np.sqrt(np.clip(point, 0.0, None))
            d2 = diff**2 @ self.weights
        elif self.kind == "empirical_hellinger":
            d2 = np.mean(_bernoulli_hell_sq(rows, point), axis=-1)
        else:
            raise ValueError(f"unknown metric kind {self.kind!r}")
        return np.sqrt(np.clip(d2, 0.0, None))


def _bernoulli_hell_sq(q1, q2):
    q1 = np.clip(q1, 0.0, 1.0)
    q2 = np.clip(q2, 0.0, 1.0)
    return (np.sqrt(q1) - np.sqrt(q2)) ** 2 + (np.sqrt(1.0 - q1) - np.sqrt(1.0 - q2)) ** 2


def refine_histogram(theta: np.ndarray, factor: int) -> np.ndarray:
    """Re-express a k-bin histogram on k*factor bins (cell probabilities)."""
    return np.repeat(np.asarray(theta, float), factor) / factor


def hellinger_histograms(theta1, theta2) -> float:
    """Exact Hellinger distance between two regular-bin histograms.

    Requires commensurate bins (one bin count divides the other); both are
    refined to the common grid where h^2 = sum_j (sqrt u_j - sqrt v_j)^2 holds
    exactly in terms of cell probabilities.
    """
    t1 = np.asarray(theta1, dtype=float)
    t2 = np.asarray(theta2, dtype=float)
    k1, k2 = t1.size, t2.size
    if k1 % k2 == 0:
        t2 = refine_histogram(t2, k1 // k2)
    elif k2 % k1 == 0:
        t1 = refine_histogram(t1, k2 // k1)
    else:
        raise ValueError(f"bins {k1} and {k2} are not commensurate")
    h2 = np.sum((np.sqrt(t1) - np.sqrt(t2)) ** 2)
    return float(np.sqrt(max(h2, 0.0)))


def hist_cell_integrals(density_fn, k: int, order: int = 24):
    """Per-cell integrals (int p, int sqrt p) of a density over regular k bins."""
    cells = np.empty(k)
    roots = np.empty(k)
    for j in range(k):
        x, w = interval_rule(j / k, (j + 1) / k, order)
        vals = np.clip(density_fn(x), 0.0, None)
        cells[j] = float(w @ vals)
        roots[j] = float(w @ np.sqrt(vals))
    return cells, roots


def hellinger_hist_vs_density(theta, density_fn, order: int = 24) -> float:
    """Hellinger distance between a k-bin histogram and a continuous density.

    h^2 = int p + 1 - 2 sqrt(k) sum_j sqrt(theta_j) int_{I_j} sqrt(p), with the
    cell integrals done by per-cell Gauss-Legendre so histogram breakpoints
    never straddle a quadrature cell.
    """
    theta = np.asarray(theta, dtype=float)
    return hellinger_hist_vs_cells(theta, *hist_cell_integrals(density_fn, theta.size, order))


def hellinger_hist_vs_cells(theta, cells, roots) -> float:
    """`hellinger_hist_vs_density` from the density's cell integrals on theta's bins."""
    k = theta.size
    h2 = cells.sum() + 1.0 - 2.0 * np.sqrt(k) * float(np.sqrt(np.clip(theta, 0, None)) @ roots)
    return float(np.sqrt(max(h2, 0.0)))
