"""Semi-metrics between parameters and their embeddings, and histogram cell integrals.

Three kinds are supported:

  l2                   -- Euclidean distance between coefficient embeddings
  hellinger            -- Hellinger distance between densities on a quadrature grid
  empirical_hellinger  -- averaged per-point Bernoulli Hellinger over design points

All are genuine metrics on their embedding spaces, so symmetry, identity and
the triangle inequality hold up to rounding. `hist_cell_integrals` sums a
density's bin integrals from its values at a composite rule's nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
            d2 = np.sum((rows - point) ** 2, axis=-1)
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


def _bernoulli_hell_sq(rows, point):
    """(sqrt q - sqrt c)^2 + (sqrt(1 - q) - sqrt(1 - c))^2, q a row and c the point, in [0, 1].

    The point is clipped and rooted once, the rows in two buffers in place:
    the bits of the plain expression, without its dozen (rows x n) temporaries.
    """
    c = np.clip(point, 0.0, 1.0)
    root, co_root = np.sqrt(c), np.sqrt(1.0 - c)
    out = np.clip(rows, 0.0, 1.0)
    co = np.subtract(1.0, out)
    for buf, center_root in ((out, root), (co, co_root)):
        np.sqrt(buf, out=buf)
        buf -= center_root
        np.square(buf, out=buf)
    out += co
    return out


def hist_cell_integrals(values, rule):
    """Per-cell integrals (int p, int sqrt p) of a density p >= 0 given at a rule's nodes."""
    w = rule.weights.reshape(rule.n_cells, -1)
    p = np.reshape(values, w.shape)
    return (w * p).sum(axis=1), (w * np.sqrt(p)).sum(axis=1)


def hellinger_hist_vs_cells(theta, cells, roots) -> float:
    """Hellinger distance between a k-bin histogram theta and a density p, from p's cell
    integrals on theta's bins (`hist_cell_integrals`):

        h^2 = int p + 1 - 2 sqrt(k) sum_j sqrt(theta_j) int_{I_j} sqrt(p).
    """
    k = theta.size
    h2 = cells.sum() + 1.0 - 2.0 * np.sqrt(k) * float(np.sqrt(np.clip(theta, 0, None)) @ roots)
    return float(np.sqrt(max(h2, 0.0)))
