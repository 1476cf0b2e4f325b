"""Composite Gauss-Legendre quadrature on [0, 1]."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights integrating over [0, 1]; node (i, m) is (i + offsets[m]) / n_cells."""

    nodes: np.ndarray
    weights: np.ndarray
    n_cells: int
    offsets: np.ndarray

    def integrate(self, values: np.ndarray) -> float:
        return float(np.dot(self.weights, values))


def gauss_legendre_rule(n_cells: int = 128, order: int = 4) -> QuadratureRule:
    """Composite rule: `order`-point Gauss-Legendre on each of `n_cells` equal cells.

    Cell boundaries sit at i/n_cells, so step functions whose breakpoints divide
    n_cells are integrated exactly.
    """
    base_x, base_w = np.polynomial.legendre.leggauss(order)
    h = 1.0 / n_cells
    left = np.arange(n_cells) * h
    nodes = (left[:, None] + 0.5 * h * (base_x[None, :] + 1.0)).ravel()
    weights = np.tile(0.5 * h * base_w, n_cells)
    return QuadratureRule(nodes, weights, n_cells, 0.5 * (base_x + 1.0))


# 128 cells x 4 nodes = 512 nodes, the shared grid for all density computations.
DEFAULT_RULE = gauss_legendre_rule()
