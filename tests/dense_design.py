"""Dense references on the midpoint design x_i = (i + shift)/n, for the tests.

Regression takes Phi_K'Phi_K = n I in closed form, and its dataset is the
sufficient statistic Z = Phi_K'y/n. These helpers form every basis value
explicitly, so the tests can build n responses y on the design, reduce them
to Z, and check the closed forms against y.
"""

import numpy as np

from sievecred.basis import basis_matrix, eval_series_grid
from sievecred.families import Dataset


def _exact_columns(k, n, shift, tag):
    """(slice, Phi[:, slice]) in blocks of 256 columns of Phi_k.

    Each angle pi q (2i + 2 shift)/(2n) is reduced mod 2 pi in integers:
    `basis_matrix` rounds 2 pi q x_i, an error that grows with the frequency q,
    so beyond k = 64 this is the dense reference.
    """
    i2 = 2 * np.arange(n) + round(2 * shift)
    j = np.arange(1, k + 1)
    q = 2 * ((j + 1) // 2) if tag == "trigonometric" else j
    for start in range(0, k, 256):
        block = slice(start, start + 256)
        angle = np.pi * (np.outer(i2, q[block]) % (4 * n)) / (2 * n)
        values = np.cos(angle)
        if tag == "trigonometric":
            sine = j[block] % 2 == 0
            values[:, sine] = np.sin(angle[:, sine])
        yield block, np.sqrt(2.0) * values


def midpoint_basis(n, k, tag="trigonometric"):
    """Phi_k at the midpoints x_i = (i + 1/2)/n, i < n, by `basis_matrix`."""
    return basis_matrix((np.arange(n) + 0.5) / n, k, tag)


def exact_basis_product(v, k, n, shift, tag):
    """Phi_k'v."""
    out = np.empty(k)
    for block, phi in _exact_columns(k, n, shift, tag):
        out[block] = phi.T @ v
    return out


def exact_basis_series(c, n, shift, tag):
    """Phi_k c for k = len(c)."""
    out = np.zeros(n)
    for block, phi in _exact_columns(len(c), n, shift, tag):
        out += phi @ c[block]
    return out


def responses(fam, truth, seed):
    """(y, data): y = f0 + N(0, I) on the midpoints of the regression `fam`, the
    noise drawn from `default_rng(seed)`, and the dataset Z = Phi_K'y/n,
    K = `fam.max_k`, that `fam` reads.
    """
    n = fam.n
    y = eval_series_grid(truth.coefficients, n, 0.5, tag=fam.basis_tag)
    y = y + np.random.default_rng(seed).standard_normal(n)
    return y, Dataset("regression", exact_basis_product(y, fam.max_k, n, 0.5, fam.basis_tag) / n, n)
