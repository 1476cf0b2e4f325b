"""Orthonormal bases on [0, 1], their FFT sums and the midpoint design's dimension.

Both basis families are orthonormal in L2[0,1] and integrate to zero, which the
log-linear model requires. On the midpoint design x_i = (i - 1/2)/n both are
also orthonormal in the empirical inner product (discrete Fourier and cosine
orthogonality), as long as every frequency sum stays below the period: twice
the highest frequency 2 ceil(k/2) < n for the trigonometric basis, k < n for
the cosine one (`design_dimension`). Under that condition the Gram matrix
Phi_k' Phi_k is n I, and regression uses it in closed form.

Long series sum_j c_j phi_j are summed by FFT, on a grid (`eval_series_grid`)
or a Gauss rule (`eval_series_rule`); the tests sum them term by term.
Its adjoint Phi_k'v on a grid is one rfft (`project_grid`).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

BASIS_TAGS = ("trigonometric", "cosine")
DESIGN_K_MAX = 64  # classification's largest dimension, if n allows it


def _basis_block(x: np.ndarray, start: int, stop: int, tag: str) -> np.ndarray:
    """Columns phi_{start+1} .. phi_{stop} evaluated at x."""
    j = np.arange(start + 1, stop + 1)
    if tag == "trigonometric":
        # phi_{2l-1} = sqrt(2) cos(2 pi l x), phi_{2l} = sqrt(2) sin(2 pi l x)
        freq = (j + 1) // 2
        ang = 2.0 * np.pi * np.outer(x, freq)
        block = np.empty((x.size, j.size))
        odd = j % 2 == 1
        block[:, odd] = np.cos(ang[:, odd])
        block[:, ~odd] = np.sin(ang[:, ~odd])
    elif tag == "cosine":
        block = np.cos(np.pi * np.outer(x, j))
    else:
        raise ValueError(f"unknown basis tag {tag!r}")
    block *= np.sqrt(2.0)
    return block


def basis_matrix(x, k: int, tag: str = "trigonometric") -> np.ndarray:
    """Evaluate the first k basis functions at x; returns shape (len(x), k)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return _basis_block(x, 0, k, tag)


@lru_cache(maxsize=8)
def _fft_modes(k: int, N: int, shift: float, tag: str):
    """(m mod 2N, w exp(i pi m shift/N)) of phi_1 .. phi_k, read-only; see `eval_series_grid`."""
    j = np.arange(1, k + 1)
    if tag == "trigonometric":
        m, w = 2 * ((j + 1) // 2), np.where(j % 2 == 1, 1.0, -1j)
    elif tag == "cosine":
        m, w = j, np.ones(k, complex)
    else:
        raise ValueError(f"unknown basis tag {tag!r}")
    # the phase uses m before folding; its angle is reduced mod 2 pi exactly
    w = w * np.exp(1j * np.pi * np.mod(m * shift, 2 * N) / N)
    m = m % (2 * N)
    m.flags.writeable = w.flags.writeable = False
    return m, w


def eval_series_grid(coefficients, N: int, shift: float = 0.0, count: int | None = None,
                     tag: str = "trigonometric") -> np.ndarray:
    """sum_j c_j phi_j(x_i) at x_i = (i + shift)/N for i < count <= 2N, by one FFT of length 2N.

    Each basis function is sqrt(2) Re(w exp(i pi m x)) for an integer m and a
    weight w: m = 2 ceil(j/2) with w = 1 (cosine term) or -i (sine term) for
    the trigonometric basis, m = j with w = 1 for the cosine basis. At x_i this
    is sqrt(2) Re(w exp(i pi m shift/N) exp(2 pi i m i/(2N))), so the weighted
    coefficients, folded mod 2N, are the spectrum of one inverse FFT.
    """
    c = np.asarray(coefficients, dtype=float)
    count = N if count is None else count
    if N < 1 or not 1 <= count <= 2 * N:
        raise ValueError(f"need N >= 1 and 1 <= count <= 2N, got N={N}, count={count}")
    folded, w = _fft_modes(c.size, N, shift, tag)
    weighted = w * c
    spectrum = np.bincount(folded, weighted.real, 2 * N) + 1j * np.bincount(
        folded, weighted.imag, 2 * N
    )
    return np.sqrt(2.0) * np.fft.ifft(spectrum, norm="forward").real[:count]


def project_grid(values, k: int, N: int, shift: float = 0.0,
                 tag: str = "trigonometric") -> np.ndarray:
    """Phi_k'v for v at x_i = (i + shift)/N, i < len(v) <= 2N: the adjoint of `eval_series_grid`.

    Entry j is sqrt(2) Re(w S(m)), S(m) = sum_i v_i exp(2 pi i m i/(2N)), which
    is conj(F[m mod 2N]) for the rfft F of length 2N. F holds m mod 2N <= N,
    which every k <= `design_dimension(N)` meets; another mode raises IndexError.
    """
    folded, w = _fft_modes(k, N, shift, tag)
    return np.sqrt(2.0) * (w * np.fft.rfft(values, 2 * N)[folded].conj()).real


def eval_series_rule(coefficients, rule, tag: str = "trigonometric") -> np.ndarray:
    """The series at a composite rule's nodes: those at in-cell offset t are one grid."""
    n = rule.n_cells
    return np.stack([eval_series_grid(coefficients, n, t, n, tag) for t in rule.offsets], 1).ravel()


def check_dimension(k: int, k_max: int) -> int:
    """k, if 1 <= k <= k_max, the model's largest dimension; raises ValueError otherwise."""
    if not 1 <= k <= k_max:
        raise ValueError(f"k={k} lies outside the model range 1 <= k <= {k_max}")
    return k


def design_dimension(n: int, basis_tag: str = "trigonometric", k_design: int = DESIGN_K_MAX) -> int:
    """The largest k <= k_design with Phi_k' Phi_k = n I on the midpoints x_i = (i - 1/2)/n.

    It is 0 where not even phi_1 is orthonormal on the n midpoints: the
    trigonometric basis at n <= 2 (sqrt(2) cos 2 pi x vanishes at 1/4 and
    3/4) and both bases at n = 1.
    """
    cap = n // 2 if basis_tag == "trigonometric" else max(n - 1, 1)
    k = min(k_design, max(cap, 1))
    orthonormal = 2 * ((k + 1) // 2) < n if basis_tag == "trigonometric" else k < n
    return k if orthonormal else 0

