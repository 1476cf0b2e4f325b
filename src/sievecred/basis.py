"""Orthonormal bases on [0, 1] and fixed midpoint design grids.

Both basis families are orthonormal in L2[0,1] and integrate to zero, which the
log-linear model requires. On the midpoint design x_i = (i - 1/2)/n the
trigonometric system is also orthonormal in the empirical inner product for
k <= n/2 (discrete Fourier orthogonality), so the design Gram matrix is the
identity up to rounding.

A long series sum_j c_j phi_j is summed term by term by `eval_series` at
arbitrary points, and by one FFT (`eval_series_grid`) on an equispaced grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

BASIS_TAGS = ("trigonometric", "cosine")


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


def eval_series(x, coefficients, tag: str = "trigonometric", chunk: int = 512) -> np.ndarray:
    """Evaluate sum_j c_j phi_j(x) for possibly long coefficient vectors.

    Works in column blocks so an n x 4096 basis matrix is never materialized.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    coefficients = np.asarray(coefficients, dtype=float)
    total = np.zeros(x.size)
    for start in range(0, coefficients.size, chunk):
        stop = min(start + chunk, coefficients.size)
        total += _basis_block(x, start, stop, tag) @ coefficients[start:stop]
    return total


def eval_series_grid(coefficients, N: int, shift: float = 0.0, count: int | None = None,
                     tag: str = "trigonometric") -> np.ndarray:
    """`eval_series` at x_i = (i + shift)/N for i < count <= 2N, by one FFT of length 2N.

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
    j = np.arange(1, c.size + 1)
    if tag == "trigonometric":
        m = 2 * ((j + 1) // 2)
        weighted = np.where(j % 2 == 1, c, -1j * c)
    elif tag == "cosine":
        m = j
        weighted = c.astype(complex)
    else:
        raise ValueError(f"unknown basis tag {tag!r}")
    # the phase uses m before folding; its angle is reduced mod 2 pi exactly
    weighted = weighted * np.exp(1j * np.pi * np.mod(m * shift, 2 * N) / N)
    folded = m % (2 * N)
    spectrum = np.bincount(folded, weighted.real, 2 * N) + 1j * np.bincount(
        folded, weighted.imag, 2 * N
    )
    return np.sqrt(2.0) * np.fft.ifft(spectrum, norm="forward").real[:count]


def midpoints(n: int) -> np.ndarray:
    """The midpoint design x_i = (i - 1/2)/n, i = 1..n."""
    return (np.arange(n) + 0.5) / n


@dataclass(frozen=True)
class DesignGrid:
    """Fixed design points with the basis evaluated and certified.

    c0 reports the numerical constant for which the eigenvalues of Phi'Phi/n
    lie in [1/c0, c0] for all k <= k_design.
    """

    points: np.ndarray
    basis_tag: str
    k_design: int
    c0: float
    _phi: np.ndarray = field(repr=False)
    _products: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.points.size

    def phi(self, k: int) -> np.ndarray:
        if k > self.k_design:
            raise ValueError(
                f"k={k} exceeds the certified design range k_design={self.k_design}"
            )
        return self._phi[:, :k]

    def phi_gram(self, k: int) -> np.ndarray:
        """Phi_k' Phi_k, read-only, computed once per k (a larger k's block differs in bits)."""
        if k not in self._products:
            p = self.phi(k)
            self._products[k] = p.T @ p
            self._products[k].flags.writeable = False
        return self._products[k]

    def gram(self, k: int) -> np.ndarray:
        return self.phi_gram(k) / self.n

    def series(self, coefficients) -> np.ndarray:
        """sum_j c_j phi_j at the design points.

        A series that fits the design is the product Phi_k c, the one
        `center_embedding` uses. A longer one is summed by FFT, which needs
        the midpoint points.
        """
        c = np.asarray(coefficients, dtype=float)
        if c.size <= self.k_design:
            return self.phi(c.size) @ c
        if not np.array_equal(self.points, midpoints(self.n)):
            raise ValueError(
                f"a series of {c.size} > k_design={self.k_design} terms needs the midpoint design"
            )
        return eval_series_grid(c, self.n, 0.5, tag=self.basis_tag)


def design_dimension(n: int, basis_tag: str = "trigonometric", k_design: int | None = None) -> int:
    """The k_design of `midpoint_design(n, basis_tag, k_design)`, found without building it."""
    cap = n // 2 if basis_tag == "trigonometric" else max(n - 1, 1)
    return min(k_design if k_design is not None else 64, max(cap, 1))


def midpoint_design(n: int, basis_tag: str = "trigonometric", k_design: int | None = None) -> DesignGrid:
    """Equispaced midpoint design x_i = (i - 1/2)/n with eigenvalue certification."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k_design = design_dimension(n, basis_tag, k_design)
    points = midpoints(n)
    phi = basis_matrix(points, k_design, basis_tag)
    eigs = np.linalg.eigvalsh(phi.T @ phi / n)
    if eigs.min() <= 1e-12:
        raise ValueError(
            f"design matrix numerically singular at k={k_design} (n={n}, {basis_tag})"
        )
    c0 = float(max(eigs.max(), 1.0 / eigs.min()))
    return DesignGrid(points=points, basis_tag=basis_tag, k_design=k_design, c0=c0, _phi=phi)
