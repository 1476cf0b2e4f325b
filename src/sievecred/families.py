"""The four observation models: simulation, likelihoods, projections, embeddings.

Each family bundles the parameterization theta -> observable, a simulator for
data from a truth, the projection of a truth onto the k-dimensional model, and
the semi-metric in which credible balls are built. Its likelihood has two entry
points: `loglik(data, k)` scores a (s, k) array of theta rows, and
`loglik_derivs(data, k)` gives theta -> (value, gradient, Hessian) for the
smooth families. Histogram, log-linear and classification embed theta rows
through one `embedding_rows(block, k)` method, over which centers and draw
distances are shared. Density families (histogram, log-linear) share a fixed
quadrature grid and embed the truth from its series on it; design families
(regression, classification) are bound to a midpoint design of size n. Each
truth series is summed by FFT (`eval_series_grid`, `eval_series_rule`). What
depends only on the truth (its design embedding or node series, CDF table,
normalizer, histogram cell integrals) is computed once per truth and kept in
the family's memo; what depends only on one dataset (the log-linear sufficient
statistics, and the Laplace fits of `inference`) is computed once per dataset
and kept in the dataset's memo; and each block's embedding rows are computed
once per set of draws and kept in the draws' memo, so a center and its draw
distances share them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.special import expit

from .basis import (
    DesignGrid,
    basis_matrix,
    design_dimension,
    eval_series_grid,
    eval_series_rule,
    midpoint_design,
)
from .metrics import SemiMetric, hellinger_hist_vs_cells, hist_cell_integrals
from .optimize import damped_newton
from .quadrature import DEFAULT_RULE, QuadratureRule, gauss_legendre_rule
from .truths import TruthSpec

FAMILY_TAGS = ("regression", "histogram", "loglinear", "classification")
SMOOTH_FAMILY_TAGS = ("regression", "loglinear", "classification")  # those with `loglik_derivs`

_LOG2PI = float(np.log(2.0 * np.pi))
DESIGN_K_MAX = 64  # the largest dimension a design family is built for, if n allows it


class Memo:
    """A `_memo` dict with `once`: what its owner computes once and keeps."""

    def once(self, key, compute):
        """`compute()`, run once per key and kept by the owner."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]


@dataclass(frozen=True)
class Dataset(Memo):
    """A sample; its memo keeps the Laplace fits and log-linear statistics made from it."""

    family_tag: str
    y: np.ndarray
    design: Optional[DesignGrid]
    n: int
    seed: Optional[int] = None
    _memo: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "y"])
            xs = self.design.points if self.design is not None else [""] * self.n
            for x, y in zip(xs, self.y):
                writer.writerow([x if x == "" else repr(float(x)), repr(float(y))])


def _simplex_check(theta: np.ndarray):
    if np.any(theta < 0):
        raise ValueError("histogram parameter has negative entries")
    if abs(float(theta.sum()) - 1.0) > 1e-8:
        raise ValueError("histogram parameter does not sum to one")


def _softplus(f: np.ndarray) -> np.ndarray:
    """log(1 + e^f) elementwise, as np.logaddexp(0, f) but by vector kernels; cannot overflow."""
    return np.maximum(f, 0.0) + np.log1p(np.exp(-np.abs(f)))


def _maximize(derivs, x0, n: int = 1) -> np.ndarray:
    """argmax of an expected log-likelihood, by damped Newton on its negative / n."""

    def objective(theta):
        value, grad, hess = derivs(theta)
        return -value / n, -grad / n, -hess / n

    theta, _ = damped_newton(objective, x0)
    return theta


class _Family(Memo):
    design: Optional[DesignGrid] = None

    def __init__(self):
        self._memo: dict = {}

    def _per_truth(self, truth: TruthSpec, name, compute):
        """`once` for a quantity of one truth, keyed by its coefficients."""
        return self.once((truth.coefficients.tobytes(), name), compute)

    def simulate(self, truth: TruthSpec, n: int, seed: int) -> Dataset:
        if truth.family_tag != self.tag:
            raise ValueError(f"truth is for family {truth.family_tag!r}, not {self.tag!r}")
        if self.design is not None and n != self.n:
            raise ValueError(f"family was built for n={self.n}, got {n}")
        y = self._draw(truth, n, np.random.default_rng(seed))
        return Dataset(self.tag, y, self.design, n, seed)

    def log_likelihood(self, theta, data: Dataset) -> float:
        """log-likelihood of one parameter vector, through the batched `loglik`."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        return float(self.loglik(data, theta.size)(theta[None, :])[0])


class _OnDesign(_Family):
    """A family bound to a fixed design of size n."""

    @property
    def n(self) -> int:
        return self.design.n

    @property
    def max_k(self) -> int:
        return self.design.k_design


class _RowEmbedded(_Family):
    """Center, draw distances and bias from `embedding_rows`; a center is its own embedding."""

    def _draw_rows(self, draws, k: int) -> np.ndarray:
        """The embedding rows of block k, once per set of draws."""
        return draws.once((self.tag, k), lambda: self.embedding_rows(draws.blocks[k], k))

    def center(self, draws) -> np.ndarray:
        total = 0
        acc = 0.0
        for k in sorted(draws.blocks):
            acc = acc + self._draw_rows(draws, k).sum(axis=0)
            total += draws.blocks[k].shape[0]
        return acc / total

    def center_embedding(self, center: np.ndarray) -> np.ndarray:
        return center

    def draw_distances(self, draws, center: np.ndarray) -> np.ndarray:
        metric = self.metric()
        return np.concatenate([
            metric.distances(self._draw_rows(draws, k), center)
            for k in sorted(draws.blocks)
        ])

    def bias_sq(self, truth: TruthSpec, k: int) -> float:
        projected = self.embedding_rows(self.project(truth, k)[None, :], k)[0]
        return self.metric().distance(self.truth_embedding(truth), projected) ** 2


class _Density(_RowEmbedded):
    """A density on [0, 1]: embedded on a quadrature grid, simulated by inverse CDF."""

    rule: QuadratureRule = DEFAULT_RULE
    cdf_cells = 4096
    max_k = 128

    def __init__(self, basis_tag: str = "trigonometric"):
        super().__init__()
        self.basis_tag = basis_tag

    def _draw(self, truth: TruthSpec, n: int, rng) -> np.ndarray:
        cells = self.cdf_cells
        grid = np.linspace(0.0, 1.0, cells + 1)

        def cdf_table():
            # piecewise-linear CDF of the truth on the grid, inverted by interpolation
            series = eval_series_grid(truth.coefficients, cells, 0.0, cells + 1, self.basis_tag)
            pdf = self._density_from_series(truth, series)
            cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(grid))])
            return cdf / cdf[-1]

        return np.interp(rng.random(n), self._per_truth(truth, "cdf_table", cdf_table), grid)

    def _node_series(self, truth: TruthSpec) -> np.ndarray:
        return self._per_truth(truth, "node_series", lambda: eval_series_rule(
            truth.coefficients, self.rule, self.basis_tag
        ))

    def truth_embedding(self, truth: TruthSpec) -> np.ndarray:
        return self._density_from_series(truth, self._node_series(truth))

    def metric(self) -> SemiMetric:
        return SemiMetric("hellinger", weights=self.rule.weights)


class Regression(_OnDesign):
    """Fixed-design Gaussian regression, unit noise."""

    tag = "regression"

    def __init__(self, n: int, basis_tag: str = "trigonometric", k_max: int = DESIGN_K_MAX,
                 design: Optional[DesignGrid] = None):
        super().__init__()
        self.design = design if design is not None else midpoint_design(
            n, basis_tag=basis_tag, k_design=k_max
        )
        self.basis_tag = self.design.basis_tag

    def truth_embedding(self, truth: TruthSpec) -> np.ndarray:
        return self._per_truth(truth, "design", lambda: self.design.series(truth.coefficients))

    def _draw(self, truth: TruthSpec, n: int, rng) -> np.ndarray:
        return self.truth_embedding(truth) + rng.standard_normal(n)

    def _quadratic(self, data: Dataset, k: int):
        """(Phi'Phi, Phi'y, y'y, -n/2 log 2 pi): the log-likelihood is a quadratic in these."""
        phi_y = self.design.phi(k).T @ data.y
        return self.design.phi_gram(k), phi_y, float(data.y @ data.y), -0.5 * data.n * _LOG2PI

    def loglik(self, data: Dataset, k: int):
        if data.n == 0:
            return lambda thetas: np.zeros(thetas.shape[0])
        gram, phi_y, yy, const = self._quadratic(data, k)

        def loglik(thetas):
            quad = np.einsum("si,ij,sj->s", thetas, gram, thetas)
            return const - 0.5 * (yy - 2.0 * thetas @ phi_y + quad)

        return loglik

    def loglik_derivs(self, data: Dataset, k: int):
        gram, phi_y, yy, const = self._quadratic(data, k)

        def derivs(theta):
            value = const - 0.5 * (yy - 2.0 * float(theta @ phi_y) + float(theta @ gram @ theta))
            return value, phi_y - gram @ theta, -gram

        return derivs

    def project(self, truth: TruthSpec, k: int) -> np.ndarray:
        f0 = self.truth_embedding(truth)
        try:
            return np.linalg.solve(self.design.phi_gram(k), self.design.phi(k).T @ f0)
        except np.linalg.LinAlgError as err:
            raise ValueError(f"singular normal equations at k={k}") from err

    def bias_sq(self, truth: TruthSpec, k: int) -> float:
        f0 = self.truth_embedding(truth)
        r = f0 - self.design.phi(k) @ self.project(truth, k)
        return float(r @ r) / self.n

    def metric(self) -> SemiMetric:
        return SemiMetric("empirical_l2")

    def center(self, draws) -> np.ndarray:
        k_max = max(draws.blocks)
        acc = np.zeros(k_max)
        total = 0
        for k in sorted(draws.blocks):
            block = draws.blocks[k]
            acc[:k] += block.sum(axis=0)
            total += block.shape[0]
        return acc / total

    def center_embedding(self, center: np.ndarray) -> np.ndarray:
        return self.design.phi(center.size) @ center

    def draw_distances(self, draws, center: np.ndarray) -> np.ndarray:
        k_max = max(max(draws.blocks), center.size)
        gram = self.design.gram(k_max)
        cbar = np.zeros(k_max)
        cbar[: center.size] = center
        parts = []
        for k in sorted(draws.blocks):
            block = draws.blocks[k]
            diff = np.zeros((block.shape[0], k_max))
            diff[:, :k] = block
            diff -= cbar
            d2 = np.einsum("si,ij,sj->s", diff, gram, diff)
            parts.append(np.sqrt(np.clip(d2, 0.0, None)))
        return np.concatenate(parts)


class Histogram(_Density):
    """Regular-bin random histograms for density estimation on [0, 1]."""

    tag = "histogram"

    def _density_from_series(self, truth: TruthSpec, series: np.ndarray) -> np.ndarray:
        return np.clip(1.0 + series, 0.0, None)

    def counts(self, data: Dataset, k: int) -> np.ndarray:
        if data.n == 0:
            return np.zeros(k, dtype=int)
        idx = np.minimum((data.y * k).astype(int), k - 1)
        return np.bincount(idx, minlength=k)

    def log_likelihood(self, theta, data: Dataset) -> float:
        _simplex_check(np.atleast_1d(np.asarray(theta, dtype=float)))
        return super().log_likelihood(theta, data)

    def loglik(self, data: Dataset, k: int):
        counts = self.counts(data, k)
        occupied = counts > 0
        c_occ = counts[occupied].astype(float)
        logk = np.log(k)

        def loglik(thetas):
            t = thetas[:, occupied]
            out = np.full(thetas.shape[0], -np.inf)
            good = np.all(t > 0.0, axis=1)
            out[good] = (c_occ * (logk + np.log(t[good]))).sum(axis=1)
            return out

        return loglik

    def _cell_integrals(self, truth: TruthSpec, k: int):
        """(int p0, int sqrt p0) over each of k regular bins, once per k."""

        def compute():
            rule = gauss_legendre_rule(k, 24)
            series = eval_series_rule(truth.coefficients, rule, self.basis_tag)
            return hist_cell_integrals(self._density_from_series(truth, series), rule)

        return self._per_truth(truth, ("cells", k), compute)

    def project(self, truth: TruthSpec, k: int) -> np.ndarray:
        cells = np.clip(self._cell_integrals(truth, k)[0], 0.0, None)
        return cells / cells.sum()

    def bias_sq(self, truth: TruthSpec, k: int) -> float:
        theta = self.project(truth, k)
        return hellinger_hist_vs_cells(theta, *self._cell_integrals(truth, k)) ** 2

    def node_cells(self, k: int) -> np.ndarray:
        return self.once(
            ("node_cells", k), lambda: np.minimum((self.rule.nodes * k).astype(int), k - 1)
        )

    def embedding_rows(self, block: np.ndarray, k: int) -> np.ndarray:
        return k * block[:, self.node_cells(k)]

    def center(self, draws) -> np.ndarray:
        """The mean density on the nodes: each block is summed over its draws first, per bin."""
        acc = 0.0
        total = 0
        for k in sorted(draws.blocks):
            block = draws.blocks[k]
            acc = acc + (k * block.sum(axis=0))[self.node_cells(k)]
            total += block.shape[0]
        return acc / total

    def draw_distances(self, draws, center: np.ndarray) -> np.ndarray:
        # The quadrature Hellinger distance, scored per bin j of each draw: over
        # the nodes i of bin j, sum w_i (a_j - r_i)^2 = W_j (a_j - m_j)^2 +
        # sum w_i (r_i - m_j)^2, with a_j = sqrt(k theta_j), r_i = sqrt(center_i),
        # W_j the bin's weight and m_j its weighted mean of r.
        w = self.rule.weights
        r = np.sqrt(np.clip(center, 0.0, None))
        parts = []
        for k in sorted(draws.blocks):
            cells = self.node_cells(k)
            W = np.bincount(cells, w, k)
            m = np.divide(np.bincount(cells, w * r, k), W, out=np.zeros(k), where=W > 0)
            spread = float(w @ (r - m[cells]) ** 2)
            a = np.sqrt(np.clip(k * draws.blocks[k], 0.0, None))
            d2 = (a - m) ** 2 @ W + spread
            parts.append(np.sqrt(np.clip(d2, 0.0, None)))
        return np.concatenate(parts)


class LogLinear(_Density):
    """Exponential-family densities exp(sum_j theta_j phi_j - c(theta)) on [0, 1]."""

    tag = "loglinear"

    @cached_property
    def phi_grid(self) -> np.ndarray:
        return basis_matrix(self.rule.nodes, self.max_k, self.basis_tag)

    def _log_norm_values(self, g: np.ndarray) -> float:
        m = float(g.max())
        return m + float(np.log(self.rule.weights @ np.exp(g - m)))

    def log_norm(self, theta) -> float:
        """c(theta) = log int exp(sum theta_j phi_j), overflow-guarded."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        return self._log_norm_values(self.phi_grid[:, : theta.size] @ theta)

    def log_norm_parts(self, theta):
        """(c, E phi, Cov phi) under f_theta, all on the quadrature grid."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        k = theta.size
        phi = self.phi_grid[:, :k]
        g = phi @ theta
        m = float(g.max())
        unnorm = self.rule.weights * np.exp(g - m)
        z = float(unnorm.sum())
        c = m + np.log(z)
        w = unnorm / z  # density times quadrature weight, sums to one
        mean = phi.T @ w
        cov = (phi * w[:, None]).T @ phi - np.outer(mean, mean)
        return c, mean, cov

    def _density_from_series(self, truth: TruthSpec, series: np.ndarray) -> np.ndarray:
        c0 = self._per_truth(truth, "c0", lambda: self._log_norm_values(self._node_series(truth)))
        return np.exp(series - c0)

    def suff_stats(self, data: Dataset, k: int) -> np.ndarray:
        """sum_i phi_j(y_i) for j <= k, sliced from column sums kept on the dataset.

        The sums are made at power-of-two widths, so a few serve every k. The
        bits are those of basis_matrix(y, k).sum(axis=0): numpy sums two or
        more columns row by row, which gives each column the same sum at any
        width, and a lone column pairwise, which only width 1 (k = 1) does.
        """
        if data.n == 0:
            return np.zeros(k)
        width = 1 << (k - 1).bit_length()
        sums = data.once(("suff_stats", self.basis_tag, width),
                         lambda: basis_matrix(data.y, width, self.basis_tag).sum(axis=0))
        return sums[:k].copy()

    def loglik(self, data: Dataset, k: int):
        t_stats = self.suff_stats(data, k)
        n = data.n
        phi_t = np.ascontiguousarray(self.phi_grid[:, :k].T)
        weights = self.rule.weights

        def loglik(thetas):
            g = thetas @ phi_t
            m = g.max(axis=1)
            c = m + np.log(np.exp(g - m[:, None]) @ weights)
            return thetas @ t_stats - n * c

        return loglik

    def loglik_derivs(self, data: Dataset, k: int):
        return self._derivs(self.suff_stats(data, k), data.n)

    def _derivs(self, t_stats: np.ndarray, n: int):
        """theta -> (value, grad, hess) of theta . t_stats - n c(theta)."""

        def derivs(theta):
            c, mean, cov = self.log_norm_parts(theta)
            return float(theta @ t_stats) - n * c, t_stats - n * mean, -n * cov

        return derivs

    def project(self, truth: TruthSpec, k: int) -> np.ndarray:
        """KL(theta_0, .) minimizer: matches E_{f_theta} phi_j to the truth's moments."""
        f0 = self.truth_embedding(truth)
        m0 = self.phi_grid[:, :k].T @ (self.rule.weights * f0)
        x0 = np.zeros(k)
        x0[: min(k, truth.coefficients.size)] = truth.coefficients[:k]
        return _maximize(self._derivs(m0, 1), x0)

    def embedding_rows(self, block: np.ndarray, k: int) -> np.ndarray:
        g = block @ self.phi_grid[:, :k].T
        m = g.max(axis=1, keepdims=True)
        z = np.exp(g - m) @ self.rule.weights
        return np.exp(g - m - np.log(z)[:, None])


class Classification(_RowEmbedded, _OnDesign):
    """Fixed-design binary responses with the logistic link."""

    tag = "classification"

    def __init__(self, n: int, basis_tag: str = "trigonometric", k_max: int = DESIGN_K_MAX):
        super().__init__()
        self.design = midpoint_design(n, basis_tag=basis_tag, k_design=k_max)
        self.basis_tag = basis_tag

    def truth_embedding(self, truth: TruthSpec) -> np.ndarray:
        return self._per_truth(truth, "design", lambda: expit(
            self.design.series(truth.coefficients)
        ))

    def _draw(self, truth: TruthSpec, n: int, rng) -> np.ndarray:
        return (rng.random(n) < self.truth_embedding(truth)).astype(float)

    def loglik(self, data: Dataset, k: int):
        if data.n == 0:
            return lambda thetas: np.zeros(thetas.shape[0])
        phi_t = np.ascontiguousarray(self.design.phi(k).T)
        y = data.y

        def loglik(thetas):
            f = thetas @ phi_t
            return f @ y - _softplus(f).sum(axis=1)

        return loglik

    def loglik_derivs(self, data: Dataset, k: int):
        phi = self.design.phi(k)
        y = data.y

        def derivs(theta):
            f = phi @ theta
            q = expit(f)
            value = float(y @ f - _softplus(f).sum())
            grad = phi.T @ (y - q)
            hess = -(phi * (q * (1.0 - q))[:, None]).T @ phi
            return value, grad, hess

        return derivs

    def project(self, truth: TruthSpec, k: int) -> np.ndarray:
        """Empirical KL projection: matches sum_i q(x_i) phi_j(x_i) to the truth.

        It maximizes the expected log-likelihood, which is the log-likelihood
        of the fractional responses y_i = q_0(x_i).
        """
        expected = Dataset(self.tag, self.truth_embedding(truth), self.design, self.n)
        return _maximize(self.loglik_derivs(expected, k), np.zeros(k), self.n)

    def metric(self) -> SemiMetric:
        return SemiMetric("empirical_hellinger")

    def embedding_rows(self, block: np.ndarray, k: int) -> np.ndarray:
        return expit(block @ self.design.phi(k).T)


def max_dimension(tag: str, n: int, basis_tag: str = "trigonometric") -> int:
    """The `max_k` of `make_family(tag, n, basis_tag)`, found without building a design."""
    if tag in ("regression", "classification"):
        return design_dimension(n, basis_tag, DESIGN_K_MAX)
    return _Density.max_k


def make_family(tag: str, n: int | None = None, basis_tag: str = "trigonometric", **kwargs):
    if tag == "regression":
        if n is None:
            raise ValueError("regression requires n")
        return Regression(n, basis_tag=basis_tag, **kwargs)
    if tag == "histogram":
        return Histogram(basis_tag=basis_tag, **kwargs)
    if tag == "loglinear":
        return LogLinear(basis_tag=basis_tag, **kwargs)
    if tag == "classification":
        if n is None:
            raise ValueError("classification requires n")
        return Classification(n, basis_tag=basis_tag, **kwargs)
    raise ValueError(f"unknown family {tag!r}")
