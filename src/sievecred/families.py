"""The four observation models: simulation, likelihoods, projections, embeddings.

Each family bundles the parameterization theta -> observable, a simulator for
data from a truth, the projection of a truth onto the k-dimensional model, and
the semi-metric in which credible balls are built. A smooth family's likelihood
has two entry points: `loglik(data, k)` scores a (s, k) array of theta rows,
and `loglik_derivs(data, k)` gives theta -> (value, gradient, Hessian). The
histogram has neither: under its conjugate Dirichlet prior the data enter only
through the bin `counts(data, k)`. `project`, `bias_sq`, `loglik`,
`loglik_derivs`, `embedding_rows` and `counts` raise ValueError for a k
outside 1..`max_k` (`check_dimension`). Log-linear and classification embed
theta rows through one `embedding_rows(block, k)` method, which centers and
draw distances share; the histogram computes them and its bias per bin.
Density families (histogram, log-linear) share a fixed quadrature grid and
embed the truth from its series on it; design families (regression,
classification) observe at the n midpoints x_i = (i - 1/2)/n, on which
Phi_k' Phi_k = n I, so regression is a Gaussian sequence model, whose dataset
is the sufficient statistic Z = Phi_K' y / n ~ N(a, I/n). Regression's
a = Phi_K' f0 / n is an FFT (`project_grid`), as is every truth series
(`eval_series_grid`, `eval_series_rule`). Classification and log-linear hold
their basis once, on the design or the nodes, as Phi' (`phi_t`, `max_k` rows,
C-contiguous); each k reads its first k rows (`phi_rows`), no copy. What
depends only on the truth (its design or node series, CDF table, normalizer,
histogram cell integrals, regression's a and residual) is computed once per
truth and kept in the family's memo; what depends only on one dataset (the
sufficient statistics, |Z|^2 for regression and column sums for log-linear,
and the Laplace fits of `inference`) is computed once per dataset and kept
in the dataset's memo, and each k reads a slice of it; and each block's
embedding rows are computed once per set of draws and kept in the draws'
memo, so a center and its draw distances share them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .basis import (
    DESIGN_K_MAX,
    basis_matrix,
    check_dimension,
    design_dimension,
    eval_series_grid,
    eval_series_rule,
    project_grid,
)
from .metrics import SemiMetric, hellinger_hist_vs_cells, hist_cell_integrals
from .optimize import damped_newton
from .quadrature import DEFAULT_RULE, QuadratureRule, gauss_legendre_rule
from .truths import TruthSpec

FAMILY_TAGS = ("regression", "histogram", "loglinear", "classification")
SMOOTH_FAMILY_TAGS = ("regression", "loglinear", "classification")  # with `loglik(_derivs)`
DESIGN_FAMILY_TAGS = ("regression", "classification")  # observed at x_i = (i - 1/2)/n

_LOG2PI = float(np.log(2.0 * np.pi))


class Memo:
    """A `_memo` dict with `once`: what its owner computes once and keeps."""

    def once(self, key, compute):
        """`compute()`, run once per key and kept by the owner."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]


@dataclass(frozen=True)
class Dataset(Memo):
    """A sample; its memo keeps the Laplace fits and sufficient statistics made from it."""

    family_tag: str
    y: np.ndarray
    n: int
    _memo: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))

    def to_csv(self, path):
        """Rows (x_i, y_i), x_i blank for a density, or (j, z_j) for regression."""
        header, firsts = ["x", "y"], [""] * self.n
        if self.family_tag == "regression":
            header, firsts = ["j", "z"], range(1, self.y.size + 1)
        elif self.family_tag in DESIGN_FAMILY_TAGS:
            firsts = [repr(x) for x in ((np.arange(self.n) + 0.5) / self.n).tolist()]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for first, y in zip(firsts, self.y, strict=True):
                writer.writerow([first, repr(float(y))])


def _softplus(f: np.ndarray) -> np.ndarray:
    """log(1 + e^f) elementwise, as np.logaddexp(0, f) but by vector kernels; cannot overflow.

    The kernels run in place on one buffer: a likelihood call that scores
    several chains' rows at once spent more on fresh temporaries than on them.
    """
    out = np.abs(f)
    for kernel in (np.negative, np.exp, np.log1p):
        kernel(out, out=out)
    out += np.maximum(f, 0.0)
    return out


def _logistic(f: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-f) elementwise; e^-f overflows to inf below f = -709, giving 0, silently."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-f))


def _maximize(derivs, x0, n: int = 1) -> np.ndarray:
    """argmax of an expected log-likelihood, by damped Newton on its negative / n."""

    def objective(theta):
        value, grad, hess = derivs(theta)
        return -value / n, -grad / n, -hess / n

    theta, _ = damped_newton(objective, x0)
    return theta


class _Family(Memo):
    def __init__(self):
        self._memo: dict = {}

    def _per_truth(self, truth: TruthSpec, name, compute):
        """`once` for a quantity of one truth, keyed by the truth object, which the memo holds."""
        return self.once((truth, name), compute)

    def simulate(self, truth: TruthSpec, n: int, seed: int) -> Dataset:
        if truth.family_tag != self.tag:
            raise ValueError(f"truth is for family {truth.family_tag!r}, not {self.tag!r}")
        if self.tag in DESIGN_FAMILY_TAGS and n != self.n:
            raise ValueError(f"family was built for n={self.n}, got {n}")
        y = self._draw(truth, n, np.random.default_rng(seed))
        return Dataset(self.tag, y, n)


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

    def phi_rows(self, k: int) -> np.ndarray:
        """Phi_k', the first k rows of `phi_t`: C-contiguous, no copy."""
        return self.phi_t[: check_dimension(k, self.max_k)]


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


class Regression(_Family):
    """Fixed-design Gaussian regression, unit noise, on the midpoint design: Phi_k' Phi_k = n I.

    Its dataset is Z = Phi_K'y/n ~ N(a, I/n), K = `max_k` values; `Dataset.n` is still n.
    """

    tag = "regression"

    def __init__(self, n: int, basis_tag: str = "trigonometric"):
        super().__init__()
        self.n = n
        self.basis_tag = basis_tag
        self.max_k = max_dimension(self.tag, n, basis_tag)
        if self.max_k < 1:
            raise ValueError(f"no {basis_tag} basis function is orthonormal on n={n} midpoints")

    def _draw(self, truth: TruthSpec, n: int, rng) -> np.ndarray:
        """Z = Phi_K'y/n ~ N(a, I/n), K = `max_k`: the n responses are never drawn."""
        return self._coefficients(truth)[0] + rng.standard_normal(self.max_k) / np.sqrt(n)

    def _quadratic(self, data: Dataset, k: int):
        """(n Z_k, n|Z|^2, -(K/2) log(2 pi/n)), in which the log-density of Z is a quadratic.

        It differs from the y-likelihood by a constant free of k and theta, as |y -
        Phi_k theta|^2 = |y - Phi_K Z|^2 + n|Z - theta|^2. |Z|^2 is made once per dataset.
        """
        z = data.y
        if z.size != self.max_k:
            raise ValueError(f"a regression dataset holds Z, {self.max_k} values, not {z.size}")
        zz = data.once(("zz", self.tag), lambda: float(z @ z))
        const = -0.5 * self.max_k * (_LOG2PI - np.log(self.n))
        return self.n * z[: check_dimension(k, self.max_k)], self.n * zz, const

    def loglik(self, data: Dataset, k: int):
        b, zz, const = self._quadratic(data, k)

        def loglik(thetas):
            quad = self.n * np.einsum("si,si->s", thetas, thetas)
            return const - 0.5 * (zz - 2.0 * thetas @ b + quad)

        return loglik

    def loglik_derivs(self, data: Dataset, k: int):
        b, zz, const = self._quadratic(data, k)

        def derivs(theta):
            value = const - 0.5 * (zz - 2.0 * float(theta @ b) + self.n * float(theta @ theta))
            return value, b - self.n * theta, -self.n * np.eye(k)

        return derivs

    def _coefficients(self, truth: TruthSpec):
        """(a, r_K), once per truth: a = Phi_K'f0/n for K = `max_k`, r_K = |f0 - Phi_K a|^2/n.

        r_K is summed from the residual: s - |a|^2, s = |f0|^2/n, cancels below
        zero at large n. A truth no longer than K is its own projection.
        """

        def compute():
            theta0 = truth.coefficients
            if theta0.size <= self.max_k:
                return np.pad(theta0, (0, self.max_k - theta0.size)), 0.0
            f0 = eval_series_grid(theta0, self.n, 0.5, tag=self.basis_tag)
            a = project_grid(f0, self.max_k, self.n, 0.5, self.basis_tag) / self.n
            r = f0 - eval_series_grid(a, self.n, 0.5, tag=self.basis_tag)
            return a, float(r @ r) / self.n

        return self._per_truth(truth, "coefficients", compute)

    def project(self, truth: TruthSpec, k: int) -> np.ndarray:
        """The first k entries of a = Phi_K'f0/n."""
        return self._coefficients(truth)[0][: check_dimension(k, self.max_k)].copy()

    def bias_sq(self, truth: TruthSpec, k: int) -> float:
        """|f0 - Phi_k a_k|^2/n = r_K + sum_{k<j<=K} a_j^2, as the columns are orthogonal."""
        a, r_K = self._coefficients(truth)
        tail = a[check_dimension(k, self.max_k):]
        return r_K + float(tail @ tail)

    def truth_embedding(self, truth: TruthSpec) -> np.ndarray:
        """(a, sqrt(r_K)): its `l2` distance to `center_embedding(c)` is |f0 - Phi c|_n,
        as the residual f0 - Phi_K a is orthogonal to every column."""

        def compute():
            a, r_K = self._coefficients(truth)
            return np.append(a, np.sqrt(r_K))

        return self._per_truth(truth, "embedding", compute)

    def metric(self) -> SemiMetric:
        return SemiMetric("l2")

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
        """(c, 0 ... 0), as long as `truth_embedding`."""
        embedding = np.zeros(self.max_k + 1)
        embedding[: check_dimension(center.size, self.max_k)] = center
        return embedding

    def draw_distances(self, draws, center: np.ndarray) -> np.ndarray:
        """The Euclidean norm of each draw minus the center, both padded with zeros."""
        k_max = max(max(draws.blocks), center.size)
        cbar = np.zeros(k_max)
        cbar[: center.size] = center
        parts = []
        for k in sorted(draws.blocks):
            diff = draws.blocks[k] - cbar[:k]
            tail = float(cbar[k:] @ cbar[k:])
            parts.append(np.sqrt(np.einsum("si,si->s", diff, diff) + tail))
        return np.concatenate(parts)


class Histogram(_Density):
    """Regular-bin random histograms for density estimation on [0, 1]."""

    tag = "histogram"

    def _density_from_series(self, truth: TruthSpec, series: np.ndarray) -> np.ndarray:
        return np.clip(1.0 + series, 0.0, None)

    def counts(self, data: Dataset, k: int) -> np.ndarray:
        """The counts in k regular bins, the histogram's sufficient statistic."""
        idx = np.minimum((data.y * check_dimension(k, self.max_k)).astype(int), k - 1)
        return np.bincount(idx, minlength=k)

    def _cell_integrals(self, truth: TruthSpec, k: int):
        """(int p0, int sqrt p0) over each of k regular bins, once per k."""

        def compute():
            rule = gauss_legendre_rule(k, 24)
            series = eval_series_rule(truth.coefficients, rule, self.basis_tag)
            return hist_cell_integrals(self._density_from_series(truth, series), rule)

        return self._per_truth(truth, ("cells", check_dimension(k, self.max_k)), compute)

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
    def phi_t(self) -> np.ndarray:
        """Phi' on the quadrature nodes, (`max_k`, nodes) and C-contiguous."""
        return basis_matrix(self.rule.nodes, self.max_k, self.basis_tag).T.copy()

    def _log_norm_values(self, g: np.ndarray) -> float:
        m = float(g.max())
        return m + float(np.log(self.rule.weights @ np.exp(g - m)))

    def log_norm(self, theta) -> float:
        """c(theta) = log int exp(sum theta_j phi_j), overflow-guarded."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        return self._log_norm_values(theta @ self.phi_t[: theta.size])

    def log_norm_parts(self, theta):
        """(c, E phi, Cov phi) under f_theta, all on the quadrature grid."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        phi_t = self.phi_t[: theta.size]
        g = theta @ phi_t
        m = float(g.max())
        unnorm = self.rule.weights * np.exp(g - m)
        z = float(unnorm.sum())
        c = m + np.log(z)
        w = unnorm / z  # density times quadrature weight, sums to one
        mean = phi_t @ w
        cov = (phi_t * w) @ phi_t.T - np.outer(mean, mean)
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
        width = 1 << (check_dimension(k, self.max_k) - 1).bit_length()
        sums = data.once(("suff_stats", self.basis_tag, width),
                         lambda: basis_matrix(data.y, width, self.basis_tag).sum(axis=0))
        return sums[:k].copy()

    def loglik(self, data: Dataset, k: int):
        t_stats = self.suff_stats(data, k)
        n = data.n
        phi_t = self.phi_rows(k)
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
        m0 = self.phi_rows(k) @ (self.rule.weights * f0)
        x0 = np.zeros(k)
        x0[: min(k, truth.coefficients.size)] = truth.coefficients[:k]
        return _maximize(self._derivs(m0, 1), x0)

    def embedding_rows(self, block: np.ndarray, k: int) -> np.ndarray:
        g = block @ self.phi_rows(k)
        m = g.max(axis=1, keepdims=True)
        z = np.exp(g - m) @ self.rule.weights
        return np.exp(g - m - np.log(z)[:, None])


class Classification(_RowEmbedded):
    """Binary responses with the logistic link; `phi_t` is Phi' at the n midpoints, (`max_k`, n)."""

    tag = "classification"

    def __init__(self, n: int, basis_tag: str = "trigonometric"):
        super().__init__()
        self.n, self.basis_tag = n, basis_tag
        self.max_k = max_dimension(self.tag, n, basis_tag)
        if self.max_k < 1:
            raise ValueError(f"no {basis_tag} basis function is orthonormal on n={n} midpoints")
        self.phi_t = basis_matrix((np.arange(n) + 0.5) / n, self.max_k, basis_tag).T.copy()

    def truth_embedding(self, truth: TruthSpec) -> np.ndarray:
        return self._per_truth(truth, "design", lambda: _logistic(
            eval_series_grid(truth.coefficients, self.n, 0.5, tag=self.basis_tag)
        ))

    def _draw(self, truth: TruthSpec, n: int, rng) -> np.ndarray:
        return (rng.random(n) < self.truth_embedding(truth)).astype(float)

    def loglik(self, data: Dataset, k: int):
        phi_t = self.phi_rows(k)
        y = data.y

        def loglik(thetas):
            f = thetas @ phi_t
            return f @ y - _softplus(f).sum(axis=1)

        return loglik

    def loglik_derivs(self, data: Dataset, k: int):
        phi_t = self.phi_rows(k)
        y = data.y

        def derivs(theta):
            f = theta @ phi_t
            q = _logistic(f)
            value = float(y @ f - _softplus(f).sum())
            grad = phi_t @ (y - q)
            hess = -(phi_t * (q * (1.0 - q))) @ phi_t.T
            return value, grad, hess

        return derivs

    def project(self, truth: TruthSpec, k: int) -> np.ndarray:
        """Empirical KL projection: matches sum_i q(x_i) phi_j(x_i) to the truth.

        It maximizes the expected log-likelihood, which is the log-likelihood
        of the fractional responses y_i = q_0(x_i).
        """
        expected = Dataset(self.tag, self.truth_embedding(truth), self.n)
        return _maximize(self.loglik_derivs(expected, k), np.zeros(k), self.n)

    def metric(self) -> SemiMetric:
        return SemiMetric("empirical_hellinger")

    def embedding_rows(self, block: np.ndarray, k: int) -> np.ndarray:
        return _logistic(block @ self.phi_rows(k))


def max_dimension(tag: str, n: int, basis_tag: str = "trigonometric") -> int:
    """The `max_k` of `make_family(tag, n, basis_tag)`, found without building the family."""
    if tag in DESIGN_FAMILY_TAGS:
        return design_dimension(n, basis_tag, n if tag == "regression" else DESIGN_K_MAX)
    return _Density.max_k


def make_family(tag: str, n: int | None = None, basis_tag: str = "trigonometric"):
    if tag == "regression":
        if n is None:
            raise ValueError("regression requires n")
        return Regression(n, basis_tag=basis_tag)
    if tag == "histogram":
        return Histogram(basis_tag=basis_tag)
    if tag == "loglinear":
        return LogLinear(basis_tag=basis_tag)
    if tag == "classification":
        if n is None:
            raise ValueError("classification requires n")
        return Classification(n, basis_tag=basis_tag)
    raise ValueError(f"unknown family {tag!r}")
