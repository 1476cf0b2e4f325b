"""Marginal likelihoods m_n(k), the MMLE, the posterior over k, and samplers.

Exact routes: Gaussian linear-model evidence for regression with a gaussian
product prior, in closed form on the orthonormal midpoint design (a posterior
N(b/p, I/p) given k, b = n Z_k), and the Dirichlet-multinomial formula for histograms.
Everything else goes through a Laplace approximation at the posterior mode,
optionally corrected by importance sampling with the Laplace Gaussian as
proposal; regression can take either, to check it against the exact evidence.
Within-model sampling is exact where conjugacy allows. Otherwise the draw
given one k (the empirical mode) is random-walk Metropolis at the fixed scale
2.38/sqrt(k), preconditioned by the Laplace-mode Hessian, and the
hierarchical draw takes each k's block by independence Metropolis-Hastings
from a multivariate t on the Laplace fit, every block's proposals scored in
one likelihood call.
`route` decides which of these a family and prior take. What depends only on
one dataset is made once and kept in the dataset's memo: each Laplace fit,
once per prior and k, so the evidence table, the importance route and every
chain share its mode and Cholesky factor. A regression dataset is already its
sufficient statistic Z = Phi_K'y/n, so the table and every k the samplers
visit slice Z, with |Z|^2 made once.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .basis import check_dimension
from .families import SMOOTH_FAMILY_TAGS, Dataset, Memo
from .mcmc import McmcSettings, rwm
from .optimize import damped_newton
from .priors import ConditionalPrior, SievePrior, log_prior_rows

_LOG2PI = float(np.log(2.0 * np.pi))

MARGINAL_METHODS = ("auto", "laplace", "importance")

_ESS_FLOOR = 64.0  # importance sampling retries, then fails, below this effective sample size
_IMH_DF = 5.0  # the t proposal's degrees of freedom: tails heavier than the posterior's


def _seed_list(seed) -> list[int]:
    if isinstance(seed, (int, np.integer)):
        return [int(seed)]
    return [int(s) for s in seed]


@dataclass
class MarginalLikelihoodTable:
    """log m_n(k) for k = 1..k_cap, all computed on one `route`."""

    log_m: dict[int, float]
    route: str
    ess: dict[int, Optional[float]] = field(default_factory=dict)

    def __post_init__(self):
        for k, v in self.log_m.items():
            if not np.isfinite(v):
                raise ValueError(f"non-finite log marginal likelihood at k={k}")

    @property
    def ks(self) -> list[int]:
        return sorted(self.log_m)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k", "log_m", "method", "ess"])
            for k in self.ks:
                ess = self.ess.get(k)
                writer.writerow([k, repr(self.log_m[k]), self.route, "" if ess is None else repr(ess)])


@dataclass
class PosteriorDraws(Memo):
    """Draws grouped by model: `blocks[k]` holds the (count_k, k) draws that fell on k.

    The memo keeps each block's embedding rows, for its center and distances.
    """

    blocks: dict[int, np.ndarray]
    diagnostics: dict = field(default_factory=dict)
    _memo: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    @property
    def count(self) -> int:
        return sum(block.shape[0] for block in self.blocks.values())

    def k_counts(self) -> dict[int, int]:
        return {k: self.blocks[k].shape[0] for k in sorted(self.blocks)}


@dataclass
class KPosterior:
    """pi(k | Y) as probabilities `probs` over the ascending dimensions `ks`."""

    ks: np.ndarray
    probs: np.ndarray

    def mass(self) -> dict[int, float]:
        return dict(zip(self.ks.tolist(), self.probs.tolist()))

    def mode(self) -> int:
        """The most probable k; ties go to the smallest."""
        return int(self.ks[np.argmax(self.probs)])

    def set_mass(self, ks) -> float:
        """The mass of the dimensions in the container `ks`; those outside the support add 0."""
        return float(self.probs[[k in ks for k in self.ks.tolist()]].sum())


def route(family_tag: str, prior: ConditionalPrior, method: str = "auto") -> str:
    """How m_n(k) and the posterior given k are computed for a family and prior.

    'auto' takes the exact route where one exists, 'conjugate' (regression,
    gaussian prior) or 'dirichlet' (histogram, dirichlet prior), and else
    'laplace', which approximates at the posterior mode of a smooth family
    under the gaussian prior. 'laplace' and 'importance', which corrects
    laplace's evidence by importance sampling, can be asked of any smooth family
    with the gaussian prior; the dirichlet prior has no route but 'dirichlet'.
    Raises ValueError when `method` names no route for the pairing.
    """
    if method not in MARGINAL_METHODS:
        raise ValueError(f"unknown marginal_method {method!r}")
    exact = {("regression", "gaussian"): "conjugate",
             ("histogram", "dirichlet"): "dirichlet"}.get((family_tag, prior.kind))
    chosen = (exact or "laplace") if method == "auto" else method
    smooth = family_tag in SMOOTH_FAMILY_TAGS and prior.kind == "gaussian"
    if chosen in ("laplace", "importance") and not smooth:
        raise ValueError(f"no {method} route for {family_tag} with a {prior.kind} prior")
    return chosen


# ---------------------------------------------------------------------------
# exact evidence formulas


def _regression_conjugate(family, prior: ConditionalPrior, data: Dataset, k: int):
    """Posterior mean, posterior precision p and evidence for the gaussian prior.

    With Phi'Phi = n I the posterior given k is N(b/p, I/p), where
    p = n + 1/tau^2 and b = Phi_k'y = n Z_k.
    """
    b, zz, const = family._quadratic(data, k)
    p = family.n + 1.0 / prior.scale**2
    log_m = const - k * np.log(prior.scale) - 0.5 * k * np.log(p) + 0.5 * (float(b @ b) / p - zz)
    return b / p, p, float(log_m)


def _dirichlet_log_m(family, prior: ConditionalPrior, data: Dataset, k: int) -> float:
    a = prior.alpha
    counts = family.counts(data, k)
    return (
        data.n * math.log(k)
        + sum(math.lgamma(a + c) for c in counts.tolist())
        - math.lgamma(k * a + data.n)
        - k * math.lgamma(a)
        + math.lgamma(k * a)
    )


# ---------------------------------------------------------------------------
# Laplace machinery for the non-conjugate routes


def _neg_log_post_parts(family, prior: ConditionalPrior, data: Dataset, k: int):
    """Callable theta -> (value, grad, hess) of -(loglik + logprior), unscaled."""
    lik_parts = family.loglik_derivs(data, k)
    s2 = prior.scale**2
    prior_const, prior_hess = -0.5 * k * np.log(2.0 * np.pi * s2), -np.eye(k) / s2

    def parts(theta):
        lv, lg, lh = lik_parts(theta)
        pv = prior_const - 0.5 * float(theta @ theta) / s2
        return -(lv + pv), -(lg - theta / s2), -(lh + prior_hess)

    return parts


def _laplace_fit(family, prior: ConditionalPrior, data: Dataset, k: int):
    """Posterior mode, neg-hessian cholesky and Laplace log evidence, once per dataset.

    The fit at k starts Newton from the mode at k - 1 with a zero appended, so
    asking for k first makes the missing fits at 1..k - 1, in order: the fit
    at k is the same whichever k is asked for first.
    """
    start = np.zeros(0)
    for j in range(1, check_dimension(k, family.max_k) + 1):
        key = ("laplace", family.tag, family.basis_tag, prior, j)
        fit = data.once(key, lambda: _fit_laplace(family, prior, data, j, np.append(start, 0.0)))
        start = fit[0]
    return fit


def _fit_laplace(family, prior: ConditionalPrior, data: Dataset, k: int, x0):
    parts = _neg_log_post_parts(family, prior, data, k)
    scale = 1.0 / data.n

    def scaled(theta):
        v, gr, h = parts(theta)
        return v * scale, gr * scale, h * scale

    mode, info = damped_newton(scaled, x0, tol=1e-9)
    value, _, hess = parts(mode)
    chol = np.linalg.cholesky(hess)
    log_det = 2.0 * float(np.log(np.diag(chol)).sum())
    log_m = -value + 0.5 * k * _LOG2PI - 0.5 * log_det
    mode.flags.writeable = chol.flags.writeable = False  # every user of the fit shares them
    return mode, chol, float(log_m), info


def _importance_product(family, prior, data, k, mode, chol, particles, rng):
    """IS evidence using N(mode, H^-1 scale^2) as proposal; retries once wider."""
    loglik = family.loglik(data, k)
    log_det_h = 2.0 * float(np.log(np.diag(chol)).sum())
    for scale in (1.0, 2.0):
        z = rng.standard_normal((particles, k))
        thetas = mode + scale * np.linalg.solve(chol.T, z.T).T
        log_q = (
            0.5 * log_det_h
            - k * np.log(scale)
            - 0.5 * k * _LOG2PI
            - 0.5 * (z**2).sum(axis=1)
        )
        log_w = loglik(thetas) + log_prior_rows(prior, thetas) - log_q
        log_m, ess, se = _log_mean_weights(log_w)
        if ess >= _ESS_FLOOR:
            return log_m, ess, se
    raise RuntimeError(f"importance sampling ESS {ess:.1f} below floor {_ESS_FLOOR}")


def _log_mean_weights(log_w: np.ndarray):
    log_w = np.asarray(log_w, dtype=float)
    finite = np.isfinite(log_w)
    if not finite.any():
        raise RuntimeError("all importance weights vanished")
    m = float(log_w[finite].max())
    w = np.zeros_like(log_w)
    w[finite] = np.exp(log_w[finite] - m)
    mean = w.mean()
    log_m = m + np.log(mean)
    ess = float(w.sum() ** 2 / (w**2).sum())
    se = float(w.std(ddof=1) / (np.sqrt(w.size) * mean))
    return float(log_m), ess, se


# ---------------------------------------------------------------------------
# public operations


def marginal_likelihood(
    family,
    prior: ConditionalPrior,
    data: Dataset,
    k: int,
    method: str = "auto",
    seed=0,
    is_particles: int = 2048,
):
    """log m_n(k), the name of the route taken (as `route` gives it) and diagnostics.

    The e^{-l_n(theta_0)} normalization used in proofs is omitted: it cancels in
    the argmax and in the posterior over k.
    """
    chosen = route(family.tag, prior, method)
    if chosen == "conjugate":
        _, _, log_m = _regression_conjugate(family, prior, data, k)
        return log_m, chosen, {}
    if chosen == "dirichlet":
        return _dirichlet_log_m(family, prior, data, k), chosen, {}
    if chosen == "laplace":
        _, _, log_m, info = _laplace_fit(family, prior, data, k)
        return log_m, chosen, {"newton": info}
    rng = np.random.default_rng(_seed_list(seed))
    mode, chol, _, _ = _laplace_fit(family, prior, data, k)
    log_m, ess, se = _importance_product(family, prior, data, k, mode, chol, is_particles, rng)
    return log_m, chosen, {"ess": ess, "se_log_m": se}


def marginal_table(
    family,
    prior: SievePrior,
    data: Dataset,
    method: str = "auto",
    seed=0,
) -> MarginalLikelihoodTable:
    log_m, ess = {}, {}
    base = _seed_list(seed)
    for k in range(1, prior.hyper.k_cap + 1):
        value, _, diag = marginal_likelihood(
            family,
            prior.conditional,
            data,
            k,
            method=method,
            seed=base + [k],
        )
        log_m[k] = value
        ess[k] = diag.get("ess")
    return MarginalLikelihoodTable(log_m, route(family.tag, prior.conditional, method), ess)


def mmle(table: MarginalLikelihoodTable) -> int:
    """argmax_k log m(k), ties broken to the smallest k."""
    ks = table.ks
    values = np.array([table.log_m[k] for k in ks])
    return int(ks[int(np.argmax(values))])


def k_posterior(table: MarginalLikelihoodTable, hyper) -> KPosterior:
    """pi(k | Y), proportional to pi(k) m_n(k), normalised once from exp(log - max)."""
    logs = np.array([hyper.log_mass(k) + table.log_m[k] for k in table.ks])
    probs = np.exp(logs - logs.max())
    return KPosterior(np.array(table.ks), probs / probs.sum())


def sample_given_k(
    family,
    prior: ConditionalPrior,
    data: Dataset,
    k: int,
    count: int,
    seed,
    mcmc: Optional[McmcSettings] = None,
) -> PosteriorDraws:
    """Exact draws on the exact routes, preconditioned RWM on the laplace route.

    The chain (`mcmc.rwm`) starts at the Laplace mode and runs at the fixed
    scale 2.38/sqrt(k); only it reads `mcmc` (burn-in and thinning).
    """
    sampler = route(family.tag, prior)
    rng = np.random.default_rng(_seed_list(seed))
    if sampler == "laplace":
        mode, chol, _, _ = _laplace_fit(family, prior, data, k)
        loglik = family.loglik(data, k)

        def log_target(rows):
            return loglik(rows) + log_prior_rows(prior, rows)

        # proposal covariance = inverse curvature at the mode
        block, diag = rwm(log_target, mode, np.linalg.inv(chol).T, count,
                          mcmc or McmcSettings(), rng)
        return PosteriorDraws({k: block}, diagnostics={**diag, "sampler": "rwm"})
    if sampler == "conjugate":
        mean, p, _ = _regression_conjugate(family, prior, data, k)
        block = mean + rng.standard_normal((count, k)) / np.sqrt(p)
    else:
        block = rng.dirichlet(prior.alpha + family.counts(data, k), size=count)
    return PosteriorDraws({k: block}, diagnostics={"sampler": sampler})


def _imh_blocks(family, prior: ConditionalPrior, data: Dataset, ks, counts, seeds):
    """Independence Metropolis-Hastings given each k in `ks`: (blocks, diagnostics).

    Chain k runs `counts[i]` steps from its Laplace mode. Its proposals are
    multivariate t with `_IMH_DF` degrees of freedom, centred at the mode and
    scaled by the inverse curvature there, drawn with the uniforms of the
    accept test from `default_rng(seeds[i])`. One likelihood at the largest k
    scores every mode and proposal as a zero-padded row: the sieve is nested,
    and the prior's padded entries add a constant per k, which cancels in the
    accept ratio, as do the normalizing constants of the proposal. Each chain
    keeps the state after every step, so there is no burn-in or thinning.
    Raises ValueError when a mode scores non-finite.
    """
    fits = [_laplace_fit(family, prior, data, k) for k in ks]
    starts = np.cumsum([len(ks)] + counts).tolist()  # rows of chain i: starts[i]:starts[i + 1]
    rows = np.zeros((starts[-1], max(ks)))
    log_q, log_u = [], []
    for i, (k, c_k, seed, (mode, chol, _, _)) in enumerate(zip(ks, counts, seeds, fits)):
        rng = np.random.default_rng(_seed_list(seed))
        z = rng.standard_normal((c_k, k)) * np.sqrt(_IMH_DF / rng.chisquare(_IMH_DF, c_k))[:, None]
        log_u.append(np.log(rng.random(c_k)).tolist())
        rows[i, :k] = mode
        rows[starts[i]:starts[i + 1], :k] = mode + np.linalg.solve(chol.T, z.T).T
        log_q.append(-0.5 * (_IMH_DF + k) * np.log1p((z**2).sum(axis=1) / _IMH_DF))
    log_p = family.loglik(data, max(ks))(rows) + log_prior_rows(prior, rows)
    bad = [k for k, v in zip(ks, log_p.tolist()) if not math.isfinite(v)]
    if bad:
        raise ValueError(f"log target not finite at the mode of k={min(bad)}")
    blocks, diagnostics = [], []
    for i, c_k in enumerate(counts):
        log_w = (log_p[starts[i]:starts[i + 1]] - log_q[i]).tolist()
        current, state, accepted, kept = float(log_p[i]), i, 0, []  # row i holds the mode
        for j, (w, u) in enumerate(zip(log_w, log_u[i])):
            if u < w - current:
                current, state = w, starts[i] + j
                accepted += 1
            kept.append(state)
        blocks.append(rows[kept, : ks[i]])
        diagnostics.append({"sampler": "imh", "chain_length": c_k,
                            "acceptance_rate": accepted / c_k})
    return blocks, diagnostics


def sample_hierarchical(
    family,
    prior: SievePrior,
    data: Dataset,
    count: int,
    seed,
    mcmc: Optional[McmcSettings] = None,
    *,
    table: MarginalLikelihoodTable,
) -> PosteriorDraws:
    """Composition sampling: k from the k-posterior of `table`, then `c_k` draws given k.

    The exact routes draw exactly; the laplace route takes every k's block by
    independence Metropolis-Hastings (`_imh_blocks`). Given k, either draws
    from the stream `seed + [k]`. No route reads `mcmc`: the keyword stays
    only because `perfbench/replay.py` passes it.
    """
    base = _seed_list(seed)
    kpost = k_posterior(table, prior.hyper)
    rng = np.random.default_rng(base + [104729])
    ks, counts = np.unique(rng.choice(kpost.ks, size=count, p=kpost.probs), return_counts=True)
    ks, counts = ks.tolist(), counts.tolist()
    if ks and route(family.tag, prior.conditional) == "laplace":  # count 0 draws nothing
        blocks, samplers = _imh_blocks(family, prior.conditional, data, ks, counts,
                                       [base + [k] for k in ks])
    else:
        children = [sample_given_k(family, prior.conditional, data, k, c_k, base + [k])
                    for k, c_k in zip(ks, counts)]
        blocks = [child.blocks[k] for k, child in zip(ks, children)]
        samplers = [child.diagnostics for child in children]
    diagnostics = {"k_posterior": kpost.mass(), "samplers": dict(zip(ks, samplers))}
    return PosteriorDraws(dict(zip(ks, blocks)), diagnostics=diagnostics)


def posterior_center(draws: PosteriorDraws, family) -> np.ndarray:
    """Posterior mean: coefficients (regression), else the embedding on the nodes or design."""
    if draws.count == 0:
        raise ValueError("no draws")
    return family.center(draws)
