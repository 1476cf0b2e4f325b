"""Direct references that the tests check the package against; no run calls them.

`eval_series` sums a series term by term (the package sums by FFT),
`l2_bias_profile` takes the l2 bias from the coefficients alone,
`validate_truth` checks a generator's class membership, `truth_from_json`
reads what `truth_to_json` wrote, `sample_prior` draws from a
conditional prior, `bernoulli_hell_sq` is the per-point Bernoulli
Hellinger as the plain expression (the package works in place), and
`one_step_rwm` is the fixed-scale random-walk chain scoring one proposal per
step (the package scores a few ahead).
"""

import json
import math

import numpy as np

from sievecred.basis import _basis_block, eval_series_grid
from sievecred.bias import BiasProfile
from sievecred.mcmc import ACCEPT_HIGH, ACCEPT_LOW, AcceptanceRateError
from sievecred.priors import ConditionalPrior
from sievecred.truths import POSITIVITY_CELLS, TruthSpec, sobolev_norm_sq


def eval_series(x, coefficients, tag: str = "trigonometric", chunk: int = 512) -> np.ndarray:
    """Evaluate sum_j c_j phi_j(x) term by term: the tests' reference for the FFT sums.

    Works in column blocks so an n x 4096 basis matrix is never materialized.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    coefficients = np.asarray(coefficients, dtype=float)
    total = np.zeros(x.size)
    for start in range(0, coefficients.size, chunk):
        stop = min(start + chunk, coefficients.size)
        total += _basis_block(x, start, stop, tag) @ coefficients[start:stop]
    return total


def l2_bias_profile(coefficients, n: int, k_max: int) -> BiasProfile:
    """Exact l2 bias b(k) = sum_{i>k} theta_i^2 for a coefficient sequence."""
    c = np.asarray(coefficients, dtype=float)
    sq = c**2
    tail = np.concatenate([sq[::-1].cumsum()[::-1], [0.0]])  # tail[j] = sum_{i>j} theta_i^2
    values = {k: float(tail[k]) if k < tail.size else 0.0 for k in range(1, k_max + 1)}
    return BiasProfile(values=values, n=n, k_max=k_max)


def validate_truth(truth: TruthSpec, basis_tag: str = "trigonometric") -> dict:
    """Check the generator's class membership; returns a small report."""
    c = truth.coefficients
    i = np.arange(1, c.size + 1, dtype=float)
    report = {"family": truth.family_tag, "generator": truth.generator_tag}
    if truth.generator_tag == "sobolev_draw":
        norm = sobolev_norm_sq(c, truth.beta)
        report["sobolev_norm_sq"] = norm
        report["in_class"] = bool(norm <= truth.L0)
    elif truth.generator_tag == "self_similar":
        env = i ** (-truth.beta - 0.5)
        ratio = np.abs(c) / env
        lo, hi = ratio.min(), ratio.max()
        report["envelope_ratio"] = (float(lo), float(hi))
        L = max(truth.L0, 1.0)
        report["in_class"] = bool(lo >= 1.0 / L - 1e-12 and hi <= L + 1e-12)
    else:
        report["in_class"] = True
    if truth.family_tag == "histogram":
        dens = 1.0 + eval_series_grid(c, POSITIVITY_CELLS, 0.5, tag=basis_tag)
        report["density_min"] = float(dens.min())
        report["density_max"] = float(dens.max())
        report["in_class"] = bool(report["in_class"] and dens.min() > 0)
    return report


def truth_from_json(source) -> TruthSpec:
    if isinstance(source, (str, bytes)) and not str(source).lstrip().startswith("{"):
        with open(source) as fh:
            payload = json.load(fh)
    elif isinstance(source, dict):
        payload = source
    else:
        payload = json.loads(source)
    return TruthSpec(
        coefficients=np.asarray(payload["coefficients"], dtype=float),
        family_tag=payload["family"],
        beta=float(payload["beta"]),
        L0=float(payload["L0"]),
        generator_tag=payload["generator"],
    )


def sample_prior(prior: ConditionalPrior, k: int, count: int, seed) -> np.ndarray:
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if prior.kind == "gaussian":
        return rng.normal(0.0, prior.scale, size=(count, k))
    return rng.dirichlet(np.full(k, prior.alpha), size=count)


def bernoulli_hell_sq(q1, q2) -> np.ndarray:
    """(sqrt q1 - sqrt q2)^2 + (sqrt(1 - q1) - sqrt(1 - q2))^2 after clipping both to [0, 1]."""
    q1 = np.clip(q1, 0.0, 1.0)
    q2 = np.clip(q2, 0.0, 1.0)
    return (np.sqrt(q1) - np.sqrt(q2)) ** 2 + (np.sqrt(1.0 - q1) - np.sqrt(1.0 - q2)) ** 2


def one_step_rwm(log_target, x0, proposal_chol, keep, settings, rng):
    """`mcmc.rwm` with one `log_target` call per step, on a one-row array."""
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    k = x.size
    lp = float(log_target(x[None, :])[0])
    if not math.isfinite(lp):
        raise ValueError(f"log target not finite at the start of the k={k} chain")
    burn_in, thin = settings.burn_in, settings.thin
    total = burn_in + keep * thin
    factor = (2.38 / math.sqrt(k)) * np.asarray(proposal_chol, dtype=float)
    zs = rng.standard_normal((total, k)) @ factor.T
    us = np.log(rng.random(total)).tolist()
    kept = np.empty((keep, k))
    accepted = 0
    for t in range(total):
        prop = x + zs[t]
        lp_prop = float(log_target(prop[None, :])[0])
        accept = us[t] < lp_prop - lp
        if accept:
            x = prop
            lp = lp_prop
        if t >= burn_in:
            accepted += accept
            if (t - burn_in) % thin == thin - 1:
                kept[(t - burn_in) // thin] = x
    rate = accepted / max(total - burn_in, 1)
    if not ACCEPT_LOW <= rate <= ACCEPT_HIGH:
        raise AcceptanceRateError(f"kept-phase acceptance rate {rate:.3f} of the k={k} chain "
                                  f"outside [{ACCEPT_LOW}, {ACCEPT_HIGH}]")
    return kept, {"acceptance_rate": float(rate), "chain_length": int(keep),
                  "burn_in": int(burn_in)}
