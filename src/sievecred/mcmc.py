"""Random-walk Metropolis at a fixed scale, for the chain given one k.

The proposals are x + (2.38 / sqrt(k)) C z, z standard normal, C C' the
proposal covariance. With C from the target's inverse curvature the scale
needs no tuning: 2.38 / sqrt(k) is optimal for a target that C makes standard
normal (Roberts, Gelman & Gilks 1997, Ann. Appl. Probab. 7:110). A chain
draws all its normals, then all its uniforms, before its first step.

The chain scores its proposals a few at a time, before the accept scan needs
them (pre-fetching, Brockwell 2006, J. Comput. Graph. Statist. 15:246): the
next `_PREFETCH` steps' proposals from the current state go to `log_target`
as one (w, k) array. The scan stops at the first accept and drops the rest,
so the draws, the uniforms and the accept rule are those of a one-step loop.
Only a log target's last bits can differ, where the likelihood's product
rounds a row among others apart from the row alone, and that moves an accept
decision only if its uniform lands within the rounding of the threshold. The
hierarchical draw uses independence Metropolis-Hastings (`inference`) instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ACCEPT_LOW, ACCEPT_HIGH = 0.05, 0.6  # the band the kept-phase acceptance rate must lie in
_PREFETCH = 4  # proposals scored per likelihood call, at most


class AcceptanceRateError(RuntimeError):
    pass


@dataclass(frozen=True)
class McmcSettings:
    """The chain's burn-in (steps from the mode that it discards) and its thinning."""
    burn_in: int = 800
    thin: int = 1


def rwm(log_target, x0, proposal_chol, keep: int, settings: McmcSettings, rng):
    """Random-walk Metropolis from `x0`, proposals x + (2.38 / sqrt(k)) C z.

    `log_target` scores the rows of a (w, k) array, w <= `_PREFETCH`. After
    `settings.burn_in` steps the chain keeps every `thin`-th of `keep * thin`
    states. Raises ValueError when the start scores non-finite, and
    AcceptanceRateError when the kept-phase acceptance rate leaves
    [ACCEPT_LOW, ACCEPT_HIGH]; either names the chain's k, the dimension of `x0`.

    Returns (samples, diagnostics) with samples of shape (keep, k).
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    k = x.size
    lp = float(log_target(x[None, :])[0])
    if not math.isfinite(lp):
        raise ValueError(f"log target not finite at the start of the k={k} chain")
    burn_in, thin = settings.burn_in, settings.thin
    total = burn_in + keep * thin
    factor = (2.38 / math.sqrt(k)) * np.asarray(proposal_chol, dtype=float)
    steps = rng.standard_normal((total, k)) @ factor.T
    log_u = np.log(rng.random(total)).tolist()
    path = np.empty((total, k))  # the state after each step
    accepted = t = 0
    while t < total:
        props = x + steps[t:t + _PREFETCH]
        lp_props = log_target(props).tolist()
        w = len(lp_props)
        path[t:t + w] = x
        for j, lp_prop in enumerate(lp_props):
            if log_u[t + j] < lp_prop - lp:
                x, lp = props[j], lp_prop
                path[t + j] = x
                accepted += t + j >= burn_in
                w = j + 1
                break
        t += w
    rate = accepted / max(total - burn_in, 1)
    if not ACCEPT_LOW <= rate <= ACCEPT_HIGH:
        raise AcceptanceRateError(f"kept-phase acceptance rate {rate:.3f} of the k={k} chain "
                                  f"outside [{ACCEPT_LOW}, {ACCEPT_HIGH}]")
    diagnostics = {"acceptance_rate": float(rate), "chain_length": int(keep),
                   "burn_in": int(burn_in)}
    return path[burn_in + thin - 1::thin], diagnostics
