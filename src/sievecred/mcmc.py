"""Adaptive random-walk Metropolis with a frozen-scale kept phase, for the chain given one k.

The hierarchical draw does not use it: `inference` draws each of its k by
independence Metropolis-Hastings from the Laplace fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TARGET_ACCEPT = 0.23  # burn-in steers the proposal scale toward this acceptance rate
ACCEPT_LOW, ACCEPT_HIGH = 0.05, 0.6  # the band the kept-phase acceptance rate must lie in
_BLOCK = 1024  # the chain draws its proposals and uniforms this many steps at a time


class AdaptationError(RuntimeError):
    pass


@dataclass(frozen=True)
class McmcSettings:
    burn_in: int = 800
    thin: int = 1


def adaptive_rwm(log_target, x0, proposal_chol, keep: int, settings: McmcSettings, rng):
    """Random-walk Metropolis, proposals x + s * C z with z standard normal.

    The global scale s follows a Robbins-Monro recursion toward the target
    acceptance rate during burn-in and is frozen afterwards, so the kept chain
    satisfies detailed balance for `log_target`. Raises ValueError when the
    start scores non-finite, and AdaptationError when the kept-phase
    acceptance rate leaves [ACCEPT_LOW, ACCEPT_HIGH]; either names the
    chain's k, the dimension of `x0`.

    Returns (samples, diagnostics) with samples of shape (keep, k).
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    k = x.size
    chol = np.asarray(proposal_chol, dtype=float)
    log_s = float(np.log(2.38 / np.sqrt(k)))
    scale = float(np.exp(log_s))
    lp = float(log_target(x))
    if not math.isfinite(lp):
        raise ValueError(f"log target not finite at the start of the k={k} chain")

    burn_in, thin = settings.burn_in, settings.thin
    total = burn_in + keep * thin
    kept = np.empty((keep, k))
    accepted = 0
    for start in range(0, total, _BLOCK):
        m = min(_BLOCK, total - start)
        zs = rng.standard_normal((m, k)) @ chol.T
        us = np.log(rng.random(m)).tolist()
        for i in range(m):
            t = start + i
            prop = x + scale * zs[i]
            lp_prop = float(log_target(prop))
            accept = us[i] < lp_prop - lp
            if accept:
                x = prop
                lp = lp_prop
            if t < burn_in:
                gamma = 2.0 / (t + 10.0) ** 0.6
                log_s += gamma * ((1.0 if accept else 0.0) - TARGET_ACCEPT)
                log_s = min(max(log_s, -20.0), 5.0)
                # np.exp, not math.exp: the two differ in the last bit for some
                # arguments, and the chain's bits follow the scale's
                scale = float(np.exp(log_s))
            else:
                accepted += accept
                if (t - burn_in) % thin == thin - 1:
                    kept[(t - burn_in) // thin] = x
    rate = accepted / max(total - burn_in, 1)
    if not ACCEPT_LOW <= rate <= ACCEPT_HIGH:
        raise AdaptationError(f"kept-phase acceptance rate {rate:.3f} of the k={k} chain "
                              f"outside [{ACCEPT_LOW}, {ACCEPT_HIGH}]")
    diagnostics = {
        "acceptance_rate": float(rate),
        "chain_length": int(keep),
        "burn_in": int(burn_in),
        "proposal_scale": scale,
    }
    return kept, diagnostics
