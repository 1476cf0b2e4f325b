"""Adaptive random-walk Metropolis with a frozen-scale kept phase."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TARGET_ACCEPT = 0.23  # burn-in steers the proposal scale toward this acceptance rate
ACCEPT_LOW, ACCEPT_HIGH = 0.05, 0.6  # the band the kept-phase acceptance rate must lie in


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
    satisfies detailed balance for `log_target`. Raises AdaptationError when
    the kept-phase acceptance rate leaves [ACCEPT_LOW, ACCEPT_HIGH].

    Returns (samples, diagnostics) with samples of shape (keep, dim).
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    k = x.size
    chol = np.asarray(proposal_chol, dtype=float)
    log_s = float(np.log(2.38 / np.sqrt(k)))
    scale = float(np.exp(log_s))
    lp = float(log_target(x))
    if not np.isfinite(lp):
        raise ValueError("log target not finite at the chain start")

    burn_in, thin = settings.burn_in, settings.thin
    total = burn_in + keep * thin
    kept = np.empty((keep, k))
    accepted_kept = 0
    block = 1024
    kept_idx = 0
    for start in range(0, total, block):
        m = min(block, total - start)
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
                accepted_kept += accept
                if (t - burn_in) % thin == thin - 1:
                    kept[kept_idx] = x
                    kept_idx += 1
    kept_steps = total - burn_in
    rate = accepted_kept / max(kept_steps, 1)
    if not ACCEPT_LOW <= rate <= ACCEPT_HIGH:
        raise AdaptationError(
            f"kept-phase acceptance rate {rate:.3f} outside [{ACCEPT_LOW}, {ACCEPT_HIGH}]"
        )
    diagnostics = {
        "acceptance_rate": float(rate),
        "chain_length": int(keep),
        "burn_in": int(settings.burn_in),
        "proposal_scale": scale,
    }
    return kept, diagnostics
