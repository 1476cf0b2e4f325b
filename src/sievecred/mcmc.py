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
    burn_in: int = 5000
    keep: int = 20000
    thin: int = 1


def adaptive_rwm(log_target, x0, proposal_chol, settings: McmcSettings, rng):
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
    log_s = np.log(2.38 / np.sqrt(k))
    lp = float(log_target(x))
    if not np.isfinite(lp):
        raise ValueError("log target not finite at the chain start")

    total = settings.burn_in + settings.keep * settings.thin
    kept = np.empty((settings.keep, k))
    accepted_kept = 0
    kept_steps = 0
    block = 1024
    zs = us = None
    filled = 0
    kept_idx = 0
    for t in range(total):
        if filled == 0:
            m = min(block, total - t)
            zs = rng.standard_normal((m, k)) @ chol.T
            us = np.log(rng.random(m))
            filled = m
        i = len(us) - filled
        filled -= 1
        prop = x + np.exp(log_s) * zs[i]
        lp_prop = float(log_target(prop))
        accept = us[i] < lp_prop - lp
        if accept:
            x = prop
            lp = lp_prop
        if t < settings.burn_in:
            gamma = 2.0 / (t + 10.0) ** 0.6
            log_s += gamma * ((1.0 if accept else 0.0) - TARGET_ACCEPT)
            log_s = float(np.clip(log_s, -20.0, 5.0))
        else:
            kept_steps += 1
            accepted_kept += bool(accept)
            if (t - settings.burn_in) % settings.thin == settings.thin - 1:
                kept[kept_idx] = x
                kept_idx += 1
    rate = accepted_kept / max(kept_steps, 1)
    if not ACCEPT_LOW <= rate <= ACCEPT_HIGH:
        raise AdaptationError(
            f"kept-phase acceptance rate {rate:.3f} outside [{ACCEPT_LOW}, {ACCEPT_HIGH}]"
        )
    diagnostics = {
        "acceptance_rate": float(rate),
        "chain_length": int(settings.keep),
        "burn_in": int(settings.burn_in),
        "proposal_scale": float(np.exp(log_s)),
    }
    return kept, diagnostics
