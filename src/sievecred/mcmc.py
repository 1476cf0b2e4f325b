"""Adaptive random-walk Metropolis with a frozen-scale kept phase, for the chain given one k.

The chain scores its proposals a few at a time, before the accept scan needs
them (pre-fetching, Brockwell 2006, J. Comput. Graph. Statist. 15:246): the
next `_PREFETCH` steps' proposals from the current state, each at the scale
that burn-in reaches if every earlier one is rejected, go to `log_target` as
one (w, k) array. The scan stops at the first accept and drops the rest, so
the draws, the uniforms and the accept rule are those of a one-step loop.
Only a log target's last bits can differ, where the likelihood's product
rounds a row among others apart from the row alone, and that moves an accept
decision only if its uniform lands within the rounding of the threshold. The
hierarchical draw does not use the chain: `inference` draws each of its k by
independence Metropolis-Hastings from the Laplace fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TARGET_ACCEPT = 0.23  # burn-in steers the proposal scale toward this acceptance rate
ACCEPT_LOW, ACCEPT_HIGH = 0.05, 0.6  # the band the kept-phase acceptance rate must lie in
_BLOCK = 1024  # the chain draws its proposals and uniforms this many steps at a time
_PREFETCH = 4  # proposals scored per likelihood call, at most


class AdaptationError(RuntimeError):
    pass


@dataclass(frozen=True)
class McmcSettings:
    burn_in: int = 800
    thin: int = 1


def _adapted(log_s: float, t: int, accept: bool) -> float:
    """The log scale after burn-in step t: one Robbins-Monro step, clamped."""
    gamma = 2.0 / (t + 10.0) ** 0.6
    log_s += gamma * ((1.0 if accept else 0.0) - TARGET_ACCEPT)
    return min(max(log_s, -20.0), 5.0)


def adaptive_rwm(log_target, x0, proposal_chol, keep: int, settings: McmcSettings, rng):
    """Random-walk Metropolis, proposals x + s * C z with z standard normal.

    The global scale s follows a Robbins-Monro recursion toward the target
    acceptance rate during burn-in and is frozen afterwards, so the kept chain
    satisfies detailed balance for `log_target`, which scores the rows of a
    (w, k) array, w <= `_PREFETCH`. Raises ValueError when the start scores
    non-finite, and AdaptationError when the kept-phase acceptance rate leaves
    [ACCEPT_LOW, ACCEPT_HIGH]; either names the chain's k, the dimension of `x0`.

    Returns (samples, diagnostics) with samples of shape (keep, k).
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    k = x.size
    chol = np.asarray(proposal_chol, dtype=float)
    log_s = float(np.log(2.38 / np.sqrt(k)))
    # np.exp, not math.exp: the two differ in the last bit for some
    # arguments, and the chain's bits follow the scale's
    scale = float(np.exp(log_s))
    lp = float(log_target(x[None, :])[0])
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
        i = 0
        while i < m:
            t = start + i
            # the window's scales: each is the scale after rejecting every earlier proposal
            w = min(_PREFETCH, m - i)
            scales, ls = [scale], log_s
            for j in range(t, t + w - 1):
                if j < burn_in:
                    ls = _adapted(ls, j, False)
                scales.append(float(np.exp(ls)))
            props = x + np.array(scales)[:, None] * zs[i:i + w]
            lp_props = log_target(props).tolist()
            for j in range(w):
                accept = us[i + j] < lp_props[j] - lp
                if accept:
                    x = props[j]
                    lp = lp_props[j]
                if t + j < burn_in:
                    log_s = _adapted(log_s, t + j, accept)
                    scale = float(np.exp(log_s))
                else:
                    accepted += accept
                    if (t + j - burn_in) % thin == thin - 1:
                        kept[(t + j - burn_in) // thin] = x
                if accept:
                    break
            i += j + 1
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
