"""Adaptive random-walk Metropolis with a frozen-scale kept phase, for one or more chains."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TARGET_ACCEPT = 0.23  # burn-in steers the proposal scale toward this acceptance rate
ACCEPT_LOW, ACCEPT_HIGH = 0.05, 0.6  # the band the kept-phase acceptance rate must lie in
_BLOCK = 1024  # each chain draws its proposals and uniforms this many steps at a time


class AdaptationError(RuntimeError):
    pass


@dataclass(frozen=True)
class McmcSettings:
    burn_in: int = 800
    thin: int = 1


def adaptive_rwm(log_target_rows, starts, proposal_chols, keeps, settings: McmcSettings, rngs):
    """Random-walk Metropolis chains, proposals x + s * C z with z standard normal.

    Chain c starts at `starts[c]` (its dimension is its k), proposes with the
    factor `proposal_chols[c]`, keeps `keeps[c]` states and draws from
    `rngs[c]` alone, so it makes the same draws whichever chains run beside it.
    The chains step together: each step scores every running chain's proposal
    in one `log_target_rows` call on a (chains, k_max) array, each row
    zero-padded to the largest k, so the target must score a padded row as the
    row itself, up to a constant per chain. Running longest first, the chains
    still stepping are a prefix of the array.

    Each chain's global scale s follows a Robbins-Monro recursion toward the
    target acceptance rate during burn-in and is frozen afterwards, so the kept
    chain satisfies detailed balance for the target. Raises ValueError when a
    start scores non-finite, and AdaptationError when a kept-phase acceptance
    rate leaves [ACCEPT_LOW, ACCEPT_HIGH]; either names the smallest failing k.

    Returns (samples, diagnostics), lists in the order of `starts`, with
    samples[c] of shape (keeps[c], k).
    """
    burn_in, thin = settings.burn_in, settings.thin
    order = sorted(range(len(starts)), key=lambda c: -keeps[c])
    dims = [np.size(starts[c]) for c in order]
    chols = [np.asarray(proposal_chols[c], dtype=float) for c in order]
    chain_rngs = [rngs[c] for c in order]
    totals = [burn_in + keeps[c] * thin for c in order]
    x = np.zeros((len(order), max(dims)))
    for j, c in enumerate(order):
        x[j, : dims[j]] = np.ravel(starts[c])
    lp = log_target_rows(x).tolist()
    bad = [k for k, v in zip(dims, lp) if not math.isfinite(v)]
    if bad:
        raise ValueError(f"log target not finite at the start of the k={min(bad)} chain")

    log_s = [float(np.log(2.38 / np.sqrt(k))) for k in dims]
    scales = np.array([float(np.exp(v)) for v in log_s])
    kept = [np.empty((keeps[c], k)) for c, k in zip(order, dims)]
    states = [x[j, :k] for j, k in enumerate(dims)]  # views of each chain's unpadded state
    accepted = [0] * len(order)
    zs = np.zeros((_BLOCK,) + x.shape)  # padded columns stay zero
    running = len(order)
    xr, sr, zr = x, scales[:, None], zs
    for start in range(0, totals[0], _BLOCK):
        us = []
        for j in range(running):
            m = min(_BLOCK, totals[j] - start)
            zs[:m, j, : dims[j]] = chain_rngs[j].standard_normal((m, dims[j])) @ chols[j].T
            us.append(np.log(chain_rngs[j].random(m)).tolist())
        for i in range(min(_BLOCK, totals[0] - start)):
            t = start + i
            while totals[running - 1] <= t:  # a chain that ended leaves the running prefix
                running -= 1
                xr, sr, zr = x[:running], scales[:running, None], zs[:, :running]
            props = xr + sr * zr[i]
            lp_props = log_target_rows(props).tolist()
            burning = t < burn_in
            if burning:
                gamma = 2.0 / (t + 10.0) ** 0.6
            for j in range(running):
                accept = us[j][i] < lp_props[j] - lp[j]
                if accept:
                    xr[j] = props[j]
                    lp[j] = lp_props[j]
                if burning:
                    s = log_s[j] + gamma * ((1.0 if accept else 0.0) - TARGET_ACCEPT)
                    log_s[j] = s = min(max(s, -20.0), 5.0)
                    # np.exp, not math.exp: the two differ in the last bit for some
                    # arguments, and the chain's bits follow the scale's
                    scales[j] = float(np.exp(s))
                else:
                    accepted[j] += accept
            if not burning and (t - burn_in) % thin == thin - 1:
                row = (t - burn_in) // thin
                for j in range(running):
                    kept[j][row] = states[j]

    rates = [a / max(total - burn_in, 1) for a, total in zip(accepted, totals)]
    bad = [(k, r) for k, r in zip(dims, rates) if not ACCEPT_LOW <= r <= ACCEPT_HIGH]
    if bad:
        k, rate = min(bad)
        raise AdaptationError(f"kept-phase acceptance rate {rate:.3f} of the k={k} chain "
                              f"outside [{ACCEPT_LOW}, {ACCEPT_HIGH}]")
    samples, diagnostics = [None] * len(order), [None] * len(order)
    for j, c in enumerate(order):
        samples[c] = kept[j]
        diagnostics[c] = {
            "acceptance_rate": float(rates[j]),
            "chain_length": int(keeps[c]),
            "burn_in": int(burn_in),
            "proposal_scale": float(scales[j]),
        }
    return samples, diagnostics
