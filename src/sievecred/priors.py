"""Sieve priors: a hyperprior on the dimension k and conditional priors on Theta(k).

The hyperprior is geometric or Poisson restricted to {1, ..., k_cap} and
renormalized. Conditional priors are either an iid product of the centred
gaussian density g = N(0, scale^2), inside the exponential tail envelope with
q = 2, or a Dirichlet on the simplex for histograms. Only the gaussian prior
has a density here (`log_prior_rows`), for the Laplace, importance and
random-walk routes. The Dirichlet is conjugate to the histogram, so its route
takes m_n(k) and the posterior Dirichlet(alpha + counts) from the bin counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


def _positive(value) -> bool:
    """True for a finite value > 0; NaN fails, where `value <= 0` would let it pass."""
    return math.isfinite(value) and value > 0


@dataclass(frozen=True)
class ConditionalPrior:
    """The prior on Theta(k), by `kind`: an iid product of the "gaussian" density
    g = N(0, scale^2), or a "dirichlet" with `alpha` on the simplex."""

    kind: str
    scale: float = 1.0
    alpha: float = 1.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "dirichlet"):
            raise ValueError(f"unknown conditional prior kind {self.kind!r}")
        if self.kind == "dirichlet":
            if not _positive(self.alpha):
                raise ValueError("dirichlet prior requires a finite positive alpha")
        elif not _positive(self.scale):
            raise ValueError("scale must be finite and positive")

    @cached_property
    def _log_g_terms(self) -> tuple:
        """(log of g's normalizer, divisor of the square), made once."""
        return -0.5 * np.log(2.0 * np.pi * self.scale**2), 2.0 * self.scale**2

    def logpdf(self, x) -> np.ndarray:
        """log g(x) for the base density g of a gaussian prior."""
        x = np.asarray(x, dtype=float)
        const, divisor = self._log_g_terms
        return const - x**2 / divisor


def gaussian_prior(scale: float = 1.0) -> ConditionalPrior:
    return ConditionalPrior("gaussian", scale)


def dirichlet_prior(alpha: float = 1.0) -> ConditionalPrior:
    return ConditionalPrior("dirichlet", alpha=alpha)


def log_prior_rows(prior: ConditionalPrior, thetas: np.ndarray) -> np.ndarray:
    """The log-density of a gaussian prior at each row of a (count, k) array.

    The Dirichlet prior has no density here: its route scores the bin counts in closed form.
    """
    if prior.kind != "gaussian":
        raise ValueError(f"no prior density for a {prior.kind} prior")
    return prior.logpdf(thetas).sum(axis=1)


@dataclass(frozen=True)
class HyperPrior:
    kind: str  # "geometric" or "poisson"
    param: float
    k_cap: int
    _log_pmf: np.ndarray = field(repr=False)

    def log_mass(self, k: int) -> float:
        if not 1 <= k <= self.k_cap:
            raise ValueError(f"k={k} outside the hyperprior support 1..{self.k_cap}")
        return float(self._log_pmf[k - 1])


def hyper_prior(kind: str, param: float, k_cap: int) -> HyperPrior:
    if not isinstance(k_cap, (int, np.integer)) or k_cap < 1:
        raise ValueError(f"k_cap must be an integer >= 1, got {k_cap!r}")
    ks = np.arange(1, k_cap + 1, dtype=float)
    if kind == "geometric":
        if not 0.0 < param < 1.0:
            raise ValueError("geometric parameter must lie in (0, 1)")
        raw = np.log(param) + (ks - 1.0) * np.log1p(-param)
    elif kind == "poisson":
        if not _positive(param):
            raise ValueError("poisson rate must be finite and positive")
        raw = ks * np.log(param) - np.array([math.lgamma(k + 1.0) for k in ks]) - param
    else:
        raise ValueError(f"unknown hyperprior kind {kind!r}")
    # normalised in log space: a pmf that underflows far out in k keeps a finite log
    top = raw.max()
    log_pmf = raw - (top + np.log(np.exp(raw - top).sum()))
    return HyperPrior(kind=kind, param=param, k_cap=k_cap, _log_pmf=log_pmf)


def default_k_cap(n: int, exponent: float = 0.4) -> int:
    return max(1, math.ceil(n**exponent))


@dataclass(frozen=True)
class SievePrior:
    hyper: HyperPrior
    conditional: ConditionalPrior


# the keys each kind reads, per section
_PRIOR_KINDS = {
    "hyper": {"geometric": ("p",), "poisson": ("lambda",)},
    "conditional": {"gaussian": ("scale",), "dirichlet": ("alpha",)},
}


def _section_kind(config: dict, section: str, family_tag: str) -> str:
    """The kind a prior section names, or the family's default."""
    default = {"hyper": "geometric",
               "conditional": "dirichlet" if family_tag == "histogram" else "gaussian"}[section]
    return (config.get(section) or {}).get("kind", default)


def unknown_prior_keys(config: dict, family_tag: str) -> list[str]:
    """The keys of a prior config that `prior_from_config` does not read, as dotted names.

    A key that only another kind reads counts too, and so does an unknown kind;
    each is named with the section's kind.
    """
    config = config or {}
    unknown = [key for key in config if key not in (*_PRIOR_KINDS, "k_cap", "k_cap_exponent")]
    for section, kinds in _PRIOR_KINDS.items():
        kind = _section_kind(config, section, family_tag)
        if kind not in kinds:
            unknown.append(f"{section}.kind ({kind})")
            continue
        unknown += [f"{section}.{key} ({kind})" for key in config.get(section) or {}
                    if key not in ("kind", *kinds[kind])]
    return unknown


def prior_from_config(config: dict, family_tag: str, n: int) -> SievePrior:
    """Build a SievePrior from the JSON config schema.

    {"hyper": {"kind": "geometric", "p": 0.5},
     "conditional": {"kind": "gaussian", "scale": 1.0},
     "k_cap_exponent": 0.4}

    Each kind reads its own keys: geometric `p`, poisson `lambda`, gaussian
    `scale`, dirichlet `alpha`. Any other key is an error, so a misspelled or
    misplaced one is not ignored.
    """
    unknown = unknown_prior_keys(config, family_tag)
    if unknown:
        raise ValueError(f"unknown prior config keys: {unknown}")
    config = config or {}
    hyper_cfg = config.get("hyper") or {}
    kind = _section_kind(config, "hyper", family_tag)
    param = hyper_cfg.get("p" if kind == "geometric" else "lambda", 0.5)
    k_cap = config.get("k_cap", default_k_cap(n, config.get("k_cap_exponent", 0.4)))
    # the keys each conditional kind reads are ConditionalPrior's field names
    conditional = ConditionalPrior(**{**(config.get("conditional") or {}),
                                      "kind": _section_kind(config, "conditional", family_tag)})
    return SievePrior(hyper=hyper_prior(kind, param, k_cap), conditional=conditional)
