"""Sieve priors: a hyperprior on the dimension k and conditional priors on Theta(k).

The hyperprior is geometric or Poisson restricted to {1, ..., k_cap} and
renormalized. Conditional priors are either an iid product of a base density g
(gaussian or laplace, both inside the exponential tail envelope with q = 2 and
q = 1 respectively) or a Dirichlet on the simplex for histograms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class ConditionalPrior:
    """The prior on Theta(k), by `kind`: an iid product of the "gaussian" or "laplace"
    density g with `location` and `scale`, or a "dirichlet" with `alpha` on the simplex."""

    kind: str
    location: float = 0.0
    scale: float = 1.0
    alpha: float = 1.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "laplace", "dirichlet"):
            raise ValueError(f"unknown conditional prior kind {self.kind!r}")
        if self.kind == "dirichlet":
            if self.alpha <= 0:
                raise ValueError("dirichlet prior requires positive alpha")
        elif self.scale <= 0:
            raise ValueError("scale must be positive")

    @cached_property
    def _log_g_terms(self) -> tuple:
        """(log of g's normalizer, divisor of the centred square or |.|), made once."""
        if self.kind == "gaussian":
            return -0.5 * np.log(2.0 * np.pi * self.scale**2), 2.0 * self.scale**2
        return -np.log(2.0 * self.scale), self.scale

    def logpdf(self, x) -> np.ndarray:
        """log g(x) for the base density g of a gaussian or laplace prior."""
        x = np.asarray(x, dtype=float)
        const, divisor = self._log_g_terms
        if self.kind == "gaussian":
            return const - (x - self.location) ** 2 / divisor
        return const - np.abs(x - self.location) / divisor


def gaussian_prior(location: float = 0.0, scale: float = 1.0) -> ConditionalPrior:
    return ConditionalPrior("gaussian", location, scale)


def laplace_prior(location: float = 0.0, scale: float = 1.0) -> ConditionalPrior:
    return ConditionalPrior("laplace", location, scale)


def dirichlet_prior(alpha: float = 1.0) -> ConditionalPrior:
    return ConditionalPrior("dirichlet", alpha=alpha)


def log_prior_density(prior: ConditionalPrior, theta) -> float:
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if prior.kind == "dirichlet" and (np.any(theta < 0) or abs(float(theta.sum()) - 1.0) > 1e-10):
        raise ValueError("dirichlet density requires a point on the simplex")
    return float(log_prior_rows(prior, theta[None])[0])


def log_prior_rows(prior: ConditionalPrior, thetas: np.ndarray) -> np.ndarray:
    """log_prior_density applied to each row of a (count, k) array."""
    thetas = np.asarray(thetas, dtype=float)
    if prior.kind != "dirichlet":
        return prior.logpdf(thetas).sum(axis=1)
    k, a = thetas.shape[1], prior.alpha
    norm = math.lgamma(k * a) - k * math.lgamma(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.zeros_like(thetas) if a == 1.0 else (a - 1.0) * np.log(thetas)
    out = norm + terms.sum(axis=1)
    out[np.isnan(out)] = -np.inf
    return out


def sample_prior(prior: ConditionalPrior, k: int, count: int, seed) -> np.ndarray:
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if prior.kind == "gaussian":
        return rng.normal(prior.location, prior.scale, size=(count, k))
    if prior.kind == "laplace":
        return rng.laplace(prior.location, prior.scale, size=(count, k))
    return rng.dirichlet(np.full(k, prior.alpha), size=count)


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
        if param <= 0:
            raise ValueError("poisson rate must be positive")
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
    "conditional": {"gaussian": ("location", "scale"), "laplace": ("location", "scale"),
                    "dirichlet": ("alpha",)},
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
    and laplace `location` and `scale`, dirichlet `alpha`. Any other key is an
    error, so a misspelled or misplaced one is not ignored.
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
