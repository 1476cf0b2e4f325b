"""Truth generators: coefficient sequences with controlled smoothness.

A TruthSpec stores a finite truncation of the infinite coefficient sequence;
indices beyond the truncation are treated as exactly zero. How the coefficients
map to an observable object (regression function, density, success probability)
is the model family's business.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .basis import eval_series_grid

GENERATOR_TAGS = ("self_similar", "sobolev_draw", "explicit")

# Histogram truths are kept bounded away from zero by this floor.
HIST_DENSITY_FLOOR = 0.1
# ... which is checked at the midpoints of this many equal cells.
POSITIVITY_CELLS = 4096


@dataclass(frozen=True, eq=False)
class TruthSpec:
    """A truth's coefficients and provenance; hashed by identity, so families key memos on it."""

    coefficients: np.ndarray
    family_tag: str
    beta: float
    L0: float
    generator_tag: str

    def __post_init__(self):
        object.__setattr__(self, "coefficients", np.asarray(self.coefficients, dtype=float))


def sobolev_norm_sq(coefficients, beta: float) -> float:
    """sum_i theta_i^2 i^(2 beta)."""
    c = np.asarray(coefficients, dtype=float)
    i = np.arange(1, c.size + 1, dtype=float)
    return float(np.sum(c**2 * i ** (2.0 * beta)))


def generate_truth(
    generator_tag: str,
    beta: float,
    L0: float = 1.0,
    length: int = 4096,
    seed: int = 0,
    family_tag: str = "regression",
    coefficients=None,
    basis_tag: str = "trigonometric",
) -> TruthSpec:
    """Build a TruthSpec with the requested smoothness.

    self_similar: |theta_i| = i^(-beta-1/2) with random signs, a member of the
    self-similar class with constant 1. sobolev_draw: random coefficients with
    an extra log damping, rescaled so the Sobolev functional equals 0.9 L0.
    explicit: pass coefficients through unchanged.

    Histogram truths represent the density 1 + sum_j theta_j phi_j and are
    rescaled if needed so the density stays above a positive floor.
    """
    if beta <= 0.5:
        raise ValueError("beta must exceed 1/2")
    if generator_tag not in GENERATOR_TAGS:
        raise ValueError(f"unknown generator {generator_tag!r}")
    rng = np.random.default_rng(seed)
    if generator_tag == "explicit":
        if coefficients is None:
            raise ValueError("explicit generator requires coefficients")
        theta = np.asarray(coefficients, dtype=float).copy()
    else:
        i = np.arange(1, length + 1, dtype=float)
        signs = rng.choice([-1.0, 1.0], size=length)
        if generator_tag == "self_similar":
            theta = signs * i ** (-beta - 0.5)
        else:
            u = rng.uniform(0.5, 1.0, size=length)
            theta = signs * u * i ** (-beta - 0.5) / np.log(i + 1.0)
            norm = sobolev_norm_sq(theta, beta)
            theta *= np.sqrt(0.9 * L0 / norm)
    if family_tag == "histogram":
        theta = _rescale_for_positivity(theta, basis_tag)
        if beta > 1.0:
            warnings.warn(
                "histogram smoothness class covers beta in (1/2, 1]; "
                f"beta={beta} is outside that range",
                stacklevel=2,
            )
    return TruthSpec(
        coefficients=theta,
        family_tag=family_tag,
        beta=beta,
        L0=L0,
        generator_tag=generator_tag,
    )


def _rescale_for_positivity(theta: np.ndarray, basis_tag: str) -> np.ndarray:
    low = eval_series_grid(theta, POSITIVITY_CELLS, 0.5, tag=basis_tag).min()
    if 1.0 + low < HIST_DENSITY_FLOOR:
        theta = theta * (1.0 - HIST_DENSITY_FLOOR) / (-low)
    return theta


def truth_to_json(truth: TruthSpec, path=None) -> str:
    payload = {
        "family": truth.family_tag,
        "generator": truth.generator_tag,
        "beta": truth.beta,
        "L0": truth.L0,
        "coefficients": [float(v) for v in truth.coefficients],
    }
    text = json.dumps(payload)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
