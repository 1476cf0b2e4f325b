"""Bias function b(k), the balance index k_n, trade-off sets and tail checks.

b(k) is the squared semi-metric distance from the truth to its projection on
the k-dimensional model. k_n is the smallest k at which the bias drops below
the complexity penalty k log n / n; the trade-off set collects all k whose
total error eps_n(k)^2 = b(k) + k log n / n is within a factor M of the
optimum. Dimension k = 0 is excluded from every scan.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np


ZERO_BIAS_TOL = 1e-12  # |b(k)| at or below this is rounding noise and read as 0.0


@dataclass
class BiasProfile:
    """b(k) for k = 1..k_max; a value within ZERO_BIAS_TOL of zero is stored as 0.0."""

    values: dict[int, float]
    n: int
    k_max: int
    k_n: Optional[int] = None
    beyond_range: bool = False

    def __post_init__(self):
        if any(k < 1 for k in self.values):
            raise ValueError("bias profile is defined for k >= 1")
        if any(v < -ZERO_BIAS_TOL for v in self.values.values()):
            raise ValueError("negative bias value")
        self.values = {int(k): 0.0 if v <= ZERO_BIAS_TOL else float(v)
                       for k, v in sorted(self.values.items())}
        if self.k_n is None and not self.beyond_range:
            self._locate_kn()

    def _locate_kn(self):
        penalty = np.log(self.n) / self.n
        for k in sorted(self.values):
            if self.values[k] <= k * penalty:
                self.k_n = k
                return
        self.beyond_range = True

    def eps2(self, k: int) -> float:
        return float(self.values[k] + k * np.log(self.n) / self.n)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k", "b_k", "eps2_k"])
            for k in sorted(self.values):
                writer.writerow([k, repr(self.values[k]), repr(self.eps2(k))])

    def to_json(self) -> str:
        return json.dumps({
            "n": self.n,
            "k_max": self.k_max,
            "k_n": self.k_n,
            "beyond_range": self.beyond_range,
            "values": {str(k): self.values[k] for k in sorted(self.values)},
        })


def bias_profile(truth, family, k_max: int, n: int) -> BiasProfile:
    """b(k) = d^2(theta_0, family.project(truth, k)) for k = 1..k_max in the family metric."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    values = {k: family.bias_sq(truth, k) for k in range(1, k_max + 1)}
    return BiasProfile(values=values, n=n, k_max=k_max)


def tradeoff_set(profile: BiasProfile, M: float) -> set[int]:
    """{k evaluated: eps_n(k) <= M eps_n(k_n)}."""
    if M < 1:
        raise ValueError("M must be >= 1")
    if profile.beyond_range or profile.k_n is None:
        raise ValueError("profile has no k_n within range")
    bound = M**2 * profile.eps2(profile.k_n)
    return {k for k in profile.values if profile.eps2(k) <= bound}


@dataclass(frozen=True)
class PolishedTailParams:
    r0: int = 2
    k0: int = 2
    tau: float = 0.5

    def __post_init__(self):
        if self.r0 < 2:
            raise ValueError("r0 must be an integer >= 2")
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie in (0, 1)")
        if self.k0 < 1:
            raise ValueError("k0 must be >= 1")


@dataclass(frozen=True)
class PolishedTailReport:
    holds: bool
    first_violation: Optional[int] = None


def check_polished_tail(profile: BiasProfile, params: PolishedTailParams) -> PolishedTailReport:
    """b(k r0) <= tau b(k) for all k0 <= k <= k_n; zero-bias terms pass vacuously."""
    if profile.beyond_range or profile.k_n is None:
        raise ValueError("profile has no k_n within range")
    top = profile.k_n
    if top * params.r0 > profile.k_max:
        raise ValueError(
            f"profile covers k <= {profile.k_max}, need k <= {top * params.r0}"
        )
    for k in range(params.k0, top + 1):
        b_k = profile.values[k]
        if b_k == 0.0:
            continue
        if profile.values[k * params.r0] > params.tau * b_k:
            return PolishedTailReport(holds=False, first_violation=k)
    return PolishedTailReport(holds=True)


def polished_tail_verdict(truth, family, profile: BiasProfile, params: PolishedTailParams) -> dict:
    """check_polished_tail as a report entry, after extending the profile to k_n r0 if short.

    {"holds", "first_violation"}, or {"holds": None, "error"} when the check cannot be made.
    """
    try:
        if profile.k_n is not None and profile.k_n * params.r0 > profile.k_max:
            k_max = min(profile.k_n * params.r0, family.max_k)
            values = dict(profile.values)
            for k in range(profile.k_max + 1, k_max + 1):
                values[k] = family.bias_sq(truth, k)
            profile = BiasProfile(values=values, n=profile.n, k_max=k_max)
        report = check_polished_tail(profile, params)
        return {"holds": report.holds, "first_violation": report.first_violation}
    except ValueError as err:
        return {"holds": None, "error": str(err)}
