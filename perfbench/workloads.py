"""Benchmark workloads: the experiment configs each workload hands to the harness.

The benchmark seed picks the base seed of every config, so the same seed gives
the same replicate datasets. It also picks the truth, except on `laplace_rwm`:
there the truth is fixed, because how many k-values the hierarchical sampler
runs chains for depends on the truth, and with a truth per seed the work of a
run varied more from seed to seed than the timings allow. Configs use only
keys that the roadmap keeps: `mcmc_burn_in` is left at its default on purpose.
"""

from __future__ import annotations

import os

import numpy as np

BASE_SEED = 20260808
SEED_STRIDE = 100_000  # wider than any replicate count, so seeds never share datasets
TRUTH_LENGTH = 4096  # the harness default

NAMES = ("exact_sweep", "laplace_rwm", "pooled_many")  # why each: see BENCHMARK.json


def config_seed(seed: int) -> int:
    return BASE_SEED + SEED_STRIDE * (seed % 10_000)


def fixed_truth(beta: float = 1.0) -> list[float]:
    """Self-similar coefficients |theta_i| = i^(-beta-1/2) with signs drawn from BASE_SEED.

    The same truth `generate_truth("self_similar", ...)` gives for a config
    seed of BASE_SEED, that is, for benchmark seed 0.
    """
    signs = np.random.default_rng(BASE_SEED).choice([-1.0, 1.0], size=TRUTH_LENGTH)
    i = np.arange(1, TRUTH_LENGTH + 1, dtype=float)
    return (signs * i ** (-beta - 0.5)).tolist()


def workload_configs(name: str, seed: int, out_root: str) -> list[dict]:
    """Config dicts for `ExperimentConfig.from_dict`, in the order they are run."""
    base = {"seed": config_seed(seed), "mode": "both"}
    if name == "exact_sweep":
        both_L = {**base, "L_grid": [0.5, 1.0, 2.0, 4.0], "replicates": 96, "threads": 1}
        return [
            {**both_L, "family": "regression", "n_grid": [500, 2000, 8000],
             "out_dir": os.path.join(out_root, "regression")},
            {**both_L, "family": "histogram", "n_grid": [2000],
             "out_dir": os.path.join(out_root, "histogram")},
        ]
    if name == "laplace_rwm":
        rwm = {**base, "L_grid": [2.0], "replicates": 24, "draws": 200, "threads": 1,
               "generator": "explicit", "truth_coefficients": fixed_truth()}
        return [
            {**rwm, "family": "classification", "n_grid": [2000]},
            {**rwm, "family": "loglinear", "n_grid": [2000]},
        ]
    if name == "pooled_many":
        # two experiments, so that harness and replay can alternate; the second
        # seed is half a stride on, beyond the replicate ids of the first
        pooled = {**base, "family": "regression", "n_grid": [300], "replicates": 2000,
                  "L_grid": [0.5, 1.0, 2.0, 4.0], "threads": 2}
        return [
            {**pooled, "seed": base["seed"] + offset,
             "out_dir": os.path.join(out_root, f"regression-{i + 1}")}
            for i, offset in enumerate((0, SEED_STRIDE // 2))
        ]
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
