"""End-to-end Monte Carlo experiments: coverage, negative result, rates, diagnostics.

A run fixes one truth (generated from the base seed), simulates `replicates`
datasets (replicate r uses seed base + r, replicates are 1-based), runs the
requested inference mode(s) once per replicate, and evaluates coverage for the
whole inflation grid post hoc from the stored (distance, radius) pairs.
Replicates can execute in a process pool; aggregation folds results in
replicate order so reports are byte-identical for a fixed config and seed.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .bias import (
    BiasProfile,
    PolishedTailParams,
    bias_profile,
    polished_tail_verdict,
    tradeoff_set,
)
from .basis import BASIS_TAGS
from .credible import credible_radius, wilson_interval
from .families import FAMILY_TAGS, Dataset, make_family, max_dimension
from .inference import (
    MarginalLikelihoodTable,
    McmcSettings,
    k_posterior,
    marginal_table,
    mmle,
    posterior_center,
    route,
    sample_given_k,
    sample_hierarchical,
)
from .priors import prior_from_config
from .truths import GENERATOR_TAGS, generate_truth

ERROR_BUDGET = 0.02


@dataclass
class ExperimentConfig:
    family: str = "regression"
    beta: float = 1.0
    L0: float = 1.0
    generator: str = "self_similar"
    truth_coefficients: tuple = ()  # used when generator == "explicit"
    truth_length: int = 4096
    n_grid: tuple = (2000,)
    replicates: int = 200
    alpha: float = 0.05
    L_grid: tuple = (0.5, 1.0, 2.0, 4.0)
    mode: str = "both"  # hierarchical | empirical | both
    prior: dict = field(default_factory=dict)
    seed: int = 20260808
    out_dir: Optional[str] = None
    threads: int = 1
    draws: int = 1500
    mcmc_burn_in: int = 800
    mcmc_thin: int = 1
    basis: str = "trigonometric"
    marginal_method: str = "auto"
    m_n_exponent: float = -0.25
    control_L: float = 2.0
    tradeoff_M: tuple = (2, 4, 8)
    tail_r0: int = 2
    tail_k0: int = 2
    tail_tau: float = 0.5

    def __post_init__(self):
        not_ints = [name for name in ("replicates", "draws", "threads", "truth_length", "seed",
                                      "mcmc_burn_in", "mcmc_thin", "tail_r0", "tail_k0")
                    if not isinstance(getattr(self, name), (int, np.integer))]
        try:
            if not all(isinstance(n, (int, np.integer)) for n in self.n_grid):
                not_ints.append("n_grid")
            self.n_grid = tuple(int(n) for n in self.n_grid)
            self.L_grid = tuple(float(L) for L in self.L_grid)
            self.tradeoff_M = tuple(self.tradeoff_M)
            self.truth_coefficients = tuple(float(c) for c in self.truth_coefficients)
            checks = (
                (not not_ints, f"not an integer: {', '.join(not_ints)}"),
                (self.generator in GENERATOR_TAGS, f"unknown generator {self.generator!r}"),
                (self.generator != "explicit" or bool(self.truth_coefficients),
                 "explicit truths need truth_coefficients"),
                (self.beta > 0.5, "beta must exceed 1/2"),
                (self.L0 > 0, "L0 must be > 0"),
                (self.truth_length >= 1, "truth_length must be >= 1"),
                (self.family in FAMILY_TAGS, f"unknown family {self.family!r}"),
                (self.basis in BASIS_TAGS, f"unknown basis {self.basis!r}"),
                (self.mode in ("hierarchical", "empirical", "both"), f"unknown mode {self.mode!r}"),
                (self.replicates >= 1, "replicates must be >= 1"),
                (self.draws >= 1, "draws must be >= 1"),
                (self.threads >= 1, "threads must be >= 1"),
                (len(self.n_grid) > 0, "n_grid must not be empty"),
                (all(n >= 2 for n in self.n_grid), "every n must be >= 2"),
                (list(self.n_grid) == sorted(self.n_grid), "n_grid must be ascending"),
                (len(self.L_grid) > 0, "L_grid must not be empty"),
                (all(L >= 0 for L in self.L_grid), "every L must be >= 0"),
                (0.0 < self.alpha < 1.0, "alpha must lie in (0, 1)"),
                (self.mcmc_burn_in >= 0, "mcmc_burn_in must be >= 0"),
                (self.mcmc_thin >= 1, "mcmc_thin must be >= 1"),
                (all(M >= 1 for M in self.tradeoff_M), "every tradeoff_M must be >= 1"),
                (math.isfinite(self.control_L) and self.control_L >= 0,
                 "control_L must be finite and >= 0"),
                (math.isfinite(self.m_n_exponent), "m_n_exponent must be finite"),
            )
            for ok, message in checks:
                if not ok:
                    raise ValueError(message)
            self.tail_params  # built here so that its own range checks run
            # the prior must build, and the family, prior and marginal_method must have a route
            prior = prior_from_config(self.prior, self.family, self.n_grid[0])
            route(self.family, prior.conditional, self.marginal_method)
        except (ValueError, TypeError) as err:
            raise ValueError(f"invalid config: {err}") from None

    @property
    def tail_params(self) -> PolishedTailParams:
        return PolishedTailParams(r0=self.tail_r0, k0=self.tail_k0, tau=self.tail_tau)

    @property
    def modes(self) -> tuple:
        return ("hierarchical", "empirical") if self.mode == "both" else (self.mode,)

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**payload)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return asdict(self)

    def cache_key(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _check_k_cap(cfg: ExperimentConfig, n: int, k_cap: int):
    """Raise `invalid config:` when k_cap at n exceeds the family's largest dimension."""
    largest = max_dimension(cfg.family, n, cfg.basis)
    if k_cap > largest:
        raise ValueError(f"invalid config: k_cap {k_cap} exceeds the largest "
                         f"dimension {largest} of {cfg.family} at n={n}")


class _Context:
    """Per-(config, n) state rebuilt inside each worker process."""

    def __init__(self, cfg: ExperimentConfig, n: int):
        self.cfg = cfg
        self.n = n
        self.prior = prior_from_config(cfg.prior, cfg.family, n)
        _check_k_cap(cfg, n, self.prior.hyper.k_cap)
        self.family = make_family(cfg.family, n=n, basis_tag=cfg.basis)
        self.truth = generate_truth(
            cfg.generator,
            cfg.beta,
            cfg.L0,
            length=cfg.truth_length,
            seed=cfg.seed,
            family_tag=cfg.family,
            basis_tag=cfg.basis,
            coefficients=cfg.truth_coefficients or None,
        )
        self.mcmc = McmcSettings(burn_in=cfg.mcmc_burn_in, thin=cfg.mcmc_thin)
        self._tradeoff: dict[float, set] = {}

    def data(self, rep_id: int) -> Dataset:
        """The dataset of replicate `rep_id` (1-based), simulated with seed `seed + rep_id`."""
        return self.family.simulate(self.truth, self.n, self.cfg.seed + rep_id)

    def stream(self, rep_id: int, stage: str) -> list[int]:
        """The seed of replicate `rep_id`'s "table", "given_k" or "hierarchical" sampler."""
        return [self.cfg.seed, rep_id, {"table": 1, "given_k": 2, "hierarchical": 3}[stage]]

    def table(self, data: Dataset, rep_id: int) -> MarginalLikelihoodTable:
        """The evidence table of replicate `rep_id`'s dataset."""
        return marginal_table(self.family, self.prior, data, method=self.cfg.marginal_method,
                              seed=self.stream(rep_id, "table"))

    @cached_property
    def profile(self) -> BiasProfile:
        return bias_profile(self.truth, self.family, self.prior.hyper.k_cap, self.n)

    def tradeoff(self, M: float) -> set:
        if M not in self._tradeoff:
            if self.profile.k_n is None:
                self._tradeoff[M] = set()
            else:
                self._tradeoff[M] = tradeoff_set(self.profile, M)
        return self._tradeoff[M]

    @cached_property
    def tail_verdict(self) -> dict:
        return polished_tail_verdict(self.truth, self.family, self.profile, self.cfg.tail_params)


def _run_replicate(ctx: _Context, rep_id: int) -> dict:
    cfg = ctx.cfg
    data = ctx.data(rep_id)
    table = ctx.table(data, rep_id)
    truth_emb = ctx.family.truth_embedding(ctx.truth)
    metric = ctx.family.metric()
    modes_out = {}
    for mode in cfg.modes:
        if mode == "empirical":
            k_sel = mmle(table)
            draws = sample_given_k(
                ctx.family, ctx.prior.conditional, data, k_sel, cfg.draws,
                ctx.stream(rep_id, "given_k"), mcmc=ctx.mcmc,
            )
            mass = None
        else:
            draws = sample_hierarchical(
                ctx.family, ctx.prior, data, cfg.draws, ctx.stream(rep_id, "hierarchical"),
                mcmc=ctx.mcmc, table=table,
            )
            kpost = k_posterior(table, ctx.prior.hyper)
            k_sel = kpost.mode()
            mass = {str(M): kpost.set_mass(ctx.tradeoff(M)) for M in cfg.tradeoff_M}
        center = posterior_center(draws, ctx.family)
        r_alpha = credible_radius(draws, center, ctx.family, cfg.alpha)
        d = float(metric.distance(truth_emb, ctx.family.center_embedding(center)))
        modes_out[mode] = {
            "k": int(k_sel),
            "r_alpha": r_alpha,
            "d": d,
            "in_K": {str(M): bool(k_sel in ctx.tradeoff(M)) for M in cfg.tradeoff_M},
            "mass_K": mass,
        }
    return {"replicate_id": rep_id, "n": ctx.n, "modes": modes_out, "error": None}


_WORKER_CTX: dict = {}


def _context(cfg_key: str, n: int) -> _Context:
    """The per-process context of (config, n); those of the latest config are kept, one per n."""
    if any(key != cfg_key for key, _ in _WORKER_CTX):
        _WORKER_CTX.clear()
    if (cfg_key, n) not in _WORKER_CTX:
        _WORKER_CTX[cfg_key, n] = _Context(ExperimentConfig.from_dict(json.loads(cfg_key)), n)
    return _WORKER_CTX[cfg_key, n]


def _worker(cfg_key: str, n: int, rep_id: int) -> dict:
    ctx = _context(cfg_key, n)
    try:
        return _run_replicate(ctx, rep_id)
    except Exception as err:  # recorded, excluded, budgeted
        return {"replicate_id": rep_id, "n": n, "modes": {}, "error": f"{type(err).__name__}: {err}"}


def _collect_replicates(cfg: ExperimentConfig) -> tuple[list[dict], list[dict]]:
    """Run every (n, replicate) job: the results that succeeded, in order, and the errors.

    Raises once more than ERROR_BUDGET of the replicates failed, and before
    any job runs when some n's k_cap exceeds the family's largest dimension.
    """
    for n in cfg.n_grid:
        _check_k_cap(cfg, n, prior_from_config(cfg.prior, cfg.family, n).hyper.k_cap)
    jobs = [(n, rep) for n in cfg.n_grid for rep in range(1, cfg.replicates + 1)]
    cfg_key = cfg.cache_key()
    if cfg.threads == 1:
        results = [_worker(cfg_key, n, rep) for n, rep in jobs]
    else:
        with ProcessPoolExecutor(max_workers=cfg.threads) as pool:
            futures = [pool.submit(_worker, cfg_key, n, rep) for n, rep in jobs]
            results = [f.result() for f in futures]
    results.sort(key=lambda r: (r["n"], r["replicate_id"]))
    errors = [
        {"n": r["n"], "replicate_id": r["replicate_id"], "error": r["error"]}
        for r in results
        if r["error"] is not None
    ]
    if len(errors) > ERROR_BUDGET * len(results):
        raise RuntimeError(
            f"{len(errors)}/{len(results)} replicates failed, exceeding the "
            f"{ERROR_BUDGET:.0%} budget; first: {errors[0]['error']}"
        )
    return [r for r in results if r["error"] is None], errors


COVERAGE_COLUMNS = (
    "n", "mode", "L", "replicate_id", "covered", "d_truth_center", "r_alpha", "inflation",
    "k_hat", "diameter",
)


def _write_report(out_dir, op: str, payload: dict, rows=None, columns=()) -> dict:
    """Write `{op}_report.json` and, given rows, `{op}_replicates.csv`; return the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {"json": os.path.join(out_dir, f"{op}_report.json")}
    with open(paths["json"], "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True))
    if rows is not None:
        paths["csv"] = os.path.join(out_dir, f"{op}_replicates.csv")
        with open(paths["csv"], "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_csv_value(row[c]) for c in columns])
    return paths


def _csv_value(v):
    if isinstance(v, bool):
        return int(v)
    if isinstance(v, float):
        return repr(v)
    return v


def _mean_or_none(values):
    return float(np.mean(values)) if values else None


def _selection_summary(picked: list, Ms: list) -> dict:
    """Selected-k histogram and trade-off-set membership over per-replicate mode results."""
    khist = Counter(m["k"] for m in picked)
    return {
        "k_hist": {str(k): khist[k] for k in sorted(khist)},
        "frac_in_tradeoff": {M: _mean_or_none([m["in_K"][M] for m in picked]) for M in Ms},
        "mean_mass_in_tradeoff": {
            M: _mean_or_none([m["mass_K"][M] for m in picked if m["mass_K"] is not None])
            for M in Ms
        },
    }


@dataclass
class CoverageReport:
    op: str
    config: dict
    cells: list
    rows: list
    errors: list
    extras: dict = field(default_factory=dict)

    def cell(self, **query) -> dict:
        for cell in self.cells:
            if all(cell.get(k) == v for k, v in query.items()):
                return cell
        raise KeyError(f"no cell matching {query}")

    def _payload(self) -> dict:
        return {"op": self.op, "config": self.config, "cells": self.cells,
                "errors": self.errors, **self.extras}

    def write(self, out_dir) -> dict:
        return _write_report(out_dir, self.op, self._payload(), self.rows, COVERAGE_COLUMNS)


def _coverage_experiment(op: str, cfg: ExperimentConfig, arms) -> CoverageReport:
    """Coverage cells and rows per (n, arm). An arm is (mode, label, L as a function of n).

    The inflation of an arm is L sqrt(log n); vanishing-inflation ("negative")
    cells also carry their m_n = L.
    """
    results, errors = _collect_replicates(cfg)
    rows, cells = [], []
    for n in cfg.n_grid:
        for mode, label, L_of_n in arms:
            L = L_of_n(n)
            inflation = L * math.sqrt(math.log(n))
            picked = [r for r in results if r["n"] == n and mode in r["modes"]]
            arm_rows = []
            for r in picked:
                m = r["modes"][mode]
                arm_rows.append({
                    "n": n,
                    "mode": label,
                    "L": L,
                    "replicate_id": r["replicate_id"],
                    "covered": m["d"] <= inflation * m["r_alpha"],
                    "d_truth_center": m["d"],
                    "r_alpha": m["r_alpha"],
                    "inflation": inflation,
                    "k_hat": m["k"],
                    "diameter": 2.0 * m["r_alpha"],
                })
            rows += arm_rows
            arm_modes = [r["modes"][mode] for r in picked]
            covered = [row["covered"] for row in arm_rows]
            used = len(covered)
            ci_lo, ci_hi = wilson_interval(int(np.sum(covered)), used)
            diam = np.array([row["diameter"] for row in arm_rows]) if used else np.array([np.nan])
            cell = {
                "n": n,
                "mode": label,
                "L": L,
                "coverage": float(np.mean(covered)) if used else float("nan"),
                "ci_lo": ci_lo,
                "ci_hi": ci_hi,
                "mean_diam": float(np.mean(diam)),
                "diam_q10": float(np.quantile(diam, 0.1)),
                "diam_q50": float(np.quantile(diam, 0.5)),
                "diam_q90": float(np.quantile(diam, 0.9)),
                **_selection_summary(arm_modes, [str(M) for M in cfg.tradeoff_M]),
                "replicates_used": used,
            }
            if label == "negative":
                cell["m_n"] = L
            cells.append(cell)
    report = CoverageReport(op, cfg.to_dict(), cells, rows, errors)
    if cfg.out_dir:
        report.write(cfg.out_dir)
    return report


def run_coverage(config: ExperimentConfig) -> CoverageReport:
    """Coverage and size over (n, L, mode) cells; inflation is L sqrt(log n)."""
    arms = [(mode, mode, lambda n, L=L: L) for mode in config.modes for L in config.L_grid]
    return _coverage_experiment("coverage", config, arms)


def run_negative(config: ExperimentConfig) -> CoverageReport:
    """Empirical-Bayes coverage with vanishing inflation m_n sqrt(log n) vs a control arm."""
    if config.family != "regression":
        raise ValueError("the negative-result experiment is a regression experiment")
    cfg = ExperimentConfig.from_dict({**config.to_dict(), "mode": "empirical"})
    arms = [
        ("empirical", "negative", lambda n: math.log(n) ** cfg.m_n_exponent),
        ("empirical", "control", lambda n: cfg.control_L),
    ]
    return _coverage_experiment("negative", cfg, arms)


def fit_rate(ns, mean_log_diams):
    """Least-squares slope of mean log diameter against log(n / log n)."""
    x = np.array([math.log(n / math.log(n)) for n in ns])
    y = np.asarray(mean_log_diams, dtype=float)
    if x.size < 3:
        raise ValueError("rate fit needs at least 3 sample sizes")
    xc = x - x.mean()
    slope = float(xc @ (y - y.mean()) / (xc @ xc))
    intercept = float(y.mean() - slope * x.mean())
    resid = y - intercept - slope * x
    dof = max(x.size - 2, 1)
    se = float(np.sqrt((resid @ resid) / dof / (xc @ xc)))
    return slope, se


def run_rate(config: ExperimentConfig) -> dict:
    """Fit the size rate: slope of mean log diameter vs log(n/log n)."""
    if len(config.n_grid) < 3:
        raise ValueError("rate check needs at least 3 sample sizes")
    mode = "empirical" if config.mode == "both" else config.mode
    cfg = ExperimentConfig.from_dict({**config.to_dict(), "mode": mode})
    results, _ = _collect_replicates(cfg)
    points = []
    for n in cfg.n_grid:
        logs = [math.log(2.0 * r["modes"][mode]["r_alpha"]) for r in results if r["n"] == n]
        points.append({"n": n, "mean_log_diam": float(np.mean(logs)), "replicates": len(logs)})
    slope, se = fit_rate([p["n"] for p in points], [p["mean_log_diam"] for p in points])
    report = {
        "op": "rate",
        "config": cfg.to_dict(),
        "mode": mode,
        "slope": slope,
        "stderr": se,
        "target": -cfg.beta / (1.0 + 2.0 * cfg.beta),
        "points": points,
    }
    if cfg.out_dir:
        _write_report(cfg.out_dir, "rate", report)
    return report


def run_diagnostics(config: ExperimentConfig) -> dict:
    """Model-selection localization and the truth's tail diagnostics."""
    results, errors = _collect_replicates(config)
    cfg_key = config.cache_key()
    per_n = {}
    for n in config.n_grid:
        ctx = _context(cfg_key, n)
        per_n[str(n)] = {
            "k_n": ctx.profile.k_n,
            "k_n_beyond_range": ctx.profile.beyond_range,
            "polished_tail": ctx.tail_verdict,
            "tradeoff_sets": {str(M): sorted(ctx.tradeoff(M)) for M in config.tradeoff_M},
        }
    Ms = [str(M) for M in config.tradeoff_M]
    columns = ["n", "mode", "replicate_id", "k_hat", *(f"in_K_{M}" for M in config.tradeoff_M)]
    rows = [
        dict(zip(columns, [r["n"], mode, r["replicate_id"], m["k"], *(m["in_K"][M] for M in Ms)]))
        for r in results
        for mode, m in r["modes"].items()
    ]
    modes = {
        mode: _selection_summary([r["modes"][mode] for r in results if mode in r["modes"]], Ms)
        for mode in dict.fromkeys(row["mode"] for row in rows)
    }
    report = {
        "op": "diagnostics",
        "config": config.to_dict(),
        "per_n": per_n,
        "modes": modes,
        "errors": errors,
    }
    if config.out_dir:
        _write_report(config.out_dir, "diagnostics", report, rows, columns)
    return report
