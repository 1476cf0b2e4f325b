"""End-to-end Monte Carlo experiments: coverage, negative result, rates, diagnostics.

A run fixes one truth (generated from the base seed), simulates `replicates`
datasets (replicate r uses seed base + r, replicates are 1-based), runs the
requested inference mode(s) once per replicate, and evaluates coverage for the
whole inflation grid post hoc from the stored (distance, radius) pairs.
Whatever the experiment, a replicate records per mode the selected k, the
radius r_alpha, the distance d and, in hierarchical mode, its k-posterior; the
trade-off-set localization is computed from those records by `run_diagnostics`
alone, which builds the bias profile once per n in the parent process.
Replicates can execute in a process pool; aggregation folds results in
replicate order so reports are byte-identical for a fixed config and seed.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .bias import PolishedTailParams, bias_profile, polished_tail_verdict, tradeoff_set
from .basis import BASIS_TAGS
from .credible import credible_radius, wilson_interval
from .families import FAMILY_TAGS, Dataset, make_family, max_dimension
from .inference import (
    KPosterior,
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
    truth_coefficients: tuple = ()  # generator "explicit" only
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
    mcmc_burn_in: int = McmcSettings.burn_in
    mcmc_thin: int = McmcSettings.thin
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
                ((self.generator == "explicit") == bool(self.truth_coefficients),
                 "explicit truths need truth_coefficients, and only they take them"),
                (all(map(math.isfinite, self.truth_coefficients)),
                 "truth_coefficients must be finite"),
                (all(map(math.isfinite, (self.beta, *self.L_grid, *self.tradeoff_M))),
                 "beta, L_grid and tradeoff_M must be finite"),
                (self.beta > 0.5, "beta must exceed 1/2"),
                (math.isfinite(self.L0) and self.L0 > 0, "L0 must be finite and > 0"),
                (self.truth_length >= 1, "truth_length must be >= 1"),
                (self.family in FAMILY_TAGS, f"unknown family {self.family!r}"),
                (self.basis in BASIS_TAGS, f"unknown basis {self.basis!r}"),
                (self.mode in ("hierarchical", "empirical", "both"), f"unknown mode {self.mode!r}"),
                (self.replicates >= 1, "replicates must be >= 1"),
                (self.seed >= 0, "seed must be >= 0"),
                (self.draws >= 1, "draws must be >= 1"),
                (self.threads >= 1, "threads must be >= 1"),
                (len(self.n_grid) > 0, "n_grid must not be empty"),
                (all(n >= 2 for n in self.n_grid), "every n must be >= 2"),
                (list(self.n_grid) == sorted(set(self.n_grid)),
                 "n_grid must be strictly ascending"),
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
            # at every n the prior must build and its k_cap fit the family, and
            # the family, prior and marginal_method must have a route
            for n in self.n_grid:
                prior = prior_from_config(self.prior, self.family, n)
                largest = max_dimension(self.family, n, self.basis)
                if prior.hyper.k_cap > largest:
                    raise ValueError(f"k_cap {prior.hyper.k_cap} exceeds the largest "
                                     f"dimension {largest} of {self.family} at n={n}")
            route(self.family, prior.conditional, self.marginal_method)
        except (ValueError, TypeError, OverflowError) as err:
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


class _Context:
    """Per-(config, n) state rebuilt inside each worker process."""

    def __init__(self, cfg: ExperimentConfig, n: int):
        self.cfg = cfg
        self.n = n
        self.prior = prior_from_config(cfg.prior, cfg.family, n)
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


def _run_replicate(ctx: _Context, rep_id: int) -> dict:
    """Per mode: the selected k, r_alpha, d and the k-posterior over 1..k_cap (None if empirical).

    The k-posterior is a list, not a `KPosterior`: the pool pickles every record.
    """
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
            probs = None
        else:
            draws = sample_hierarchical(
                ctx.family, ctx.prior, data, cfg.draws, ctx.stream(rep_id, "hierarchical"),
                table=table,
            )
            kpost = k_posterior(table, ctx.prior.hyper)
            k_sel = kpost.mode()
            probs = kpost.probs.tolist()
        center = posterior_center(draws, ctx.family)
        r_alpha = credible_radius(draws, center, ctx.family, cfg.alpha)
        d = float(metric.distance(truth_emb, ctx.family.center_embedding(center)))
        modes_out[mode] = {"k": int(k_sel), "r_alpha": r_alpha, "d": d, "k_posterior": probs}
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

    Raises once more than ERROR_BUDGET of the replicates failed.
    """
    jobs = [(n, rep) for n in cfg.n_grid for rep in range(1, cfg.replicates + 1)]
    cfg_key = cfg.cache_key()
    if cfg.threads == 1:
        results = [_worker(cfg_key, n, rep) for n, rep in jobs]
    else:
        # imported here: multiprocessing would add to every `import sievecred`
        from concurrent.futures import ProcessPoolExecutor

        # about 16 chunks of jobs per worker; map returns the results in job order
        ns, reps = zip(*jobs)
        with ProcessPoolExecutor(max_workers=cfg.threads) as pool:
            results = list(pool.map(_worker, [cfg_key] * len(jobs), ns, reps,
                                    chunksize=math.ceil(len(jobs) / (16 * cfg.threads))))
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


def _k_hist(ks) -> dict:
    """The histogram of the selected k, keyed by str(k) in ascending k."""
    khist = Counter(ks)
    return {str(k): khist[k] for k in sorted(khist)}


@dataclass
class CoverageReport:
    op: str
    config: dict
    cells: list
    rows: list
    errors: list

    def cell(self, **query) -> dict:
        """The one cell that matches `query`; KeyError when none or several do."""
        matches = [cell for cell in self.cells if all(cell.get(k) == v for k, v in query.items())]
        if len(matches) != 1:
            raise KeyError(f"{len(matches)} cells match {query}, not one")
        return matches[0]

    def _payload(self) -> dict:
        return {"op": self.op, "config": self.config, "cells": self.cells,
                "errors": self.errors}

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
                "k_hist": _k_hist(row["k_hat"] for row in arm_rows),
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
    results, errors = _collect_replicates(cfg)
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
        "errors": errors,
    }
    if cfg.out_dir:
        _write_report(cfg.out_dir, "rate", report)
    return report


def run_diagnostics(config: ExperimentConfig) -> dict:
    """Model-selection localization and the truth's tail diagnostics.

    The bias profile, the trade-off sets K_n(M) and the polished-tail verdict are
    built once per n here; each replicate's membership and k-posterior mass in
    K_n(M) come from its recorded k and k-posterior.
    """
    results, errors = _collect_replicates(config)
    cfg_key = config.cache_key()
    Ms = [str(M) for M in config.tradeoff_M]
    per_n, sets = {}, {}
    for n in config.n_grid:
        ctx = _context(cfg_key, n)
        profile = bias_profile(ctx.truth, ctx.family, ctx.prior.hyper.k_cap, n)
        sets[n] = {str(M): set() if profile.k_n is None else tradeoff_set(profile, M)
                   for M in config.tradeoff_M}
        per_n[str(n)] = {
            "k_n": profile.k_n,
            "k_n_beyond_range": profile.beyond_range,
            "polished_tail": polished_tail_verdict(ctx.truth, ctx.family, profile,
                                                   config.tail_params),
            "tradeoff_sets": {M: sorted(K) for M, K in sets[n].items()},
        }
    columns = ["n", "mode", "replicate_id", "k_hat", *(f"in_K_{M}" for M in config.tradeoff_M)]
    rows = [
        dict(zip(columns, [r["n"], mode, r["replicate_id"], m["k"],
                           *(m["k"] in sets[r["n"]][M] for M in Ms)]))
        for r in results
        for mode, m in r["modes"].items()
    ]

    def localization(mode: str) -> dict:
        picked = [(sets[r["n"]], r["modes"][mode]) for r in results if mode in r["modes"]]
        kposts = [(K, KPosterior(np.arange(1, len(m["k_posterior"]) + 1),
                                 np.array(m["k_posterior"])))
                  for K, m in picked if m["k_posterior"] is not None]
        return {
            "k_hist": _k_hist(m["k"] for _, m in picked),
            "frac_in_tradeoff": {M: _mean_or_none([m["k"] in K[M] for K, m in picked])
                                 for M in Ms},
            "mean_mass_in_tradeoff": {M: _mean_or_none([kpost.set_mass(K[M])
                                                        for K, kpost in kposts])
                                      for M in Ms},
        }

    report = {
        "op": "diagnostics",
        "config": config.to_dict(),
        "per_n": per_n,
        "modes": {mode: localization(mode) for mode in dict.fromkeys(row["mode"] for row in rows)},
        "errors": errors,
    }
    if config.out_dir:
        _write_report(config.out_dir, "diagnostics", report, rows, columns)
    return report
