"""Each benchmark check passes on a correct run and fails on a deliberately broken one.

    python3 -m pytest perfbench/tests -q
"""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import sievecred as sc

import checks
import child
import replay
from workloads import BASE_SEED, workload_configs

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out_dir = str(tmp_path_factory.mktemp("harness"))
    cfg = sc.ExperimentConfig(
        family="regression", n_grid=(100,), replicates=24, draws=200,
        L_grid=(1.0, 2.0), seed=7, out_dir=out_dir,
    )
    report = sc.run_coverage(cfg)
    return cfg, report


def test_replayed_rows_equal_harness_rows(small_run):
    cfg, report = small_run
    rows = replay.replay_config(cfg, replay.Tracer(enabled=True))["rows"]
    assert checks.rows_equal(report.rows, rows)


def test_replay_check_fails_when_seed_is_offset_by_one(small_run):
    cfg, report = small_run
    rows = replay.replay_config(cfg, replay.Tracer(enabled=False), seed_offset=1)["rows"]
    assert not checks.rows_equal(report.rows, rows)


def test_coverage_check_applies_the_criterion_05_rule():
    assert checks.coverage_ok({"coverage": 1.0, "ci_lo": 0.862})
    assert not checks.coverage_ok({"coverage": 0.89, "ci_lo": 0.86})
    # 21 of 21 covered: coverage 1.0 but the Wilson lower bound is 0.846
    lo, _ = sc.wilson_interval(21, 21)
    assert not checks.coverage_ok({"coverage": 1.0, "ci_lo": lo})


def test_coverage_check_fails_when_radii_shrink(small_run):
    cfg, report = small_run
    cell = report.cell(n=100, mode="empirical", L=2.0)
    assert checks.coverage_ok(cell)
    # with radii x 0.05 the L=2 ball is narrower than the L=1 ball was
    covered = [r["d_truth_center"] <= r["inflation"] * 0.05 * r["r_alpha"]
               for r in report.rows if r["mode"] == "empirical" and r["L"] == 2.0]
    lo, _ = sc.wilson_interval(sum(covered), len(covered))
    assert not checks.coverage_ok({"coverage": float(np.mean(covered)), "ci_lo": lo})


def test_diameter_check_fails_when_radii_are_halved():
    cell = {"n": 500, "mode": "empirical", "mean_diam": 0.27}
    assert checks.diameter_ok(cell, 0.27, 0.15)
    assert not checks.diameter_ok({**cell, "mean_diam": 0.27 * 0.5}, 0.27, 0.15)
    assert not checks.diameter_ok({**cell, "mean_diam": 0.27 * 1.5}, 0.27, 0.15)


def test_csv_check_fails_on_rows_from_a_shifted_replay(small_run, tmp_path):
    cfg, report = small_run
    harness_csv = os.path.join(cfg.out_dir, "coverage_replicates.csv")
    for offset, expected in ((0, True), (1, False)):
        rows = replay.replay_config(cfg, replay.Tracer(enabled=False), seed_offset=offset)["rows"]
        paths = sc.CoverageReport("coverage", cfg.to_dict(), report.cells, rows, []).write(
            str(tmp_path / str(offset))
        )
        assert checks.same_bytes(harness_csv, paths["csv"]) is expected


def test_check_config_fails_without_a_reference(small_run, tmp_path):
    cfg, report = small_run
    rows = replay.replay_config(cfg, replay.Tracer(enabled=False))["rows"]
    csv = sc.CoverageReport("coverage", cfg.to_dict(), report.cells, rows, []).write(
        str(tmp_path)
    )["csv"]
    results = checks.check_config(cfg, report, rows, csv, {"mean_diam": {}})
    assert results["replay/regression"] and results["csv/regression"]
    assert not results["diameter/regression/100/empirical"]
    cell = report.cell(n=100, mode="empirical", L=2.0)
    entry = {"value": cell["mean_diam"], "tolerance": 0.1}
    reference = {"mean_diam": {"regression/100/empirical": entry}}
    assert checks.check_config(cfg, report, rows, csv, reference)["diameter/regression/100/empirical"]


def test_check_names_stay_unique_for_two_configs_of_one_family():
    configs = [sc.ExperimentConfig(family=f) for f in ("regression", "histogram", "regression")]
    assert child.check_labels(configs) == ["regression#1", "histogram", "regression#2"]


def test_laplace_truth_is_fixed_while_datasets_follow_the_seed():
    one, two = (workload_configs("laplace_rwm", seed, "") for seed in (1, 2))
    assert one[0]["seed"] != two[0]["seed"]
    assert one[0]["truth_coefficients"] == two[0]["truth_coefficients"]
    truth = sc.generate_truth("self_similar", 1.0, seed=BASE_SEED, family_tag="classification")
    np.testing.assert_array_equal(truth.coefficients, one[0]["truth_coefficients"])


def test_ess_geyer_on_known_chains():
    rng = np.random.default_rng(3)
    n = 4000
    assert 0.8 * n <= replay.ess_geyer(rng.standard_normal(n)) <= n
    phi, x = 0.9, np.empty(n)
    x[0] = 0.0
    for t in range(1, n):
        x[t] = phi * x[t - 1] + rng.standard_normal()
    expected = n * (1 - phi) / (1 + phi)
    assert 0.6 * expected <= replay.ess_geyer(x) <= 1.4 * expected


def test_sampler_counts_from_rwm_draws():
    family = sc.make_family("classification", n=200)
    truth = sc.generate_truth("self_similar", 1.0, seed=5, family_tag="classification")
    prior = sc.prior_from_config({}, "classification", 200)
    data = family.simulate(truth, 200, 5)
    mcmc = sc.McmcSettings(burn_in=300)
    draws = sc.sample_given_k(family, prior.conditional, data, 3, 400, [5], mcmc=mcmc)
    counts = replay.sampler_counts(draws, thin=1)
    assert counts["mcmc.chains"] == 1
    assert counts["mcmc.steps"] == 700 and counts["mcmc.used_draws"] == 400
    assert 0.0 < counts["mcmc.accepted"] / counts["mcmc.kept_steps"] < 1.0
    assert 0.0 < counts["mcmc.ess"] <= counts["mcmc.ess_draws"] == 400


def test_run_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pooled_many", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
