import json
import math
import re

import numpy as np
import pytest

import sievecred.cli as cli
import sievecred.harness as harness
from sievecred import (
    ExperimentConfig,
    fit_rate,
    k_posterior,
    run_coverage,
    run_diagnostics,
    run_negative,
    run_rate,
)
from sievecred.cli import main as cli_main


def _tiny_config(**overrides):
    base = dict(
        family="regression",
        n_grid=(200,),
        replicates=6,
        draws=300,
        mcmc_burn_in=200,
        seed=314,
        L_grid=(0.5, 1.0, 2.0),
        mode="both",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(replicates=0)
    with pytest.raises(ValueError):
        ExperimentConfig(n_grid=(500, 200))
    with pytest.raises(ValueError):
        ExperimentConfig(alpha=1.2)
    with pytest.raises(ValueError):
        ExperimentConfig(mode="plugin")
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"familly": "regression"})
    bad_values = [
        {"draws": 0},
        {"threads": 0},
        {"threads": -1},
        {"L_grid": ()},
        {"n_grid": ()},
        {"n_grid": (1, 200)},
        {"n_grid": (200, 200)},
        {"mcmc_burn_in": -5},
        {"mcmc_thin": 0},
        {"tradeoff_M": (0.5,)},
        {"family": "poisson"},
        {"basis": "wavelet"},
        {"marginal_method": "nope"},
        {"generator": "nope"},
        {"beta": 0.4},
        {"truth_length": 0},
        {"prior": {"conditonal": {"kind": "laplace"}}},
        {"prior": {"hyper": {"kind": "geometric", "P": 0.2}}},
        {"prior": {"conditional": {"kind": "gaussian", "sclae": 3.0}}},
        {"prior": {"hyper": {"kind": "geometric", "lambda": 0.2}}},
        {"prior": {"hyper": {"kind": "poisson", "p": 0.2}}},
        {"prior": {"conditional": {"kind": "dirichlet", "scale": 3.0}}},
        {"prior": {"conditional": {"kind": "gaussian", "alpha": 2.0}}},
        {"prior": {"conditional": {"kind": "laplace"}}},
        {"prior": {"conditional": {"kind": "gaussian", "location": 0.5}}},
        {"L_grid": (-1.0,)},
        {"seed": -1},
        # pairings with no route, and prior values the prior rejects
        {"family": "histogram", "prior": {"conditional": {"kind": "gaussian"}}},
        {"family": "classification", "prior": {"conditional": {"kind": "dirichlet"}}},
        {"family": "classification", "marginal_method": "conjugate"},
        {"marginal_method": "dirichlet"},
        {"family": "histogram", "marginal_method": "laplace"},
        # the exact routes are reached through "auto" only, and histograms have no importance route
        {"marginal_method": "conjugate"},
        {"family": "histogram", "marginal_method": "dirichlet"},
        {"family": "histogram", "marginal_method": "importance"},
        {"prior": {"hyper": {"kind": "geometric", "p": 1.5}}},
        {"prior": {"conditional": {"kind": "gaussian", "scale": -1.0}}},
        # values of the wrong type, and an explicit truth with no coefficients
        {"prior": {"k_cap": 2.5}},
        {"alpha": "x"},
        {"prior": {"conditional": {"kind": "gaussian", "scale": "abc"}}},
        {"replicates": 2.5},
        {"draws": 1.5},
        {"generator": "explicit"},
        {"n_grid": (200.7,)},
        {"L_grid": ("x",)},
        {"generator": "explicit", "truth_coefficients": ("x",)},
        # values that used to fail only after every replicate had run
        {"tail_tau": 1.5},
        {"tail_r0": 1},
        {"tail_k0": 0},
        {"control_L": -1.0},
        {"m_n_exponent": float("nan")},
        {"generator": "sobolev_draw", "L0": -1.0},
        # non-finite values that used to build a config whose every replicate failed
        {"prior": {"conditional": {"kind": "gaussian", "scale": float("nan")}}},
        {"prior": {"conditional": {"kind": "gaussian", "scale": float("inf")}}},
        {"family": "histogram", "prior": {"conditional": {"kind": "dirichlet",
                                                          "alpha": float("nan")}}},
        {"prior": {"hyper": {"kind": "poisson", "lambda": float("nan")}}},
        {"generator": "explicit", "truth_coefficients": (1.0, float("nan"))},
        {"generator": "sobolev_draw", "L0": float("inf")},
        {"prior": {"k_cap_exponent": float("inf")}},
        # infinite values that used to build a config whose reports held the bare token Infinity
        {"L_grid": (float("inf"),)},
        {"beta": float("inf")},
        {"tradeoff_M": (float("inf"),)},
        # coefficients that a generated truth would silently drop
        {"generator": "self_similar", "truth_coefficients": (5.0, -3.0)},
        {"generator": "sobolev_draw", "truth_coefficients": (5.0,)},
    ]
    for bad in bad_values:
        with pytest.raises(ValueError, match="invalid config"):
            ExperimentConfig(**bad)


def test_coverage_report_is_strict_json(tmp_path):
    # NaN, Infinity and -Infinity are not JSON; a strict parser refuses them
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    run_coverage(_tiny_config(replicates=2, draws=50, out_dir=str(tmp_path)))
    report = json.loads((tmp_path / "coverage_report.json").read_text(), parse_constant=refuse)
    assert report["cells"]


@pytest.mark.parametrize("family,n,prior", [
    # the largest orthonormal dimension: n // 2 for the trigonometric basis, n - 1 for the cosine
    ("regression", 200, {"k_cap": 101}),
    ("regression", 3, {}),
    ("classification", 2000, {"k_cap": 65}),
    ("loglinear", 2000, {"k_cap": 129}),
    # no basis function is orthonormal on 2 midpoints, so the largest dimension is 0
    ("regression", 2, {"k_cap": 1}),
    ("classification", 2, {"k_cap": 1}),
])
def test_k_cap_beyond_the_family_fails_before_any_replicate(monkeypatch, family, n, prior):
    ran, run_replicate = [], harness._run_replicate
    monkeypatch.setattr(harness, "_run_replicate",
                        lambda ctx, rep_id: ran.append(rep_id) or run_replicate(ctx, rep_id))
    with pytest.raises(ValueError, match="invalid config: k_cap"):
        run_coverage(ExperimentConfig(family=family, n_grid=(n,), replicates=2, draws=10,
                                      prior=prior))
    assert ran == []


@pytest.mark.parametrize("n", [40000, 1_000_000])
def test_regression_beyond_the_classification_design_cap_runs(n):
    # regression builds no design, so only orthonormality bounds its dimension
    rows = run_coverage(ExperimentConfig(n_grid=(n,), replicates=2, draws=50,
                                         L_grid=(2.0,))).rows
    assert len(rows) == 4 and {row["n"] for row in rows} == {n}
    assert all(row["d_truth_center"] > 0 and row["r_alpha"] > 0 for row in rows)


def test_k_cap_beyond_the_family_at_a_later_n_fails_before_any_replicate(monkeypatch):
    ran, built = [], []
    run_replicate, make_family = harness._run_replicate, harness.make_family
    monkeypatch.setattr(harness, "_run_replicate",
                        lambda ctx, rep_id: ran.append(rep_id) or run_replicate(ctx, rep_id))
    monkeypatch.setattr(harness, "make_family",
                        lambda *args, **kw: built.append(args) or make_family(*args, **kw))
    with pytest.raises(ValueError, match="invalid config: k_cap 70 exceeds the largest "
                                         "dimension 64 of classification at n=40000"):
        run_coverage(ExperimentConfig(family="classification", n_grid=(2000, 40000),
                                      replicates=3, draws=10))
    assert ran == [] and built == []


def test_config_json_roundtrip(tmp_path):
    cfg = _tiny_config()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict()))
    again = ExperimentConfig.from_json(path)
    assert again.to_dict() == cfg.to_dict()


def test_coverage_deterministic_byte_identical(tmp_path):
    out = tmp_path / "a"
    run_coverage(_tiny_config(out_dir=str(out)))
    csv_a = (out / "coverage_replicates.csv").read_bytes()
    json_a = (out / "coverage_report.json").read_bytes()
    run_coverage(_tiny_config(out_dir=str(out)))
    assert (out / "coverage_replicates.csv").read_bytes() == csv_a
    assert (out / "coverage_report.json").read_bytes() == json_a


def test_coverage_report_structure_and_L_monotonicity():
    report = run_coverage(_tiny_config())
    assert len(report.cells) == 2 * 3  # modes x L grid
    for mode in ("hierarchical", "empirical"):
        covs = [report.cell(mode=mode, L=L)["coverage"] for L in (0.5, 1.0, 2.0)]
        assert covs == sorted(covs)
    cell = report.cells[0]
    assert 0.0 <= cell["ci_lo"] <= cell["coverage"] <= cell["ci_hi"] <= 1.0
    assert cell["replicates_used"] == 6
    assert sum(cell["k_hist"].values()) == 6


def test_zero_inflation_covers_no_truth_off_center():
    report = run_coverage(_tiny_config(L_grid=(0.0,)))
    assert len(report.rows) == 12
    for row in report.rows:
        assert row["inflation"] == 0.0
        assert row["d_truth_center"] > 0.0
        assert not row["covered"]


def test_parallel_pool_matches_serial(tmp_path):
    serial = run_coverage(_tiny_config(replicates=4, out_dir=str(tmp_path / "s")))
    pooled = run_coverage(_tiny_config(replicates=4, threads=2, out_dir=str(tmp_path / "p")))
    a = (tmp_path / "s" / "coverage_replicates.csv").read_text()
    b = (tmp_path / "p" / "coverage_replicates.csv").read_text()
    assert a == b
    assert serial.cells == pooled.cells


def test_error_budget_enforced(monkeypatch):
    real = harness._run_replicate

    def flaky(ctx, rep_id):
        if rep_id <= 2:
            raise RuntimeError("synthetic failure")
        return real(ctx, rep_id)

    monkeypatch.setattr(harness, "_run_replicate", flaky)
    with pytest.raises(RuntimeError, match="budget"):
        run_coverage(_tiny_config(replicates=8))
    # a single failure in 60 replicates is inside the 2% budget and is reported
    def rare(ctx, rep_id):
        if rep_id == 1:
            raise RuntimeError("synthetic failure")
        return real(ctx, rep_id)

    monkeypatch.setattr(harness, "_run_replicate", rare)
    report = run_coverage(_tiny_config(replicates=60, draws=80, L_grid=(1.0,), mode="empirical"))
    assert len(report.errors) == 1
    assert report.cell(mode="empirical", L=1.0)["replicates_used"] == 59


def test_run_rate_records_its_failed_replicates(monkeypatch):
    # one failure in 60 jobs is inside the 2% budget: it is listed, and its point is one short
    real = harness._run_replicate

    def rare(ctx, rep_id):
        if ctx.n == 200 and rep_id == 3:
            raise RuntimeError("synthetic failure")
        return real(ctx, rep_id)

    monkeypatch.setattr(harness, "_run_replicate", rare)
    report = run_rate(_tiny_config(n_grid=(100, 200, 400), replicates=20, draws=80,
                                   mode="empirical"))
    assert report["errors"] == [
        {"n": 200, "replicate_id": 3, "error": "RuntimeError: synthetic failure"}
    ]
    assert [p["replicates"] for p in report["points"]] == [20, 19, 20]


def test_fit_rate_exact_power_law():
    ns = [500, 2000, 8000]
    logs = [math.log(3.7 * (n / math.log(n)) ** (-1.0 / 3.0)) for n in ns]
    slope, se = fit_rate(ns, logs)
    assert slope == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert se == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        fit_rate([500, 2000], logs[:2])


def test_run_rate_structure():
    cfg = _tiny_config(n_grid=(100, 200, 400), replicates=4, mode="empirical")
    report = run_rate(cfg)
    assert report["target"] == pytest.approx(-1.0 / 3.0)
    assert np.isfinite(report["slope"])
    assert len(report["points"]) == 3


def test_run_negative_structure_and_arms(tmp_path):
    cfg = _tiny_config(n_grid=(100, 200), replicates=4, mode="empirical",
                       out_dir=str(tmp_path))
    report = run_negative(cfg)
    labels = {c["mode"] for c in report.cells}
    assert labels == {"negative", "control"}
    for n in (100, 200):
        neg = report.cell(mode="negative", n=n)
        ctl = report.cell(mode="control", n=n)
        assert neg["m_n"] == pytest.approx(math.log(n) ** -0.25)
        assert neg["coverage"] <= ctl["coverage"] + 1e-12
    rows = (tmp_path / "negative_replicates.csv").read_text().splitlines()
    assert rows[0].startswith("n,mode,L")


def test_run_negative_requires_regression():
    with pytest.raises(ValueError):
        run_negative(_tiny_config(family="histogram"))


def test_negative_control_arm_agrees_with_run_coverage():
    # same config, same seeds: the control arm IS the L=2 empirical cell
    cfg = _tiny_config(n_grid=(150,), replicates=8, mode="empirical", L_grid=(2.0,))
    cov = run_coverage(cfg)
    neg = run_negative(cfg)
    assert neg.cell(mode="control", n=150)["coverage"] == cov.cell(
        mode="empirical", n=150
    )["coverage"]
    assert neg.cell(mode="control", n=150)["mean_diam"] == cov.cell(
        mode="empirical", n=150
    )["mean_diam"]


def test_coverage_records_view():
    report = run_coverage(_tiny_config(replicates=3, mode="empirical", L_grid=(2.0,)))
    rows = report.rows
    assert len(rows) == 3
    assert [row["replicate_id"] for row in rows] == [1, 2, 3]
    assert all(row["mode"] == "empirical" and row["L"] == 2.0 for row in rows)
    assert list(rows[0]) == list(harness.COVERAGE_COLUMNS)
    assert rows[0]["diameter"] == pytest.approx(2 * rows[0]["r_alpha"])
    assert rows[0]["covered"] == (rows[0]["d_truth_center"] <= rows[0]["inflation"] * rows[0]["r_alpha"])


def test_explicit_truth_config_well_specified_coverage():
    # truth inside Theta(3): inflated empirical-Bayes coverage is high
    cfg = _tiny_config(
        generator="explicit",
        truth_coefficients=(0.8, -0.5, 0.3),
        n_grid=(400,),
        replicates=20,
        mode="empirical",
        L_grid=(2.0,),
    )
    report = run_coverage(cfg)
    assert report.cell(mode="empirical", L=2.0)["coverage"] >= 0.9
    with pytest.raises(ValueError):
        _tiny_config(generator="explicit")


def test_run_diagnostics_fields_and_determinism():
    cfg = _tiny_config(replicates=4, tail_tau=0.26)
    a = run_diagnostics(cfg)
    b = run_diagnostics(cfg)
    assert a == b
    per_n = a["per_n"]["200"]
    assert per_n["k_n"] >= 1
    # the desk-scale hand ratios exceed 0.26, so a false verdict is reported
    assert per_n["polished_tail"]["holds"] is False
    assert per_n["polished_tail"]["first_violation"] >= cfg.tail_k0
    for mode in ("hierarchical", "empirical"):
        fracs = a["modes"][mode]["frac_in_tradeoff"]
        assert set(fracs) == {"2", "4", "8"}
        assert all(0.0 <= v <= 1.0 for v in fracs.values())


def test_only_diagnostics_builds_the_bias_profile(monkeypatch):
    # coverage, negative and rate replicates record k and the k-posterior, never K_n(M)
    def no_profile(*args):
        raise AssertionError("bias profile built")

    monkeypatch.setattr(harness, "bias_profile", no_profile)
    monkeypatch.setattr(harness, "_WORKER_CTX", {})
    cfg = _tiny_config(replicates=2, draws=100)
    cell = run_coverage(cfg).cell(mode="hierarchical", L=2.0)
    assert cell["replicates_used"] == 2 and "frac_in_tradeoff" not in cell
    assert run_negative(cfg).cell(mode="negative", n=200)["replicates_used"] == 2
    assert len(run_rate(_tiny_config(n_grid=(100, 200, 400), replicates=2, draws=100,
                                     mode="empirical"))["points"]) == 3
    with pytest.raises(AssertionError, match="bias profile built"):
        run_diagnostics(cfg)


def test_run_diagnostics_builds_one_context_per_n(monkeypatch):
    built = []
    init = harness._Context.__init__

    def counting_init(self, cfg, n):
        built.append(n)
        init(self, cfg, n)

    monkeypatch.setattr(harness, "_WORKER_CTX", {})
    monkeypatch.setattr(harness._Context, "__init__", counting_init)
    run_diagnostics(_tiny_config(family="histogram", n_grid=(300, 600), replicates=2,
                                 draws=100, threads=1))
    assert sorted(built) == [300, 600]


def test_cli_simulate_bias_and_coverage(tmp_path):
    out = tmp_path / "cli"
    assert cli_main(["simulate", "--family", "regression", "--n", "40",
                     "--seed", "3", "--out-dir", str(out)]) == 0
    assert (out / "dataset.csv").exists()
    assert (out / "truth.json").exists()

    assert cli_main(["bias", "--family", "regression", "--n", "300", "--seed", "3",
                     "--k-max", "20", "--out-dir", str(out)]) == 0
    assert (out / "bias.csv").exists()
    # the flags go through ExperimentConfig, so a bad one fails as a bad config does
    with pytest.raises(ValueError, match="invalid config: beta must exceed 1/2"):
        cli_main(["simulate", "--beta", "0.4", "--out-dir", str(out)])

    cfg = dict(family="regression", n_grid=[120], replicates=3, draws=100,
               mcmc_burn_in=100, L_grid=[2.0], mode="empirical", seed=11)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["coverage", "--config", str(cfg_path),
                     "--out-dir", str(out)]) == 0
    report = json.loads((out / "coverage_report.json").read_text())
    assert report["cells"][0]["n"] == 120


def test_cli_mmle_posterior_credible(tmp_path, capsys):
    out = str(tmp_path)
    assert cli_main(["mmle", "--family", "regression", "--n", "200", "--seed", "5",
                     "--out-dir", out]) == 0
    k_hat = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["k_hat"]
    assert k_hat >= 1
    assert cli_main(["posterior", "--family", "regression", "--n", "200", "--seed", "5",
                     "--count", "200", "--out-dir", out]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sum(payload["k_counts"].values()) == 200
    # credible prints the coverage row of harness replicate 1 of the equivalent config
    for family, mode in [("regression", "empirical"), ("regression", "hierarchical"),
                         ("classification", "empirical"), ("classification", "hierarchical")]:
        case_dir = tmp_path / f"{family}-{mode}"
        assert cli_main(["credible", "--family", family, "--n", "200", "--seed", "5",
                         "--mode", mode, "--count", "150", "--burn-in", "100",
                         "--out-dir", str(case_dir)]) == 0
        row = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        config = ExperimentConfig(family=family, n_grid=(200,), seed=5, replicates=1,
                                  draws=150, mcmc_burn_in=100, L_grid=(2.0,), mode=mode)
        assert row == run_coverage(config).rows[0]
        assert row["r_alpha"] > 0
        assert row["inflation"] == pytest.approx(2.0 * math.sqrt(math.log(200)))
        assert (case_dir / "coverage_report.json").exists()
        lines = (case_dir / "coverage_replicates.csv").read_text().splitlines()
        assert lines[0].split(",") == list(row)
        assert lines[1:] == [",".join(str(int(v) if isinstance(v, bool) else v)
                                      for v in row.values())]


def test_cli_commands_work_on_replicate_one(tmp_path, capsys):
    # simulate, mmle and posterior see the dataset and evidence table of credible's replicate
    for family in ("regression", "classification"):
        for seed in (5, 7):
            flags = ["--family", family, "--n", "200", "--seed", str(seed)]
            out = tmp_path / f"{family}-{seed}"
            assert cli_main(["simulate", *flags, "--out-dir", str(out)]) == 0
            ctx = harness._Context(ExperimentConfig(family=family, seed=seed, n_grid=(200,)), 200)
            header, *lines = (out / "dataset.csv").read_text().splitlines()
            firsts = [line.split(",")[0] for line in lines]
            ys = [float(line.split(",")[1]) for line in lines]
            assert ys == ctx.family.simulate(ctx.truth, 200, seed + 1).y.tolist()
            if family == "regression":  # (j, z_j) for the K entries of Z
                assert header == "j,z"
                assert firsts == [str(j) for j in range(1, ctx.family.max_k + 1)]
            else:  # (x_i, y_i) at the n midpoints
                assert header == "x,y"
                assert firsts == [repr((i + 0.5) / 200) for i in range(200)]
            capsys.readouterr()
            assert cli_main(["mmle", *flags, "--out-dir", str(out)]) == 0
            k_hat = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["k_hat"]
            assert cli_main(["credible", *flags, "--mode", "empirical", "--count", "150",
                             "--burn-in", "100", "--out-dir", str(out)]) == 0
            row = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
            assert k_hat == row["k_hat"]
    # posterior without --k draws from replicate 1's own k-posterior
    assert cli_main(["posterior", "--n", "200", "--seed", "5", "--count", "100",
                     "--out-dir", str(tmp_path)]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    ctx = harness._Context(ExperimentConfig(seed=5, n_grid=(200,)), 200)
    kpost = k_posterior(ctx.table(ctx.data(1), 1), ctx.prior.hyper).mass()
    assert payload["diagnostics"]["k_posterior"] == {str(k): v for k, v in kpost.items()}
    with pytest.raises(ValueError, match="invalid config: every L must be >= 0"):
        cli_main(["credible", "--n", "200", "--L", "-1", "--out-dir", str(tmp_path)])


@pytest.mark.parametrize("flags,message", [
    (["--tau", "1.5"], "tau must lie in"),
    (["--r0", "1"], "r0 must be"),
    (["--k0", "0"], "k0 must be"),
    (["--k-max", "0"], "--k-max 0 must lie in 1..150"),
    (["--k-max", "151"], "--k-max 151 must lie in 1..150"),
])
def test_cli_bias_rejects_bad_flags_before_any_profile(monkeypatch, tmp_path, flags, message):
    profiled = []
    monkeypatch.setattr(cli, "bias_profile", lambda *a: profiled.append(a))
    with pytest.raises(ValueError, match="invalid config: " + re.escape(message)):
        cli_main(["bias", "--family", "regression", "--n", "300", *flags,
                  "--out-dir", str(tmp_path)])
    assert profiled == []


@pytest.mark.parametrize("flags,message", [
    (["--k", "0"], "--k 0 must lie in 1..100"),
    (["--k", "-1"], "--k -1 must lie in 1..100"),
    (["--k", "101"], "--k 101 must lie in 1..100"),
    (["--count", "0"], "draws must be >= 1"),
    (["--count", "-5"], "draws must be >= 1"),
    (["--k", "2", "--count", "0"], "draws must be >= 1"),
])
def test_cli_posterior_rejects_bad_flags_before_any_sampler(monkeypatch, tmp_path, flags,
                                                            message):
    sampled = []
    monkeypatch.setattr(cli, "sample_given_k", lambda *a, **kw: sampled.append(a))
    monkeypatch.setattr(cli, "sample_hierarchical", lambda *a, **kw: sampled.append(a))
    with pytest.raises(ValueError, match="invalid config: " + re.escape(message)):
        cli_main(["posterior", "--family", "regression", "--n", "200", *flags,
                  "--out-dir", str(tmp_path)])
    assert sampled == []


@pytest.mark.parametrize("command", ["mmle", "simulate", "credible"])
def test_cli_rejects_a_negative_seed(tmp_path, command):
    with pytest.raises(ValueError, match="invalid config: seed must be >= 0"):
        cli_main([command, "--n", "200", "--seed", "-3", "--out-dir", str(tmp_path)])


def _diagnostics_tail_verdict(**fields) -> dict:
    """The polished-tail verdict `run_diagnostics` reports for a one-n config of `fields`."""
    cfg = ExperimentConfig(n_grid=(2000,), replicates=1, draws=50, mode="empirical", **fields)
    return run_diagnostics(cfg)["per_n"]["2000"]["polished_tail"]


def test_cli_bias_tail_flags_reach_the_check(tmp_path, capsys):
    # the same verdict as the diagnostics of the config with these tail values
    flags = ["--n", "2000", "--beta", "0.6", "--r0", "3", "--k0", "3", "--tau", "0.4"]
    assert cli_main(["bias", *flags, "--out-dir", str(tmp_path)]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["polished_tail"] == _diagnostics_tail_verdict(
        beta=0.6, seed=0, tail_r0=3, tail_k0=3, tail_tau=0.4)


def test_cli_bias_extends_profile_for_polished_tail_like_diagnostics(tmp_path, capsys):
    # k_n = 12 at n = 2000, so the check needs b(24) beyond k_cap = 21
    assert cli_main(["bias", "--family", "regression", "--n", "2000", "--beta", "0.6",
                     "--seed", "0", "--out-dir", str(tmp_path)]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["k_n"] == 12
    assert summary["polished_tail"] == {"holds": True, "first_violation": None}
    assert _diagnostics_tail_verdict(beta=0.6, seed=0) == summary["polished_tail"]
