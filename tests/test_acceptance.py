"""Acceptance suite.

Each test evaluates one release criterion end to end at its stated tolerance
and prints a single PASS/FAIL line (visible via the -rP summary or -s).
"""

import math
import time

import numpy as np
import pytest

from sievecred import (
    DEFAULT_RULE,
    ExperimentConfig,
    PolishedTailParams,
    SemiMetric,
    check_polished_tail,
    dirichlet_prior,
    gaussian_prior,
    generate_truth,
    hyper_prior,
    k_posterior,
    make_family,
    marginal_likelihood,
    marginal_table,
    mmle,
    prior_from_config,
    run_coverage,
    run_negative,
    run_rate,
    tradeoff_set,
)
from sievecred.inference import _laplace_fit
from sievecred.mcmc import McmcSettings, rwm
from sievecred.priors import log_prior_rows

from dense_design import midpoint_basis, responses
from oracles import l2_bias_profile

BASE_SEED = 20260808


def _report(num, name, ok, detail):
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def test_criterion_01_conjugate_evidence_vs_quadrature():
    start = time.monotonic()
    fam = make_family("regression", n=5)
    truth = generate_truth("self_similar", beta=1.0, seed=6)
    data = fam.simulate(truth, 5, seed=8)
    z, K = data.y, fam.max_k  # the dataset is Z ~ N(theta padded to K, I/5)
    nodes, weights = np.polynomial.legendre.leggauss(240)
    nodes, weights = 8.0 * nodes, 8.0 * weights
    worst = 0.0
    for k in (1, 2):
        log_m, method, _ = marginal_likelihood(fam, gaussian_prior(), data, k)
        assert method == "conjugate"
        if k == 1:
            thetas, wts = nodes[:, None], weights
        else:
            t1, t2 = np.meshgrid(nodes, nodes, indexing="ij")
            thetas = np.column_stack([t1.ravel(), t2.ravel()])
            wts = np.outer(weights, weights).ravel()
        resid = z[None, :] - np.pad(thetas, ((0, 0), (0, K - k)))
        loglik = -0.5 * K * np.log(2 * np.pi / 5) - 0.5 * 5 * (resid**2).sum(axis=1)
        logpri = (-0.5 * np.log(2 * np.pi) - 0.5 * thetas**2).sum(axis=1)
        oracle = math.log(float(wts @ np.exp(loglik + logpri)))
        worst = max(worst, abs(math.expm1(log_m - oracle)))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-6 and elapsed < 1.0
    assert _report(1, "conjugate evidence vs brute-force quadrature", ok,
                   f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_dirichlet_evidence_vs_prior_predictive_mc():
    start = time.monotonic()
    fam = make_family("histogram")
    truth = generate_truth("self_similar", beta=1.0, seed=6, family_tag="histogram")
    data = fam.simulate(truth, 25, seed=9)
    rng = np.random.default_rng(10)
    worst = 0.0
    for k in (2, 3, 4):
        log_m, method, _ = marginal_likelihood(fam, dirichlet_prior(1.0), data, k)
        assert method == "dirichlet"
        thetas = rng.dirichlet(np.ones(k), size=2_000_000)
        counts = fam.counts(data, k)
        w = np.exp((counts * np.log(k * thetas)).sum(axis=1))
        se = w.std(ddof=1) / np.sqrt(w.size)
        worst = max(worst, abs(np.exp(log_m) - w.mean()) / se)
    elapsed = time.monotonic() - start
    ok = worst <= 3.0 and elapsed < 30.0
    assert _report(2, "dirichlet evidence vs 2e6-draw prior predictive", ok,
                   f"worst deviation {worst:.2f} se, {elapsed:.1f}s")


def test_criterion_03_mcmc_and_laplace_validation():
    start = time.monotonic()
    fam = make_family("regression", n=500)
    truth = generate_truth("self_similar", beta=1.0, seed=11)
    y, data = responses(fam, truth, 12)
    k = 4
    prior = gaussian_prior()

    # exact posterior for reference
    phi = midpoint_basis(500, k)
    prec = phi.T @ phi + np.eye(k)
    mean = np.linalg.solve(prec, phi.T @ y)
    cov = np.linalg.inv(prec)

    mode, chol, _, _ = _laplace_fit(fam, prior, data, k)
    loglik = fam.loglik(data, k)

    def log_target(rows):
        return loglik(rows) + log_prior_rows(prior, rows)

    chain, diag = rwm(
        log_target, mode, np.linalg.inv(chol).T, 20000, McmcSettings(burn_in=5000),
        np.random.default_rng(13),
    )
    batches = chain.reshape(20, -1, k)
    mean_se = batches.mean(axis=1).std(axis=0, ddof=1) / np.sqrt(20)
    mean_dev = np.max(np.abs(chain.mean(axis=0) - mean) / (3 * mean_se))
    centered = (chain - chain.mean(axis=0)) ** 2
    var_se = centered.reshape(20, -1, k).mean(axis=1).std(axis=0, ddof=1) / np.sqrt(20)
    var_dev = np.max(np.abs(centered.mean(axis=0) - np.diag(cov)) / (3 * var_se))

    lap_worst = 0.0
    for kk in range(1, 7):
        exact, _, _ = marginal_likelihood(fam, prior, data, kk)
        approx, _, _ = marginal_likelihood(fam, prior, data, kk, method="laplace")
        lap_worst = max(lap_worst, abs(approx - exact))
    elapsed = time.monotonic() - start
    ok = mean_dev <= 1.0 and var_dev <= 1.0 and lap_worst <= 1e-8
    assert _report(
        3, "MCMC/Laplace validation against conjugate", ok,
        f"mean within {mean_dev:.2f}x, var within {var_dev:.2f}x of 3se, "
        f"laplace gap {lap_worst:.1e}, accept {diag['acceptance_rate']:.2f}, {elapsed:.1f}s",
    )


def test_criterion_04_normalizing_constant_gradient():
    # relative error uses a unit floor so near-zero components are absolute
    fam = make_family("loglinear")
    rng = np.random.default_rng(14)
    h = 1e-6
    worst = 0.0
    for _ in range(20):
        k = int(rng.integers(1, 7))
        theta = 0.6 * rng.standard_normal(k)
        _, mean, _ = fam.log_norm_parts(theta)
        for j in range(k):
            e = np.zeros(k)
            e[j] = h
            fd = (fam.log_norm(theta + e) - fam.log_norm(theta - e)) / (2 * h)
            worst = max(worst, abs(fd - mean[j]) / max(1.0, abs(mean[j])))
    ok = worst <= 1e-6
    assert _report(4, "c(theta) gradient vs central differences", ok,
                   f"max rel err {worst:.2e} over 20 points, k <= 6")


@pytest.mark.parametrize("family", ["regression", "histogram", "loglinear", "classification"])
def test_criterion_05_positive_coverage(family):
    start = time.monotonic()
    cfg = ExperimentConfig(
        family=family,
        beta=1.0,
        n_grid=(2000,),
        replicates=200,
        alpha=0.05,
        L_grid=(2.0,),
        mode="both",
        draws=1500,
        mcmc_burn_in=600,
        seed=BASE_SEED,
        threads=2,
    )
    report = run_coverage(cfg)
    ok = True
    details = []
    for mode in ("hierarchical", "empirical"):
        cell = report.cell(mode=mode, L=2.0)
        ok = ok and cell["coverage"] >= 0.90 and cell["ci_lo"] >= 0.85
        details.append(f"{mode} {cell['coverage']:.3f} (wilson lo {cell['ci_lo']:.3f})")
    elapsed = time.monotonic() - start
    assert _report(5, f"coverage at L=2, n=2000, {family}", ok,
                   ", ".join(details) + f", {elapsed:.0f}s")


@pytest.mark.parametrize("beta,target", [(1.0, -1.0 / 3.0), (2.0, -2.0 / 5.0)])
def test_criterion_06_size_rate(beta, target):
    start = time.monotonic()
    cfg = ExperimentConfig(
        family="regression",
        beta=beta,
        n_grid=(500, 2000, 8000),
        replicates=100,
        mode="empirical",
        draws=1500,
        seed=BASE_SEED,
    )
    report = run_rate(cfg)
    dev = abs(report["slope"] - target)
    ok = dev <= 0.15
    elapsed = time.monotonic() - start
    assert _report(6, f"diameter rate, beta={beta}", ok,
                   f"slope {report['slope']:.3f} vs {target:.3f} (dev {dev:.3f}), {elapsed:.0f}s")


def test_criterion_07_vanishing_inflation_negative_result():
    # negative coverage must fall from n=500 to n=8000 by at least 3 standard
    # errors of the difference; the middle n is not compared, as neg[500] vs
    # neg[2000] changes order with the seed even at 1000 replicates
    start = time.monotonic()
    reps = 1000
    cfg = ExperimentConfig(
        family="regression",
        beta=1.0,
        n_grid=(500, 2000, 8000),
        replicates=reps,
        mode="empirical",
        draws=1500,
        seed=1234,
    )
    report = run_negative(cfg)
    neg = [report.cell(mode="negative", n=n)["coverage"] for n in (500, 2000, 8000)]
    ctl = report.cell(mode="control", n=8000)["coverage"]
    se = math.sqrt((neg[0] * (1 - neg[0]) + neg[2] * (1 - neg[2])) / reps)
    z = (neg[0] - neg[2]) / se if se > 0 else 0.0
    falls = z >= 3.0
    separated = ctl - neg[2] >= 0.25
    elapsed = time.monotonic() - start
    ok = falls and separated
    assert _report(
        7, "vanishing inflation loses coverage", ok,
        f"negative {neg[0]:.3f}, {neg[1]:.3f}, {neg[2]:.3f} (z {z:.2f} from 500 to 8000), "
        f"control-at-8000 gap {ctl - neg[2]:.3f}, {elapsed:.0f}s",
    )


def test_criterion_08_model_selection_localization():
    start = time.monotonic()
    n, reps = 2000, 100
    fam = make_family("regression", n=n)
    truth = generate_truth("self_similar", beta=1.0, seed=BASE_SEED)
    sieve = prior_from_config({}, "regression", n)
    profile = l2_bias_profile(truth.coefficients, n=n, k_max=sieve.hyper.k_cap)
    in_set = tradeoff_set(profile, 8.0)
    hits_khat = 0
    hits_mass = 0
    for rep in range(1, reps + 1):
        data = fam.simulate(truth, n, seed=BASE_SEED + rep)
        table = marginal_table(fam, sieve, data)
        hits_khat += mmle(table) in in_set
        hits_mass += k_posterior(table, sieve.hyper).set_mass(in_set) >= 0.9
    frac_khat = hits_khat / reps
    frac_mass = hits_mass / reps
    elapsed = time.monotonic() - start
    ok = frac_khat >= 0.9 and frac_mass >= 0.9
    assert _report(
        8, "MMLE and hierarchical mass localize in K_n(8)", ok,
        f"frac k_hat in set {frac_khat:.2f}, frac mass>=0.9 {frac_mass:.2f}, {elapsed:.0f}s",
    )


def test_criterion_09_property_suite_spotchecks():
    rng = np.random.default_rng(15)
    checks = []

    # metric axioms on sampled triples
    metric = SemiMetric("hellinger", weights=DEFAULT_RULE.weights)
    ok_axioms = True
    for _ in range(20):
        a, b, c = (rng.random(512) + 0.05 for _ in range(3))
        ok_axioms &= metric.distance(a, a) == 0.0
        ok_axioms &= abs(metric.distance(a, b) - metric.distance(b, a)) < 1e-14
        ok_axioms &= metric.distance(a, c) <= metric.distance(a, b) + metric.distance(b, c) + 1e-10
    checks.append(("metric axioms", bool(ok_axioms)))

    # quantile convention: rank ceil(0.95 * 100) = 95
    fam = make_family("regression", n=16)
    from sievecred import credible_radius
    from sievecred.inference import PosteriorDraws

    draws = PosteriorDraws({1: (0.01 * np.arange(1, 101)).reshape(-1, 1)})
    center = np.array([0.0])
    checks.append(("quantile convention",
                   credible_radius(draws, center, fam, 0.05) == pytest.approx(0.95, abs=1e-12)))

    # polished tail: geometric passes, plateau fails
    geo = l2_bias_profile(np.sqrt(0.5 ** np.arange(1, 40)), n=1000, k_max=39)
    holds = check_polished_tail(geo, PolishedTailParams(r0=2, k0=2, tau=0.25)).holds
    coeffs = np.zeros(300)
    for idx, val in zip([1, 4, 16, 64, 256], [1.0, 0.5, 0.25, 0.125, 0.0625]):
        coeffs[idx - 1] = val
    plateau = l2_bias_profile(coeffs, n=10**6, k_max=600)
    fails = not check_polished_tail(plateau, PolishedTailParams(r0=2, k0=2, tau=0.99)).holds
    checks.append(("polished tail pass/fail constructions", bool(holds and fails)))

    # hyperprior normalization identities
    hp = hyper_prior("poisson", 2.5, k_cap=15)
    total = sum(np.exp(hp.log_mass(k)) for k in range(1, 16))
    checks.append(("hyperprior normalization", abs(total - 1.0) < 1e-12))

    # histogram Hellinger closed form vs quadrature at 1e-10
    t1 = rng.dirichlet(np.ones(4))
    t2 = rng.dirichlet(np.ones(16))
    nodes = DEFAULT_RULE.nodes
    d1 = 4 * t1[np.minimum((nodes * 4).astype(int), 3)]
    d2 = 16 * t2[np.minimum((nodes * 16).astype(int), 15)]
    closed = np.sqrt(np.sum((np.sqrt(np.repeat(t1, 4) / 4) - np.sqrt(t2)) ** 2))
    gap = abs(metric.distance(d1, d2) - closed)
    checks.append(("histogram hellinger closed form vs quadrature", gap < 1e-10))

    ok = all(flag for _, flag in checks)
    assert _report(9, "property suite spot checks", ok,
                   "; ".join(f"{name} {'ok' if flag else 'FAIL'}" for name, flag in checks))


def test_criterion_10_coverage_determinism(tmp_path):
    cfg = dict(
        family="regression", n_grid=(300,), replicates=5, draws=300,
        L_grid=(1.0, 2.0), mode="both", seed=424242, out_dir=str(tmp_path),
    )
    run_coverage(ExperimentConfig(**cfg))
    first = (tmp_path / "coverage_replicates.csv").read_bytes()
    run_coverage(ExperimentConfig(**cfg))
    second = (tmp_path / "coverage_replicates.csv").read_bytes()
    ok = first == second and len(first) > 0
    assert _report(10, "byte-identical coverage CSV for fixed config+seed", ok,
                   f"{len(first)} bytes compared")
