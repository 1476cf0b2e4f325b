import math
from itertools import groupby

import numpy as np
import pytest
from scipy.stats import beta, chi2

from sievecred import (
    ExperimentConfig,
    credible_radius,
    gaussian_prior,
    generate_truth,
    make_family,
    posterior_center,
    run_coverage,
    sample_given_k,
    wilson_interval,
)
from sievecred.inference import PosteriorDraws

from dense_design import midpoint_basis, responses


def _coef_draws(values):
    values = np.asarray(values, dtype=float).reshape(-1, 1)
    return PosteriorDraws({1: values})


@pytest.fixture(scope="module")
def reg16():
    return make_family("regression", n=16)


def test_radius_zero_for_degenerate_posterior(reg16):
    draws = _coef_draws(np.full(50, 0.7))
    center = np.array([0.7])
    assert credible_radius(draws, center, reg16, 0.05) == 0.0


def test_radius_order_statistic_convention(reg16):
    # distances 0.01..1.00, alpha=0.05: rank ceil(0.95*100) = 95 -> 0.95
    draws = _coef_draws(0.01 * np.arange(1, 101))
    center = np.array([0.0])
    assert credible_radius(draws, center, reg16, 0.05) == pytest.approx(0.95, abs=1e-12)
    assert credible_radius(draws, center, reg16, 0.5) == pytest.approx(0.50, abs=1e-12)


def test_radius_non_increasing_in_alpha(reg16, rng):
    draws = _coef_draws(rng.standard_normal(400))
    center = np.array([0.0])
    alphas = [0.01, 0.05, 0.1, 0.25, 0.5, 0.9]
    radii = [credible_radius(draws, center, reg16, a) for a in alphas]
    assert all(r1 >= r2 for r1, r2 in zip(radii, radii[1:]))


def test_radius_converges_to_true_quantile(reg16, rng):
    draws = _coef_draws(rng.random(200_000))
    center = np.array([0.0])
    assert credible_radius(draws, center, reg16, 0.05) == pytest.approx(0.95, abs=0.01)


def test_radius_against_exact_gaussian_posterior_oracle():
    fam = make_family("regression", n=300)
    truth = generate_truth("self_similar", beta=1.0, seed=41)
    y, data = responses(fam, truth, 42)
    k = 3
    draws = sample_given_k(fam, gaussian_prior(), data, k, 4000, seed=43)
    center = posterior_center(draws, fam)
    r = credible_radius(draws, center, fam, 0.05)

    # oracle: 10^6 draws from the closed-form posterior, distances to the same center
    phi = midpoint_basis(300, k)
    prec = phi.T @ phi + np.eye(k)
    mean = np.linalg.solve(prec, phi.T @ y)
    chol_cov = np.linalg.cholesky(np.linalg.inv(prec))
    rng = np.random.default_rng(44)
    big = mean + rng.standard_normal((1_000_000, k)) @ chol_cov.T
    gram = phi.T @ phi / 300
    diff = big - center[:k]
    dist = np.sqrt(np.einsum("si,ij,sj->s", diff, gram, diff))
    oracle = np.quantile(dist, 0.95)

    boot_rng = np.random.default_rng(45)
    module_dist = fam.draw_distances(draws, center)
    reps = [
        np.quantile(boot_rng.choice(module_dist, module_dist.size, replace=True), 0.95)
        for _ in range(300)
    ]
    assert abs(r - oracle) < 3 * np.std(reps, ddof=1)


def test_empirical_conjugate_radius_within_its_chi2_interval():
    # Given k the posterior is N(mean, I/p), so p ||theta - mean||^2 ~ chi2_k, and
    # the rank-th smallest of N distances to the mean has chi2_k-CDF value
    # ~ Beta(rank, N - rank + 1). The radius is taken around the Monte Carlo
    # center instead, which moves every distance by at most ||center - mean||.
    alpha, count = 0.05, 1500
    rank = math.ceil((1 - alpha) * count)
    u_lo, u_hi = beta.ppf([0.001, 0.999], rank, count - rank + 1)
    for basis in ("trigonometric", "cosine"):
        for n in (300, 2000):
            fam = make_family("regression", n=n, basis_tag=basis)
            truth = generate_truth("self_similar", beta=1.0, seed=51, basis_tag=basis)
            p = n + 1.0  # N(0, 1) prior
            for rep in range(5):
                y, data = responses(fam, truth, 52 + rep)
                for k in (1, 3, 8):
                    draws = sample_given_k(fam, gaussian_prior(), data, k, count, seed=[53, rep, k])
                    center = posterior_center(draws, fam)
                    r = credible_radius(draws, center, fam, alpha)
                    delta = np.linalg.norm(center - midpoint_basis(n, k, basis).T @ y / p)
                    lo = np.sqrt(chi2.ppf(u_lo, k) / p) - delta
                    hi = np.sqrt(chi2.ppf(u_hi, k) / p) + delta
                    assert lo <= r <= hi, (basis, n, rep, k)


def test_radius_stable_under_doubling(reg16):
    fam = make_family("regression", n=300)
    truth = generate_truth("self_similar", beta=1.0, seed=46)
    data = fam.simulate(truth, 300, seed=47)
    draws_s = sample_given_k(fam, gaussian_prior(), data, 3, 2000, seed=48)
    draws_d = sample_given_k(fam, gaussian_prior(), data, 3, 4000, seed=49)
    center = posterior_center(draws_d, fam)
    r_s = credible_radius(draws_s, center, fam, 0.05)
    r_d = credible_radius(draws_d, center, fam, 0.05)
    dist = fam.draw_distances(draws_s, center)
    rng = np.random.default_rng(50)
    reps = [np.quantile(rng.choice(dist, dist.size, replace=True), 0.95) for _ in range(300)]
    assert abs(r_s - r_d) < 3 * np.std(reps, ddof=1)


@pytest.fixture(scope="module")
def tiny_rows():
    """Coverage rows of one tiny run: both modes, n in {200, 1000}, L from 1/4 to 4."""
    config = ExperimentConfig(family="regression", n_grid=(200, 1000), replicates=4,
                              draws=200, L_grid=(0.25, 0.5, 1.0, 2.0, 4.0), mode="both",
                              seed=17)
    return run_coverage(config).rows


def test_build_ball_inflation_arithmetic(tiny_rows):
    assert {row["n"] for row in tiny_rows} == {200, 1000}
    for row in tiny_rows:
        # L sqrt(log n), with no other factor: L itself at n = e
        assert row["inflation"] == row["L"] * math.sqrt(math.log(row["n"]))
        if row["n"] == 1000 and row["L"] == 2.0:
            assert row["inflation"] == pytest.approx(2.0 * np.sqrt(np.log(1000.0)), abs=1e-12)
            assert row["inflation"] == pytest.approx(5.2565, abs=1e-3)


def test_diameter_proxy_values(tiny_rows):
    assert tiny_rows
    for row in tiny_rows:
        assert row["diameter"] == 2.0 * row["r_alpha"]
        assert row["covered"] == (row["d_truth_center"] <= row["inflation"] * row["r_alpha"])


def test_covers_center_equals_truth(reg16):
    truth = generate_truth("explicit", beta=1.0, coefficients=[0.5])
    draws = _coef_draws(np.full(20, 0.5))
    center = posterior_center(draws, reg16)
    assert credible_radius(draws, center, reg16, 0.05) == 0.0
    d = reg16.metric().distance(reg16.truth_embedding(truth), reg16.center_embedding(center))
    assert d == 0.0


def test_covers_zero_radius_off_center(reg16):
    truth = generate_truth("explicit", beta=1.0, coefficients=[0.4])
    draws = _coef_draws(np.full(20, 0.125))  # a mean without rounding: radius exactly 0
    center = posterior_center(draws, reg16)
    assert credible_radius(draws, center, reg16, 0.05) == 0.0
    d = reg16.metric().distance(reg16.truth_embedding(truth), reg16.center_embedding(center))
    assert d > 0.0


def test_covered_at_larger_inflation(tiny_rows):
    def ball(row):
        return row["n"], row["mode"], row["replicate_id"]

    flips = 0
    for _, rows in groupby(sorted(tiny_rows, key=lambda r: (ball(r), r["L"])), key=ball):
        covered = [row["covered"] for row in rows]
        assert len(covered) == 5
        # covered at some L implies covered at every larger L
        assert covered == sorted(covered)
        flips += covered[0] != covered[-1]
    assert flips > 0  # some ball is uncovered at small L and covered at large L


def test_well_specified_conjugate_coverage_near_nominal():
    # truth inside Theta(3), model k=5: the uninflated 95% ball should cover
    # the truth close to nominally (within +/- 0.06 over 500 replicates)
    n, k, reps = 200, 5, 500
    fam = make_family("regression", n=n)
    truth = generate_truth("explicit", beta=1.0, coefficients=[0.8, -0.5, 0.3])
    t_emb = fam.truth_embedding(truth)
    metric = fam.metric()
    hits = 0
    for r_id in range(reps):
        data = fam.simulate(truth, n, seed=1000 + r_id)
        draws = sample_given_k(fam, gaussian_prior(), data, k, 800, seed=2000 + r_id)
        center = posterior_center(draws, fam)
        r = credible_radius(draws, center, fam, 0.05)
        d = metric.distance(t_emb, fam.center_embedding(center))
        hits += d <= r
    assert abs(hits / reps - 0.95) < 0.06


def test_wilson_interval_basic():
    lo, hi = wilson_interval(95, 100)
    assert 0.87 < lo < 0.95 < hi < 1.0
    assert wilson_interval(0, 0) == (0.0, 1.0)
    lo, hi = wilson_interval(0, 50)
    assert lo == 0.0 and hi > 0.0
