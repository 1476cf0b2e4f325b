import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import norm

from sievecred import (
    default_k_cap,
    dirichlet_prior,
    gaussian_prior,
    hyper_prior,
    prior_from_config,
)
from sievecred.priors import log_prior_rows

from oracles import sample_prior


def test_standard_normal_at_zero():
    assert log_prior_rows(gaussian_prior(), np.array([[0.0]]))[0] == pytest.approx(
        -np.log(np.sqrt(2 * np.pi))
    )


def test_gaussian_density_product_closed_form():
    prior = gaussian_prior(scale=0.7)
    theta = np.array([0.3, -1.2, 2.0])
    direct = norm.logpdf(theta, scale=0.7).sum()
    assert log_prior_rows(prior, theta[None, :])[0] == pytest.approx(direct, abs=1e-12)


def test_dirichlet_prior_has_no_row_density():
    # the Dirichlet route scores the bin counts itself; read as a gaussian, a
    # Dirichlet prior's default scale of 1 would give N(0, 1) densities
    with pytest.raises(ValueError, match="dirichlet"):
        log_prior_rows(dirichlet_prior(1.0), np.array([[0.3, 0.7]]))


def test_gaussian_sampling_moments():
    draws = sample_prior(gaussian_prior(), k=3, count=100_000, seed=0)
    assert np.all(np.abs(draws.mean(axis=0)) < 4 / np.sqrt(100_000))


def test_dirichlet_sampling_mean():
    draws = sample_prior(dirichlet_prior(1.0), k=3, count=100_000, seed=1)
    assert np.allclose(draws.mean(axis=0), 1 / 3, atol=4 * np.sqrt(2 / 9 / 100_000))


def test_prior_mass_integrates_to_one():
    # k = 1 by quadrature, k = 2 by a tensor grid, both within 1e-3
    xs = np.linspace(-12, 12, 4001)
    dx = xs[1] - xs[0]
    for prior in (gaussian_prior(), gaussian_prior(scale=0.5)):
        mass1 = np.exp(log_prior_rows(prior, xs[:, None])).sum() * dx
        assert mass1 == pytest.approx(1.0, abs=1e-3)
        g = np.exp(prior.logpdf(xs))
        mass2 = (np.outer(g, g)).sum() * dx * dx
        assert mass2 == pytest.approx(1.0, abs=1e-3)


def test_geometric_mass_ratio():
    hp = hyper_prior("geometric", 0.5, k_cap=30)
    assert hp.log_mass(1) - hp.log_mass(2) == pytest.approx(np.log(2.0))


def test_poisson_truncated_normalization():
    hp = hyper_prior("poisson", 1.0, k_cap=10)
    total = logsumexp([hp.log_mass(k) for k in range(1, 11)])
    assert abs(total) < 1e-12
    assert all(np.isfinite(hp.log_mass(k)) for k in range(1, 11))


@pytest.mark.parametrize("kind,param", [("poisson", 0.1), ("geometric", 0.5)])
def test_log_pmf_finite_where_the_pmf_underflows(kind, param):
    # at k = 128 a Poisson(0.1) pmf is about e^-778, below the smallest double
    hp = hyper_prior(kind, param, k_cap=128)
    logs = np.array([hp.log_mass(k) for k in range(1, 129)])
    assert np.all(np.isfinite(logs))
    assert abs(logsumexp(logs)) < 1e-12


def test_out_of_support_rejected():
    hp = hyper_prior("geometric", 0.5, k_cap=10)
    with pytest.raises(ValueError):
        hp.log_mass(0)
    with pytest.raises(ValueError):
        hp.log_mass(11)


def test_geometric_slope_fit_oracle():
    # fitted decay constant of the log masses equals -log(1-p)
    p = 0.3
    hp = hyper_prior("geometric", p, k_cap=40)
    ks = np.arange(1, 41, dtype=float)
    logs = np.array([hp.log_mass(int(k)) for k in ks])
    slope = np.polyfit(ks, logs, 1)[0]
    assert slope == pytest.approx(np.log(1 - p), abs=1e-10)


def test_default_k_cap():
    assert default_k_cap(2000) == 21
    assert default_k_cap(500) == 13
    assert default_k_cap(8000) == 37


def test_prior_from_config_defaults():
    sieve = prior_from_config({}, "histogram", 2000)
    assert sieve.conditional.kind == "dirichlet"
    assert sieve.hyper.kind == "geometric"
    assert sieve.hyper.k_cap == 21

    sieve = prior_from_config(
        {"hyper": {"kind": "poisson", "lambda": 2.0},
         "conditional": {"kind": "gaussian", "scale": 0.5},
         "k_cap_exponent": 0.3},
        "regression",
        1000,
    )
    assert sieve.hyper.kind == "poisson"
    assert sieve.conditional == gaussian_prior(scale=0.5)
    assert sieve.hyper.k_cap == int(np.ceil(1000**0.3))


@pytest.mark.parametrize(
    "config, key",
    [
        ({"conditonal": {"kind": "laplace"}}, "conditonal"),
        ({"hyper": {"kind": "geometric", "P": 0.2}}, "hyper.P"),
        ({"conditional": {"kind": "gaussian", "sclae": 3.0}}, "conditional.sclae"),
        ({"hyper": {"kind": "geometric", "lambda": 0.2}}, r"hyper.lambda \(geometric\)"),
        ({"hyper": {"kind": "poisson", "p": 0.2}}, r"hyper.p \(poisson\)"),
        ({"conditional": {"kind": "dirichlet", "scale": 3.0}}, r"conditional.scale \(dirichlet\)"),
        ({"conditional": {"kind": "gaussian", "alpha": 2.0}}, r"conditional.alpha \(gaussian\)"),
        ({"conditional": {"kind": "laplace"}}, r"conditional.kind \(laplace\)"),
        ({"conditional": {"kind": "gaussian", "location": 0.5}},
         r"conditional.location \(gaussian\)"),
    ],
)
def test_prior_from_config_rejects_unknown_keys(config, key):
    with pytest.raises(ValueError, match=key):
        prior_from_config(config, "regression", 500)
