import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

from sievecred import (
    ExperimentConfig,
    KPosterior,
    MarginalLikelihoodTable,
    credible_radius,
    dirichlet_prior,
    gaussian_prior,
    generate_truth,
    hyper_prior,
    k_posterior,
    make_family,
    marginal_likelihood,
    marginal_table,
    mmle,
    posterior_center,
    prior_from_config,
    sample_given_k,
    sample_hierarchical,
)
import sievecred.families as families
import sievecred.harness as harness
from sievecred.families import FAMILY_TAGS, Dataset, max_dimension
from sievecred.inference import MARGINAL_METHODS, _regression_conjugate, route
from sievecred.mcmc import McmcSettings
from sievecred.priors import SievePrior, default_k_cap

from dense_design import exact_basis_product, exact_basis_series, midpoint_basis, responses
from oracles import one_step_rwm


# ---------------------------------------------------------------------------
# marginal likelihoods


def test_regression_evidence_single_point_closed_form():
    # n=3, k=K=1: phi_1 = sqrt(2) cos(2 pi x) at 1/6, 1/2, 5/6, N(0,1) prior, so
    # y ~ N(0, I + phi phi'), Z = phi'y/3 ~ N(0, phi'(I + phi phi')phi/9), and m(Z)
    # is that normal density at Z
    fam = make_family("regression", n=3)
    y = np.array([0.3, -1.2, 0.7])
    phi = midpoint_basis(3, 1)[:, 0]
    z = phi @ y / 3
    data = Dataset("regression", [z], 3)
    log_m, method, _ = marginal_likelihood(fam, gaussian_prior(), data, 1)
    assert method == "conjugate"
    var = phi @ (np.eye(3) + np.outer(phi, phi)) @ phi / 9
    dense = -0.5 * (np.log(2 * np.pi) + np.log(var) + z * z / var)
    assert log_m == pytest.approx(dense, rel=1e-12)
    # independent 1-D quadrature over theta, Z given theta ~ N(phi'phi theta/3, phi'phi/9)
    thetas = np.linspace(-12, 12, 20001)
    var_given = phi @ phi / 9
    integrand = (
        np.exp(-0.5 * (z - phi @ phi * thetas / 3) ** 2 / var_given)
        / np.sqrt(2 * np.pi * var_given)
        * np.exp(-0.5 * thetas**2) / np.sqrt(2 * np.pi)
    )
    assert np.exp(log_m) == pytest.approx(np.trapezoid(integrand, thetas), rel=1e-8)


def test_histogram_evidence_closed_form():
    fam = make_family("histogram")
    data = Dataset("histogram", np.array([0.2, 0.7]), 2)
    log_m, method, _ = marginal_likelihood(fam, dirichlet_prior(1.0), data, 2)
    assert method == "dirichlet"
    assert np.exp(log_m) == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_histogram_evidence_prior_predictive_monte_carlo():
    fam = make_family("histogram")
    rng = np.random.default_rng(7)
    data = Dataset("histogram", rng.random(12), 12)
    k = 3
    log_m, _, _ = marginal_likelihood(fam, dirichlet_prior(1.0), data, k)
    thetas = rng.dirichlet(np.ones(k), size=200_000)
    counts = fam.counts(data, k)
    w = np.exp((counts * np.log(k * thetas)).sum(axis=1))
    se = w.std(ddof=1) / np.sqrt(w.size)
    assert abs(np.exp(log_m) - w.mean()) < 3 * se


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.5])
def test_histogram_evidence_matches_gammaln_formula(hist_family, alpha):
    data = hist_family.simulate(generate_truth("self_similar", beta=1.0, seed=3,
                                               family_tag="histogram"), 2000, seed=4)
    for k in (1, 2, 7, 32):
        a = np.full(k, alpha)
        counts = hist_family.counts(data, k)
        ref = (2000 * np.log(k) + gammaln(a + counts).sum() - gammaln(a.sum() + 2000)
               - gammaln(a).sum() + gammaln(a.sum()))
        log_m, _, _ = marginal_likelihood(hist_family, dirichlet_prior(alpha), data, k)
        assert log_m == pytest.approx(ref, rel=1e-12), k


def test_laplace_equals_conjugate_for_gaussian_regression(reg500, truth_b1):
    data = reg500.simulate(truth_b1, 500, seed=8)
    for k in (1, 3, 6):
        exact, _, _ = marginal_likelihood(reg500, gaussian_prior(), data, k)
        approx, method, _ = marginal_likelihood(reg500, gaussian_prior(), data, k, method="laplace")
        assert method == "laplace"
        assert approx == pytest.approx(exact, abs=1e-8)


@pytest.mark.parametrize("n", [200, 2000, 32000])
def test_conjugate_closed_form_is_the_dense_reference(n, truth_b1):
    # the N(0, 1) conjugate posterior from a Cholesky factor of Phi'Phi + I,
    # against the closed form that takes Phi'Phi = n I; Phi_k'y = n Z_k and the
    # y-likelihood's |y|^2 and n/2 log 2 pi are Z's n|Z|^2 and (K/2) log(2 pi/n)
    for basis in ("trigonometric", "cosine"):
        fam = make_family("regression", n=n, basis_tag=basis)
        data = fam.simulate(truth_b1, n, seed=21)
        z = data.y
        sieve = prior_from_config({}, "regression", n)
        table = marginal_table(fam, sieve, data)
        for k in range(1, sieve.hyper.k_cap + 1):
            phi = midpoint_basis(n, k, basis)
            chol = np.linalg.cholesky(phi.T @ phi + np.eye(k))
            half = np.linalg.solve(chol, n * z[:k])
            log_det = 2.0 * float(np.log(np.diag(chol)).sum())
            log_m = (-0.5 * z.size * np.log(2.0 * np.pi / n) - 0.5 * log_det
                     + 0.5 * (float(half @ half) - n * float(z @ z)))
            mean = np.linalg.solve(chol.T, half)
            closed_mean, _, closed_log_m = _regression_conjugate(fam, gaussian_prior(), data, k)
            assert table.log_m[k] == closed_log_m
            assert closed_log_m == pytest.approx(log_m, rel=1e-12, abs=0.0), (basis, k)
            assert np.max(np.abs(closed_mean - mean)) <= 1e-12 * np.max(np.abs(mean)), (basis, k)


def test_importance_route_matches_exact_evidence(reg500, truth_b1):
    # the Laplace proposal is regression's exact posterior, so every importance
    # weight is the evidence up to rounding: the ESS is the particle count and
    # log m is the exact value to a few ulps
    data = reg500.simulate(truth_b1, 500, seed=9)
    for k in (1, 3, 6):
        exact, _, _ = marginal_likelihood(reg500, gaussian_prior(), data, k)
        log_m, method, diag = marginal_likelihood(
            reg500, gaussian_prior(), data, k, method="importance", seed=5, is_particles=4096
        )
        assert method == "importance"
        assert diag["ess"] == pytest.approx(4096, rel=1e-9), k
        assert abs(log_m - exact) <= 8 * np.spacing(abs(exact)), k


def test_route_table():
    # (family, prior kind) -> (the auto route, every route it has); other pairs have none
    routes = {
        ("regression", "gaussian"): ("conjugate", {"laplace", "importance"}),
        ("histogram", "dirichlet"): ("dirichlet", set()),
        ("loglinear", "gaussian"): ("laplace", {"laplace", "importance"}),
        ("classification", "gaussian"): ("laplace", {"laplace", "importance"}),
    }
    priors = {"gaussian": gaussian_prior(), "dirichlet": dirichlet_prior()}
    for tag in FAMILY_TAGS:
        smooth = hasattr(make_family(tag, n=50), "loglik_derivs")
        for kind, prior in priors.items():
            auto, allowed = routes.get((tag, kind), (None, set()))
            assert ("laplace" in allowed) == (smooth and kind != "dirichlet")
            for method in MARGINAL_METHODS:
                expected = auto if method == "auto" else (method if method in allowed else None)
                if expected is None:
                    with pytest.raises(ValueError, match=f"no {method} route"):
                        route(tag, prior, method)
                else:
                    assert route(tag, prior, method) == expected
    with pytest.raises(ValueError, match="unknown marginal_method"):
        route("regression", gaussian_prior(), "exact")


def test_marginal_table_and_csv(tmp_path, reg500, truth_b1):
    data = reg500.simulate(truth_b1, 500, seed=3)
    sieve = prior_from_config({}, "regression", 500)
    table = marginal_table(reg500, sieve, data)
    assert table.ks == list(range(1, 14))
    path = tmp_path / "table.csv"
    table.to_csv(path)
    header, first = path.read_text().splitlines()[:2]
    assert header == "k,log_m,method,ess"
    assert first.split(",")[2] == "conjugate"


# ---------------------------------------------------------------------------
# mmle and the posterior over k


def test_mmle_argmax_and_ties():
    table = MarginalLikelihoodTable(
        log_m={1: -5.0, 2: -1.0, 3: -3.0}, route="conjugate"
    )
    assert mmle(table) == 2
    tied = MarginalLikelihoodTable(
        log_m={1: -5.0, 2: -1.0, 3: -1.0}, route="conjugate"
    )
    assert mmle(tied) == 2


def test_mmle_invariant_to_monotone_transform():
    rng = np.random.default_rng(0)
    logs = {k: float(v) for k, v in enumerate(rng.standard_normal(10), start=1)}
    table = MarginalLikelihoodTable(log_m=logs, route="x")
    transformed = MarginalLikelihoodTable(
        log_m={k: 3.0 * v + 11.0 for k, v in logs.items()}, route="x"
    )
    assert mmle(table) == mmle(transformed)


def test_k_posterior_flat_hyper_equal_evidence():
    # Poisson(2) truncated to {1, 2} puts equal mass on both
    hyper = hyper_prior("poisson", 2.0, k_cap=2)
    table = MarginalLikelihoodTable(log_m={1: -4.2, 2: -4.2}, route="x")
    kp = k_posterior(table, hyper)
    assert kp.mass()[1] == pytest.approx(0.5, abs=1e-12)
    assert kp.mass()[2] == pytest.approx(0.5, abs=1e-12)
    assert kp.mode() == 1


def test_k_posterior_point_mass():
    hyper = hyper_prior("geometric", 0.5, k_cap=1)
    table = MarginalLikelihoodTable(log_m={1: -7.0}, route="x")
    assert k_posterior(table, hyper).mass()[1] == pytest.approx(1.0)


def test_k_posterior_constant_evidence_recovers_hyper():
    hyper = hyper_prior("geometric", 0.5, k_cap=5)
    table = MarginalLikelihoodTable(log_m={k: -3.3 for k in range(1, 6)},
                                    route="x")
    kp = k_posterior(table, hyper)
    weights = np.array([0.5**k for k in range(1, 6)])
    weights /= weights.sum()
    for k in range(1, 6):
        assert kp.mass()[k] == pytest.approx(weights[k - 1], abs=1e-12)


def test_k_posterior_invariant_to_constant_shift():
    hyper = hyper_prior("geometric", 0.4, k_cap=6)
    rng = np.random.default_rng(1)
    logs = {k: float(v) for k, v in enumerate(rng.standard_normal(6), start=1)}
    table = MarginalLikelihoodTable(log_m=logs, route="x")
    shifted = MarginalLikelihoodTable(log_m={k: v + 123.0 for k, v in logs.items()},
                                      route="x")
    a, b = k_posterior(table, hyper).mass(), k_posterior(shifted, hyper).mass()
    for k in logs:
        assert a[k] == pytest.approx(b[k], abs=1e-12)


def test_k_posterior_matches_logsumexp_reference():
    # log evidences of moderate size: the reference exp(l - logsumexp) itself
    # loses about ulp(|logsumexp|) in its exponent
    hyper = hyper_prior("geometric", 0.3, k_cap=20)
    rng = np.random.default_rng(11)
    logs = {k: float(v) for k, v in enumerate(5.0 * rng.standard_normal(20) - 10.0, start=1)}
    kp = k_posterior(MarginalLikelihoodTable(log_m=logs, route="x"), hyper)
    joint = np.array([hyper.log_mass(k) + logs[k] for k in range(1, 21)])
    ref = np.exp(joint - logsumexp(joint))
    assert np.allclose(kp.probs, ref, rtol=0.0, atol=1e-14)
    assert kp.set_mass({3, 4, 5, 40}) == pytest.approx(ref[2:5].sum(), abs=1e-14)


def test_k_posterior_normalized():
    hyper = hyper_prior("poisson", 1.5, k_cap=9)
    table = MarginalLikelihoodTable(log_m={k: -float(k) for k in range(1, 10)},
                                    route="x")
    total = sum(k_posterior(table, hyper).mass().values())
    assert total == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("ks", [np.arange(1, 14), np.array([2, 3, 5, 8, 13])])
def test_set_mass_equals_the_isin_sum(ks):
    rng = np.random.default_rng(41)
    kp = KPosterior(ks, rng.dirichlet(np.ones(ks.size)))
    sets = [set(), set(ks.tolist()), {0, -1, 14, 99}]
    sets += [set(rng.choice(np.arange(-2, 17), size=int(m), replace=False).tolist())
             for m in rng.integers(1, 12, size=40)]
    for s in sets:
        assert kp.set_mass(s) == float(kp.probs[np.isin(kp.ks, list(s))].sum()), s


# ---------------------------------------------------------------------------
# samplers


def test_conjugate_regression_sampler_matches_closed_form(reg500, truth_b1):
    y, data = responses(reg500, truth_b1, 13)
    k = 3
    draws = sample_given_k(reg500, gaussian_prior(), data, k, 40_000, seed=2)
    assert draws.diagnostics["sampler"] == "conjugate"
    # independent closed form
    phi = midpoint_basis(500, k)
    prec = phi.T @ phi + np.eye(k)
    mean = np.linalg.solve(prec, phi.T @ y)
    cov = np.linalg.inv(prec)
    sample_mean = draws.blocks[k].mean(axis=0)
    for j in range(k):
        tol = 4 * np.sqrt(cov[j, j] / 40_000)
        assert abs(sample_mean[j] - mean[j]) < tol


def test_dirichlet_sampler_posterior_mean():
    fam = make_family("histogram")
    truth = generate_truth("self_similar", beta=1.0, seed=4, family_tag="histogram")
    data = fam.simulate(truth, 200, seed=3)
    k = 4
    draws = sample_given_k(fam, dirichlet_prior(1.0), data, k, 50_000, seed=5)
    assert draws.diagnostics["sampler"] == "dirichlet"
    block = draws.blocks[k]
    assert np.allclose(block.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(block >= 0)
    expected = (1.0 + fam.counts(data, k)) / (k + 200)
    assert np.allclose(block.mean(axis=0), expected, atol=4 * np.sqrt(0.25 / 50_000) + 1e-3)


def test_mcmc_sampler_matches_conjugate_moments(reg500, truth_b1):
    y, data = responses(reg500, truth_b1, 17)
    k = 2
    settings = McmcSettings(burn_in=1500)
    draws = sample_given_k(reg500, gaussian_prior(), data, k, 8000, seed=3, mcmc=settings)
    assert draws.diagnostics["sampler"] == "conjugate"
    # the conjugate route draws exactly, so run the random walk on the same
    # gaussian-prior target by hand and compare it against the closed form
    from sievecred.inference import _laplace_fit
    from sievecred.mcmc import adaptive_rwm
    from sievecred.priors import log_prior_rows

    mode, chol, _, _ = _laplace_fit(reg500, gaussian_prior(), data, k)
    loglik = reg500.loglik(data, k)

    def log_target(rows):
        return loglik(rows) + log_prior_rows(gaussian_prior(), rows)

    rng = np.random.default_rng(11)
    chain, diag = adaptive_rwm(log_target, mode, np.linalg.inv(chol).T, 12_000,
                               McmcSettings(burn_in=2000), rng)
    assert 0.05 < diag["acceptance_rate"] < 0.6
    phi = midpoint_basis(500, k)
    prec = phi.T @ phi + np.eye(k)
    mean = np.linalg.solve(prec, phi.T @ y)
    batches = chain.reshape(20, -1, k).mean(axis=1)
    se = batches.std(axis=0, ddof=1) / np.sqrt(20)
    assert np.all(np.abs(chain.mean(axis=0) - mean) < 3 * se + 1e-12)


def test_hierarchical_point_mass_matches_fixed_k(reg500, truth_b1):
    data = reg500.simulate(truth_b1, 500, seed=19)
    sieve = SievePrior(hyper_prior("geometric", 0.5, k_cap=1), gaussian_prior())
    table = marginal_table(reg500, sieve, data)
    hier = sample_hierarchical(reg500, sieve, data, 5000, seed=21, table=table)
    assert hier.k_counts() == {1: 5000}
    fixed = sample_given_k(reg500, gaussian_prior(), data, 1, 5000, seed=22)
    assert hier.blocks[1].mean() == pytest.approx(fixed.blocks[1].mean(), abs=0.01)
    assert hier.blocks[1].var() == pytest.approx(fixed.blocks[1].var(), rel=0.2)


def test_hierarchical_k_frequencies_match_k_posterior(reg500, truth_b1):
    data = reg500.simulate(truth_b1, 500, seed=23)
    sieve = prior_from_config({}, "regression", 500)
    table = marginal_table(reg500, sieve, data)
    kp = k_posterior(table, sieve.hyper)
    draws = sample_hierarchical(reg500, sieve, data, 10_000, seed=25, table=table)
    counts = draws.k_counts()
    for k, p in kp.mass().items():
        freq = counts.get(k, 0) / 10_000
        assert abs(freq - p) < 4 * np.sqrt(p * (1 - p) / 10_000) + 1e-4


def test_adaptation_band_error():
    from sievecred.mcmc import AdaptationError, adaptive_rwm

    x0 = np.zeros(2)

    def stuck(rows):
        return np.where((rows == x0).all(axis=1), 0.0, -np.inf)

    with pytest.raises(AdaptationError, match="acceptance rate"):
        adaptive_rwm(stuck, x0, np.eye(2), 200, McmcSettings(burn_in=100),
                     np.random.default_rng(0))


def test_sampler_errors_name_the_failing_chain():
    from sievecred.mcmc import AdaptationError, adaptive_rwm

    def run(target, start):
        adaptive_rwm(target, start, np.eye(start.size), 200, McmcSettings(burn_in=100),
                     np.random.default_rng(0))

    def stuck(rows):
        return np.where(rows.any(axis=1), -np.inf, 0.0)

    with pytest.raises(AdaptationError, match=r"acceptance rate 0\.000 of the k=2 chain"):
        run(stuck, np.zeros(2))
    with pytest.raises(ValueError, match="start of the k=2 chain"):
        run(stuck, np.ones(2))
    with pytest.raises(ValueError, match="start of the k=1 chain"):
        run(lambda rows: np.full(len(rows), np.nan), np.zeros(1))


def _classification_target(classif500, k):
    """The Laplace-route chain's row-form target and proposal factor at k."""
    from sievecred.inference import _laplace_fit
    from sievecred.priors import log_prior_rows

    truth = generate_truth("self_similar", beta=1.0, seed=3, family_tag="classification")
    data = classif500.simulate(truth, 500, seed=8)
    mode, chol, _, _ = _laplace_fit(classif500, gaussian_prior(), data, k)
    loglik = classif500.loglik(data, k)

    def log_target(rows):
        return loglik(rows) + log_prior_rows(gaussian_prior(), rows)

    return log_target, mode, np.linalg.inv(chol).T


@pytest.mark.parametrize("k, burn_in, keep, thin", [
    (1, 200, 300, 1),
    (5, 200, 300, 1),
    (5, 300, 900, 1),  # 1,200 steps: the chain draws a second block of proposals
    (3, 400, 300, 3),  # thinned, and across the block boundary
])
def test_prefetching_chain_takes_the_one_step_chains_steps(classif500, k, burn_in, keep, thin):
    from sievecred.mcmc import adaptive_rwm

    log_target, mode, factor = _classification_target(classif500, k)
    settings = McmcSettings(burn_in=burn_in, thin=thin)
    got, got_diag = adaptive_rwm(log_target, mode, factor, keep, settings,
                                 np.random.default_rng(5))
    want, want_diag = one_step_rwm(log_target, mode, factor, keep, settings,
                                   np.random.default_rng(5))
    assert np.array_equal(got, want)
    assert got_diag == want_diag


@pytest.mark.parametrize("target", [
    lambda rows: np.zeros(len(rows)),  # flat: every step accepts
    lambda rows: np.where(rows.any(axis=1), -np.inf, 0.0),  # stuck: none does
], ids=["flat", "stuck"])
def test_prefetching_chain_fails_as_the_one_step_chain_does(target):
    from sievecred.mcmc import AdaptationError, adaptive_rwm

    messages = []
    for chain in (adaptive_rwm, one_step_rwm):
        with pytest.raises(AdaptationError) as err:
            chain(target, np.zeros(3), np.eye(3), 300, McmcSettings(burn_in=100),
                  np.random.default_rng(0))
        messages.append(str(err.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("tag", ["classification", "loglinear"])
@pytest.mark.parametrize("count", [300, 1200])
def test_hierarchical_block_is_the_draw_for_its_k_alone(tag, count):
    # every k's proposals are scored in one call on rows padded to the largest
    # k; each block must be what that k's draw gives alone on the stream seed + [k]
    fam = make_family(tag, n=500)
    truth = generate_truth("self_similar", beta=1.0, seed=3, family_tag=tag)
    sieve = prior_from_config({}, tag, 500)
    data = fam.simulate(truth, 500, seed=8)
    table = marginal_table(fam, sieve, data)
    draws = sample_hierarchical(fam, sieve, data, count, seed=6, table=table)
    samplers = draws.diagnostics["samplers"]
    assert len(samplers) >= 3
    for k, c_k in draws.k_counts().items():
        # a one-entry table makes the k-posterior a point mass on k
        point = SievePrior(hyper_prior("geometric", 0.5, k_cap=k), sieve.conditional)
        alone = sample_hierarchical(fam, point, data, c_k, seed=6,
                                    table=MarginalLikelihoodTable({k: 0.0}, "laplace"))
        assert alone.k_counts() == {k: c_k}
        np.testing.assert_allclose(draws.blocks[k], alone.blocks[k], rtol=1e-12, atol=0.0)
        assert samplers[k] == alone.diagnostics["samplers"][k]
        assert samplers[k]["sampler"] == "imh" and samplers[k]["chain_length"] == c_k
    accepted = sum(diag["acceptance_rate"] * diag["chain_length"] for diag in samplers.values())
    assert 0.5 < accepted / count <= 1.0


def test_imh_block_matches_the_exact_gaussian_posterior(reg500, truth_b1):
    # regression's posterior given k is N(b/p, I/p) and its Laplace fit is
    # exact, so the t proposal's importance weights are the only approximation
    # the chain must undo: 20 batch means, 3 standard errors, as criterion 03
    from sievecred.inference import _imh_blocks

    data = reg500.simulate(truth_b1, 500, seed=17)
    k = 4
    mean, p, _ = _regression_conjugate(reg500, gaussian_prior(), data, k)
    (chain,), (diag,) = _imh_blocks(reg500, gaussian_prior(), data, [k], [20_000], [[13, k]])
    assert diag["chain_length"] == 20_000 and 0.5 < diag["acceptance_rate"] < 1.0
    batches = chain.reshape(20, -1, k).mean(axis=1)
    mean_se = batches.std(axis=0, ddof=1) / np.sqrt(20)
    assert np.all(np.abs(chain.mean(axis=0) - mean) <= 3 * mean_se)
    squares = ((chain - mean) ** 2).reshape(20, -1, k).mean(axis=1)
    var_se = squares.std(axis=0, ddof=1) / np.sqrt(20)
    assert np.all(np.abs(squares.mean(axis=0) - 1.0 / p) <= 3 * var_se)


def test_posterior_draws_block_bookkeeping(reg500, truth_b1):
    data = reg500.simulate(truth_b1, 500, seed=27)
    sieve = prior_from_config({}, "regression", 500)
    table = marginal_table(reg500, sieve, data)
    draws = sample_hierarchical(reg500, sieve, data, 512, seed=1, table=table)
    assert draws.count == 512
    assert sum(b.shape[0] for b in draws.blocks.values()) == 512
    for k, block in draws.blocks.items():
        assert block.shape[1] == k


# ---------------------------------------------------------------------------
# posterior centers


def test_center_of_identical_draws(reg500):
    from sievecred.inference import PosteriorDraws

    theta = np.array([1.5, -2.0])
    draws = PosteriorDraws({2: np.tile(theta, (10, 1))})
    center = posterior_center(draws, reg500)
    assert np.allclose(center, theta)


def test_center_averages_coefficients(reg500):
    from sievecred.inference import PosteriorDraws

    draws = PosteriorDraws({1: np.array([[-1.0], [1.0]])})
    assert posterior_center(draws, reg500)[0] == pytest.approx(0.0)


def test_center_matches_conjugate_mean_function(reg500, truth_b1):
    y, data = responses(reg500, truth_b1, 29)
    k = 4
    draws = sample_given_k(reg500, gaussian_prior(), data, k, 60_000, seed=31)
    center = posterior_center(draws, reg500)
    phi = midpoint_basis(500, k)
    prec = phi.T @ phi + np.eye(k)
    mean_fn = phi @ np.linalg.solve(prec, phi.T @ y)
    got = phi @ center
    mc_sd = float(np.sqrt(np.diag(phi @ np.linalg.inv(prec) @ phi.T)).max() / np.sqrt(60_000))
    assert np.max(np.abs(got - mean_fn)) < 6 * mc_sd


def test_histogram_per_bin_center_and_distances_match_node_path(hist_family):
    truth = generate_truth("self_similar", beta=0.8, seed=5, family_tag="histogram")
    data = hist_family.simulate(truth, 2000, 9)
    prior = prior_from_config({}, "histogram", 2000)
    table = marginal_table(hist_family, prior, data)
    draws = sample_hierarchical(hist_family, prior, data, 1500, 4, table=table)
    assert len(draws.blocks) > 1
    # single-k posteriors too, whose bins cut the rule's 128 cells (10 and 12 do not divide 128)
    single = [sample_given_k(hist_family, prior.conditional, data, k, 1500, 6) for k in (10, 12)]
    for posterior in [draws, *single]:
        # the node path: each draw's density k theta_j on the nodes of bin j
        rows = np.concatenate([k * block[:, hist_family.node_cells(k)]
                               for k, block in sorted(posterior.blocks.items())])
        center = hist_family.center(posterior)
        np.testing.assert_allclose(center, rows.mean(axis=0), rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(
            hist_family.draw_distances(posterior, center),
            hist_family.metric().distances(rows, center),
            rtol=1e-12, atol=0.0,
        )


def test_histogram_center_mixture_density(hist_family):
    from sievecred.inference import PosteriorDraws

    blocks = {2: np.array([[0.5, 0.5]]), 4: np.array([[0.25, 0.25, 0.25, 0.25]])}
    draws = PosteriorDraws(blocks)
    center = posterior_center(draws, hist_family)
    # both draws are the uniform density, so the mixture is too
    assert np.allclose(center, 1.0, atol=1e-12)


def test_regression_replicate_path_makes_no_fft(monkeypatch, reg500, truth_b1):
    # the dataset is Z itself: once the truth's coefficients are made, a replicate
    # evaluates no series and takes no product with the basis
    truth_emb = reg500.truth_embedding(truth_b1)

    def fft(*args):
        raise AssertionError("an FFT on the replicate path")

    monkeypatch.setattr(families, "project_grid", fft)
    monkeypatch.setattr(families, "eval_series_grid", fft)
    sieve = prior_from_config({}, "regression", 500)
    data = reg500.simulate(truth_b1, 500, seed=12)
    table = marginal_table(reg500, sieve, data)
    sample_given_k(reg500, sieve.conditional, data, mmle(table), 200, seed=2)
    draws = sample_hierarchical(reg500, sieve, data, 200, seed=3, table=table)
    assert len(draws.blocks) > 1
    center = posterior_center(draws, reg500)
    assert credible_radius(draws, center, reg500, 0.05) > 0
    assert reg500.metric().distance(truth_emb, reg500.center_embedding(center)) > 0


class _ResponseRegression(families.Regression):
    """Regression read from n responses y through the y-likelihood, on the dense design."""

    def _quadratic(self, data, k):
        phi_y = exact_basis_product(data.y, k, self.n, 0.5, self.basis_tag)
        return phi_y, float(data.y @ data.y), -0.5 * self.n * np.log(2.0 * np.pi)


@pytest.mark.parametrize("basis", ["trigonometric", "cosine"])
@pytest.mark.parametrize("n", [3, 500, 2000, 8200])
def test_regression_on_z_is_the_response_route(monkeypatch, basis, n):
    # y simulated on the dense midpoint design: the family fed Z = Phi_K'y/n selects
    # the same k, with the same k-posterior, r_alpha and d, as the y-likelihood, and
    # log m_y(k) - log m_Z(k) = -|y - Phi_K Z|^2/2 - ((n - K)/2) log 2 pi - (K/2) log n
    cap = min(default_k_cap(n), max_dimension("regression", n, basis))
    cfg = ExperimentConfig(n_grid=(n,), basis=basis, prior={"k_cap": cap}, seed=31)
    ctx = harness._Context(cfg, n)
    y, data = responses(ctx.family, ctx.truth, cfg.seed + 1)
    K = ctx.family.max_k
    records, tables = [], []
    on_responses = (_ResponseRegression(n, basis), Dataset("regression", y, n))
    for family, dataset in ((ctx.family, data), on_responses):
        monkeypatch.setattr(ctx, "family", family)
        monkeypatch.setattr(ctx, "data", lambda rep_id: dataset)
        records.append(harness._run_replicate(ctx, 1)["modes"])
        tables.append(ctx.table(dataset, 1))
    (on_z, on_y), (table_z, table_y) = records, tables
    for mode in ("empirical", "hierarchical"):
        assert on_z[mode]["k"] == on_y[mode]["k"], mode
        for key in ("r_alpha", "d"):
            assert on_z[mode][key] == pytest.approx(on_y[mode][key], rel=1e-12, abs=0.0), mode
    np.testing.assert_allclose(on_z["hierarchical"]["k_posterior"],
                               on_y["hierarchical"]["k_posterior"], rtol=0.0, atol=1e-12)
    resid = y - exact_basis_series(data.y, n, 0.5, basis)
    shift = -0.5 * float(resid @ resid) - 0.5 * (n - K) * np.log(2 * np.pi) - 0.5 * K * np.log(n)
    for k in range(1, cap + 1):
        assert table_y.log_m[k] - table_z.log_m[k] == pytest.approx(shift, rel=1e-9), k


def test_laplace_chains_reuse_the_table_fits(monkeypatch, classif500):
    import sievecred.inference as inference

    truth = generate_truth("self_similar", beta=1.0, seed=3, family_tag="classification")
    sieve = SievePrior(hyper_prior("geometric", 0.5, k_cap=4), gaussian_prior())
    settings = McmcSettings(burn_in=150)
    data = classif500.simulate(truth, 500, seed=8)
    table = marginal_table(classif500, sieve, data)
    fits = []
    newton = inference.damped_newton
    monkeypatch.setattr(inference, "damped_newton",
                        lambda *args, **kw: fits.append(1) or newton(*args, **kw))
    draws = sample_given_k(classif500, sieve.conditional, data, 3, 300, seed=5, mcmc=settings)
    sample_hierarchical(classif500, sieve, data, 300, seed=6, mcmc=settings, table=table)
    marginal_likelihood(classif500, sieve.conditional, data, 2, method="importance", seed=7)
    assert fits == []
    fresh = classif500.simulate(truth, 500, seed=8)
    again = sample_given_k(classif500, sieve.conditional, fresh, 3, 300, seed=5, mcmc=settings)
    assert len(fits) == 3  # the fit at k = 3 starts from those at k = 1 and 2
    assert np.array_equal(draws.blocks[3], again.blocks[3])


def _fresh_dataset(tag):
    family = make_family(tag, n=500)
    truth = generate_truth("self_similar", beta=1.0, seed=3, family_tag=tag)
    return family, family.simulate(truth, 500, seed=8)


@pytest.mark.parametrize("tag", ["classification", "loglinear"])
def test_laplace_fit_at_k_alone_is_the_fit_after_the_table(tag):
    from sievecred.inference import _laplace_fit

    family, alone = _fresh_dataset(tag)
    _, tabled = _fresh_dataset(tag)
    sieve = SievePrior(hyper_prior("geometric", 0.5, k_cap=8), gaussian_prior())
    marginal_table(family, sieve, tabled)
    for k in (6, 2):  # the second is memoised from the first
        got = _laplace_fit(family, sieve.conditional, alone, k)
        want = _laplace_fit(family, sieve.conditional, tabled, k)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert got[2] == want[2] and got[3] == want[3]


@pytest.mark.parametrize("tag", ["classification", "loglinear"])
def test_laplace_route_rejects_a_dimension_outside_the_model(tag):
    family, data = _fresh_dataset(tag)
    for k in (0, -1, family.max_k + 1):
        with pytest.raises(ValueError, match=f"k={k} lies outside"):
            marginal_likelihood(family, gaussian_prior(), data, k)
        with pytest.raises(ValueError, match=f"k={k} lies outside"):
            sample_given_k(family, gaussian_prior(), data, k, 10, seed=1)
    assert not [key for key in data._memo if key[0] == "laplace"]  # no fit below k was made first


@pytest.mark.parametrize("tag", ["classification", "loglinear"])
def test_warm_started_fits_match_cold_fits_in_fewer_steps(tag):
    from sievecred.inference import _laplace_fit, _neg_log_post_parts
    from sievecred.optimize import damped_newton

    family, data = _fresh_dataset(tag)
    prior = gaussian_prior()
    warm_steps = cold_steps = 0
    for k in range(1, 22):
        mode, _, log_m, info = _laplace_fit(family, prior, data, k)
        parts = _neg_log_post_parts(family, prior, data, k)
        assert np.max(np.abs(parts(mode)[1])) / data.n <= 1e-9, k

        def scaled(theta):
            v, g, h = parts(theta)
            return v / data.n, g / data.n, h / data.n

        cold, cold_info = damped_newton(scaled, np.zeros(k), tol=1e-9)
        value, _, hess = parts(cold)
        log_det = 2.0 * np.log(np.diag(np.linalg.cholesky(hess))).sum()
        cold_log_m = -value + 0.5 * k * np.log(2 * np.pi) - 0.5 * log_det
        assert abs(log_m - cold_log_m) < 1e-6, k
        warm_steps += info["iterations"]
        cold_steps += cold_info["iterations"]
    assert warm_steps < cold_steps


def test_newton_direction_solves_or_falls_back_to_a_ridge():
    from sievecred.optimize import _newton_direction

    grad = np.array([1.0, -2.0])
    hess = np.array([[2.0, 0.5], [0.5, 1.0]])
    assert np.array_equal(_newton_direction(hess, grad), -np.linalg.solve(hess, grad))
    # singular: the smallest ridge, 1e-10, makes the matrix positive definite
    assert _newton_direction(np.zeros((2, 2)), grad) == pytest.approx(-grad / 1e-10, rel=1e-12)
    # indefinite: no ridge up to 1e-2 makes it positive definite
    step = _newton_direction(np.diag([1.0, -4.0]), grad)
    assert np.array_equal(step, -grad)
