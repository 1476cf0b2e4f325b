import numpy as np
import pytest
from scipy.stats import norm

from sievecred import gauss_legendre_rule, generate_truth, make_family
from sievecred.basis import DesignGrid, basis_matrix, eval_series
from sievecred.families import Dataset, Regression, _softplus, max_dimension
from sievecred.inference import PosteriorDraws, posterior_center


def _uniform_hist_truth():
    return generate_truth("explicit", beta=1.0, coefficients=[0.0], family_tag="histogram")


# ---------------------------------------------------------------------------
# simulation


def test_regression_zero_truth_is_pure_noise(reg500):
    truth = generate_truth("explicit", beta=1.0, coefficients=[0.0])
    data = reg500.simulate(truth, 500, seed=12)
    assert abs(data.y.mean()) < 4 / np.sqrt(500)
    assert data.y.std() == pytest.approx(1.0, abs=0.2)


def test_histogram_uniform_bin_frequencies(hist_family):
    n = 100_000
    data = hist_family.simulate(_uniform_hist_truth(), n, seed=3)
    assert data.y.min() >= 0 and data.y.max() <= 1
    k = 8
    counts = hist_family.counts(data, k)
    p = 1.0 / k
    margin = 4 * np.sqrt(p * (1 - p) / n)
    assert np.all(np.abs(counts / n - p) < margin)


def test_classification_flat_truth_is_fair_coin(classif500):
    truth = generate_truth("explicit", beta=1.0, coefficients=[0.0], family_tag="classification")
    data = classif500.simulate(truth, 500, seed=4)
    assert set(np.unique(data.y)) <= {0.0, 1.0}
    assert abs(data.y.mean() - 0.5) < 4 / (2 * np.sqrt(500))


def test_loglinear_simulation_matches_truth_moments(loglin_family):
    truth = generate_truth("explicit", beta=1.0, coefficients=[0.8], family_tag="loglinear")
    n = 50_000
    data = loglin_family.simulate(truth, n, seed=9)
    # E phi_1 under f_0 from quadrature vs the sample mean
    target = loglin_family.rule.integrate(
        loglin_family.truth_embedding(truth) * loglin_family.phi_grid[:, 0]
    )
    sample = loglin_family.suff_stats(data, 1)[0] / n
    assert sample == pytest.approx(target, abs=4 / np.sqrt(n))


def test_simulate_rejects_family_mismatch(reg500, hist_family):
    truth = generate_truth("self_similar", beta=1.0, seed=1, family_tag="histogram")
    with pytest.raises(ValueError, match="family"):
        reg500.simulate(truth, 500, seed=1)
    reg_truth = generate_truth("self_similar", beta=1.0, seed=1)
    with pytest.raises(ValueError, match="family"):
        hist_family.simulate(reg_truth, 100, seed=1)


def test_simulate_is_deterministic(reg500, truth_b1):
    a = reg500.simulate(truth_b1, 500, seed=77)
    b = reg500.simulate(truth_b1, 500, seed=77)
    assert np.array_equal(a.y, b.y)


# ---------------------------------------------------------------------------
# log-likelihoods


def test_histogram_uniform_theta_gives_zero_loglik(hist_family):
    data = hist_family.simulate(_uniform_hist_truth(), 200, seed=1)
    assert hist_family.log_likelihood(np.array([0.5, 0.5]), data) == pytest.approx(0.0)


def test_histogram_zero_cell_sentinel(hist_family):
    data = Dataset("histogram", np.array([0.1, 0.6]), None, 2)
    assert hist_family.log_likelihood(np.array([0.0, 1.0]), data) == -np.inf


def test_histogram_simplex_validation(hist_family):
    data = hist_family.simulate(_uniform_hist_truth(), 10, seed=1)
    with pytest.raises(ValueError):
        hist_family.log_likelihood(np.array([0.7, 0.7]), data)


def test_loglinear_zero_theta(loglin_family):
    truth = generate_truth("self_similar", beta=1.0, seed=2, family_tag="loglinear")
    data = loglin_family.simulate(truth, 25, seed=5)
    assert loglin_family.log_norm(np.zeros(3)) == pytest.approx(0.0, abs=1e-14)
    assert loglin_family.log_likelihood(np.zeros(3), data) == pytest.approx(0.0, abs=1e-12)


def test_regression_loglik_matches_normal_density():
    fam = make_family("regression", n=5, k_max=2)
    truth = generate_truth("explicit", beta=1.0, coefficients=[0.4, -0.1])
    data = fam.simulate(truth, 5, seed=21)
    theta = np.array([0.7])
    direct = norm.logpdf(data.y, loc=fam.design.phi(1)[:, 0] * 0.7, scale=1.0).sum()
    assert fam.log_likelihood(theta, data) == pytest.approx(direct, abs=1e-10)


def test_density_families_loglik_additive(hist_family, loglin_family):
    truth_h = generate_truth("self_similar", beta=1.0, seed=3, family_tag="histogram")
    data = hist_family.simulate(truth_h, 40, seed=6)
    first = Dataset("histogram", data.y[:25], None, 25)
    second = Dataset("histogram", data.y[25:], None, 15)
    theta = np.array([0.2, 0.3, 0.5])
    whole = hist_family.log_likelihood(theta, data)
    assert whole == pytest.approx(
        hist_family.log_likelihood(theta, first) + hist_family.log_likelihood(theta, second)
    )

    truth_l = generate_truth("self_similar", beta=1.0, seed=3, family_tag="loglinear")
    data = loglin_family.simulate(truth_l, 40, seed=6)
    first = Dataset("loglinear", data.y[:25], None, 25)
    second = Dataset("loglinear", data.y[25:], None, 15)
    theta = np.array([0.4, 0.2])
    assert loglin_family.log_likelihood(theta, data) == pytest.approx(
        loglin_family.log_likelihood(theta, first) + loglin_family.log_likelihood(theta, second),
        abs=1e-9,
    )


def test_classification_loglik_additive_over_points(classif500):
    truth = generate_truth("self_similar", beta=1.0, seed=3, family_tag="classification")
    data = classif500.simulate(truth, 500, seed=6)
    theta = np.array([0.3, -0.2])
    f = classif500.design.phi(2) @ theta
    direct = float(np.sum(data.y * np.log(1 / (1 + np.exp(-f)))
                          + (1 - data.y) * np.log(1 - 1 / (1 + np.exp(-f)))))
    assert classif500.log_likelihood(theta, data) == pytest.approx(direct, abs=1e-8)


def test_empty_dataset_loglik_zero(reg500, hist_family):
    empty_r = Dataset("regression", np.array([]), None, 0)
    empty_h = Dataset("histogram", np.array([]), None, 0)
    assert reg500.log_likelihood(np.array([1.0]), empty_r) == 0.0
    assert hist_family.log_likelihood(np.array([0.5, 0.5]), empty_h) == 0.0


def test_regression_loglik_ratio_identity(reg500, truth_b1, rng):
    # l(theta) - l(theta') = -(n/2) d_n^2(theta, theta') + residual cross term
    data = reg500.simulate(truth_b1, 500, seed=31)
    for _ in range(5):
        k = int(rng.integers(1, 6))
        theta = rng.standard_normal(k)
        theta_ref = rng.standard_normal(k)
        phi = reg500.design.phi(k)
        lhs = reg500.log_likelihood(theta, data) - reg500.log_likelihood(theta_ref, data)
        d2 = np.mean((phi @ (theta - theta_ref)) ** 2)
        cross = float((data.y - phi @ theta_ref) @ (phi @ (theta - theta_ref)))
        assert lhs == pytest.approx(-0.5 * 500 * d2 + cross, rel=1e-10, abs=1e-8)


# ---------------------------------------------------------------------------
# normalizing constant of the log-linear family


def test_log_norm_gradient_matches_finite_differences(loglin_family, rng):
    # dc/dtheta_j = E_{f_theta} phi_j
    for _ in range(5):
        k = int(rng.integers(1, 7))
        theta = 0.5 * rng.standard_normal(k)
        _, mean, _ = loglin_family.log_norm_parts(theta)
        h = 1e-6
        for j in range(k):
            e = np.zeros(k)
            e[j] = h
            fd = (loglin_family.log_norm(theta + e) - loglin_family.log_norm(theta - e)) / (2 * h)
            assert abs(fd - mean[j]) <= 1e-6 * max(1.0, abs(mean[j]))


def test_log_norm_convex_on_random_sections(loglin_family, rng):
    # numerical Hessian of c along random 2-D sections is PSD
    for _ in range(4):
        base = 0.4 * rng.standard_normal(5)
        u = rng.standard_normal(5)
        v = rng.standard_normal(5)
        h = 1e-4

        def c(a, b):
            return loglin_family.log_norm(base + a * u + b * v)

        haa = (c(h, 0) - 2 * c(0, 0) + c(-h, 0)) / h**2
        hbb = (c(0, h) - 2 * c(0, 0) + c(0, -h)) / h**2
        hab = (c(h, h) - c(h, -h) - c(-h, h) + c(-h, -h)) / (4 * h**2)
        eigs = np.linalg.eigvalsh(np.array([[haa, hab], [hab, hbb]]))
        assert eigs.min() > -1e-6


def test_log_norm_overflow_guard(loglin_family):
    big = np.array([80.0])
    assert np.isfinite(loglin_family.log_norm(big))


# ---------------------------------------------------------------------------
# projections


def test_truth_embedding_needs_midpoints_beyond_k_design(truth_b1):
    points = np.sort(np.random.default_rng(2).random(40))
    design = DesignGrid(points=points, basis_tag="trigonometric", k_design=10, c0=1.0,
                        _phi=basis_matrix(points, 10))
    family = Regression(40, design=design)
    short = generate_truth("explicit", beta=1.0, coefficients=truth_b1.coefficients[:10])
    assert np.array_equal(family.truth_embedding(short), design.phi(10) @ short.coefficients)
    with pytest.raises(ValueError, match="midpoint"):
        family.truth_embedding(truth_b1)


def test_regression_projection_recovers_truth_in_model(reg500):
    truth = generate_truth("explicit", beta=1.0, coefficients=[1.0, -0.5, 0.25])
    theta = reg500.project(truth, 3)
    assert np.allclose(theta, [1.0, -0.5, 0.25], atol=1e-10)
    assert reg500.bias_sq(truth, 3) == pytest.approx(0.0, abs=1e-20)
    assert reg500.bias_sq(truth, 5) == pytest.approx(0.0, abs=1e-20)


def test_regression_projection_out_of_range_raises(reg500):
    truth = generate_truth("self_similar", beta=1.0, seed=1)
    with pytest.raises(ValueError):
        reg500.project(truth, reg500.max_k + 1)


def test_histogram_projection_uniform(hist_family):
    theta = hist_family.project(_uniform_hist_truth(), 4)
    assert np.allclose(theta, 0.25, atol=1e-12)


def test_histogram_projection_cell_probabilities(hist_family):
    # theta_j must equal the exact integral of p0 over cell j
    truth = generate_truth("explicit", beta=1.0, coefficients=[0.5 / np.sqrt(2)],
                           family_tag="histogram")
    # p0 = 1 + 0.5 cos(2 pi x); exact cell integral via the antiderivative
    k = 3
    theta = hist_family.project(truth, k)
    edges = np.arange(k + 1) / k
    anti = edges + 0.5 * np.sin(2 * np.pi * edges) / (2 * np.pi)
    assert np.allclose(theta, np.diff(anti), atol=1e-12)


def test_loglinear_projection_one_dim_bisection_oracle():
    # cosine basis, truth (1, 0.3): theta_1 solves E_{f_theta} phi_1 = E_{f_0} phi_1.
    # Oracle: trapezoid quadrature (independent of the Gauss grid) plus bisection.
    fam = make_family("loglinear", basis_tag="cosine")
    truth = generate_truth("explicit", beta=1.0, coefficients=[1.0, 0.3], family_tag="loglinear")
    theta_proj = fam.project(truth, 1)

    x = np.linspace(0.0, 1.0, 8193)
    phi1 = np.sqrt(2.0) * np.cos(np.pi * x)
    phi2 = np.sqrt(2.0) * np.cos(2 * np.pi * x)
    f0 = np.exp(1.0 * phi1 + 0.3 * phi2)
    f0 /= np.trapezoid(f0, x)
    target = np.trapezoid(f0 * phi1, x)

    def moment_gap(t):
        ft = np.exp(t * phi1)
        ft /= np.trapezoid(ft, x)
        return np.trapezoid(ft * phi1, x) - target

    lo, hi = -5.0, 5.0
    assert moment_gap(lo) < 0 < moment_gap(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if moment_gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    assert theta_proj[0] == pytest.approx(oracle, abs=5e-7)


def test_loglinear_projection_matches_moments(loglin_family):
    truth = generate_truth("self_similar", beta=1.0, seed=13, family_tag="loglinear")
    k = 4
    theta = loglin_family.project(truth, k)
    f0 = loglin_family.truth_embedding(truth)
    m0 = loglin_family.phi_grid[:, :k].T @ (loglin_family.rule.weights * f0)
    _, mean, _ = loglin_family.log_norm_parts(theta)
    assert np.allclose(mean, m0, atol=1e-8)


def test_classification_projection_moment_system(classif500):
    truth = generate_truth("self_similar", beta=1.0, seed=13, family_tag="classification")
    k = 3
    theta = classif500.project(truth, k)
    q0 = classif500.truth_embedding(truth)
    q = classif500.embedding_rows(theta[None, :], k)[0]
    residual = classif500.design.phi(k).T @ (q0 - q)
    assert np.max(np.abs(residual)) < 1e-6 * 500


@pytest.mark.parametrize("tag", ["regression", "loglinear", "classification"])
def test_projection_idempotent(tag):
    fam = make_family(tag, n=300)
    base = generate_truth("self_similar", beta=1.0, seed=17, family_tag=tag)
    k = 4
    theta = fam.project(base, k)
    again = fam.project(
        generate_truth("explicit", beta=1.0, coefficients=theta, family_tag=tag), k
    )
    assert np.max(np.abs(again - theta)) < 1e-8


def test_bias_is_squared_projection_distance(hist_family):
    truth = generate_truth("self_similar", beta=1.0, seed=17, family_tag="histogram")
    k = 5
    theta = hist_family.project(truth, k)
    from sievecred.metrics import hellinger_hist_vs_cells, hist_cell_integrals

    rule = gauss_legendre_rule(k, 24)
    density = np.clip(1.0 + eval_series(rule.nodes, truth.coefficients), 0.0, None)
    cells = hist_cell_integrals(density, rule)
    direct = hellinger_hist_vs_cells(theta, *cells) ** 2
    assert hist_family.bias_sq(truth, k) == pytest.approx(direct, rel=1e-12)


def test_bias_equals_metric_distance_to_projection(reg500, loglin_family, classif500, hist_family):
    # d(project(theta_0, k), theta_0)^2 = b(k) in the family's own metric
    for fam, tol in ((reg500, 1e-12), (loglin_family, 1e-12), (classif500, 1e-12)):
        truth = generate_truth("self_similar", beta=1.0, seed=31, family_tag=fam.tag)
        k = 4
        theta = fam.project(truth, k)
        if fam.tag == "regression":
            emb = fam.design.phi(k) @ theta
        else:
            emb = fam.embedding_rows(theta[None, :], k)[0]
        d2 = fam.metric().distance(fam.truth_embedding(truth), emb) ** 2
        assert fam.bias_sq(truth, k) == pytest.approx(d2, rel=1e-9, abs=tol)
    # histogram: per-cell exact integral vs the shared-grid quadrature
    truth = generate_truth("self_similar", beta=1.0, seed=31, family_tag="histogram")
    theta = hist_family.project(truth, 5)
    emb = hist_family.embedding_rows(theta[None, :], 5)[0]
    d2 = hist_family.metric().distance(hist_family.truth_embedding(truth), emb) ** 2
    assert hist_family.bias_sq(truth, 5) == pytest.approx(d2, abs=2e-3)


@pytest.mark.parametrize("tag,n,basis", [
    ("regression", 500, "trigonometric"), ("regression", 3, "trigonometric"),
    ("regression", 40, "cosine"), ("classification", 101, "trigonometric"),
    ("classification", 7, "cosine"), ("histogram", 500, "trigonometric"),
    ("loglinear", 500, "cosine"),
])
def test_max_dimension_is_the_built_family_max_k(tag, n, basis):
    assert max_dimension(tag, n, basis) == make_family(tag, n=n, basis_tag=basis).max_k


# ---------------------------------------------------------------------------
# quantities kept once per dataset or per set of draws


def test_softplus_matches_logaddexp_without_overflow():
    f = np.concatenate([np.linspace(-800.0, 800.0, 160_001), [0.0, 1e-300, -1e-300]])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = _softplus(f)
    ref = np.logaddexp(0.0, f)
    assert np.all(np.abs(got - ref) <= 4e-16 + 4e-16 * np.abs(ref))


@pytest.mark.parametrize("n", [0, 1, 2000])
def test_loglinear_suff_stats_are_basis_column_sums(loglin_family, n):
    y = np.random.default_rng(n + 5).random(n)
    ks = range(1, loglin_family.max_k + 1)
    expected = {k: basis_matrix(y, k).sum(axis=0) for k in ks}
    for order in (ks, reversed(ks)):
        data = Dataset("loglinear", y, None, n)
        for k in order:
            assert np.array_equal(loglin_family.suff_stats(data, k), expected[k]), k


def test_draw_rows_embedded_once_for_center_and_distances(monkeypatch, classif500, rng):
    blocks = {2: 0.3 * rng.standard_normal((40, 2)), 5: 0.3 * rng.standard_normal((25, 5))}
    expected_rows = {k: classif500.embedding_rows(block, k) for k, block in blocks.items()}
    calls = []
    embed = classif500.embedding_rows
    monkeypatch.setattr(classif500, "embedding_rows",
                        lambda block, k: calls.append(k) or embed(block, k))
    draws = PosteriorDraws(dict(blocks))
    center = posterior_center(draws, classif500)
    distances = classif500.draw_distances(draws, center)
    assert calls == [2, 5]
    assert np.array_equal(center, (expected_rows[2].sum(axis=0) + expected_rows[5].sum(axis=0)) / 65)
    metric = classif500.metric()
    assert np.array_equal(distances, np.concatenate(
        [metric.distances(expected_rows[k], center) for k in (2, 5)]
    ))
