import numpy as np
import pytest

from sievecred import (
    DEFAULT_RULE,
    basis_matrix,
    eval_series_grid,
    gauss_legendre_rule,
    generate_truth,
    make_family,
)
from sievecred.basis import design_dimension, eval_series_rule, project_grid

from dense_design import exact_basis_product, midpoint_basis
from oracles import eval_series


def test_rule_has_512_nodes_on_unit_interval():
    assert DEFAULT_RULE.nodes.size == 512
    assert DEFAULT_RULE.nodes.min() > 0 and DEFAULT_RULE.nodes.max() < 1
    assert DEFAULT_RULE.integrate(np.ones(512)) == pytest.approx(1.0, abs=1e-14)


def test_rule_integrates_polynomials_exactly():
    # 4-point Gauss-Legendre is exact through degree 7 on each cell
    for p in range(8):
        exact = 1.0 / (p + 1)
        assert DEFAULT_RULE.integrate(DEFAULT_RULE.nodes**p) == pytest.approx(exact, abs=1e-14)


def test_rule_integrates_smooth_functions():
    val = DEFAULT_RULE.integrate(np.exp(np.sin(2 * np.pi * DEFAULT_RULE.nodes)))
    # independent check: fine trapezoid
    x = np.linspace(0, 1, 200001)
    ref = np.trapezoid(np.exp(np.sin(2 * np.pi * x)), x)
    assert val == pytest.approx(ref, abs=1e-10)


def test_one_cell_of_a_composite_rule():
    # cell 1 of 4 is [0.25, 0.5], its 8 nodes at the rule's in-cell offsets
    rule = gauss_legendre_rule(4, 8)
    x, w = rule.nodes[8:16], rule.weights[8:16]
    assert np.allclose(x, (1 + rule.offsets) / 4, rtol=0, atol=1e-16)
    assert w.sum() == pytest.approx(0.25, abs=1e-15)
    assert (w @ x**3) == pytest.approx((0.5**4 - 0.25**4) / 4, abs=1e-15)


@pytest.mark.parametrize("tag", ["trigonometric", "cosine"])
@pytest.mark.parametrize("order", [4, 24])
@pytest.mark.parametrize("n_cells", [1, 7, 21, 128])
def test_eval_series_rule_matches_direct_sum(tag, order, n_cells):
    # a 4096-term truth, one FFT per in-cell offset against the term-by-term sum
    coeffs = generate_truth("self_similar", beta=1.0, seed=n_cells, basis_tag=tag).coefficients
    rule = gauss_legendre_rule(n_cells, order)
    got = eval_series_rule(coeffs, rule, tag)
    assert got.shape == rule.nodes.shape
    assert np.max(np.abs(got - eval_series(rule.nodes, coeffs, tag))) <= 1e-13


@pytest.mark.parametrize("tag", ["trigonometric", "cosine"])
def test_histogram_cell_integrals_match_direct_sum(tag):
    # the reference sums the truth term by term at 24 Gauss nodes of each bin
    family = make_family("histogram", basis_tag=tag)
    truth = generate_truth("self_similar", beta=1.0, seed=17, family_tag="histogram",
                           basis_tag=tag)
    x, w = np.polynomial.legendre.leggauss(24)
    for k in range(1, 22):
        cells, roots = family._cell_integrals(truth, k)
        for j in range(k):
            nodes = (j + 0.5 * (x + 1.0)) / k
            p = np.clip(1.0 + eval_series(nodes, truth.coefficients, tag), 0.0, None)
            assert abs(cells[j] - (w / (2 * k)) @ p) <= 1e-14, (k, j)
            assert abs(roots[j] - (w / (2 * k)) @ np.sqrt(p)) <= 1e-14, (k, j)


@pytest.mark.parametrize("tag", ["trigonometric", "cosine"])
def test_basis_orthonormal_in_l2(tag):
    phi = basis_matrix(DEFAULT_RULE.nodes, 12, tag)
    gram = (phi * DEFAULT_RULE.weights[:, None]).T @ phi
    assert np.allclose(gram, np.eye(12), atol=1e-12)


@pytest.mark.parametrize("tag", ["trigonometric", "cosine"])
def test_basis_integrates_to_zero(tag):
    phi = basis_matrix(DEFAULT_RULE.nodes, 12, tag)
    assert np.allclose(DEFAULT_RULE.weights @ phi, 0.0, atol=1e-13)


def test_eval_series_matches_matrix_product():
    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal(700)
    x = rng.random(50)
    direct = basis_matrix(x, 700, "trigonometric") @ coeffs
    assert np.allclose(eval_series(x, coeffs, chunk=128), direct, atol=1e-11)


@pytest.mark.parametrize("tag", ["trigonometric", "cosine"])
@pytest.mark.parametrize("N", [1, 2, 3, 16, 300, 4096])
@pytest.mark.parametrize("shift", [0.0, 0.5])
@pytest.mark.parametrize("extra", [0, 1])
def test_eval_series_grid_matches_direct_sum(tag, N, shift, extra):
    # lengths below, at and beyond the grid, so that folding mod 2N runs both ways;
    # coefficients decay like a truth's, |c_j| ~ j^(-3/2)
    rng = np.random.default_rng(N)
    count = N + extra
    x = (np.arange(count) + shift) / N
    for length in sorted({1, max(N - 1, 1), N, 2 * N + 3, 4096}):
        coeffs = rng.standard_normal(length) * np.arange(1, length + 1) ** -1.5
        got = eval_series_grid(coeffs, N, shift, count, tag)
        bound = 64 * np.finfo(float).eps * np.abs(coeffs).sum()
        assert got.shape == (count,)
        assert np.max(np.abs(got - eval_series(x, coeffs, tag))) <= bound, length


def test_eval_series_grid_rejects_counts_beyond_two_periods():
    with pytest.raises(ValueError):
        eval_series_grid([1.0], 4, 0.0, 9)


@pytest.mark.parametrize("tag", ["trigonometric", "cosine"])
@pytest.mark.parametrize("shift", [0.0, 0.5])
@pytest.mark.parametrize("n", [3, 4, 5, 200, 2000, 8200])
def test_project_grid_is_the_dense_basis_product(tag, shift, n):
    # Phi_k'v up to k = max_k, the largest orthonormal dimension at n
    rng = np.random.default_rng(n)
    v = rng.standard_normal(n)
    k_max = design_dimension(n, tag, n)
    got = project_grid(v, k_max, n, shift, tag)
    bound = 1e-14 * np.linalg.norm(v) * np.sqrt(n)
    x = (np.arange(n) + shift) / n
    k = min(k_max, 64)
    assert np.max(np.abs(basis_matrix(x, k, tag).T @ v - got[:k])) <= bound
    assert np.max(np.abs(exact_basis_product(v, k_max, n, shift, tag) - got)) <= bound
    for k in {1, (k_max + 1) // 2, k_max}:
        assert np.array_equal(project_grid(v, k, n, shift, tag), got[:k]), k


def test_midpoint_design_gram_is_identity():
    # discrete Fourier and cosine orthogonality, which regression takes in closed form
    for tag in ("trigonometric", "cosine"):
        for n in (3, 4, 5, 64, 500, 2000, 32000):
            k_design = design_dimension(n, tag)
            phi = midpoint_basis(n, k_design, tag)
            gram = phi.T @ phi / n
            assert np.max(np.abs(gram - np.eye(k_design))) <= 1e-13, (tag, n)


def test_cosine_design_well_conditioned():
    phi = midpoint_basis(50, 30, "cosine")
    assert np.linalg.cond(phi.T @ phi / 50) < 1 + 1e-8
