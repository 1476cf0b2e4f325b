import numpy as np
import pytest

from sievecred import DEFAULT_RULE, SemiMetric, gauss_legendre_rule
from sievecred.metrics import hellinger_hist_vs_cells, hist_cell_integrals


def _metric_instances(rng):
    dens = lambda: rng.random(512) + 0.05
    return [
        (SemiMetric("l2"), lambda: rng.standard_normal(40)),
        (SemiMetric("hellinger", weights=DEFAULT_RULE.weights), dens),
        (SemiMetric("empirical_hellinger"), lambda: rng.uniform(0.01, 0.99, 40)),
    ]


def test_metric_axioms_on_sampled_triples():
    rng = np.random.default_rng(5)
    for metric, draw in _metric_instances(rng):
        for _ in range(25):
            a, b, c = draw(), draw(), draw()
            assert metric.distance(a, a) == 0.0
            assert metric.distance(a, b) == pytest.approx(metric.distance(b, a), abs=1e-14)
            lhs = metric.distance(a, c)
            rhs = metric.distance(a, b) + metric.distance(b, c)
            assert lhs <= rhs + 1e-10


@pytest.mark.parametrize("k,factor", [(2, 2), (4, 4), (8, 2), (16, 4)])
def test_hellinger_closed_form_matches_quadrature(k, factor, rng):
    # bins divide the 128 quadrature cells, so the grid integral is exact
    t1 = rng.dirichlet(np.ones(k))
    t2 = rng.dirichlet(np.ones(k * factor))
    # on the common k*factor bins, h^2 = sum_j (sqrt u_j - sqrt v_j)^2 in cell probabilities
    closed = np.sqrt(np.sum((np.sqrt(np.repeat(t1, factor) / factor) - np.sqrt(t2)) ** 2))
    nodes = DEFAULT_RULE.nodes
    d1 = k * t1[np.minimum((nodes * k).astype(int), k - 1)]
    kk = k * factor
    d2 = kk * t2[np.minimum((nodes * kk).astype(int), kk - 1)]
    quad = SemiMetric("hellinger", weights=DEFAULT_RULE.weights).distance(d1, d2)
    assert quad == pytest.approx(closed, abs=1e-10)


def test_hellinger_hist_vs_density_exact_when_density_is_histogram():
    theta = np.array([0.3, 0.7])
    other = np.array([0.6, 0.4])

    def density(x):
        return np.where(np.asarray(x) < 0.5, 2 * other[0], 2 * other[1])

    closed = np.sqrt(np.sum((np.sqrt(theta) - np.sqrt(other)) ** 2))
    rule = gauss_legendre_rule(theta.size, 24)
    hell = hellinger_hist_vs_cells(theta, *hist_cell_integrals(density(rule.nodes), rule))
    assert hell == pytest.approx(closed, abs=1e-12)


def test_hellinger_identical_densities_zero():
    def density(x):
        return np.ones_like(np.asarray(x, dtype=float))

    rule = gauss_legendre_rule(4, 24)
    cells = hist_cell_integrals(density(rule.nodes), rule)
    hell = hellinger_hist_vs_cells(np.full(4, 0.25), *cells)
    assert hell == pytest.approx(0.0, abs=1e-12)
