"""Adaptive sieve-prior Bayesian inference with credible-ball coverage experiments."""

from .basis import basis_matrix, eval_series_grid
from .bias import (
    BiasProfile,
    PolishedTailParams,
    bias_profile,
    check_polished_tail,
    tradeoff_set,
)
from .credible import credible_radius, wilson_interval
from .families import Dataset, make_family
from .harness import (
    CoverageReport,
    ExperimentConfig,
    fit_rate,
    run_coverage,
    run_diagnostics,
    run_negative,
    run_rate,
)
from .inference import (
    KPosterior,
    MarginalLikelihoodTable,
    PosteriorDraws,
    k_posterior,
    marginal_likelihood,
    marginal_table,
    mmle,
    posterior_center,
    sample_given_k,
    sample_hierarchical,
)
from .mcmc import AdaptationError, McmcSettings, adaptive_rwm
from .metrics import SemiMetric
from .priors import (
    ConditionalPrior,
    HyperPrior,
    SievePrior,
    default_k_cap,
    dirichlet_prior,
    gaussian_prior,
    hyper_prior,
    prior_from_config,
)
from .quadrature import DEFAULT_RULE, QuadratureRule, gauss_legendre_rule
from .truths import TruthSpec, generate_truth, sobolev_norm_sq, truth_to_json

__version__ = "0.1.0"
