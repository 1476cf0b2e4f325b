"""Command-line interface.

Subcommands: simulate, bias, mmle, posterior, credible, coverage, negative,
rate, diagnostics. Harness subcommands read an ExperimentConfig JSON via
--config; --seed, --out-dir and --threads override the config. The other
subcommands build their family, truth and prior through the harness from an
ExperimentConfig of their flags, and simulate, mmle, posterior and credible work
on harness replicate 1: data seed `--seed` + 1 and sampler streams
[seed, 1, stage], so all four see the same dataset and the same evidence table.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bias import bias_profile, polished_tail_verdict
from .families import FAMILY_TAGS
from .harness import (
    ExperimentConfig,
    _Context,
    run_coverage,
    run_diagnostics,
    run_negative,
    run_rate,
)
from .inference import mmle, sample_given_k, sample_hierarchical
from .truths import GENERATOR_TAGS, truth_to_json


def _add_common(parser):
    parser.add_argument("--family", default="regression", choices=FAMILY_TAGS)
    parser.add_argument("--n", type=int, default=500)
    parser.add_argument("--beta", type=float, default=1.0)
    parser.add_argument("--L0", type=float, default=1.0)
    parser.add_argument("--generator", default="self_similar",
                        choices=[tag for tag in GENERATOR_TAGS if tag != "explicit"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default=None)


def _config(args, **fields) -> ExperimentConfig:
    """The ExperimentConfig of the common flags at the one sample size `--n`."""
    return ExperimentConfig(family=args.family, beta=args.beta, L0=args.L0,
                            generator=args.generator, seed=args.seed, n_grid=(args.n,),
                            out_dir=args.out_dir, **fields)


def _build_problem(args, **fields) -> _Context:
    """Family, truth and prior of the flags, built the way the harness builds them."""
    return _Context(_config(args, **fields), args.n)


def _require_dimension(ctx: _Context, flag: str, k: int):
    """Reject a `flag` value k outside the family's dimensions 1..max_k."""
    if not 1 <= k <= ctx.family.max_k:
        raise ValueError(f"invalid config: {flag} {k} must lie in 1..{ctx.family.max_k}, "
                         f"the dimensions of {ctx.cfg.family} at n={ctx.n}")


def _out_path(args, name):
    out_dir = args.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def cmd_simulate(args):
    ctx = _build_problem(args)
    data = ctx.data(1)
    data.to_csv(_out_path(args, "dataset.csv"))
    truth_to_json(ctx.truth, _out_path(args, "truth.json"))
    print(f"wrote dataset.csv and truth.json (n={args.n}, family={args.family})")
    return 0


def cmd_bias(args):
    ctx = _build_problem(args, tail_r0=args.r0, tail_k0=args.k0, tail_tau=args.tau)
    k_max = ctx.prior.hyper.k_cap if args.k_max is None else args.k_max
    _require_dimension(ctx, "--k-max", k_max)
    profile = bias_profile(ctx.truth, ctx.family, k_max, args.n)
    profile.to_csv(_out_path(args, "bias.csv"))
    with open(_out_path(args, "bias.json"), "w") as fh:
        fh.write(profile.to_json())
    summary = {"k_n": profile.k_n, "beyond_range": profile.beyond_range}
    summary["polished_tail"] = polished_tail_verdict(ctx.truth, ctx.family, profile,
                                                     ctx.cfg.tail_params)
    print(json.dumps(summary))
    return 0


def cmd_mmle(args):
    ctx = _build_problem(args)
    data = ctx.data(1)
    table = ctx.table(data, 1)
    table.to_csv(_out_path(args, "marginal_likelihoods.csv"))
    print(json.dumps({"k_hat": mmle(table)}))
    return 0


def cmd_posterior(args):
    ctx = _build_problem(args, draws=args.count, mcmc_burn_in=args.burn_in)
    data = ctx.data(1)
    if args.k is not None:
        _require_dimension(ctx, "--k", args.k)
        draws = sample_given_k(ctx.family, ctx.prior.conditional, data, args.k, args.count,
                               ctx.stream(1, "given_k"), mcmc=ctx.mcmc)
    else:
        draws = sample_hierarchical(ctx.family, ctx.prior, data, args.count,
                                    ctx.stream(1, "hierarchical"), table=ctx.table(data, 1))
    payload = {"k_counts": draws.k_counts(), "diagnostics": draws.diagnostics}
    with open(_out_path(args, "sampler_diagnostics.json"), "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True))
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_credible(args):
    """One harness replicate (replicate 1, data seed `--seed` + 1) at one L: its coverage row."""
    config = _config(args, replicates=1, draws=args.count, mcmc_burn_in=args.burn_in,
                     alpha=args.alpha, L_grid=(args.L,), mode=args.mode)
    print(json.dumps(run_coverage(config).rows[0]))
    return 0


def _load_config(args) -> ExperimentConfig:
    if args.config:
        config = ExperimentConfig.from_json(args.config)
    else:
        config = ExperimentConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out_dir is not None:
        overrides["out_dir"] = args.out_dir
    if args.threads is not None:
        overrides["threads"] = args.threads
    if overrides:
        config = ExperimentConfig.from_dict({**config.to_dict(), **overrides})
    return config


# harness subcommand -> (experiment, the part of its report printed to stdout)
_EXPERIMENTS = {
    "coverage": (run_coverage, lambda report: {"cells": report.cells}),
    "negative": (run_negative, lambda report: {"cells": report.cells}),
    "rate": (run_rate, lambda report: {k: report[k] for k in ("slope", "stderr", "target")}),
    "diagnostics": (run_diagnostics, lambda report: {"per_n": report["per_n"]}),
}


def cmd_experiment(args):
    run, summary = _EXPERIMENTS[args.command]
    print(json.dumps(summary(run(_load_config(args))), sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sievecred")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a dataset from a generated truth")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bias", help="bias profile b(k), k_n, polished-tail check")
    _add_common(p)
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument("--r0", type=int, default=ExperimentConfig.tail_r0)
    p.add_argument("--k0", type=int, default=ExperimentConfig.tail_k0)
    p.add_argument("--tau", type=float, default=ExperimentConfig.tail_tau)
    p.set_defaults(func=cmd_bias)

    p = sub.add_parser("mmle", help="marginal likelihood table and the MMLE")
    _add_common(p)
    p.set_defaults(func=cmd_mmle)

    p = sub.add_parser("posterior", help="posterior draws and sampler diagnostics")
    _add_common(p)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--count", type=int, default=ExperimentConfig.draws)
    p.add_argument("--burn-in", type=int, default=ExperimentConfig.mcmc_burn_in,
                   help="burn-in of the random-walk chain given --k on the laplace route; "
                        "the hierarchical draw has none")
    p.set_defaults(func=cmd_posterior)

    p = sub.add_parser("credible", help="one replicate's credible ball: its coverage row")
    _add_common(p)
    p.add_argument("--mode", default="hierarchical", choices=["hierarchical", "empirical"])
    p.add_argument("--alpha", type=float, default=ExperimentConfig.alpha)
    p.add_argument("--L", type=float, default=2.0)
    p.add_argument("--count", type=int, default=ExperimentConfig.draws)
    p.add_argument("--burn-in", type=int, default=ExperimentConfig.mcmc_burn_in,
                   help="burn-in of the random-walk chain given k-hat (empirical mode, laplace "
                        "route); the hierarchical draw has none")
    p.set_defaults(func=cmd_credible)

    for name in _EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment from a config")
        p.add_argument("--config", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out-dir", default=None)
        p.add_argument("--threads", type=int, default=None)
        p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
