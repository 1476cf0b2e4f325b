"""Replay of the harness replicate loop through the public `sievecred` API.

`run_coverage` gives one number per run. To see the layers, the benchmark
replays every replicate with the same calls, seeds and arguments that
`harness._run_replicate` uses, each wrapped in a span. The replayed rows must
equal the harness rows exactly, which is checked on every run, so the replay
cannot drift from what the harness does.
"""

from __future__ import annotations

import math
import time

import numpy as np

import sievecred as sc

ROW_KEYS = ("n", "mode", "L", "replicate_id", "k_hat", "r_alpha", "d_truth_center", "covered")


class Tracer:
    """In-memory spans (name, parent, start, end) and counters.

    With `enabled=False` a span records nothing, so the same replay code runs
    traced and untraced. `self_s` is the time spent inside the tracer's own
    code, read from the clock at the first and last instruction of each span,
    which is the tracing overhead of a traced run.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = {}
        self.self_s = 0.0
        self._stack: list[str] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NO_SPAN

    def count(self, name: str, amount: float = 1):
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + amount

    def durations(self, name: str) -> list[float]:
        return [end - start for span_name, _, start, end in self.spans if span_name == name]


class _Span:
    __slots__ = ("tracer", "name", "entered", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.entered = time.perf_counter()
        self.tracer, self.name = tracer, name

    def __enter__(self):
        tracer = self.tracer
        tracer._stack.append(self.name)
        self.start = time.perf_counter()

    def __exit__(self, *exc):
        end = time.perf_counter()
        tracer = self.tracer
        tracer._stack.pop()
        parent = tracer._stack[-1] if tracer._stack else None
        tracer.spans.append((self.name, parent, self.start, end))
        tracer.self_s += (self.start - self.entered) + (time.perf_counter() - end)
        return False


class _NoSpan:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class Context:
    """What the harness builds once per (config, n) before the first replicate."""

    def __init__(self, cfg: sc.ExperimentConfig, n: int, tracer: Tracer):
        self.cfg, self.n = cfg, n
        with tracer.span("families.make_family"):
            self.family = sc.make_family(cfg.family, n=n, basis_tag=cfg.basis)
        with tracer.span("truths.generate_truth"):
            self.truth = sc.generate_truth(
                cfg.generator,
                cfg.beta,
                cfg.L0,
                length=cfg.truth_length,
                seed=cfg.seed,
                family_tag=cfg.family,
                basis_tag=cfg.basis,
                coefficients=cfg.truth_coefficients or None,
            )
        with tracer.span("priors.prior_from_config"):
            self.prior = sc.prior_from_config(cfg.prior, cfg.family, n)
        self.mcmc = sc.McmcSettings(burn_in=cfg.mcmc_burn_in, thin=cfg.mcmc_thin)
        with tracer.span("families.truth_embedding"):
            self.family.truth_embedding(self.truth)
        with tracer.span("bias.bias_profile"):
            profile = sc.bias_profile(self.truth, self.family, self.prior.hyper.k_cap, n)
        with tracer.span("bias.tradeoff_set"):
            self.tradeoff = {
                M: (set() if profile.k_n is None else sc.tradeoff_set(profile, M))
                for M in cfg.tradeoff_M
            }
        # The first simulate builds the lazy CDF table of the density families.
        with tracer.span("families.simulate.cold"):
            self.family.simulate(self.truth, n, cfg.seed + 1)


def replay_replicate(ctx: Context, rep_id: int, tracer: Tracer) -> dict:
    """`harness._run_replicate`, call for call, with spans around each layer."""
    cfg, family = ctx.cfg, ctx.family
    with tracer.span("families.simulate"):
        data = family.simulate(ctx.truth, ctx.n, cfg.seed + rep_id)
    with tracer.span("inference.marginal_table"):
        table = sc.marginal_table(
            family, ctx.prior, data, method=cfg.marginal_method, seed=[cfg.seed, rep_id, 1]
        )
    tracer.count("inference.evidence_evals", len(table.ks))
    truth_emb = family.truth_embedding(ctx.truth)
    metric = family.metric()
    modes_out = {}
    for mode in cfg.modes:
        if mode == "empirical":
            with tracer.span("inference.select"):
                k_sel = sc.mmle(table)
            with tracer.span("inference.sample_given_k"):
                draws = sc.sample_given_k(
                    family, ctx.prior.conditional, data, k_sel, cfg.draws,
                    [cfg.seed, rep_id, 2], mcmc=ctx.mcmc,
                )
            mass = None
        else:
            with tracer.span("inference.sample_hierarchical"):
                draws = sc.sample_hierarchical(
                    family, ctx.prior, data, cfg.draws, [cfg.seed, rep_id, 3],
                    mcmc=ctx.mcmc, table=table,
                )
            with tracer.span("inference.select"):
                kpost = sc.k_posterior(table, ctx.prior.hyper)
                k_sel = kpost.mode()
            mass = {str(M): kpost.set_mass(ctx.tradeoff[M]) for M in cfg.tradeoff_M}
        if tracer.enabled:
            for name, value in sampler_counts(draws, cfg.mcmc_thin).items():
                tracer.count(name, value)
        with tracer.span("inference.posterior_center"):
            center = sc.posterior_center(draws, family)
        with tracer.span("families.draw_distances"):
            distances = family.draw_distances(draws, center)
        rank = min(max(math.ceil((1.0 - cfg.alpha) * distances.size), 1), distances.size)
        r_alpha = float(np.partition(distances, rank - 1)[rank - 1])
        with tracer.span("metrics.distance"):
            d = float(metric.distance(truth_emb, family.center_embedding(center)))
        modes_out[mode] = {
            "k": int(k_sel),
            "r_alpha": r_alpha,
            "d": d,
            "in_K": {str(M): bool(k_sel in ctx.tradeoff[M]) for M in cfg.tradeoff_M},
            "mass_K": mass,
        }
    return {"replicate_id": rep_id, "n": ctx.n, "modes": modes_out}


def coverage_rows(cfg: sc.ExperimentConfig, results: list[dict]) -> list[dict]:
    """Rows in `run_coverage` order: n, then mode, then L, then replicate."""
    rows = []
    for n in cfg.n_grid:
        per_n = [r for r in results if r["n"] == n]
        for mode in cfg.modes:
            for L in cfg.L_grid:
                inflation = L * math.sqrt(math.log(n))
                for r in per_n:
                    m = r["modes"][mode]
                    rows.append({
                        "n": n,
                        "mode": mode,
                        "L": L,
                        "replicate_id": r["replicate_id"],
                        "covered": m["d"] <= inflation * m["r_alpha"],
                        "d_truth_center": m["d"],
                        "r_alpha": m["r_alpha"],
                        "inflation": inflation,
                        "k_hat": m["k"],
                        "diameter": 2.0 * m["r_alpha"],
                    })
    return rows


def replay_config(cfg: sc.ExperimentConfig, tracer: Tracer, seed_offset: int = 0) -> dict:
    """Set up each n, replay every replicate, return rows and timings.

    `seed_offset` shifts the replicate ids the replay feeds to the samplers;
    it is 0 except in the tests that show the row check can fail.
    """
    setup_s = replicate_s = 0.0
    results, replicate_ms = [], []
    for n in cfg.n_grid:
        start = time.perf_counter()
        with tracer.span("setup"):
            ctx = Context(cfg, n, tracer)
        setup_s += time.perf_counter() - start
        for rep in range(1, cfg.replicates + 1):
            start = time.perf_counter()
            try:
                with tracer.span("replicate"):
                    result = replay_replicate(ctx, rep + seed_offset, tracer)
            except Exception:  # noqa: BLE001 - the harness counts it as failed and drops its rows
                continue
            elapsed = time.perf_counter() - start
            replicate_s += elapsed
            replicate_ms.append(1e3 * elapsed)
            result["replicate_id"] = rep
            results.append(result)
    return {
        "rows": coverage_rows(cfg, results),
        "setup_s": setup_s,
        "replicate_s": replicate_s,
        "replicate_ms": replicate_ms,
    }


def row_key(row: dict) -> tuple:
    return tuple(row[k] for k in ROW_KEYS)


# ---------------------------------------------------------------------------
# sampler efficiency, computed from the draws and diagnostics the samplers return

ESS_MIN_DRAWS = 20  # shorter blocks give no usable autocorrelation estimate


def ess_geyer(x: np.ndarray) -> float:
    """Effective sample size of one chain coordinate.

    Geyer's (1992) initial monotone sequence estimator: autocorrelations from
    the FFT, summed in adjacent pairs up to the first non-positive pair, with
    the pair sums forced non-increasing. Capped at the chain length.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    x = x - x.mean()
    spec = np.fft.rfft(x, 2 * n)
    acov = np.fft.irfft(spec * np.conj(spec))[:n] / n
    if acov[0] <= 0.0:
        return 1.0
    rho = acov / acov[0]
    pairs = rho[: 2 * (n // 2)].reshape(-1, 2).sum(axis=1)
    stop = np.flatnonzero(pairs <= 0.0)
    pairs = pairs[: stop[0]] if stop.size else pairs
    pairs = np.minimum.accumulate(pairs)
    tau = -1.0 + 2.0 * float(pairs.sum())
    return float(min(n / max(tau, 1e-12), n))


def sampler_counts(draws, thin: int) -> dict:
    """Chains, steps, accepted steps, used draws and ESS of the RWM chains in `draws`."""
    diag = draws.diagnostics
    per_k = diag["samplers"] if "samplers" in diag else {k: diag for k in draws.blocks}
    out = {"mcmc.chains": 0, "mcmc.steps": 0, "mcmc.kept_steps": 0, "mcmc.accepted": 0.0,
           "mcmc.used_draws": 0, "mcmc.ess": 0.0, "mcmc.ess_draws": 0}
    for k, d in per_k.items():
        if d.get("sampler") != "rwm":
            continue
        block = draws.blocks[int(k)]
        kept = d["chain_length"] * thin
        out["mcmc.chains"] += 1
        out["mcmc.steps"] += d["burn_in"] + kept
        out["mcmc.kept_steps"] += kept
        out["mcmc.accepted"] += d["acceptance_rate"] * kept
        out["mcmc.used_draws"] += block.shape[0]
        if block.shape[0] >= ESS_MIN_DRAWS:
            out["mcmc.ess"] += min(ess_geyer(block[:, j]) for j in range(block.shape[1]))
            out["mcmc.ess_draws"] += block.shape[0]
    return out
