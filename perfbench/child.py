"""One measurement in a fresh interpreter: the harness as users run it, and the replay.

    python3 perfbench/child.py --workload NAME --seed N --trace 0|1 --tmp DIR --out FILE

The harness runs first, untraced, in a process where nothing of sievecred is
warm yet. Harness calls and replays then alternate, one config at a time:
harness 1, replay K, harness 2, replay K-1, and so on. The host's speed
drifts over tens of seconds, and this spreads both the harness time and the
replay time over the whole measurement. Every harness call builds its own
contexts, so a replay before it warms nothing but the interpreter. The replay
builds every context again through public calls, which times set-up, and
replays each replicate, traced when `--trace 1`. Last, the set-up alone is
repeated, untraced, while it is cheap; `setup_s` takes the median over these
rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

T0 = time.perf_counter()
import sievecred as sc  # noqa: E402

IMPORT_S = time.perf_counter() - T0

import checks  # noqa: E402
import replay  # noqa: E402
from workloads import workload_configs  # noqa: E402

SETUP_ROUNDS = 5  # at most, counting the replay's own set-up
SETUP_BUDGET_S = 4.0  # no further round once the rounds so far took this long


def _cpu_s() -> float:
    """User+sys CPU seconds of this process and its ended children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest ended child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_maxrss + kids.ru_maxrss) / 1024.0  # ru_maxrss is in KiB on Linux


def check_labels(configs) -> list[str]:
    """Check-name prefix of each config: its family, numbered when a family repeats."""
    families = [cfg.family for cfg in configs]
    return [
        family if families.count(family) == 1 else f"{family}#{families[:i].count(family) + 1}"
        for i, family in enumerate(families)
    ]


def layer_summary(tracer: replay.Tracer) -> dict:
    names = sorted({span[0] for span in tracer.spans})
    out = {}
    for name in names:
        durations = tracer.durations(name)
        out[name] = {
            "calls": len(durations),
            "ms_p50": 1e3 * statistics.median(durations),
            "total_s": sum(durations),
        }
    return out


def setup_rounds(configs, first_s: float) -> list[float]:
    """Seconds of each set-up round: the replay's, then untraced repeats while cheap."""
    rounds = [first_s]
    untraced = replay.Tracer(enabled=False)
    while len(rounds) < SETUP_ROUNDS and sum(rounds) < SETUP_BUDGET_S:
        start = time.perf_counter()
        for cfg in configs:
            for n in cfg.n_grid:
                replay.Context(cfg, n, untraced)
        rounds.append(time.perf_counter() - start)
    return rounds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    configs = [
        sc.ExperimentConfig.from_dict(c)
        for c in workload_configs(args.workload, args.seed, os.path.join(args.tmp, "harness"))
    ]

    tracer = replay.Tracer(enabled=bool(args.trace))
    count = len(configs)
    reports, replays = [None] * count, [None] * count
    wall_s, cpu_s, replay_s = IMPORT_S, _cpu_s(), 0.0
    for i in range(count):
        cpu_start, start = _cpu_s(), time.perf_counter()
        reports[i] = sc.run_coverage(configs[i])
        wall_s += time.perf_counter() - start
        cpu_s += _cpu_s() - cpu_start
        j = count - 1 - i
        start = time.perf_counter()
        replays[j] = replay.replay_config(configs[j], tracer)
        replay_s += time.perf_counter() - start
    peak_rss_mb = _peak_rss_mb()
    rounds = setup_rounds(configs, sum(r["setup_s"] for r in replays))

    reference = checks.load_reference()
    results = {}
    for cfg, label, report, rep in zip(configs, check_labels(configs), reports, replays):
        replay_csv = None
        if cfg.out_dir:
            replay_report = sc.CoverageReport(
                report.op, cfg.to_dict(), report.cells, rep["rows"], report.errors
            )
            with tracer.span("harness.report_write"):
                paths = replay_report.write(os.path.join(args.tmp, "replay", label))
            replay_csv = paths["csv"]
        results.update(
            checks.check_config(cfg, report, rep["rows"], replay_csv, reference, label)
        )

    attempted = sum(len(cfg.n_grid) * cfg.replicates for cfg in configs)
    failed = sum(len(report.errors) for report in reports)
    out = {
        "wall_s": wall_s,
        "setup_s": IMPORT_S + statistics.median(rounds),
        "setup_rounds": len(rounds),
        "import_s": IMPORT_S,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "replay_s": replay_s,
        "replicate_s": sum(r["replicate_s"] for r in replays),
        "replicate_ms": [ms for r in replays for ms in r["replicate_ms"]],
        "threads": max(cfg.threads for cfg in configs),
        "attempted": attempted,
        "failed": failed,
        "checks": results,
        "tracer_self_s": tracer.self_s,
        "layers": layer_summary(tracer),
        "counts": tracer.counts,
        "sievecred_file": sc.__file__,
    }
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
