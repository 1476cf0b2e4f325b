"""Benchmark of the sievecred replicate pipeline.

    python3 perfbench/run.py --workload exact_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. Each measurement is a fresh
interpreter (perfbench/child.py) that runs the workload's configs through
`run_coverage` untraced, then replays every replicate through the public API,
traced with `--trace 1`. Measurements repeat until `--seconds` have passed,
and each metric is the median over them. With `--trace 0` the result carries
the end-to-end metrics of BENCHMARK.json, with `--trace 1` the per-layer ones.
Every run checks the outputs (see checks.py); the exit code is 1 when a check
fails or a replicate fails, and 2 when the checkout has no sievecred sources.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

from workloads import NAMES, workload_configs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
TIME_LIMIT_S = 170.0  # a run must end within 180 s
BLAS_THREADS = 1  # with at most nproc pool workers, workers x BLAS threads <= nproc

# (span name in the replay, metric name prefix)
LAYERS = [
    ("truths.generate_truth", "truths.generate_truth."),
    ("families.make_family", "families.make_family."),
    ("priors.prior_from_config", "priors.prior_from_config."),
    ("families.truth_embedding", "families.truth_embedding."),
    ("bias.bias_profile", "bias.bias_profile."),
    ("bias.tradeoff_set", "bias.tradeoff_set."),
    ("families.simulate.cold", "families.simulate.cold_"),
    ("families.simulate", "families.simulate."),
    ("inference.marginal_table", "inference.marginal_table."),
    ("inference.select", "inference.select."),
    ("inference.sample_given_k", "inference.sample_given_k."),
    ("inference.sample_hierarchical", "inference.sample_hierarchical."),
    ("inference.posterior_center", "inference.posterior_center."),
    ("families.draw_distances", "families.draw_distances."),
    ("metrics.distance", "metrics.distance."),
    ("harness.report_write", "harness.report_write."),
]
TAIL_BEYOND = 10  # the tail percentile is the highest with this many samples above it


def machine_facts(workers: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "pool_workers": workers,
        "workers_x_blas_within_nproc": workers * BLAS_THREADS <= nproc,
    }


def child_env(tmp: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["TMPDIR"] = tmp
    return env


def run_child(workload: str, seed: int, trace: int, tmp: str, index: int, timeout: float) -> dict:
    """One fresh-interpreter measurement; its whole process group is stopped on timeout."""
    work = os.path.join(tmp, f"m{index}")
    os.makedirs(work)
    out = os.path.join(tmp, f"m{index}.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--tmp", work, "--out", out]
    proc = subprocess.Popen(cmd, env=child_env(tmp), cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"measurement {index} of {workload} exceeded {timeout:.0f} s")
    finally:
        try:  # pool workers the harness may have left behind
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise RuntimeError(f"measurement {index} of {workload} failed:\n{stdout}{stderr}")
    with open(out) as fh:
        result = json.load(fh)
    if not result["sievecred_file"].startswith(os.path.join(ROOT, "src") + os.sep):
        raise RuntimeError(f"measured {result['sievecred_file']}, not the checkout's sources")
    return result


def measure(workload: str, seed: int, seconds: int, trace: int, tmp: str) -> list[dict]:
    """Fresh-interpreter measurements until `seconds` have passed, at least one."""
    start = time.perf_counter()
    results, last = [], 0.0
    while True:
        elapsed = time.perf_counter() - start
        if results and (elapsed >= seconds or elapsed + last > TIME_LIMIT_S - 10.0):
            return results
        began = time.perf_counter()
        results.append(run_child(workload, seed, trace, tmp, len(results), TIME_LIMIT_S - elapsed))
        last = time.perf_counter() - began


def end_to_end(children: list[dict], checks_passed: int) -> dict:
    med = lambda key: statistics.median(c[key] for c in children)  # noqa: E731
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    return {
        "wall_s": med("wall_s"),
        "setup_s": med("setup_s"),
        # replicates over the replay's replicate loop: wall_s - setup_s would be
        # the difference of two similar, separately drifting times on exact_sweep
        "replicates_per_s": statistics.median(
            len(c["replicate_ms"]) / c["replicate_s"] for c in children
        ),
        "cpu_s": med("cpu_s"),
        "peak_rss_mb": med("peak_rss_mb"),
        "ok_frac": 1.0 - failed / attempted,
        "checks_passed": checks_passed,
    }


def tail(values_ms: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(values_ms)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def per_layer(child: dict) -> dict:
    """Per-layer metrics of one traced measurement."""
    out = {}
    for span, prefix in LAYERS:
        layer = child["layers"].get(span, {"calls": 0, "ms_p50": 0.0, "total_s": 0.0})
        out[prefix + "ms"] = layer["ms_p50"]
        out[prefix + "calls"] = layer["calls"]
        out[prefix + "total_s"] = layer["total_s"]
    counts = child["counts"]
    replicates = len(child["replicate_ms"])
    ratio = lambda a, b: counts[a] / counts[b] if counts.get(b) else 0.0  # noqa: E731
    out["inference.evidence_evals"] = counts["inference.evidence_evals"] / replicates
    out["mcmc.chains"] = counts.get("mcmc.chains", 0)
    out["mcmc.steps"] = counts.get("mcmc.steps", 0)
    out["mcmc.acceptance"] = ratio("mcmc.accepted", "mcmc.kept_steps")
    out["mcmc.useful_frac"] = ratio("mcmc.used_draws", "mcmc.steps")
    out["mcmc.ess_per_draw"] = ratio("mcmc.ess", "mcmc.ess_draws")
    value, pct = tail(child["replicate_ms"])
    out["replicate.ms_p50"] = statistics.median(child["replicate_ms"])
    out["replicate.ms_tail"] = value
    out["replicate.tail_pct"] = pct
    out["replicate.samples"] = replicates
    out["replicate.total_s"] = child["replicate_s"]
    out["setup.total_s"] = child["setup_s"] - child["import_s"]
    out["sievecred.import_s"] = child["import_s"]
    # derived: untraced harness wall time less the traced set-up and replicate spans
    out["harness.overhead_s"] = (
        child["wall_s"] - child["setup_s"] - child["replicate_s"] / child["threads"]
    )
    out["tracing.overhead_frac"] = child["tracer_self_s"] / child["replay_s"]
    return out


def run_workload(workload: str, seed: int, seconds: int, trace: int, spec: dict) -> dict:
    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    tmp = os.path.join(tmp_root, f"{os.getpid()}-{workload}")
    os.makedirs(tmp)
    try:
        children = measure(workload, seed, seconds, trace, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:  # another run still uses it
            pass
    failed_checks = sorted({name for c in children for name, ok in c["checks"].items() if not ok})
    all_checks = {name for c in children for name in c["checks"]}
    if trace:
        layers = [per_layer(c) for c in children]
        values = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        declared = spec["per_layer"]
    else:
        values = end_to_end(children, len(all_checks) - len(failed_checks))
        declared = spec["end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)

    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload)
    print(f"workload {workload}: {why}")
    print(f"seed {seed}, {len(children)} measurement(s), trace {trace}")
    for m in declared:
        print(f"  {m['name']:40s} {values[m['name']]:.6g} {m['unit']}")
    print(f"  {'checks_failed':40s} {len(failed_checks)} count")
    print(f"  {'failed_frac':40s} {failed / attempted:.6g} frac")
    for name in failed_checks:
        print(f"  FAILED CHECK {name}")
    return {
        "correct": not failed_checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(NAMES) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "sievecred", "__init__.py")):
        print(f"no sievecred sources under {ROOT}/src; run from a checkout root", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    names = list(NAMES) if args.workload == "all" else [args.workload]
    workers = max(c.get("threads", 1) for w in names for c in workload_configs(w, args.seed, ""))
    print("machine", json.dumps(machine_facts(workers), sort_keys=True))
    results = {w: run_workload(w, args.seed, args.seconds, args.trace, spec) for w in names}
    final = results[names[0]] if len(names) == 1 else results
    print(json.dumps(final))
    ok = all(r["correct"] and r["failed"] == 0 for r in results.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
