"""Golden outputs: a fixed config and seed must give the same numbers across commits.

`tests/data/golden_outputs.json` holds two things, recorded once and compared
on every run:

- the coverage rows of a tiny `run_coverage` for each of the four families;
- the SHA-256 of every file the four experiments write for a tiny regression
  config.

numpy picks its float64 `exp`, `log`, `log1p` and `power` kernels by CPU
feature, and its AVX-512 kernels round some results differently from the
others. So the golden numbers are computed in a child interpreter held below
AVX-512 by `NPY_DISABLE_CPU_FEATURES` (`pinned_env`), which gives the same bits
on any x86-64 CPU; the rest of the suite runs on whatever kernels the CPU has.

Regenerate the file (only when a change of output is intended and explained),
under the same pin, with `PYTHONPATH=src python tests/test_golden.py`.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

import pytest

import sievecred
from sievecred import ExperimentConfig, run_coverage, run_diagnostics, run_negative, run_rate

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_outputs.json")
FAMILIES = ("regression", "histogram", "loglinear", "classification")
ROW_KEYS = ("n", "mode", "L", "replicate_id", "k_hat", "r_alpha", "d_truth_center", "covered")
FLOAT_KEYS = ("r_alpha", "d_truth_center")
AVX512_TARGETS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")
PINNED_UFUNCS = ("exp", "log", "log1p", "power")


def avx512_pin() -> str | None:
    """The `NPY_DISABLE_CPU_FEATURES` value that holds numpy below AVX-512, or None.

    It names only the targets this numpy reports as supported: numpy warns
    about a name that is not one of its dispatch targets, and a CPU without
    AVX-512 needs no pin.
    """
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    names = [name for name in AVX512_TARGETS
             if name in __cpu_dispatch__ and __cpu_features__.get(name)]
    return " ".join(names) or None


def pinned_env() -> dict:
    """This process's environment, with `sievecred` importable and the AVX-512 pin set."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(sievecred.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    pin = avx512_pin()
    if pin:
        env["NPY_DISABLE_CPU_FEATURES"] = pin
    return env


def run_pinned(*args) -> str:
    """stdout of `python args...` in a pinned child interpreter; a RuntimeWarning fails it."""
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *args],
                          env=pinned_env(), capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _tiny(**overrides) -> ExperimentConfig:
    base = dict(family="regression", n_grid=(200,), replicates=6, draws=300,
                mcmc_burn_in=200, seed=314, L_grid=(0.5, 1.0, 2.0), mode="both")
    base.update(overrides)
    return ExperimentConfig(**base)


def coverage_rows(family: str) -> list[dict]:
    report = run_coverage(_tiny(family=family, draws=200))
    return [{key: row[key] for key in ROW_KEYS} for row in report.rows]


def report_hashes(root: str) -> dict:
    """Run the four experiments with relative out_dirs under `root`; hash what they write.

    The out_dir is part of each report's config, so it is kept relative for
    the bytes not to depend on where the run happens.
    """
    cwd = os.getcwd()
    os.chdir(root)
    try:
        run_coverage(_tiny(out_dir="coverage"))
        run_diagnostics(_tiny(replicates=4, out_dir="diagnostics"))
        run_rate(_tiny(n_grid=(100, 200, 400), replicates=4, mode="empirical", out_dir="rate"))
        run_negative(_tiny(n_grid=(100, 200), replicates=4, mode="empirical", out_dir="negative"))
        hashes = {}
        for sub in ("coverage", "diagnostics", "rate", "negative"):
            for name in sorted(os.listdir(sub)):
                with open(os.path.join(sub, name), "rb") as fh:
                    hashes[f"{sub}/{name}"] = hashlib.sha256(fh.read()).hexdigest()
        return hashes
    finally:
        os.chdir(cwd)


def golden_payload() -> dict:
    """The golden rows and hashes, computed in this process."""
    with tempfile.TemporaryDirectory() as tmp:
        return {
            "coverage_rows": {family: coverage_rows(family) for family in FAMILIES},
            "report_sha256": report_hashes(tmp),
        }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def pinned():
    """The golden rows and hashes from a pinned child interpreter."""
    return json.loads(run_pinned(__file__, "--print"))


@pytest.mark.parametrize("family", FAMILIES)
def test_golden_coverage_rows(golden, pinned, family):
    expected = golden["coverage_rows"][family]
    got = pinned["coverage_rows"][family]
    assert len(got) == len(expected)
    for row, ref in zip(got, expected):
        for key in ROW_KEYS:
            if key in FLOAT_KEYS:
                assert row[key] == pytest.approx(ref[key], rel=1e-12, abs=0.0), (key, ref)
            else:
                assert row[key] == ref[key], (key, ref)


def test_golden_report_hashes(golden, pinned):
    assert pinned["report_sha256"] == golden["report_sha256"]


def test_pinned_child_takes_no_avx512_kernels():
    code = ("import json; from numpy.lib.introspect import opt_func_info; "
            f"print(json.dumps(opt_func_info(func_name='^({'|'.join(PINNED_UFUNCS)})$', "
            "signature='float64')))")
    info = json.loads(run_pinned("-c", code))
    assert sorted(info) == sorted(PINNED_UFUNCS)
    for name, signatures in info.items():
        for signature, targets in signatures.items():
            assert "X86_V4" not in targets["current"], (name, signature, targets)


if __name__ == "__main__":
    if sys.argv[1:] == ["--print"]:
        json.dump(golden_payload(), sys.stdout)
    else:
        payload = json.loads(run_pinned(__file__, "--print"))
        os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
        with open(GOLDEN, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {GOLDEN}", file=sys.stderr)
