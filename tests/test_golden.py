"""Golden outputs: a fixed config and seed must give the same numbers across commits.

`tests/data/golden_outputs.json` holds two things, recorded once and compared
on every run:

- the coverage rows of a tiny `run_coverage` for each of the four families;
- the SHA-256 of every file the four experiments write for a tiny regression
  config.

Regenerate it (only when a change of output is intended and explained) with
`PYTHONPATH=src python tests/test_golden.py`.
"""

import hashlib
import json
import os
import sys

import pytest

from sievecred import ExperimentConfig, run_coverage, run_diagnostics, run_negative, run_rate

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_outputs.json")
FAMILIES = ("regression", "histogram", "loglinear", "classification")
ROW_KEYS = ("n", "mode", "L", "replicate_id", "k_hat", "r_alpha", "d_truth_center", "covered")
FLOAT_KEYS = ("r_alpha", "d_truth_center")


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


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("family", FAMILIES)
def test_golden_coverage_rows(golden, family):
    expected = golden["coverage_rows"][family]
    got = coverage_rows(family)
    assert len(got) == len(expected)
    for row, ref in zip(got, expected):
        for key in ROW_KEYS:
            if key in FLOAT_KEYS:
                assert row[key] == pytest.approx(ref[key], rel=1e-12, abs=0.0), (key, ref)
            else:
                assert row[key] == ref[key], (key, ref)


def test_golden_report_hashes(golden, tmp_path):
    assert report_hashes(str(tmp_path)) == golden["report_sha256"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        payload = {
            "coverage_rows": {family: coverage_rows(family) for family in FAMILIES},
            "report_sha256": report_hashes(tmp),
        }
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
