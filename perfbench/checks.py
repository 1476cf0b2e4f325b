"""Output checks run on every benchmark run; each returns True when it passes.

- replay: the replayed rows equal the harness rows exactly.
- coverage: every L=2 cell has coverage >= 0.90 and Wilson lower bound >= 0.85
  (the rule of acceptance criterion 05).
- diameter: each (n, mode) cell's mean diameter lies within the stated
  relative tolerance of its reference in reference.json, so a fast but
  mis-scaled sampler fails. A cell without a reference fails.
- csv: reports the harness wrote are byte-identical to the same report
  written from the serial replay's rows. For the pooled workload this is the
  pooled-equals-serial check.
"""

from __future__ import annotations

import json
import os

from replay import row_key

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
COVERAGE_MIN = 0.90
WILSON_LO_MIN = 0.85


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def rows_equal(harness_rows: list[dict], replay_rows: list[dict]) -> bool:
    return [row_key(r) for r in harness_rows] == [row_key(r) for r in replay_rows]


def coverage_ok(cell: dict) -> bool:
    return cell["coverage"] >= COVERAGE_MIN and cell["ci_lo"] >= WILSON_LO_MIN


def cell_key(family: str, cell: dict) -> str:
    return f"{family}/{cell['n']}/{cell['mode']}"


def diameter_ok(cell: dict, reference: float, tolerance: float) -> bool:
    return abs(cell["mean_diam"] - reference) <= tolerance * reference


def same_bytes(path_a: str, path_b: str) -> bool:
    with open(path_a, "rb") as a, open(path_b, "rb") as b:
        return a.read() == b.read()


def check_config(
    cfg, report, replay_rows: list[dict], replay_csv, reference: dict, label: str = ""
) -> dict:
    """All checks for one config, keyed by a name that says what was checked.

    Names start with `label`, by default the config's family; references are
    looked up by family.
    """
    label = label or cfg.family
    out = {f"replay/{label}": rows_equal(report.rows, replay_rows)}
    for cell in report.cells:
        name = cell_key(label, cell)
        if cell["L"] == 2.0:
            out[f"coverage/{name}"] = coverage_ok(cell)
        # mean_diam does not depend on L, so every L of a cell gives one check
        ref = reference["mean_diam"].get(cell_key(cfg.family, cell))
        out[f"diameter/{name}"] = ref is not None and diameter_ok(
            cell, ref["value"], ref["tolerance"]
        )
    if cfg.out_dir:
        harness_csv = os.path.join(cfg.out_dir, f"{report.op}_replicates.csv")
        out[f"csv/{label}"] = same_bytes(harness_csv, replay_csv)
    return out
