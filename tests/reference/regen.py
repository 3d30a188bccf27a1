"""Rewrite the reference files: seeded runs' diagnostics and summaries, and the verify results.

    PYTHONPATH=src python tests/reference/regen.py

Each run in RUNS goes through `harness.run_config` with one FFT worker, and
its `diagnostics.csv` (every number written by `repr`) is copied here as
`<name>.csv`.  `run_summaries.csv` holds the SUMMARY_FIELDS of each run's
`run_summary.json`, one (run, field, value) row per number or status.
`verify_results.csv` holds one row per `run_verification()` result under
each entry of VERIFY_FAULTS: the faults, name, passed, `repr(metric)` and
detail.  `tests/test_reference.py` and `tests/test_verify.py` compare
against these files, so a change that moves them must say so, with the
largest relative change per column, which this script prints for every
file it rewrites.
"""

from __future__ import annotations

import csv
import math
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))

RUNS = {
    "random_band_2d_n32": {
        "schema_version": 1,
        "solver": {"n": 2, "N": 32, "alpha": 1.0, "nu": 0.05, "t_end": 0.05,
                   "dt_max": 0.0025, "diag_stride": 2,
                   "moment_orders": [0, 1, 2.5], "sobolev_betas": [0, 1]},
        "initial_condition": {"kind": "random_band", "amplitude": 2.0, "seed": 7,
                              "band": [1, 6], "spectrum_slope": -1.0},
    },
    "random_band_3d_n16": {
        "schema_version": 1,
        "solver": {"n": 3, "N": 16, "alpha": 1.25, "nu": 0.05, "t_end": 0.03,
                   "dt_max": 0.0025, "diag_stride": 3},
        "initial_condition": {"kind": "random_band", "amplitude": 1.5, "seed": 11,
                              "band": [1, 4]},
    },
    "taylor_green_2d_n32": {
        "schema_version": 1,
        "solver": {"n": 2, "N": 32, "alpha": 0.75, "nu": 0.1, "t_end": 0.05,
                   "dt_max": 0.005, "diag_stride": 1},
        "initial_condition": {"kind": "taylor_green", "amplitude": 1.0},
    },
    # the diverged and resolution-loss initial fields of tests/test_harness.py SWEEP_CASES
    "diverged_2d_n32": {
        "schema_version": 1,
        "solver": {"n": 2, "N": 32, "alpha": 1.0, "nu": 1.0, "t_end": 1.0,
                   "diag_stride": 5, "moment_orders": [0, 2]},
        "initial_condition": {"kind": "random_band", "seed": 13, "band": [1, 3],
                              "amplitude": 1e200},
    },
    "resolution_loss_2d_n32": {
        "schema_version": 1,
        "solver": {"n": 2, "N": 32, "alpha": 1.0, "nu": 1.0, "t_end": 0.02,
                   "diag_stride": 5, "moment_orders": [0, 2]},
        "initial_condition": {"kind": "random_band", "seed": 12, "band": [9, 10]},
    },
}

SUMMARY_FILE = "run_summaries.csv"
# a dict field gives one row per key, named field.key; a None value is written empty
SUMMARY_FIELDS = ("final_time", "final_step", "final_energy", "initial_energy",
                  "max_enstrophy", "max_moments", "first_flag_time", "status")

VERIFY_FILE = "verify_results.csv"
# the `faults` column -> the FaultInjection fields set
VERIFY_FAULTS = {
    "none": {},
    "dissipation_sign_flip": {"dissipation_sign_flip": True},
    "dealias_off": {"dealias_off": True},
    "both": {"dissipation_sign_flip": True, "dealias_off": True},
}


def run(name: str, out_dir):
    """Run RUNS[name] into out_dir on one FFT worker; its `harness.RunRecord`."""
    from nshd.config import parse_config
    from nshd.harness import run_config

    return run_config(parse_config(RUNS[name]), out_dir, fft_workers=1)


def summary_rows(name: str, record) -> list[dict]:
    """The SUMMARY_FIELDS of one run's record as {run, field, value} rows, each
    number by its repr."""
    rows = []
    for field in SUMMARY_FIELDS:
        value = getattr(record, field)
        items = value.items() if isinstance(value, dict) else [(None, value)]
        for key, v in items:
            rows.append({"run": name, "field": field if key is None else f"{field}.{key}",
                         "value": "" if v is None else v if isinstance(v, str) else repr(v)})
    return rows


def write_summaries(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.DictWriter(fh, ("run", "field", "value"), lineterminator="\n")
        out.writeheader()
        out.writerows(rows)


def read_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_verify_results(path) -> None:
    from nshd.verify import FaultInjection, run_verification

    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(("faults", "name", "passed", "metric", "detail"))
        for key, fields in VERIFY_FAULTS.items():
            for r in run_verification(faults=FaultInjection(**fields)):
                out.writerow((key, r.name, r.passed, repr(r.metric), r.detail))


def _relative_change(old: str, new: str) -> float | None:
    """|new - old| / |old| of two numbers (inf if either is not finite or old is 0
    while new is not), or None when either is not a number."""
    if old == new:
        return 0.0
    try:
        a, b = float(old), float(new)
    except ValueError:
        return None
    if not (math.isfinite(a) and math.isfinite(b)) or a == 0.0:
        return math.inf
    return abs(b - a) / abs(a)


def column_changes(old_rows: list[dict], new_rows: list[dict]) -> list[str]:
    """One line per column that moved: the largest relative change of a
    numeric column, or the count of rows whose text changed."""
    header = list(new_rows[0]) if new_rows else []
    if header != (list(old_rows[0]) if old_rows else []):
        return [f"header changed to {','.join(header)}"]
    lines = []
    if len(old_rows) != len(new_rows):  # the columns compare the common leading rows
        lines.append(f"{len(old_rows)} -> {len(new_rows)} rows")
    for column in header:
        changes = [_relative_change(o[column], n[column]) for o, n in zip(old_rows, new_rows)]
        texts = sum(c is None for c in changes)
        worst = max((c for c in changes if c is not None), default=0.0)
        if texts:
            lines.append(f"{column}: text changed in {texts} of {len(changes)} rows")
        if worst:
            lines.append(f"{column}: largest relative change {worst:.3g}")
    return lines


def rewrite(filename: str, write) -> None:
    """write(path) the reference file, then print how its columns moved."""
    path = os.path.join(HERE, filename)
    old = read_rows(path) if os.path.exists(path) else None
    write(path)
    if old is None:
        print(f"wrote {filename} (new)")
        return
    lines = column_changes(old, read_rows(path))
    print(f"wrote {filename}: " + ("unchanged" if not lines else "changed"))
    for line in lines:
        print(f"    {line}")


def main() -> int:
    summaries = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in RUNS:
            record = run(name, os.path.join(tmp, name))
            summaries += summary_rows(name, record)
            rewrite(f"{name}.csv", lambda path: shutil.copyfile(record.csv_path, path))
    rewrite(SUMMARY_FILE, lambda path: write_summaries(path, summaries))
    rewrite(VERIFY_FILE, write_verify_results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
