"""Rewrite the reference files: seeded runs' diagnostics and summaries, and the verify results.

    PYTHONPATH=src python tests/reference/regen.py

Each run in RUNS goes through `harness.run_config` with one FFT worker, and
its `diagnostics.csv` (every number written by `repr`) is copied here as
`<name>.csv`.  `run_summaries.csv` holds the SUMMARY_FIELDS of each run's
`run_summary.json`, one (run, field, value) row per number or status.
SWEEP_CONFIG is swept over SWEEP_ALPHAS through `harness.sweep`: its
`sweep_summary.csv` is copied here as `<SWEEP>.csv`, and the sweep's exit
code and each of its runs' status and exit code (from the run's
`run_summary.json`) join `run_summaries.csv` under the run `<SWEEP>` and
`<SWEEP>/alpha_<alpha>`.  `verify_results.csv` holds one row per
`run_verification()` result under each entry of VERIFY_FAULTS: the faults,
name, passed, `repr(metric)` and detail.  `tests/test_reference.py` and `tests/test_verify.py` compare
against these files, so a change that moves them must say so, with the
largest change per column and the row where it happened, which this script
prints for every file it rewrites.
"""

from __future__ import annotations

import csv
import json
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

SWEEP = "sweep_2d_n32"
SWEEP_CONFIG = {
    "schema_version": 1,
    "solver": {"n": 2, "N": 32, "alpha": 1.0, "nu": 0.05, "t_end": 0.1, "dt_max": 0.005,
               "diag_stride": 4},
    "initial_condition": {"kind": "random_band", "amplitude": 2.0, "seed": 21,
                          "band": [1, 6]},
}
# 0.5 and 1.0 = alpha_L(2) lose resolution at t = 0.06; 2.0 completes
SWEEP_ALPHAS = (0.5, 1.0, 2.0)

SUMMARY_FILE = "run_summaries.csv"
# a dict field gives one row per key, named field.key; a None value is written empty
SUMMARY_FIELDS = ("final_time", "final_step", "final_energy", "initial_energy",
                  "max_enstrophy", "max_moments", "first_flag_time", "status", "exit_code")

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


def run_sweep(out_dir):
    """Sweep SWEEP_CONFIG over SWEEP_ALPHAS into out_dir; its `harness.SweepSummary`."""
    from nshd.config import parse_config
    from nshd.harness import sweep

    return sweep(parse_config(SWEEP_CONFIG), SWEEP_ALPHAS, out_dir)


def sweep_rows(summary, out_dir) -> list[dict]:
    """The sweep's exit code, then each run's status and exit code from its
    `run_summary.json`, as {run, field, value} rows."""
    from nshd.harness import RunRecord

    rows = [{"run": SWEEP, "field": "exit_code", "value": repr(summary.exit_code)}]
    for alpha in summary.alpha_list:
        name = f"alpha_{alpha:g}"
        with open(os.path.join(out_dir, name, "run_summary.json"), encoding="utf-8") as fh:
            record = RunRecord(**json.load(fh))
        rows += [{"run": f"{SWEEP}/{name}", "field": field, "value": value}
                 for field, value in (("status", record.status),
                                      ("exit_code", repr(record.exit_code)))]
    return rows


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


ABS_FLOOR = 1e-24  # below it, as in tests/test_reference.py, a change counts absolutely


def _change(old: str, new: str) -> tuple[str, float] | None:
    """How far the number `new` lies from `old`: ("relative", |new - old| /
    |old|), or ("absolute", |new - old|) when |old| < ABS_FLOOR (0 included);
    inf when one of them is not finite and they differ.  None when either is
    not a number."""
    if old == new:
        return "relative", 0.0
    try:
        a, b = float(old), float(new)
    except ValueError:
        return None
    if not (math.isfinite(a) and math.isfinite(b)):
        return "relative", math.inf
    if abs(a) < ABS_FLOOR:
        return "absolute", abs(b - a)
    return "relative", abs(b - a) / abs(a)


def column_changes(old_rows: list[dict], new_rows: list[dict], key=()) -> list[str]:
    """One line per column that moved: its largest relative change, and its
    largest absolute change over the rows whose old value lies below
    ABS_FLOOR, each with the row where it happened; or the count of rows
    whose text changed.  Rows are named, and paired, by their `key` columns,
    else by their number."""
    header = list(new_rows[0]) if new_rows else []
    if header != (list(old_rows[0]) if old_rows else []):
        return [f"header changed to {','.join(header)}"]
    lines = []
    if len(old_rows) != len(new_rows):  # the columns compare the rows both name alike
        lines.append(f"{len(old_rows)} -> {len(new_rows)} rows")
    name = lambda i, row: ", ".join(f"{k}={row[k]}" for k in key) if key else f"row {i + 1}"
    old = {name(i, row): row for i, row in enumerate(old_rows)}
    pairs = [(name(i, row), old[name(i, row)], row) for i, row in enumerate(new_rows)
             if name(i, row) in old]
    for column in header:
        worst, texts = {}, 0
        for where, o, n in pairs:
            change = _change(o[column], n[column])
            if change is None:
                texts += 1
            elif change[1] > worst.get(change[0], (0.0,))[0]:
                worst[change[0]] = (change[1], where)
        if texts:
            lines.append(f"{column}: text changed in {texts} of {len(pairs)} rows")
        for kind, (size, where) in sorted(worst.items(), reverse=True):
            lines.append(f"{column}: largest {kind} change {size:.3g} at {where}")
    return lines


def rewrite(filename: str, write, key=()) -> None:
    """write(path) the reference file, then print how its columns moved,
    naming rows by their `key` columns."""
    path = os.path.join(HERE, filename)
    old = read_rows(path) if os.path.exists(path) else None
    write(path)
    if old is None:
        print(f"wrote {filename} (new)")
        return
    lines = column_changes(old, read_rows(path), key)
    print(f"wrote {filename}: " + ("unchanged" if not lines else "changed"))
    for line in lines:
        print(f"    {line}")


def main() -> int:
    summaries = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in RUNS:
            record = run(name, os.path.join(tmp, name))
            summaries += summary_rows(name, record)
            rewrite(f"{name}.csv", lambda path: shutil.copyfile(record.csv_path, path),
                    key=("step",))
        out_dir = os.path.join(tmp, SWEEP)
        summaries += sweep_rows(run_sweep(out_dir), out_dir)
        rewrite(f"{SWEEP}.csv", lambda path: shutil.copyfile(
            os.path.join(out_dir, "sweep_summary.csv"), path), key=("alpha",))
    rewrite(SUMMARY_FILE, lambda path: write_summaries(path, summaries), key=("run", "field"))
    rewrite(VERIFY_FILE, write_verify_results, key=("faults", "name"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
