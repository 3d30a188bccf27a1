"""Seeded runs reproduce the committed reference diagnostics and run summaries.

`tests/reference/<name>.csv` is the `diagnostics.csv` of each run in
`tests/reference/regen.py`, which rewrites them, and `run_summaries.csv`
holds the pinned fields of each run's `run_summary.json`.  A seeded
three-alpha sweep pins its `sweep_summary.csv` as `<SWEEP>.csv`, and its
exit code and each of its runs' status and exit code in `run_summaries.csv`.
Header, steps, flags, statuses, exit codes and the sweep's Lions-exponent
column must match exactly, and so must a number that is not
finite (the diverged run's inf and nan) and an empty first-flag time; every
other number to 1e-12 relative.  The absolute floor of 1e-24 only matters
for round-off quantities such as the Taylor-Green tail fraction (about
1e-39), whose bytes may differ between CPUs.
"""

import importlib.util
import math
import os

import pytest

HERE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
_spec = importlib.util.spec_from_file_location("reference_regen", os.path.join(HERE, "regen.py"))
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

EXACT = ("step", "flags", "final_step", "status", "exit_code", "is_lions_exponent")
REL_TOL, ABS_TOL = 1e-12, 1e-24


def assert_matches(got: str, want: str, column: str, where) -> None:
    if column in EXACT or want == "" or not math.isfinite(float(want)):
        assert got == want, (where, column)
    else:
        assert math.isclose(float(got), float(want),
                            rel_tol=REL_TOL, abs_tol=ABS_TOL), (where, column)


@pytest.mark.parametrize("name", sorted(regen.RUNS))
def test_seeded_run_matches_its_reference(name, tmp_path):
    record = regen.run(name, tmp_path)
    want = regen.read_rows(os.path.join(HERE, f"{name}.csv"))
    got = regen.read_rows(record.csv_path)
    assert len(got) == len(want) > 1
    assert list(got[0]) == list(want[0])
    for row, ref in zip(got, want):
        for column, value in ref.items():
            assert_matches(row[column], value, column, row["step"])

    want = [r for r in regen.read_rows(os.path.join(HERE, regen.SUMMARY_FILE))
            if r["run"] == name]
    got = regen.summary_rows(name, record)
    assert [r["field"] for r in got] == [r["field"] for r in want]
    for row, ref in zip(got, want):
        assert_matches(row["value"], ref["value"], ref["field"], name)


def test_seeded_sweep_matches_its_reference(tmp_path):
    summary = regen.run_sweep(tmp_path)
    want = regen.read_rows(os.path.join(HERE, f"{regen.SWEEP}.csv"))
    got = regen.read_rows(os.path.join(tmp_path, "sweep_summary.csv"))
    assert len(got) == len(want) == len(regen.SWEEP_ALPHAS)
    assert list(got[0]) == list(want[0])
    assert len({row["status"] for row in want}) > 1  # the alphas end differently
    for row, ref in zip(got, want):
        for column, value in ref.items():
            assert_matches(row[column], value, column, row["alpha"])

    want = [r for r in regen.read_rows(os.path.join(HERE, regen.SUMMARY_FILE))
            if r["run"].split("/")[0] == regen.SWEEP]
    assert regen.sweep_rows(summary, tmp_path) == want
    assert len(want) == 1 + 2 * len(regen.SWEEP_ALPHAS)


def test_column_changes_name_the_row_of_each_largest_change():
    header = ("step", "energy", "tail_fraction", "flags")
    rows = lambda *cells: [dict(zip(header, row)) for row in cells]
    old = rows(("0", "1.0", "0.0", ""), ("1", "2.0", "1e-30", ""), ("2", "4.0", "0.5", ""))
    assert regen.column_changes(old, old, key=("step",)) == []
    new = rows(("0", "1.0", "2.2e-16", ""), ("1", "2.0000000000000004", "3e-30", ""),
               ("2", "inf", "0.5", "diverged"))
    # 0 and values below the 1e-24 floor move absolutely, never by inf
    assert regen.column_changes(old, new, key=("step",)) == [
        "energy: largest relative change inf at step=2",
        "tail_fraction: largest absolute change 2.2e-16 at step=0",
        "flags: text changed in 1 of 3 rows",
    ]
    assert regen.column_changes(old, new)[:2] == [  # without a key, rows go by number
        "energy: largest relative change inf at row 3",
        "tail_fraction: largest absolute change 2.2e-16 at row 1",
    ]
    # a non-finite value that becomes finite, or the reverse, is inf; rows pair up by key
    assert regen.column_changes(new, old, key=("step",))[0] == (
        "energy: largest relative change inf at step=2")
    fewer = rows(("1", "2.0000000000000004", "3e-30", ""), ("2", "4.0", "nan", ""))
    assert regen.column_changes(old, fewer, key=("step",)) == [
        "3 -> 2 rows",
        "energy: largest relative change 2.22e-16 at step=1",
        "tail_fraction: largest relative change inf at step=2",
        "tail_fraction: largest absolute change 2e-30 at step=1",
    ]
    assert regen.column_changes(old, [dict(r, extra="1") for r in old]) == [
        "header changed to step,energy,tail_fraction,flags,extra"]
