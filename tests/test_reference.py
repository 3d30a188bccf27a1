"""Seeded runs reproduce the committed reference diagnostics and run summaries.

`tests/reference/<name>.csv` is the `diagnostics.csv` of each run in
`tests/reference/regen.py`, which rewrites them, and `run_summaries.csv`
holds the pinned fields of each run's `run_summary.json`.  Header, steps,
flags and statuses must match exactly, and so must a number that is not
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

EXACT = ("step", "flags", "final_step", "status")
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
