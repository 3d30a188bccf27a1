"""Seeded runs reproduce the committed reference diagnostics.

`tests/reference/<name>.csv` is the `diagnostics.csv` of each run in
`tests/reference/regen.py`, which rewrites them.  Header, steps and flags
must match exactly, and so must a number that is not finite (the diverged
run's inf and nan); every other number to 1e-12 relative.  The absolute
floor of 1e-24 only matters for round-off quantities such as the
Taylor-Green tail fraction (about 1e-39), whose bytes may differ between
CPUs.
"""

import importlib.util
import math
import os

import pytest

HERE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
_spec = importlib.util.spec_from_file_location("reference_regen", os.path.join(HERE, "regen.py"))
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

EXACT = ("step", "flags")
REL_TOL, ABS_TOL = 1e-12, 1e-24


@pytest.mark.parametrize("name", sorted(regen.RUNS))
def test_seeded_run_matches_its_reference(name, tmp_path):
    want = regen.read_rows(os.path.join(HERE, f"{name}.csv"))
    got = regen.read_rows(regen.run(name, tmp_path))
    assert len(got) == len(want) > 1
    assert list(got[0]) == list(want[0])
    for row, ref in zip(got, want):
        for column, value in ref.items():
            if column in EXACT or not math.isfinite(float(value)):
                assert row[column] == value, (row["step"], column)
            else:
                assert math.isclose(float(row[column]), float(value),
                                    rel_tol=REL_TOL, abs_tol=ABS_TOL), (row["step"], column)
