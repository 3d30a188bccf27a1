"""Rewrite the reference `diagnostics.csv` files of three small seeded runs.

    PYTHONPATH=src python tests/reference/regen.py

Each run in RUNS goes through `harness.run_config` with one FFT worker, and
its `diagnostics.csv` (every number written by `repr`) is copied here as
`<name>.csv`.  `tests/test_reference.py` runs the same configs and compares
against these files, so a change that moves them must say so, with the
largest relative change per column.
"""

from __future__ import annotations

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
}


def run(name: str, out_dir) -> str:
    """Run RUNS[name] into out_dir on one FFT worker; the path of its diagnostics.csv."""
    from nshd.config import parse_config
    from nshd.harness import run_config

    return run_config(parse_config(RUNS[name]), out_dir, fft_workers=1).csv_path


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name in RUNS:
            csv = run(name, os.path.join(tmp, name))
            shutil.copyfile(csv, os.path.join(HERE, f"{name}.csv"))
            print(f"wrote {name}.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
