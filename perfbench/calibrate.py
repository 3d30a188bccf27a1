"""Time a fixed kernel that does not touch nshd, to track the machine's speed.

    python3 perfbench/calibrate.py      # then one empty line per measurement

For each line read from stdin, prints one JSON line {"calibration_s": seconds}:
the median over REPEATS of one pass of interpreter arithmetic, small 3D FFTs
that stay in L2 and one 64^3 FFT pair that does not, the kinds of work the
workloads do, each taking about a third of the pass.  run.py keeps one such process for a whole run and asks it for a
measurement between samples; it never imports nshd, so nothing the program
under test does can change it.  It exits when stdin closes.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np
import scipy.fft

REPEATS = 5


def one_pass(small: np.ndarray, large: np.ndarray) -> float:
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    for _ in range(4):
        small = scipy.fft.fftn(scipy.fft.ifftn(small, axes=(1, 2, 3)), axes=(1, 2, 3))
    large = scipy.fft.fftn(scipy.fft.ifftn(large, axes=(1, 2, 3)), axes=(1, 2, 3))
    return time.perf_counter() - start


def main() -> int:
    rng = np.random.default_rng(0)
    small = rng.standard_normal((3, 32, 32, 32)) + 0j
    large = rng.standard_normal((1, 64, 64, 64)) + 0j
    one_pass(small, large)  # first touch of the arrays and FFT plans
    for _ in sys.stdin:
        times = [one_pass(small, large) for _ in range(REPEATS)]
        print(json.dumps({"calibration_s": statistics.median(times)}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
