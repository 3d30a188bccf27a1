"""One benchmark sample: a fresh process that sets up, makes the timed call and checks it.

    python3 perfbench/sample.py --workload NAME --config run.json --out DIR [--trace]

Prints one JSON line: setup and wall seconds, RK4 steps, peak RSS, the
problems the correctness checks found and, when traced, per-layer metrics.
`--warmup` only imports nshd and prints machine facts, so that byte-code
compilation and a cold page cache, which users do not pay on every run, stay
out of the first sample.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_nshd():
    """Import nshd from this checkout's src/, never from an installed copy."""
    init = os.path.join(SRC, "nshd", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"no nshd sources at {init}")
    sys.path.insert(0, SRC)
    import nshd

    if os.path.abspath(nshd.__file__) != init:
        raise SystemExit(f"imported nshd from {nshd.__file__}, expected {init}")
    return nshd


def run_sample(args) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    nshd = import_nshd()
    step_calls = layers.count_steps(nshd)
    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.instrument(nshd, tracer)

    config = workloads.setup(nshd, workload, args.config)
    setup_s = time.perf_counter() - T_START

    t0 = time.perf_counter()
    outcome = workloads.call(nshd, workload, config, args.out)
    wall_s = time.perf_counter() - t0
    steps = workloads.steps_taken(workload, config, outcome, step_calls[0])

    if args.corrupt:
        workloads.corrupt_checkpoints(args.out)
    problems = workloads.check(nshd, workload, config, outcome, args.out)

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "steps": steps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "problems": problems,
    }
    if tracer is not None:
        passed = sum(r.passed for r in outcome) if workload.kind == "verify" else 0
        workers = workloads.sweep_workers() if workload.kind == "sweep" else 1
        result["problems"] += layers.count_problems(tracer.spans)
        result["layers"] = layers.layer_metrics(tracer.spans, workers, passed, steps)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--config")
    parser.add_argument("--out")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--corrupt", action="store_true",
                        help="NaN every checkpoint before the checks (self-test)")
    parser.add_argument("--warmup", action="store_true")
    args = parser.parse_args(argv)
    if args.warmup:
        import_nshd()
        import numpy
        import scipy
        import scipy.fft

        print(json.dumps({"cpu_count": os.cpu_count(), "numpy": numpy.__version__,
                          "scipy": scipy.__version__,
                          "scipy.fft.workers": scipy.fft.get_workers()}))
        return 0
    try:
        result = run_sample(args)
    except Exception:  # the sample fails; the parent counts it and carries on
        result = {"problems": [traceback.format_exc(limit=8)]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
