"""nshd benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload run3d_n64 --seed 1 --seconds 33 --trace 0

Closed loop: one workload call at a time, each in a fresh child process
(perfbench/sample.py) with BLAS/OpenMP threads pinned to 1.  Samples start
while the next one is expected to end within --seconds.  Before the first
sample and after each one, perfbench/calibrate.py times a fixed kernel in a
process of its own; every time metric is scaled by CALIBRATION_REF_S over the mean
of the two calibrations around its sample, which takes out the machine's
drifting speed (README.md, Calibration).  With --trace 0 the
final line carries the end-to-end metrics of BENCHMARK.json (medians over
samples); with --trace 1 samples alternate traced and untraced, the final
line carries the per-layer metrics (medians over traced samples) and the
untraced ones give the tracing overhead.  Every metric is also printed by
name with its unit.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORK = os.path.join(ROOT, ".perfbench_work")
DEADLINE_S = 170.0  # the whole run, set-up included, must end within 180 s
# About calibrate.py's time on a 2-vCPU Xeon VM in its fast phase: calibrated
# times are seconds on a machine as fast as that (README.md, Calibration).
CALIBRATION_REF_S = 0.05
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env(workload, work_dir: str) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["TMPDIR"] = work_dir  # verify's checkpoint round trip uses tempfile
    env.pop("NSHD_THREADS", None)
    if workload.kind == "sweep":
        env["NSHD_THREADS"] = str(min(2, os.cpu_count() or 1))
    return env


def run_child(args: list, env: dict, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "sample.py")] + args
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        return {"problems": [f"sample timed out after {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
    except json.JSONDecodeError:
        pass
    return {"problems": [f"sample exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"]}


@contextlib.contextmanager
def calibrator(env: dict):
    """Yield a function that times calibrate.py's kernel in one long-lived process."""
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "calibrate.py")], env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def measure() -> float:
        proc.stdin.write("\n")
        proc.stdin.flush()
        line = proc.stdout.readline()
        if not line:
            raise SystemExit(f"calibration process exited with {proc.wait()}")
        return json.loads(line)["calibration_s"]

    try:
        yield measure
    finally:
        proc.stdin.close()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def machine_facts(facts: dict, env: dict, workload, smoke: bool) -> list[str]:
    batch = workload.rhs_batch_bytes(smoke) / 1e6
    return [
        "machine: " + " ".join(f"{k}={v}" for k, v in facts.items())
        + f" NSHD_THREADS={env.get('NSHD_THREADS', '-')} "
        + " ".join(f"{v}={env[v]}" for v in THREAD_VARS),
        f"working set: one RHS batch of {workload.name} is {batch:.1f} MB computed "
        f"((n+n^2) x N^n x 16 B)",
    ]


def sample_loop(args, workload, work: str, t0: float, calibrate) -> list[dict]:
    env = child_env(workload, work)
    facts = run_child(["--warmup"], env, DEADLINE_S)
    if "problems" in facts:
        raise SystemExit("warm-up import failed: " + "; ".join(facts["problems"]))
    for line in machine_facts(facts, env, workload, args.smoke):
        print(line)

    def one(index: int, flags: list) -> dict:
        sample_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work)
        try:
            config_path = os.path.join(sample_dir, "run.json")
            with open(config_path, "w", encoding="utf-8") as fh:
                json.dump(workload.config(args.seed * 1000 + index, args.smoke), fh)
            out = os.path.join(sample_dir, "out")
            child_args = ["--workload", workload.name, "--config", config_path,
                          "--out", out] + flags
            return run_child(child_args, child_env(workload, sample_dir),
                             DEADLINE_S - (time.perf_counter() - t0))
        finally:
            shutil.rmtree(sample_dir, ignore_errors=True)

    begin = time.perf_counter()

    def left() -> float:
        now = time.perf_counter()
        return min(args.seconds - (now - begin), DEADLINE_S - 10 - (now - t0))

    before = calibrate()
    samples, last = [], 0.0
    while len(samples) < (2 if args.trace else 1) or left() >= last:
        started = time.perf_counter()
        traced = args.trace == 1 and len(samples) % 2 == 0
        result = one(len(samples), ["--trace"] * traced + ["--corrupt"] * args.corrupt)
        result["kind"] = "traced" if traced else "untraced"
        after = calibrate()
        result["calibration_s"] = (before + after) / 2
        before = after
        samples.append(result)
        last = time.perf_counter() - started
    return samples


def median_of(samples, key):
    values = [s[key] for s in samples if key in s]
    return statistics.median(values) if values else None


def calibrated(sample, key) -> float:
    """A time of the sample, scaled to the machine speed at which calibrate.py takes
    CALIBRATION_REF_S."""
    return sample[key] * CALIBRATION_REF_S / sample["calibration_s"]


def end_to_end(samples) -> dict:
    timed = [s for s in samples if "wall_s" in s]
    if not timed:
        return {}
    return {
        "wall_s": statistics.median(calibrated(s, "wall_s") for s in timed),
        "steps_per_s": statistics.median(s["steps"] / calibrated(s, "wall_s") for s in timed),
        "setup_s": statistics.median(calibrated(s, "setup_s") for s in timed),
        "peak_rss_mb": median_of(timed, "peak_rss_mb"),
    }


def per_layer(samples, untraced) -> dict:
    traced = [s["layers"] for s in samples if "layers" in s]
    if not traced:
        return {}
    out = {key: statistics.median(t[key] for t in traced) for key in traced[0]}
    traced_wall = end_to_end([s for s in samples if s["kind"] == "traced"])["wall_s"]
    untraced_wall = end_to_end(untraced).get("wall_s")
    out["trace.overhead_s"] = (traced_wall - untraced_wall
                               if untraced_wall is not None else 0.0)
    out["machine.calibration_s"] = median_of(samples, "calibration_s")
    return out


def main(argv=None) -> int:
    t0 = time.perf_counter()
    # SIGTERM unwinds like an exception: subprocess.run kills and reaps the
    # running sample and its temporary directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids and few steps, to check the benchmark itself")
    parser.add_argument("--corrupt", action="store_true",
                        help="NaN every checkpoint before the checks; samples must fail")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "nshd", "__init__.py")):
        print(f"error: no nshd sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    try:
        with calibrator(child_env(workload, WORK)) as calibrate:
            samples = sample_loop(args, workload, WORK, t0, calibrate)
    finally:
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run shares it

    untraced = [s for s in samples if s["kind"] == "untraced"]
    failed = sum(1 for s in samples if s["problems"])
    metrics = end_to_end(untraced)
    layer = per_layer(samples, untraced) if args.trace else {}
    if not metrics or (args.trace and not layer):
        for s in samples:
            for problem in s["problems"]:
                print(f"problem: {problem}", file=sys.stderr)
        return 1
    metrics["failed_frac"] = failed / len(samples)
    metrics.update(layer)

    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in spec[key]}
    for i, s in enumerate(samples):
        times = " ".join(f"{k}={s[k]:.4f}" for k in ("setup_s", "wall_s", "calibration_s")
                         if k in s)
        print(f"sample {i} ({s['kind']}): {times} problems={len(s['problems'])}")
        for problem in s["problems"]:
            print(f"  problem: {problem}")
    print(f"samples: {len(samples)} ("
          + ", ".join(f"{sum(s['kind'] == k for s in samples)} {k}"
                      for k in ("untraced", "traced")) + "), "
          f"failed: {failed}")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print("uncalibrated medians: " + " ".join(
        f"{key}={median_of(untraced, key)!r}" for key in ("wall_s", "setup_s", "calibration_s")))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": len(samples),
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
