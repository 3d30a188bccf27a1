"""Tests of the benchmark itself (not collected by the repository's test run).

    python3 perfbench/selftest.py            # or: python3 -m pytest perfbench/selftest.py

Smoke runs use tiny grids; they check that every metric of BENCHMARK.json is
reported, that a corrupted output is counted as a failed sample, that the
transform and RHS counts equal the hand-derived values, that the calibration
process answers and exits, and that the benchmark refuses to run without the
nshd sources.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
from tracer import Span, Tracer, children_index, self_time  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(cwd, *args):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)
    return proc


@functools.lru_cache(maxsize=None)
def smoke(workload: str, trace: int, corrupt: bool = False):
    args = ["--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--smoke"] + ["--corrupt"] * corrupt
    proc = _run(ROOT, *args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_smoke_reports_every_metric():
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            printed, result = smoke(workload, trace)
            assert result["correct"] and result["failed"] == 0, (workload, printed)
            assert result["attempted"] >= 1 + trace
            names = [m["name"] for m in SPEC[key]]
            assert list(result["metrics"]) == names, (workload, trace)
            for m in SPEC[key]:
                entry = result["metrics"][m["name"]]
                assert entry["unit"] == m["unit"]
                assert isinstance(entry["value"], (int, float))
                assert any(line.startswith(f"{m['name']} = ") and line.endswith(m["unit"])
                           for line in printed), m["name"]
            for m in SPEC["end_to_end"]:  # printed by name in both modes
                assert any(line.startswith(f"{m['name']} = ") for line in printed)


def test_corrupted_checkpoint_fails_the_gate():
    printed, result = smoke("run3d_n64", 0, corrupt=True)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert "failed_frac = 1.0 ratio" in printed
    assert any("not finite" in line for line in printed)


def test_counts_equal_hand_derived_values():
    for workload, n in (("run3d_n64", 3), ("diag3d_n32", 3), ("sweep2d_n256", 2)):
        _, result = smoke(workload, 1)
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["spectral.fields_per_step"] == layers.FIELDS_PER_STEP[n]
        assert metrics["spectral.fields_per_record"] == layers.FIELDS_PER_RECORD[n]
        assert metrics["dynamics.rhs_calls"] == layers.RHS_PER_STEP * metrics["dynamics.steps"]
    _, result = smoke("verify_suite", 1)
    assert result["metrics"]["verify.properties_passed"]["value"] >= 23


def test_count_check_fires_on_a_wrong_count():
    spans = [Span("dynamics.step", 0.0, 1.0, meta={"n": 3})]
    for _ in range(3):  # one RHS short of an IF-RK4 step
        spans.append(Span("dynamics.rhs", 0.1, 0.2, parent=0))
    spans.append(Span("diagnostics.record", 2.0, 3.0, meta={"n": 2}))
    spans.append(Span("spectral.coeffs_to_grid", 2.1, 2.2, parent=4, meta={"fields": 7}))
    problems = layers.count_problems(spans)
    assert len(problems) == 1 and "3 RHS calls" in problems[0]


def test_self_time_and_thread_nesting():
    tracer = Tracer()
    inner = tracer.wrap(lambda: None, "inner")
    work = tracer.wrap(lambda: None, "work")

    def fan_out():
        inner()
        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    tracer.wrap(fan_out, "outer")()
    names = [s.name for s in tracer.spans]
    assert sorted(names) == ["inner", "outer", "work"]
    outer = names.index("outer")
    assert tracer.spans[names.index("inner")].parent == outer
    assert tracer.spans[names.index("work")].parent == outer  # nested across threads
    assert tracer.spans[names.index("work")].thread != tracer.spans[outer].thread
    spans = [Span("p", 0.0, 10.0), Span("a", 1.0, 4.0, parent=0), Span("b", 3.0, 6.0, parent=0)]
    kids = children_index(spans)
    assert abs(self_time(spans, kids, 0) - 5.0) < 1e-12  # union [1, 6] covers 5
    assert abs(self_time(spans, kids, 0, {"a"}) - 7.0) < 1e-12


def test_sweep_self_time_counts_every_csv_reread():
    # Two workers: the first worker's re-read (5.0-5.5) lies inside the other
    # worker's run_config and still counts in full.
    spans = [Span("harness.sweep", 0.0, 10.0, thread=0),
             Span("harness.run_config", 0.0, 5.0, parent=0, thread=1),
             Span("harness.run_config", 0.0, 6.0, parent=0, thread=2),
             Span("harness.read_rows", 5.0, 5.5, parent=0, thread=1),
             Span("harness.read_rows", 6.0, 6.4, parent=0, thread=2)]
    metrics = layers.layer_metrics(spans, workers=2, properties_passed=0, steps=0)
    assert abs(metrics["harness.sweep_self_s"] - (10.0 - 6.4 + 0.9)) < 1e-12
    assert abs(metrics["harness.sweep_parallel_eff"] - 11.0 / 20.0) < 1e-12


def test_calibration_process_answers_and_exits():
    with run.calibrator(dict(os.environ)) as measure:
        first, second = measure(), measure()
    assert first > 0 and second > 0
    sample = {"wall_s": 3.0, "calibration_s": 2 * run.CALIBRATION_REF_S}
    assert abs(run.calibrated(sample, "wall_s") - 1.5) < 1e-12  # a machine twice as slow


def test_refuses_to_run_without_sources():
    work = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=work)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "--workload", "verify_suite", "--seed", "1", "--seconds", "1",
                    "--trace", "0")
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(work)
        except OSError:
            pass  # a benchmark run is using it


if __name__ == "__main__":
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {name}: {exc}")
    sys.exit(1 if failures else 0)
