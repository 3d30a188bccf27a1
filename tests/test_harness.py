"""Config parsing, run artifacts, sweeps, scale-check and CLI exit codes."""

import dataclasses
import json
import math
import os
from pathlib import Path
from types import SimpleNamespace

import pytest
import scipy.fft

from nshd import checkpoint, dynamics, harness, verify
from nshd.checkpoint import read_checkpoint
from nshd.cli import main
from nshd.config import ConfigError, load_config, parse_config
from nshd.harness import (
    SweepRow,
    SweepSummary,
    run_config,
    scale_check,
    sweep,
    sweep_threads,
    thread_budget,
)

from conftest import FullDisk


def make_config(tmp_path, name="run.json", **overrides):
    doc = {
        "schema_version": 1,
        "solver": {"n": 2, "N": 32, "alpha": 1.0, "nu": 1.0, "t_end": 0.1,
                   "diag_stride": 5},
        "initial_condition": {"kind": "taylor_green", "amplitude": 1.0},
    }
    for key, value in overrides.items():
        section, _, field = key.partition(".")
        if field:
            doc[section][field] = value
        else:
            doc[section] = value
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


# -- config ---------------------------------------------------------------------


def test_parse_valid_config(tmp_path):
    cfg = load_config(make_config(tmp_path))
    assert cfg.solver.N == 32
    assert cfg.initial_condition.kind == "taylor_green"


def test_unknown_key_rejected(tmp_path):
    path = make_config(tmp_path, **{"solver.viscosity": 1.0})
    with pytest.raises(ConfigError, match="solver.viscosity"):
        load_config(path)


def test_odd_n_names_field(tmp_path):
    path = make_config(tmp_path, **{"solver.N": 33})
    with pytest.raises(ConfigError, match=r"solver\.N"):
        load_config(path)


def test_wrong_schema_version(tmp_path):
    doc = json.loads(make_config(tmp_path).read_text())
    doc["schema_version"] = 99
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="schema_version"):
        load_config(path)


def test_band_vs_dealias_checked(tmp_path):
    path = make_config(
        tmp_path,
        initial_condition={"kind": "random_band", "seed": 1, "band": [1, 20]},
    )
    with pytest.raises(ConfigError, match="band"):
        load_config(path)


def test_json_error_carries_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json }")
    with pytest.raises(ConfigError, match="line"):
        load_config(path)


def test_parse_config_roundtrip(tmp_path):
    cfg = load_config(make_config(tmp_path))
    again = parse_config(cfg.to_dict())
    assert again.solver == cfg.solver
    assert again.initial_condition == cfg.initial_condition


# -- run ------------------------------------------------------------------------


def test_run_taylor_green_artifacts(tmp_path):
    path = make_config(tmp_path, **{"solver.N": 64, "solver.t_end": 1.0,
                                    "solver.diag_stride": 20})
    out = tmp_path / "out"
    record = run_config(load_config(path), out)
    assert record.status == "completed"
    assert record.exit_code == 0
    assert math.isclose(record.final_energy, math.pi**2 * math.exp(-4.0),
                        rel_tol=1e-8)
    field, meta = read_checkpoint(record.checkpoint_path)
    assert meta.nu == 1.0 and field.time == 1.0
    lines = (out / "diagnostics.csv").read_text().splitlines()
    assert lines[0].startswith("step,t,dt,energy,dissipation_rate,enstrophy,"
                               "production,max_velocity,")
    assert lines[0].endswith("tail_fraction,flags")
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["status"] == "completed"
    assert summary["config"]["solver"]["N"] == 64


def test_run_t_end_zero_single_row(tmp_path):
    path = make_config(tmp_path, **{"solver.t_end": 0.0})
    record = run_config(load_config(path), tmp_path / "out0")
    assert record.status == "completed"
    lines = (tmp_path / "out0" / "diagnostics.csv").read_text().splitlines()
    assert len(lines) == 2  # header + exactly one data row


def test_largest_accepted_moment_order_and_sobolev_exponent_stay_finite(tmp_path):
    # one step further, |k|^m or (1+|k|^2)^beta is inf and inf * 0 at an empty mode nan
    k_max = math.sqrt(2) * 32 / 2
    order = 300 / math.log10(k_max) * (1 - 1e-12)
    beta = 300 / math.log10(1 + k_max**2) * (1 - 1e-12)
    path = make_config(tmp_path, **{"solver.moment_orders": [0, 1, int(order), order],
                                    "solver.sobolev_betas": [0, beta]})
    record = run_config(load_config(path), tmp_path / "out")
    assert record.exit_code == 0
    assert set(record.first_flag_time.values()) == {None}
    rows = Path(record.csv_path).read_text().splitlines()[1:]
    assert all(math.isfinite(float(v)) for row in rows for v in row.split(",")[:-1])


def test_failed_run_keeps_the_previous_diagnostics_csv(tmp_path, monkeypatch):
    config = load_config(make_config(tmp_path, **{"solver.diag_stride": 1}))
    out = tmp_path / "out"
    before = Path(run_config(config, out).csv_path).read_bytes()
    original, rows = harness.csv_row, []

    def third_row_fails(record, cfg):
        rows.append(record)
        if len(rows) == 3:
            raise RuntimeError("row 3")
        return original(record, cfg)

    monkeypatch.setattr(harness, "csv_row", third_row_fails)
    with pytest.raises(RuntimeError, match="row 3"):
        run_config(config, out)
    assert (out / "diagnostics.csv").read_bytes() == before
    assert not list(out.glob("*.tmp"))


def test_run_determinism_bit_exact(tmp_path):
    path = make_config(
        tmp_path,
        initial_condition={"kind": "random_band", "seed": 99, "band": [1, 4],
                           "amplitude": 0.8},
    )
    a = run_config(load_config(path), tmp_path / "a")
    b = run_config(load_config(path), tmp_path / "b")
    csv_a = Path(a.csv_path).read_bytes()
    csv_b = Path(b.csv_path).read_bytes()
    assert csv_a == csv_b
    ck_a = Path(a.checkpoint_path).read_bytes()
    ck_b = Path(b.checkpoint_path).read_bytes()
    assert ck_a == ck_b


# -- sweep -----------------------------------------------------------------------


def test_sweep_rows_and_marker(tmp_path):
    path = make_config(tmp_path, **{"solver.t_end": 0.05})
    config = load_config(path)
    summary = sweep(config, [1.4, 0.6, 1.0], tmp_path / "sw")
    assert summary.alpha_list == (0.6, 1.0, 1.4)
    assert [row.is_lions_exponent for row in summary.rows] == [False, True, False]
    for row in summary.rows:
        assert row.status == "completed"
        assert row.energy_ratio < 1.0  # viscous decay
    assert (tmp_path / "sw" / "sweep_summary.csv").exists()
    assert (tmp_path / "sw" / "sweep_summary.json").exists()


@pytest.mark.parametrize("target", ["run_summary.json", "sweep_summary.csv",
                                    "sweep_summary.json"])
def test_failed_summary_write_keeps_previous_file(tmp_path, monkeypatch, target):
    config = load_config(make_config(tmp_path, **{"solver.N": 16, "solver.t_end": 0.02}))
    out = tmp_path / "sw"
    sweep(config, [1.0], out)
    path = next(out.rglob(target))
    before = path.read_bytes()

    def open_target_on_full_disk(file, *args, **kwargs):
        fh = open(file, *args, **kwargs)
        return FullDisk(fh) if os.path.basename(file).startswith(target) else fh

    monkeypatch.setattr(checkpoint, "open", open_target_on_full_disk, raising=False)
    with pytest.raises(OSError, match="No space"):
        sweep(config, [1.0], out)
    assert path.read_bytes() == before
    assert not list(out.rglob("*.tmp"))


def test_sweep_duplicate_alpha_rejected(tmp_path):
    config = load_config(make_config(tmp_path))
    with pytest.raises(ConfigError, match="duplicate"):
        sweep(config, [1.0, 1.0], tmp_path / "sw")


def test_sweep_single_alpha_matches_run(tmp_path):
    path = make_config(
        tmp_path,
        initial_condition={"kind": "random_band", "seed": 3, "band": [1, 4]},
        **{"solver.t_end": 0.05, "solver.moment_orders": [0, 1, 2]},
    )
    config = load_config(path)
    summary = sweep(config, [1.0], tmp_path / "sw1")
    solo = run_config(config, tmp_path / "solo")
    sweep_csv = (tmp_path / "sw1" / "alpha_1" / "diagnostics.csv").read_bytes()
    solo_csv = Path(solo.csv_path).read_bytes()
    assert sweep_csv == solo_csv
    assert summary.rows[0].status == solo.status


def csv_row_metrics(csv_path, n):
    """Reference sweep-row metrics parsed from a run's diagnostics.csv."""
    m1_cols = [f"M1_c{i + 1}" for i in range(n)]
    max_enstrophy = -math.inf
    max_m1 = -math.inf
    loss_time = None
    e_first = e_last = None
    with open(csv_path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        col = {name: i for i, name in enumerate(header)}
        for line in fh:
            parts = line.rstrip("\n").split(",")
            t = float(parts[col["t"]])
            e = float(parts[col["energy"]])
            if e_first is None:
                e_first = e
            e_last = e
            max_enstrophy = max(max_enstrophy, float(parts[col["enstrophy"]]))
            max_m1 = max(max_m1, *(float(parts[col[c]]) for c in m1_cols))
            if loss_time is None and "resolution_loss" in parts[col["flags"]]:
                loss_time = t
    return {
        "max_enstrophy": max_enstrophy,
        "max_m1": max_m1,
        "resolution_loss_time": loss_time,
        "energy_ratio": e_last / e_first if e_first else math.nan,
    }


def same_float(a, b):
    return a == b or (a is not None and b is not None and math.isnan(a) and math.isnan(b))


def parse_sweep_csv(path):
    """Each line of a sweep_summary.csv as {SweepRow field: value}, typed back
    from its cell: empty is None, true/false a bool, else a float or the string."""
    def value(cell):
        if cell in ("", "true", "false"):
            return None if cell == "" else cell == "true"
        try:
            return float(cell)
        except ValueError:
            return cell

    header, *lines = Path(path).read_text().splitlines()
    names = [{"max_M1": "max_m1"}.get(name, name) for name in header.split(",")]
    assert names == [f.name for f in dataclasses.fields(SweepRow)]
    return [dict(zip(names, map(value, line.split(",")))) for line in lines]


SWEEP_CASES = {
    "completed": ({"kind": "random_band", "seed": 3, "band": [1, 4]}, 0.05,
                  "completed", 0),
    "resolution_loss": ({"kind": "random_band", "seed": 12, "band": [9, 10]}, 0.02,
                        "resolution_loss", 3),
    "diverged": ({"kind": "random_band", "seed": 13, "band": [1, 3], "amplitude": 1e200},
                 1.0, "diverged", 2),
}


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_rows_match_csv_parse(tmp_path, case):
    ic, t_end, status, exit_code = SWEEP_CASES[case]
    path = make_config(tmp_path, initial_condition=ic,
                       **{"solver.t_end": t_end, "solver.moment_orders": [0, 2]})
    summary = sweep(load_config(path), [0.9, 1.0], tmp_path / "sw")
    assert summary.exit_code == exit_code
    parsed = parse_sweep_csv(tmp_path / "sw" / "sweep_summary.csv")
    assert len(parsed) == len(summary.rows)
    for row, cells in zip(summary.rows, parsed):
        for name, cell in cells.items():
            want = getattr(row, name)
            assert type(cell) is type(want) and same_float(cell, want), (row.alpha, name)
    for row in summary.rows:
        assert row.status == status
        sub = tmp_path / "sw" / f"alpha_{row.alpha:g}"
        want = csv_row_metrics(sub / "diagnostics.csv", 2)
        for key, value in want.items():
            assert same_float(getattr(row, key), value), (row.alpha, key)
        outcome = json.loads((sub / "run_summary.json").read_text())
        assert set(outcome["max_moments"]) == {"0.0", "1.0", "2.0"}
        assert same_float(outcome["max_moments"]["1.0"], want["max_m1"])
        assert same_float(outcome["first_flag_time"]["resolution_loss"],
                          want["resolution_loss_time"])
        assert (outcome["first_flag_time"]["diverged"] is None) == (status != "diverged")
    assert main(["sweep", "--config", str(path), "--alphas", "0.9,1.0",
                 "--out", str(tmp_path / "cli")]) == exit_code


def test_sweep_exit_code_is_the_gravest_row():
    def summary(*statuses):
        rows = tuple(SweepRow(1.0, s, 0.0, 0.0, None, 1.0, False) for s in statuses)
        return SweepSummary(n=2, alpha_lions=1.0, alpha_list=(1.0,), rows=rows)

    assert summary("completed", "completed").exit_code == 0
    assert summary("completed", "resolution_loss").exit_code == 3
    assert summary("resolution_loss", "diverged", "completed").exit_code == 2


# -- scale check --------------------------------------------------------------------


def test_scale_check_q1_trivial(tmp_path):
    config = load_config(make_config(tmp_path, **{"solver.t_end": 0.05}))
    report = scale_check(config, 1)
    assert report.commutation_discrepancy <= 1e-12
    assert report.energy_ratio_error <= 1e-14
    assert report.passed


def test_scale_check_taylor_green_critical(tmp_path):
    config = load_config(make_config(tmp_path, **{"solver.t_end": 0.1}))
    report = scale_check(config, 2)
    assert report.energy_ratio == pytest.approx(1.0, abs=1e-14)
    assert report.commutation_pass and report.energy_ratio_pass


def test_scale_check_subcritical_ratio(tmp_path):
    config = load_config(make_config(tmp_path, **{"solver.alpha": 1.5,
                                                  "solver.t_end": 0.05}))
    report = scale_check(config, 2)
    assert report.energy_ratio == pytest.approx(4.0, rel=1e-12)  # q^(4*1.5-4)


# -- CLI --------------------------------------------------------------------------


def test_cli_run_ok(tmp_path, capsys):
    path = make_config(tmp_path)
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "cli_out")])
    assert code == 0
    assert "completed" in capsys.readouterr().out


def test_cli_run_invalid_config_exit_1(tmp_path, capsys):
    path = make_config(tmp_path, **{"solver.N": 33})
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "x")])
    assert code == 1
    assert "solver.N" in capsys.readouterr().err


def test_cli_run_missing_config_exit_1(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "x")]) == 1


def test_cli_run_unwritable_output_exit_4(tmp_path, capsys):
    path = make_config(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "sub"  # parent is a file: cannot create
    assert main(["run", "--config", str(path), "--out", str(out)]) == 4


def test_cli_exponents(capsys):
    assert main(["exponents", "--n", "3", "--alpha", "5/4"]) == 0
    out = capsys.readouterr().out
    assert "alpha_L = 5/4" in out
    assert "critical" in out


def test_cli_exponents_float_alpha(capsys):
    assert main(["exponents", "--n", "3", "--alpha", "1.0"]) == 0
    assert "supercritical" in capsys.readouterr().out


def test_cli_sweep_and_scale_check(tmp_path, capsys):
    path = make_config(tmp_path, **{"solver.t_end": 0.05})
    assert main(["sweep", "--config", str(path), "--alphas", "0.9,1.0",
                 "--out", str(tmp_path / "cli_sw")]) == 0
    out = capsys.readouterr().out
    assert "alpha_L" in out
    assert main(["scale-check", "--config", str(path), "--q", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["commutation_pass"] is True


def test_cli_verify_filter(capsys):
    assert main(["verify", "--filter", "exponent_calculus"]) == 0
    out = capsys.readouterr().out
    assert "PASS exponent_calculus" in out


def test_cli_verify_json(capsys):
    assert main(["verify", "--filter", "parseval", "--json"]) == 0
    results = json.loads(capsys.readouterr().out)
    assert results[0]["name"] == "parseval"
    assert results[0]["passed"] is True


def test_nshd_threads_env_respected(tmp_path, monkeypatch):
    monkeypatch.setenv("NSHD_THREADS", "1")
    path = make_config(tmp_path, **{"solver.t_end": 0.02})
    config = load_config(path)
    summary = sweep(config, [0.9, 1.1], tmp_path / "sw_serial")
    assert len(summary.rows) == 2


def test_cli_sweep_non_integer_threads_exit_1(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NSHD_THREADS", "two")
    path = make_config(tmp_path, **{"solver.t_end": 0.02})
    out = tmp_path / "sw"
    code = main(["sweep", "--config", str(path), "--alphas", "0.9,1.1",
                 "--out", str(out)])
    assert code == 1
    assert "NSHD_THREADS" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_parallel_matches_serial(tmp_path, monkeypatch):
    path = make_config(
        tmp_path,
        initial_condition={"kind": "random_band", "seed": 8, "band": [1, 4]},
        **{"solver.t_end": 0.02},
    )
    config = load_config(path)
    monkeypatch.setenv("NSHD_THREADS", "1")
    sweep(config, [0.9, 1.1], tmp_path / "serial")
    monkeypatch.setenv("NSHD_THREADS", "2")
    sweep(config, [0.9, 1.1], tmp_path / "parallel")
    a = (tmp_path / "serial" / "sweep_summary.csv").read_bytes()
    b = (tmp_path / "parallel" / "sweep_summary.csv").read_bytes()
    assert a == b


def test_run_resolution_loss_exit_3(tmp_path):
    # energy parked on the shell just below the dealias cutoff trips the
    # resolution-loss flag
    path = make_config(
        tmp_path,
        initial_condition={"kind": "random_band", "seed": 12, "band": [9, 10]},
        **{"solver.t_end": 0.02},
    )
    record = run_config(load_config(path), tmp_path / "hot")
    assert record.status == "resolution_loss"
    assert record.exit_code == 3
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "hot2")])
    assert code == 3


def test_run_status_is_the_gravest_flag_of_any_record(tmp_path):
    # the band decays below the resolution-loss threshold within the run:
    # records 0 and 10 carry the flag, the final record does not
    path = make_config(
        tmp_path,
        initial_condition={"kind": "random_band", "seed": 12, "band": [9, 10]},
        **{"solver.t_end": 0.3, "solver.diag_stride": 10},
    )
    record = run_config(load_config(path), tmp_path / "cooled")
    flags = [line.rsplit(",", 1)[1] for line in
             Path(record.csv_path).read_text().splitlines()[1:]]
    assert flags[0] == "resolution_loss" and flags[-1] == ""
    assert record.first_flag_time["resolution_loss"] == 0.0
    assert record.status == "resolution_loss"
    assert record.exit_code == 3
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "cooled2")])
    assert code == 3


def test_run_diverged_exit_2(tmp_path):
    # overflow amplitude produces non-finite coefficients immediately; the
    # run must stop cleanly with the diverged status
    path = make_config(
        tmp_path,
        initial_condition={"kind": "random_band", "seed": 13, "band": [1, 3],
                           "amplitude": 1e200},
        **{"solver.t_end": 1.0},
    )
    record = run_config(load_config(path), tmp_path / "boom")
    assert record.status == "diverged"
    assert record.exit_code == 2
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "boom2")])
    assert code == 2


def test_cli_verify_no_match_exit_1():
    assert main(["verify", "--filter", "no_such_property_name"]) == 1


# -- threads ---------------------------------------------------------------------


def one_step_config(tmp_path, n, N):
    dt = 2.0 ** -10
    return load_config(make_config(
        tmp_path, name=f"run{n}d{N}.json",
        solver={"n": n, "N": N, "alpha": 1.25 if n == 3 else 1.0, "nu": 1.0,
                "t_end": dt, "dt_max": dt, "diag_stride": 1},
        initial_condition={"kind": "random_band", "seed": 21, "band": [1, 4]},
    ))


def usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@pytest.fixture
def step_workers(monkeypatch):
    """scipy.fft.get_workers() at every IF-RK4 step, from every caller."""
    seen = []
    original = dynamics.if_rk4_step

    def spy(*args, **kwargs):
        seen.append(scipy.fft.get_workers())
        return original(*args, **kwargs)

    monkeypatch.setattr(dynamics, "if_rk4_step", spy)
    monkeypatch.setattr(verify, "if_rk4_step", spy)
    return seen


@pytest.mark.parametrize("value", ["two", "0", "-1", ""])
def test_thread_budget_rejects_non_positive(monkeypatch, value):
    monkeypatch.setenv("NSHD_THREADS", value)
    with pytest.raises(ConfigError, match="NSHD_THREADS"):
        thread_budget()


def test_thread_budget_capped_at_usable_cpus(monkeypatch):
    usable = usable_cpus()
    monkeypatch.delenv("NSHD_THREADS", raising=False)
    assert thread_budget() == usable
    monkeypatch.setenv("NSHD_THREADS", "100000")
    assert thread_budget() == usable
    monkeypatch.setenv("NSHD_THREADS", "1")
    assert thread_budget() == 1


def test_thread_budget_without_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setenv("NSHD_THREADS", "100000")
    assert thread_budget() == 3


# the largest measured lattice of each dimension that stays on one worker, and
# the smallest that steps on the budget (harness.FFT_THREAD_POINTS)
BELOW_GATE = ((3, 30), (2, 192))
AT_GATE = ((3, 32), (2, 256))


@pytest.mark.parametrize("budget", [1, 2, 3, 4])
def test_sweep_threads_stay_within_budget(budget):
    below = [SimpleNamespace(n=n, N=N) for n, N in BELOW_GATE]
    at = [SimpleNamespace(n=n, N=N) for n, N in (*AT_GATE, (3, 64))]
    for n_alphas in range(1, 6):
        for cfg in (*below, *at):
            alpha_threads, fft_workers = sweep_threads(n_alphas, budget, cfg)
            assert 1 <= alpha_threads <= n_alphas
            assert fft_workers >= 1
            assert alpha_threads * fft_workers <= budget
        for cfg in below:
            assert sweep_threads(n_alphas, budget, cfg)[1] == 1
    for cfg in at:
        assert sweep_threads(1, budget, cfg) == (1, budget)


def test_sweep_threads_two_by_one_for_four_alphas():
    assert sweep_threads(4, 2, SimpleNamespace(n=3, N=64)) == (2, 1)
    assert sweep_threads(4, 2, SimpleNamespace(n=2, N=256)) == (2, 1)


@pytest.mark.parametrize("value", ["two", "0", "-1"])
def test_cli_run_bad_threads_exit_1(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("NSHD_THREADS", value)
    out = tmp_path / "out"
    code = main(["run", "--config", str(make_config(tmp_path)), "--out", str(out)])
    assert code == 1
    assert "NSHD_THREADS" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n,N", [pytest.param(n, N, id=f"{n}d_n{N}")
                                 for n, N in ((3, 64), *AT_GATE)])
def test_threaded_run_is_byte_identical(tmp_path, monkeypatch, step_workers, n, N):
    config = one_step_config(tmp_path, n, N)
    outputs = []
    for threads in (1, 2):
        monkeypatch.setenv("NSHD_THREADS", str(threads))
        del step_workers[:]
        out = tmp_path / f"threads{threads}"
        record = run_config(config, out)
        workers = min(threads, usable_cpus())
        assert record.fft_workers == workers
        assert step_workers == [workers]
        assert json.loads((out / "run_summary.json").read_text())["fft_workers"] == workers
        outputs.append((Path(record.csv_path).read_bytes(),
                        Path(record.checkpoint_path).read_bytes()))
    assert outputs[0] == outputs[1]


def test_threaded_3d_n32_scale_check_is_identical(tmp_path, monkeypatch, step_workers):
    config = one_step_config(tmp_path, 3, 32)
    reports = []
    for threads in (1, 2):
        monkeypatch.setenv("NSHD_THREADS", str(threads))
        del step_workers[:]
        reports.append(dataclasses.asdict(scale_check(config, 2)))
        assert step_workers == [min(threads, usable_cpus())] * 2
    assert reports[0]["commutation_pass"] and reports[0]["energy_ratio_pass"]
    assert reports[0] == reports[1]


def test_small_lattices_and_verify_step_on_one_worker(tmp_path, monkeypatch, step_workers):
    monkeypatch.setenv("NSHD_THREADS", "2")
    for n, N in (*BELOW_GATE, (2, 32)):
        out = tmp_path / f"out{n}d{N}"
        assert run_config(one_step_config(tmp_path, n, N), out).fft_workers == 1
        assert json.loads((out / "run_summary.json").read_text())["fft_workers"] == 1
    assert step_workers == [1] * 3
    assert scale_check(one_step_config(tmp_path, 3, 30), 1).passed
    assert step_workers == [1] * 5
    results = verify.run_verification()
    assert all(r.passed for r in results)
    assert len(step_workers) > 2 and set(step_workers) == {1}


# -- inputs that are config errors -----------------------------------------------------


@pytest.mark.parametrize("literal", ["Infinity", "NaN", "1e400",
                                     pytest.param("1" + "0" * 400, id="10**400")])
@pytest.mark.parametrize("key", ["solver.t_end", "solver.alpha",
                                 "initial_condition.amplitude"])
def test_non_finite_config_number_exit_1(tmp_path, capsys, key, literal):
    path = make_config(tmp_path, **{key: "NON_FINITE"})
    path.write_text(path.read_text().replace('"NON_FINITE"', literal))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    assert "invalid config" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("q", ["0", "100"])
def test_cli_scale_check_bad_q_exit_1(tmp_path, capsys, q):
    path = make_config(tmp_path, **{"solver.t_end": 0.05})
    assert main(["scale-check", "--config", str(path), "--q", q]) == 1
    assert "invalid config: q:" in capsys.readouterr().err


@pytest.mark.parametrize("alphas", ["-1", "0", "nan", "inf", "0.9,nan",
                                    "1.0,1.0000001",  # one alpha_1 directory
                                    "1.0,abc"])  # not a list of numbers
def test_cli_sweep_bad_alpha_exit_1_without_output(tmp_path, capsys, alphas):
    path = make_config(tmp_path, **{"solver.t_end": 0.02})
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(path), "--alphas", alphas,
                 "--out", str(out)]) == 1
    assert "invalid config: alphas:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("key,value", [
    ("solver.N", 4),
    ("solver.N", 1024),
    ("initial_condition.seed", -1),  # Philox rejects it, after --out exists
    ("initial_condition.seed", 2**64),  # the checkpoint stores a u64, after the run
])
def test_cli_out_of_bounds_config_exit_1_without_output(tmp_path, capsys, command,
                                                        key, value):
    ic = {"kind": "random_band", "seed": 1, "band": [1, 3]}
    path = make_config(tmp_path, initial_condition=ic, **{key: value})
    out = tmp_path / "out"
    argv = [command, "--config", str(path), "--out", str(out)]
    if command == "sweep":
        argv += ["--alphas", "0.9,1.1"]
    assert main(argv) == 1
    assert f"invalid config: {key}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("band,slope", [
    ([1, 8], 400.0),  # 8^400 overflowed: an all-NaN field that ran as "diverged"
    ([2, 8], -1000.0),  # 2^-1000 squared is 0: EmptyBand after --out existed
], ids=["8^400", "2^-1000"])
def test_cli_out_of_range_spectrum_slope_exit_1_without_output(tmp_path, capsys, command,
                                                               band, slope):
    ic = {"kind": "random_band", "seed": 1, "band": band, "spectrum_slope": slope}
    path = make_config(tmp_path, initial_condition=ic)
    out = tmp_path / "out"
    argv = [command, "--config", str(path), "--out", str(out)]
    if command == "sweep":
        argv += ["--alphas", "0.9,1.1"]
    assert main(argv) == 1
    assert "invalid config: initial_condition.spectrum_slope: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    [],
    ["simulate"],
    ["run", "--config", "run.json"],
    ["scale-check", "--config", "run.json", "--q", "abc"],
    ["exponents", "--n", "abc"],
], ids=["no_command", "unknown_command", "run_without_out", "q_not_int", "n_not_int"])
def test_cli_usage_error_exit_1(capsys, argv):
    assert main(argv) == 1  # argparse's own code, 2, would read as "diverged"
    assert "usage: nshd" in capsys.readouterr().err


def test_cli_help_exit_0(capsys):
    assert main(["--help"]) == 0
    assert "usage: nshd" in capsys.readouterr().out


@pytest.mark.parametrize("kind", ["directory", "not_utf8", "deeply_nested",
                                  "not_a_directory", "name_too_long"])
def test_cli_run_unreadable_config_exit_1(tmp_path, capsys, kind):
    path = tmp_path / "cfg"
    if kind == "directory":
        path.mkdir()
    elif kind == "not_utf8":
        path.write_bytes(b"\xff\xfe" + make_config(tmp_path).read_bytes())
    elif kind == "deeply_nested":  # deeper than the JSON parser's recursion limit
        path.write_text("[" * 200000 + "]" * 200000)
    elif kind == "not_a_directory":  # a path under a regular file
        path.write_text("{}")
        path = path / "run.json"
    else:  # longer than any file name the file system takes
        path = tmp_path / ("c" * 5000)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "invalid config: <file>:" in err
    if kind == "name_too_long":  # the path is shortened, the reason kept
        assert len(err.rstrip("\n")) < 300 and "File name too long" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep", "scale-check"])
def test_cli_integer_past_the_conversion_limit_exit_1_without_output(tmp_path, capsys,
                                                                     command):
    path = make_config(tmp_path, **{"solver.N": "LONG"})
    path.write_text(path.read_text().replace('"LONG"', "9" * 5000))  # > 4300 digits
    out = tmp_path / "out"
    argv = {"run": ["--out", str(out)], "sweep": ["--alphas", "0.9,1.1", "--out", str(out)],
            "scale-check": ["--q", "2"]}[command]
    assert main([command, "--config", str(path), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid config: <file>: invalid JSON")
    assert err.count("\n") == 1 and len(err) < 200
    assert not out.exists()


def test_cli_scale_check_overflowing_energy_ratio_exit_1_before_any_step(
        tmp_path, capsys, step_workers):
    # 10^(4*100-2-2) and the zoomed energy leave float range
    path = make_config(tmp_path, **{"solver.alpha": 100.0, "solver.t_end": 0.01})
    assert main(["scale-check", "--config", str(path), "--q", "10"]) == 1
    assert "invalid config: q:" in capsys.readouterr().err
    assert step_workers == []


def test_cli_exponents_overflowing_alpha_exit_1(capsys):
    big = "1" + "0" * 400
    for argv, name in [
        (["--n", "3", "--alpha", "1e400"], "--alpha"),
        (["--n", "3", "--alpha", "1.7e308"], "--alpha"),  # the margin is 3.4e308
        (["--n", "3", "--alpha", big], "--alpha"),
        (["--n", "3", "--alpha", big + "/3"], "--alpha"),
        (["--n", big], "--n"),
    ]:
        assert main(["exponents", *argv]) == 1, argv
        out, err = capsys.readouterr()
        assert f"invalid {name}" in err and not out, argv


def test_cli_scale_check_prints_the_whole_report(tmp_path, capsys):
    path = make_config(tmp_path, **{"solver.t_end": 0.05})
    assert main(["scale-check", "--config", str(path), "--q", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == json.loads(json.dumps(
        dataclasses.asdict(scale_check(load_config(path), 2))))
    assert {"commutation_tolerance", "energy_ratio_tolerance"} <= set(report)
