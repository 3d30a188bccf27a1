"""Experiment orchestration: single runs, alpha sweeps, scaling checks.

Each run writes three artifacts into its output directory:
    diagnostics.csv        fixed-schema diagnostics stream
    final_checkpoint.nshd  binary spectral checkpoint of the final state
    run_summary.json       config snapshot, wall times, terminal status
These three and a sweep's sweep_summary.csv/.json are written through
`checkpoint.atomic_open`, so a failed write, or a run that fails while its
CSV streams, leaves the previous file in place.

`scale_check` runs `scaling.energy_ratio_error`, which needs no step, and
then `scaling.zoom_commutation`, as verify's solution_map_commutation does
with its fixed-step loop, but evolving by `advance` (the zoomed run on t_end
and dt_max divided by q^(2*alpha)), both against the bounds `scaling`
declares.

Exit-code taxonomy (used by the CLI): 0 completed, 1 invalid config,
2 diverged, 3 resolution loss, 4 unwritable output.  A run's status is the
gravest flag carried by any of its records, a sweep's exit code that of its
gravest row.  The flag names and their order, gravest first, are
`diagnostics.FLAGS` (diverged, resolution_loss); "completed" ranks below
them.  The last record's own flags stay in the last row of diagnostics.csv.  Sweep rows
come from the RunRecord that `run_config` folds from its in-memory records;
each alpha runs in its own directory `alpha_{alpha:g}`.

Threads are decided here and nowhere else.  The budget is `NSHD_THREADS`
(a positive integer) if set, else the usable CPUs, and never more than the
usable CPUs.  `run_config` and `scale_check` step inside
`scipy.fft.set_workers(k)`: k is the budget on lattices of at least
FFT_THREAD_POINTS = 2^18 points (3D N >= 64, 2D N >= 512) and 1 below.  Two
pocketfft workers measured slower than one below 2^18 points before the row
slabs put a step's pointwise work on the second core too; since then, steps
at 2D N=256 and 3D N=48 on 2 workers and 2 slabs won 5 of 5 alternating
rounds against 1 and 1 on a 2-vCPU VM (ROADMAP item 15).  The gate moves
once a 3D N=48 benchmark workload measures the crossover.  `sweep` runs
min(alphas, budget) alphas at once and gives each run budget // that many
FFT workers, so alpha threads x FFT workers never exceeds the budget.
Everything else, the verify suite included, keeps scipy's default of one
worker.  `advance` splits the step arithmetic into as many row slabs, on as
many threads, as there are FFT workers.  Threaded transforms and slabs are
bit-identical to serial ones, so no output depends on the thread count.
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import scipy.fft

from .checkpoint import atomic_open, write_checkpoint
from .config import ConfigError, RunConfig
from .diagnostics import FLAGS, csv_header, csv_row
from .dynamics import SolverState, advance
from .initial_conditions import build_initial_field
from .scaling import (
    COMMUTATION_TOL,
    ENERGY_RATIO_TOL,
    energy_ratio_error,
    lions_exponent,
    zoom_commutation,
)

STATUS_COMPLETED = "completed"  # a run's status is this or the gravest of its FLAGS

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_RESOLUTION_LOSS = 3
EXIT_OUTPUT = 4

FFT_THREAD_POINTS = 2 ** 18  # smallest lattice whose runs transform on the budget

_STATUS_EXIT = dict(zip((*FLAGS, STATUS_COMPLETED),
                        (EXIT_DIVERGED, EXIT_RESOLUTION_LOSS, EXIT_OK), strict=True))


def _gravest(statuses) -> str:
    """The gravest of the given statuses or flag names; completed if none."""
    statuses = set(statuses)
    return next((s for s in FLAGS if s in statuses), STATUS_COMPLETED)


class OutputError(OSError):
    """The output directory could not be created or written."""


@dataclass(frozen=True)
class RunRecord:
    config: dict
    started_at: str
    finished_at: str
    final_time: float
    final_step: int
    final_energy: float
    status: str
    csv_path: str
    checkpoint_path: str
    fft_workers: int
    initial_energy: float
    max_enstrophy: float
    max_moments: dict      # order -> max over records and components
    first_flag_time: dict  # flag name -> t of the first record carrying it, or None

    @property
    def exit_code(self) -> int:
        return _STATUS_EXIT[self.status]


@dataclass(frozen=True)
class SweepRow:
    alpha: float
    status: str
    max_enstrophy: float
    max_m1: float
    resolution_loss_time: float | None
    energy_ratio: float
    is_lions_exponent: bool


@dataclass(frozen=True)
class SweepSummary:
    n: int
    alpha_lions: float
    alpha_list: tuple
    rows: tuple  # of SweepRow

    @property
    def exit_code(self) -> int:
        return _STATUS_EXIT[_gravest(row.status for row in self.rows)]


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _prepare_out_dir(out_dir):
    try:
        os.makedirs(out_dir, exist_ok=True)
        probe = os.path.join(out_dir, ".write_probe")
        with open(probe, "w") as fh:
            fh.write("")
        os.remove(probe)
    except OSError as exc:
        raise OutputError(f"cannot write to output directory {out_dir}: {exc}") from exc


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def thread_budget() -> int:
    """Threads nshd may use: NSHD_THREADS if set, else the usable CPUs; never more."""
    usable = _usable_cpus()
    env = os.environ.get("NSHD_THREADS")
    if env is None:
        return usable
    try:
        budget = int(env)
    except ValueError:
        budget = 0
    if budget < 1:
        raise ConfigError("NSHD_THREADS", f"must be a positive integer, got {env!r}")
    return min(budget, usable)


def _fft_workers(cfg, budget: int) -> int:
    return budget if cfg.N ** cfg.n >= FFT_THREAD_POINTS else 1


def sweep_threads(n_alphas: int, budget: int, cfg) -> tuple[int, int]:
    """(alpha threads, FFT workers per run) of a sweep; the product is <= budget."""
    alpha_threads = max(1, min(n_alphas, budget))
    return alpha_threads, _fft_workers(cfg, budget // alpha_threads)


def run_config(config: RunConfig, out_dir, *, fft_workers: int | None = None) -> RunRecord:
    """Execute one configured run, writing all artifacts into out_dir.

    The run steps with `fft_workers` scipy.fft workers; by default the thread
    budget on lattices of FFT_THREAD_POINTS points or more, else 1.
    """
    cfg = config.solver
    if fft_workers is None:
        fft_workers = _fft_workers(cfg, thread_budget())
    _prepare_out_dir(out_dir)
    started = _now()
    lattice = cfg.make_lattice()
    u0 = build_initial_field(lattice, config.initial_condition)
    state = SolverState(u=u0)

    csv_path = os.path.join(out_dir, "diagnostics.csv")
    records = []
    with (atomic_open(csv_path, "w", encoding="utf-8", newline="\n") as fh,
          scipy.fft.set_workers(fft_workers)):
        fh.write(csv_header(cfg) + "\n")

        def sink(record):
            records.append(record)
            fh.write(csv_row(record, cfg) + "\n")

        final = advance(state, cfg, sink)

    checkpoint_path = os.path.join(out_dir, "final_checkpoint.nshd")
    seed = config.initial_condition.seed if config.initial_condition.kind == "random_band" else 0
    write_checkpoint(checkpoint_path, final.u, cfg.alpha, cfg.nu, seed=seed)

    outcome = _fold_records(records, cfg)
    record = RunRecord(
        config=config.to_dict(),
        started_at=started,
        finished_at=_now(),
        final_time=final.t,
        final_step=final.step_count,
        final_energy=records[-1].energy,
        status=_gravest(name for name, t in outcome["first_flag_time"].items()
                        if t is not None),
        csv_path=csv_path,
        checkpoint_path=checkpoint_path,
        fft_workers=fft_workers,
        **outcome,
    )
    with atomic_open(os.path.join(out_dir, "run_summary.json"), "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(record), fh, indent=2)
        fh.write("\n")
    return record


def _fold_records(records, cfg) -> dict:
    """The outcome fields of a RunRecord, in one pass over the records in order.

    The maxima fold with the builtin max from -inf in record order, so NaN
    values are skipped and a quantity that is NaN in every record gives -inf.
    """
    max_enstrophy = -math.inf
    max_moments = dict.fromkeys(cfg.moment_orders, -math.inf)
    first_flag_time = dict.fromkeys(FLAGS)
    for rec in records:
        max_enstrophy = max(max_enstrophy, rec.enstrophy)
        for m in max_moments:
            max_moments[m] = max(max_moments[m], *(rec.moments[i][m] for i in range(cfg.n)))
        for name in rec.flags:
            if first_flag_time[name] is None:
                first_flag_time[name] = rec.t
    return {
        "initial_energy": records[0].energy,
        "max_enstrophy": max_enstrophy,
        "max_moments": max_moments,
        "first_flag_time": first_flag_time,
    }


def sweep(config: RunConfig, alphas, out_dir) -> SweepSummary:
    """Run the same IC/config across a list of alphas; one row per alpha.

    Each run writes into `alpha_{alpha:g}` under out_dir.  Every per-alpha
    config and directory name is checked before the output directory is
    made, so an alpha that no run accepts, or two alphas that share a
    directory name, is a config error that leaves no files.
    """
    alphas = sorted(float(a) for a in alphas)
    if not alphas:
        raise ConfigError("alphas", "need at least one alpha")
    dirs = [f"alpha_{a:g}" for a in alphas]
    for name in dirs:
        if dirs.count(name) > 1:
            same = ", ".join(repr(a) for a, d in zip(alphas, dirs) if d == name)
            raise ConfigError("alphas", f"duplicate run directory {name} for alphas {same}")
    orders = tuple(sorted({*config.solver.moment_orders, 1.0}))  # rows track max M_1
    try:
        subs = [RunConfig(solver=dataclasses.replace(config.solver, alpha=alpha,
                                                     moment_orders=orders),
                          initial_condition=config.initial_condition)
                for alpha in alphas]
    except ConfigError as exc:
        raise ConfigError("alphas", f"{exc.field} {exc.reason}") from exc
    workers, fft_workers = sweep_threads(len(alphas), thread_budget(), config.solver)
    _prepare_out_dir(out_dir)

    def one(sub: RunConfig, name: str) -> SweepRow:
        record = run_config(sub, os.path.join(out_dir, name), fft_workers=fft_workers)
        return _read_row_metrics(record, sub)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = tuple(pool.map(one, subs, dirs))
    else:
        rows = tuple(map(one, subs, dirs))

    summary = SweepSummary(
        n=config.solver.n, alpha_lions=float(lions_exponent(config.solver.n)),
        alpha_list=tuple(alphas), rows=rows,
    )
    _write_sweep_files(summary, out_dir)
    return summary


def _read_row_metrics(record: RunRecord, config: RunConfig) -> SweepRow:
    """The sweep row of one run, from its RunRecord; reads no file."""
    alpha = config.solver.alpha
    return SweepRow(
        alpha=alpha,
        status=record.status,
        max_enstrophy=record.max_enstrophy,
        max_m1=record.max_moments[1.0],
        resolution_loss_time=record.first_flag_time["resolution_loss"],
        energy_ratio=(record.final_energy / record.initial_energy
                      if record.initial_energy else math.nan),
        is_lions_exponent=(alpha == float(lions_exponent(config.solver.n))),
    )


def _sweep_cell(value) -> str:
    """A sweep_summary.csv cell: None empty, bools lower-case, strings as they
    are, floats by repr."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    return value if isinstance(value, str) else repr(value)


def _write_sweep_files(summary: SweepSummary, out_dir) -> None:
    """sweep_summary.csv, one column per SweepRow field (max_m1 headed max_M1),
    and sweep_summary.json."""
    names = [f.name for f in dataclasses.fields(SweepRow)]
    csv_path = os.path.join(out_dir, "sweep_summary.csv")
    with atomic_open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join("max_M1" if name == "max_m1" else name for name in names) + "\n")
        for row in summary.rows:
            fh.write(",".join(_sweep_cell(getattr(row, name)) for name in names) + "\n")
    with atomic_open(os.path.join(out_dir, "sweep_summary.json"), "w",
                     encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(summary), fh, indent=2)
        fh.write("\n")


@dataclass(frozen=True)
class ScaleCheckReport:
    q: int
    alpha: float
    n: int
    t_end: float
    commutation_discrepancy: float
    truncated_tail_fraction: float
    commutation_tolerance: float
    commutation_pass: bool
    energy_ratio: float
    energy_ratio_expected: float
    energy_ratio_error: float
    energy_ratio_tolerance: float
    energy_ratio_pass: bool

    @property
    def passed(self) -> bool:
        return self.commutation_pass and self.energy_ratio_pass


def scale_check(config: RunConfig, q: int) -> ScaleCheckReport:
    """Solution-map commutation and energy-scaling checks for zoom factor q.

    A bad q, a zoom past the 2/3 rule or an energy ratio out of float range
    is ConfigError("q") before any step.
    """
    cfg = config.solver
    alpha = cfg.alpha
    u0 = build_initial_field(cfg.make_lattice(), config.initial_condition)
    try:
        ratio, expected, ratio_err = energy_ratio_error(u0, q, alpha)
    except ValueError as exc:  # q not a positive integer, or RescaleOverflow
        raise ConfigError("q", str(exc)) from exc

    evolve = lambda u, tf: advance(SolverState(u=u), dataclasses.replace(
        cfg, t_end=cfg.t_end / tf, dt_max=cfg.dt_max / tf)).u
    with scipy.fft.set_workers(_fft_workers(cfg, thread_budget())):
        discrepancy, dropped = zoom_commutation(u0, q, alpha, evolve)

    return ScaleCheckReport(
        q=int(q), alpha=float(alpha), n=cfg.n, t_end=cfg.t_end,
        commutation_discrepancy=discrepancy,
        truncated_tail_fraction=dropped,
        commutation_tolerance=COMMUTATION_TOL,
        commutation_pass=discrepancy <= COMMUTATION_TOL,
        energy_ratio=ratio,
        energy_ratio_expected=expected,
        energy_ratio_error=ratio_err,
        energy_ratio_tolerance=ENERGY_RATIO_TOL,
        energy_ratio_pass=ratio_err <= ENERGY_RATIO_TOL,
    )
