"""The four benchmark workloads: inputs from a seed, the timed call, and the checks.

Inputs are run configs only (the program receives a ``RunConfig``).  Every
config fixes the number of IF-RK4 steps: ``dt_max`` is an exact binary
fraction far below the CFL limit and ``t_end`` is a whole number of steps.
Correctness is judged by invariants that hold for any seed, not by byte
equality, because later changes reorder arithmetic on purpose.

run.py imports this module too and must fail cleanly where the nshd sources
are missing, so numpy and nshd are imported inside the functions that only
the sample process calls.
"""

from __future__ import annotations

import dataclasses
import glob
import json
import math
import os
from dataclasses import dataclass
from types import SimpleNamespace

DT = 2.0 ** -10  # binding step: CFL allows > 10x more at amplitude 1
ALPHA_L3 = 1.25  # alpha_L(3) = (2 + 3) / 4
SWEEP_ALPHAS = (0.6, 0.8, 1.0, 1.2)  # straddle alpha_L(2) = 1
ROUNDOFF = 1e-12  # relative; observed defects are below 1e-15


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "run", "sweep" or "verify"
    n: int = 3
    N: int = 32
    steps: int = 0
    diag_stride: int = 1
    moment_orders: tuple = (0, 1, 2)
    sobolev_betas: tuple = (0, 1)
    smoke_N: int = 16
    smoke_steps: int = 2

    def config(self, ic_seed: int, smoke: bool) -> dict:
        steps = self.smoke_steps if smoke else self.steps
        return {
            "schema_version": 1,
            "solver": {
                "n": self.n, "N": self.smoke_N if smoke else self.N,
                "alpha": ALPHA_L3 if self.n == 3 else 1.0, "nu": 1.0,
                "t_end": steps * DT, "dt_max": DT,
                "diag_stride": min(self.diag_stride, steps + 1),
                "moment_orders": list(self.moment_orders),
                "sobolev_betas": list(self.sobolev_betas),
            },
            "initial_condition": {
                "kind": "random_band", "amplitude": 1.0, "seed": ic_seed,
                "band": [1, 4], "spectrum_slope": 0.0,
            },
        }

    def rhs_batch_bytes(self, smoke: bool = False) -> int:
        """Computed working set of one RHS: the (n + n^2)-component complex batch."""
        N = self.smoke_N if smoke else self.N
        return (self.n + self.n * self.n) * N ** self.n * 16


WORKLOADS = {
    w.name: w
    for w in (
        # ~90% of wall time in the RHS, the IF-RK4 step and CFL; diagnostics
        # run only at the first and last record (about a tenth at 6 steps).
        Workload("run3d_n64", "run", n=3, N=64, steps=6, diag_stride=7),
        # a diagnostics record and a CSV row after every step; at N=32 the
        # per-call Python overhead is a larger share than at N=64.
        Workload("diag3d_n32", "run", n=3, N=32, steps=16, diag_stride=1,
                 moment_orders=(0, 1, 2, 3), sobolev_betas=(0, 1, 2)),
        # 2D transforms, two worker threads, a checkpoint and CSV per alpha.
        Workload("sweep2d_n256", "sweep", n=2, N=256, steps=10, diag_stride=5,
                 smoke_N=32),
        # 23 properties at N <= 32: many small calls, the verify stepping loop.
        Workload("verify_suite", "verify", n=2, N=64),
    )
}


def expected_records(steps: int, stride: int) -> int:
    return 1 + steps // stride + (1 if steps % stride else 0)


# -- the timed call ---------------------------------------------------------------


def setup(nshd, workload: Workload, config_path: str):
    """What `nshd run` pays before its first step: config, lattice, initial field."""
    if workload.kind == "verify":
        return None
    config = nshd.load_config(config_path)
    lattice = config.solver.make_lattice()
    nshd.build_initial_field(lattice, config.initial_condition)
    return config


def call(nshd, workload: Workload, config, out_dir: str):
    if workload.kind == "run":
        return nshd.run_config(config, out_dir)
    if workload.kind == "sweep":
        return nshd.sweep(config, SWEEP_ALPHAS, out_dir)
    return nshd.run_verification()


def sweep_workers() -> int:
    """Worker threads harness.sweep uses for the four alphas."""
    return max(1, min(len(SWEEP_ALPHAS), int(os.environ.get("NSHD_THREADS", "1"))))


# -- correctness ------------------------------------------------------------------


def corrupt_checkpoints(out_dir: str) -> int:
    """Overwrite the coefficient body of every checkpoint under out_dir with NaN."""
    import nshd

    paths = glob.glob(os.path.join(out_dir, "**", "*.nshd"), recursive=True)
    for path in paths:
        u, meta = nshd.read_checkpoint(path)
        nshd.write_checkpoint(path, u.with_coeffs(u.coeffs * math.nan),
                              meta.alpha, meta.nu, seed=meta.seed)
    return len(paths)


def _check_run(nshd, record, config, steps: int) -> list[str]:
    from nshd.spectral import divergence_defect, hermitian_defect
    import numpy as np

    cfg = config.solver
    tag = f"alpha={cfg.alpha:g}"
    problems = []
    if record.status != "completed":
        problems.append(f"{tag}: status {record.status}")
    if record.final_step != steps:
        problems.append(f"{tag}: {record.final_step} steps, expected {steps}")

    u, meta = nshd.read_checkpoint(record.checkpoint_path)
    scale = float(np.max(np.abs(u.coeffs)))
    if not np.all(np.isfinite(u.coeffs)) or not scale > 0:
        return problems + [f"{tag}: checkpoint coefficients not finite and nonzero"]
    if (u.lattice.n, u.lattice.N) != (cfg.n, cfg.N) or meta.time != record.final_time:
        problems.append(f"{tag}: checkpoint header does not match the final state")
    e = nshd.energy(u)
    if abs(e - record.final_energy) > ROUNDOFF * record.final_energy:
        problems.append(f"{tag}: checkpoint energy {e!r} != final {record.final_energy!r}")
    herm = hermitian_defect(u) / scale
    div = divergence_defect(u)
    if herm > ROUNDOFF or div > ROUNDOFF:
        problems.append(f"{tag}: hermitian defect {herm:.3g}, divergence defect {div:.3g}")

    with open(record.csv_path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        col = header.index("energy")
        energies = [float(line.split(",")[col]) for line in fh]
    want = expected_records(steps, cfg.diag_stride)
    if len(energies) != want:
        problems.append(f"{tag}: {len(energies)} diagnostics rows, expected {want}")
    for e0, e1 in zip(energies, energies[1:]):
        if not e1 <= e0 * (1.0 + ROUNDOFF):
            problems.append(f"{tag}: viscous energy rose from {e0!r} to {e1!r}")
            break
    return problems


def check(nshd, workload: Workload, config, outcome, out_dir: str) -> list[str]:
    """Problems found in the outputs of one call; empty when they are correct."""
    if workload.kind == "verify":
        if not outcome:
            return ["verify ran no property"]
        return [f"verify property FAILED: {r.name}" for r in outcome if not r.passed]
    steps = round(config.solver.t_end / DT)
    if workload.kind == "run":
        return _check_run(nshd, outcome, config, steps)

    problems = []
    if tuple(outcome.alpha_list) != SWEEP_ALPHAS:
        problems.append(f"sweep alphas {outcome.alpha_list}")
    for row in outcome.rows:
        sub = os.path.join(out_dir, f"alpha_{row.alpha:g}")
        with open(os.path.join(sub, "run_summary.json"), encoding="utf-8") as fh:
            record = SimpleNamespace(**json.load(fh))
        solver = dataclasses.replace(config.solver, alpha=row.alpha)
        problems += _check_run(nshd, record, dataclasses.replace(config, solver=solver),
                               steps)
        if row.status != record.status:
            problems.append(f"alpha={row.alpha:g}: sweep row status {row.status}")
    return problems


def steps_taken(workload: Workload, config, outcome, step_calls: int) -> int:
    """RK4 steps of one call: from the run records, else the step counter."""
    if workload.kind == "run":
        return outcome.final_step
    if workload.kind == "sweep":
        return round(config.solver.t_end / DT) * len(outcome.rows)
    return step_calls
