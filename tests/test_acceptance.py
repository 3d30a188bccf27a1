"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s; captured
otherwise) and asserts the criterion.
"""

import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from nshd.diagnostics import moment_inequality_rhs, moment_inequality_scan
from nshd.dynamics import SolverConfig, SolverState, advance
from nshd.initial_conditions import taylor_green
from nshd.scaling import (
    apply_discrete_rescale,
    gaussian_moment,
    interpolation_ratio,
    lions_exponent,
    scaled_energy_ratio,
    solvability_margin,
)
from nshd.spectral import build_lattice, full_spectrum

from conftest import make_random_field
from test_scaling import quadrature_moment


def _report(criterion: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _collect(u0, cfg):
    records = []
    final = advance(SolverState(u=u0), cfg, records.append)
    return final, records


# 1 ------------------------------------------------------------------------------


def test_criterion_1_exact_taylor_green_decay():
    worst_rel = 0.0
    worst_time = 0.0
    lat = build_lattice(2, 64)
    tg = taylor_green(lat, 1.0)
    active = np.abs(tg.coeffs) > 0
    for alpha in (0.75, 1.0, 1.25, 1.5):
        cfg = SolverConfig(n=2, N=64, alpha=alpha, nu=1.0, t_end=1.0,
                           moment_orders=())
        t0 = time.perf_counter()
        final = advance(SolverState(u=tg), cfg)
        elapsed = time.perf_counter() - t0
        worst_time = max(worst_time, elapsed)
        decay = math.exp(-(2.0**alpha))
        expected = tg.coeffs * decay
        rel = np.max(np.abs(final.u.coeffs[active] - expected[active])
                     / np.abs(expected[active]))
        stray = np.max(np.abs(final.u.coeffs[~active])) / np.max(np.abs(expected))
        worst_rel = max(worst_rel, float(rel), float(stray))
    _report(
        "1 exact-taylor-green-decay",
        worst_rel <= 1e-8 and worst_time < 10.0,
        f"worst rel err {worst_rel:.2e}, slowest case {worst_time:.2f}s",
    )


# 2 ------------------------------------------------------------------------------


def test_criterion_2_energy_identity():
    u0 = make_random_field(n=2, N=64, seed=202, band=(1, 2), amplitude=0.5)
    cfg = SolverConfig(n=2, N=64, alpha=1.0, nu=1.0, t_end=0.25, dt_max=2e-4,
                       cfl_safety=1.0, diag_stride=1, moment_orders=(),
                       sobolev_betas=())
    _, records = _collect(u0, cfg)
    worst = 0.0
    for j in range(1, len(records) - 1):
        dedt = (records[j + 1].energy - records[j - 1].energy) / (
            records[j + 1].t - records[j - 1].t
        )
        worst = max(worst, abs(dedt + records[j].dissipation_rate)
                    / records[j].dissipation_rate)
    _report("2 energy-identity", worst <= 1e-6,
            f"worst rel residual {worst:.2e} over {len(records) - 2} times")


# 3 ------------------------------------------------------------------------------


def test_criterion_3_inviscid_conservation_and_production():
    u0 = make_random_field(n=3, N=32, seed=203, band=(1, 2), amplitude=0.5)
    cfg = SolverConfig(n=3, N=32, alpha=1.0, nu=0.0, t_end=0.5,
                       dt_max=1e-3, cfl_safety=1.0, diag_stride=5,
                       moment_orders=(), sobolev_betas=())
    _, records = _collect(u0, cfg)
    e0 = records[0].energy
    energy_drift = max(abs(r.energy - e0) for r in records) / e0
    worst_prod = 0.0
    for j in range(1, len(records) - 1):
        dzdt = (records[j + 1].enstrophy - records[j - 1].enstrophy) / (
            records[j + 1].t - records[j - 1].t
        )
        prod = records[j].enstrophy_production
        worst_prod = max(worst_prod, abs(dzdt - prod) / abs(prod))
    _report(
        "3 inviscid-conservation-and-production",
        energy_drift <= 1e-6 and worst_prod <= 1e-4,
        f"energy drift {energy_drift:.2e}, production residual {worst_prod:.2e}",
    )


# 4 ------------------------------------------------------------------------------


def test_criterion_4_scaling_criticality():
    worst_ratio = 0.0
    worst_critical = 0.0
    for n, N in ((2, 32), (3, 16)):
        u = taylor_green(build_lattice(n, N), 1.0)
        for q in (2, 3):
            for alpha in (0.75, 1.0, 1.25):
                ratio = scaled_energy_ratio(u, q, alpha)
                expected = float(q) ** (4 * alpha - 2 - n)
                worst_ratio = max(worst_ratio, abs(ratio - expected) / expected)
            a_crit = float(lions_exponent(n))
            worst_critical = max(
                worst_critical, abs(scaled_energy_ratio(u, q, a_crit) - 1.0)
            )

    worst_comm = 0.0
    u0 = make_random_field(n=2, N=64, seed=204, band=(1, 3), amplitude=0.5)
    lat = u0.lattice
    q = 2
    for alpha in (0.8, 1.0, 1.3):
        t_end = 0.2
        cfg_a = SolverConfig(n=2, N=64, alpha=alpha, nu=1.0, t_end=t_end,
                             dt_max=2e-3, cfl_safety=1.0, moment_orders=(),
                             sobolev_betas=())
        a_final = advance(SolverState(u=u0), cfg_a).u
        tf = float(q) ** (2 * alpha)
        cfg_b = SolverConfig(n=2, N=64, alpha=alpha, nu=1.0, t_end=t_end / tf,
                             dt_max=2e-3 / tf, cfl_safety=1.0, moment_orders=(),
                             sobolev_betas=())
        b_final = advance(
            SolverState(u=apply_discrete_rescale(u0, q, alpha)), cfg_b
        ).u
        sub_kmax = int(np.ceil(lat.N / 3.0 / q)) - 1
        mask = np.ones(lat.half_shape, dtype=bool)
        for g in lat.mode_grids:
            mask &= np.abs(g) <= sub_kmax
        rescaled = apply_discrete_rescale(
            a_final.with_coeffs(a_final.coeffs * mask), q, alpha
        )
        disc = np.linalg.norm(full_spectrum(rescaled.coeffs - b_final.coeffs, 2)) / (
            np.linalg.norm(full_spectrum(b_final.coeffs, 2))
        )
        worst_comm = max(worst_comm, float(disc))

    _report(
        "4 scaling-criticality",
        worst_ratio <= 1e-12 and worst_critical <= 1e-14 and worst_comm <= 1e-6,
        f"ratio err {worst_ratio:.2e}, critical err {worst_critical:.2e}, "
        f"commutation {worst_comm:.2e}",
    )


# 5 ------------------------------------------------------------------------------


def test_criterion_5_moment_inequality_monitor():
    orders = (0.0, 1.0, 2.0, 3.0, 4.0)
    runs = {}
    lat = build_lattice(2, 64)
    tg_cfg = SolverConfig(n=2, N=64, alpha=1.0, nu=1.0, t_end=0.5, dt_max=5e-4,
                          cfl_safety=1.0, diag_stride=10, moment_orders=orders,
                          sobolev_betas=())
    _, runs["taylor_green"] = _collect(taylor_green(lat, 1.0), tg_cfg)
    u0 = make_random_field(n=2, N=64, seed=205, band=(1, 3), amplitude=0.7)
    _, runs["random"] = _collect(u0, tg_cfg)

    worst_violation = -math.inf
    n_samples = 0
    for records in runs.values():
        assert len(records) >= 100  # "100 diagnostic times"
        for m in (0, 1, 2):
            for i in (0, 1):
                for s in moment_inequality_scan(records, i, m, 1.0, 1.0):
                    worst_violation = max(worst_violation, -(s.residual + s.tol))
                    n_samples += 1

    rhs0 = moment_inequality_rhs(runs["taylor_green"][0], 0, 0, 1.0, 1.0)
    rhs_err = abs(rhs0 - (2 * math.sqrt(2.0) - 1.0))

    _report(
        "5 moment-inequality-monitor",
        worst_violation <= 0.0 and rhs_err <= 1e-6,
        f"{n_samples} samples, worst violation {worst_violation:.2e}, "
        f"t0 rhs err {rhs_err:.2e}",
    )


# 6 ------------------------------------------------------------------------------


def test_criterion_6_interpolation_ratio_invariance():
    worst_var = 0.0
    for n in (2, 3):
        for ell, m in ((0, 2), (1, 3), (2, 4)):
            vals = [interpolation_ratio(n, ell, m, s) for s in (0.25, 0.5, 1.0, 2.0, 4.0)]
            ref = vals[2]
            worst_var = max(worst_var, max(abs(v - ref) / ref for v in vals))
    worst_quad = 0.0
    for n in (1, 2, 3):
        for ell in (0, 1, 2, 3, 4):
            for sigma in (0.5, 1.0, 2.0):
                closed = gaussian_moment(n, ell, sigma)
                quad = quadrature_moment(n, ell, sigma)
                worst_quad = max(worst_quad, abs(closed - quad) / quad)
    known = abs(gaussian_moment(2, 0, 1.0) - 2 * math.pi)
    _report(
        "6 interpolation-ratio-invariance",
        worst_var < 1e-10 and worst_quad <= 1e-10 and known <= 1e-10,
        f"sigma variation {worst_var:.2e}, quadrature err {worst_quad:.2e}",
    )


# 7 ------------------------------------------------------------------------------


def test_criterion_7_max_norm_bound():
    from nshd.diagnostics import max_norm_bound_check

    worst_margin = -math.inf
    for seed in range(50):
        u = make_random_field(n=2, N=32, seed=300 + seed, band=(1, 6))
        for order in (0, 1, 2):
            for chk in max_norm_bound_check(u, order):
                worst_margin = max(worst_margin, chk.lhs - chk.rhs)
    tg = taylor_green(build_lattice(2, 32), 1.0)
    eq_err = 0.0
    for order in (0, 1, 2):
        for chk in max_norm_bound_check(tg, order):
            worst_margin = max(worst_margin, chk.lhs - chk.rhs)
            if order == 0:
                eq_err = max(eq_err, abs(chk.lhs - 1.0), abs(chk.rhs - 1.0))
    _report(
        "7 max-norm-bound",
        worst_margin <= 1e-10 and eq_err <= 1e-12,
        f"worst lhs-rhs {worst_margin:.2e}, TG equality err {eq_err:.2e}",
    )


# 8 ------------------------------------------------------------------------------


def test_criterion_8_exponent_calculus():
    ok = lions_exponent(2) == 1 and lions_exponent(3) == Fraction(5, 4)
    for n in range(2, 65):
        margin, label = solvability_margin(n, lions_exponent(n))
        ok = ok and margin == 0 and label == "critical"
    _report("8 exponent-calculus", ok)


# 9 ------------------------------------------------------------------------------


def test_criterion_9_order_of_accuracy():
    u0 = make_random_field(n=2, N=32, seed=209, band=(1, 4), amplitude=4.0)
    base = dict(n=2, N=32, alpha=1.0, nu=0.005, t_end=0.4, cfl_safety=1.0,
                moment_orders=(), sobolev_betas=(), diag_stride=10**9)

    def run(dt):
        cfg = SolverConfig(dt_max=dt, **base)
        return advance(SolverState(u=u0), cfg).u.coeffs

    ref = run(0.4 / 1024)
    dts = [0.02, 0.01, 0.005, 0.0025]
    errs = [float(np.linalg.norm(run(dt) - ref)) for dt in dts]
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    _report(
        "9 order-of-accuracy",
        3.8 <= slope <= 4.2,
        f"observed order {slope:.3f}, errors {['%.2e' % e for e in errs]}",
    )


# 10 -----------------------------------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    from nshd.config import parse_config
    from nshd.harness import run_config

    doc = {
        "schema_version": 1,
        "solver": {"n": 2, "N": 32, "alpha": 1.0, "nu": 0.5, "t_end": 0.1,
                   "diag_stride": 5, "moment_orders": [0, 1, 2]},
        "initial_condition": {"kind": "random_band", "seed": 2026,
                              "band": [1, 5], "amplitude": 0.9},
    }
    config = parse_config(doc)
    a = run_config(config, tmp_path / "a")
    b = run_config(config, tmp_path / "b")
    same = Path(a.csv_path).read_bytes() == Path(b.csv_path).read_bytes()
    _report("10 determinism", same, "diagnostics CSV bit-identical")
