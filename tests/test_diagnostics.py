"""Norms, moments, the moment-inequality monitor and the max-norm bound."""

import dataclasses
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nshd.diagnostics import (
    FLAGS,
    NotEnoughSamples,
    blowup_indicator,
    compute_diagnostics,
    csv_header,
    csv_row,
    dissipation_rate,
    energy,
    enstrophy,
    enstrophy_production,
    max_norm_bound_check,
    moment_inequality_rhs,
    moment_inequality_scan,
    moment_sums,
    sobolev_norm,
    tail_fraction,
)
from nshd import spectral
from nshd.dynamics import SolverConfig, SolverState, advance, compute_pressure
from nshd.initial_conditions import taylor_green
from nshd.spectral import (
    SpectralVectorField,
    build_lattice,
    full_spectrum,
    mode_sum,
    vorticity,
)

from conftest import full_tables, grid_coords, half_of, make_random_field, zero_field


# -- scalar diagnostics ----------------------------------------------------------


def test_energy_taylor_green():
    lat = build_lattice(2, 32)
    tg = taylor_green(lat, 1.0)
    assert energy(tg) == pytest.approx(np.pi**2, rel=1e-13)
    assert energy(zero_field(lat)) == 0.0
    assert energy(tg.with_coeffs(3.0 * tg.coeffs)) == pytest.approx(
        9 * np.pi**2, rel=1e-13
    )


def test_dissipation_rate_taylor_green():
    lat = build_lattice(2, 32)
    tg = taylor_green(lat, 1.0)
    assert dissipation_rate(tg, 1.0, 1.0) == pytest.approx(4 * np.pi**2, rel=1e-13)
    # alpha = 0 reduces to 2 nu E
    assert dissipation_rate(tg, 0.0, 0.5) == pytest.approx(energy(tg), rel=1e-13)
    assert dissipation_rate(zero_field(lat), 1.0, 1.0) == 0.0


def test_moment_norm_taylor_green():
    lat = build_lattice(2, 32)
    tg = taylor_green(lat, 1.0)
    m = moment_sums(lat, tg.coeffs, [0, 1, 2])[0]
    assert m[0] == pytest.approx(1.0, rel=1e-14)
    assert m[1] == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert m[2] == pytest.approx(2.0, rel=1e-14)
    assert moment_sums(lat, zero_field(lat).coeffs, [2])[0][2] == 0.0


@given(c=st.floats(0.0, 10.0), m=st.sampled_from([0.0, 1.0, 2.0, 2.5]))
def test_moment_one_homogeneous(c, m):
    u = make_random_field(seed=51)
    a = moment_sums(u.lattice, c * u.coeffs, [m])[0][m]
    b = c * moment_sums(u.lattice, u.coeffs, [m])[0][m]
    assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("n,N", [(2, 32), (3, 16)])
def test_moment_sums_match_the_component_and_pressure_formulas(n, N):
    # the per-component velocity and the pressure moment, written out on the
    # half; the weighted-sum kernel sums in another order, so to round-off
    orders = (0.0, 1.0, 2.0, 2.5)
    lat = build_lattice(n, N)
    for u in (make_random_field(n=n, N=N, seed=56, band=(1, 4)), zero_field(lat)):
        p_hat = compute_pressure(u)
        sums = moment_sums(lat, u.coeffs, orders)
        pressure = moment_sums(lat, [p_hat], orders)
        assert len(sums) == n and len(pressure) == 1
        for m in orders:
            weights = lat.kmod_array ** float(m)
            for i in range(n):
                assert sums[i][m] == pytest.approx(mode_sum(weights * np.abs(u.coeffs[i])),
                                                   rel=1e-14, abs=0)
            assert pressure[0][m] == pytest.approx(mode_sum(weights * np.abs(p_hat)),
                                                   rel=1e-14, abs=0)


def test_enstrophy_taylor_green():
    lat = build_lattice(2, 32)
    tg = taylor_green(lat, 1.0)
    assert enstrophy(tg) == pytest.approx(2 * np.pi**2, rel=1e-13)


def test_enstrophy_equals_gradient_norm_for_divergence_free():
    # ||curl u||^2 = ||grad u||^2 = sum |k|^2 |u|^2 when div u = 0
    for n, N in ((2, 32), (3, 16)):
        u = make_random_field(n=n, N=N, seed=52, band=(1, 4))
        lat = u.lattice
        grad_sq = 0.5 * lat.volume * float(np.sum(
            full_tables(n, N).ksq_array * np.sum(np.abs(full_spectrum(u.coeffs, n)) ** 2, axis=0)))
        assert enstrophy(u) == pytest.approx(grad_sq, rel=1e-12)
        omega = full_spectrum(vorticity(u), n)
        half_omega_sq = 0.5 * lat.volume * float(np.sum(np.abs(omega) ** 2))
        assert enstrophy(u) == pytest.approx(half_omega_sq, rel=1e-14)


@pytest.mark.parametrize("n,calls", [(2, 0), (3, 1)])
def test_a_record_builds_the_vorticity_once_in_3d_and_never_in_2d(monkeypatch, n, calls):
    # the production's whole batch leads with omega, built from the gradient
    # components beside it: `spectral.vorticity` on the columns it transforms
    u = make_random_field(n=n, N=16, seed=59, band=(1, 4))
    omega, leads = spectral.vorticity(u), []
    original = spectral.coeffs_to_grid

    def spy(values, n_, **kwargs):
        if len(values) == n + n * n:
            leads.append(values[:n, ..., : kwargs["width"]].copy())
        return original(values, n_, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("nshd") and getattr(module, "coeffs_to_grid", None) is original:
            monkeypatch.setattr(module, "coeffs_to_grid", spy)
    compute_diagnostics(u, SolverConfig(n=n, N=16, alpha=1.0, t_end=1.0))
    assert len(leads) == calls
    for lead in leads:
        assert np.array_equal(lead, omega[..., : lead.shape[-1]])


def test_production_zero_in_2d():
    u = make_random_field(n=2, seed=53, band=(1, 5))
    assert enstrophy_production(u) == 0.0


def test_production_matches_enstrophy_derivative_3d():
    # centered difference of the enstrophy along an inviscid run vs the
    # quadrature of the stretching term
    u0 = make_random_field(n=3, N=32, seed=54, band=(1, 2), amplitude=0.5)
    cfg = SolverConfig(n=3, N=32, alpha=1.0, nu=0.0, t_end=0.02,
                       dt_max=1e-3, cfl_safety=1.0, diag_stride=1,
                       moment_orders=())
    records = []
    advance(SolverState(u=u0), cfg, records.append)
    ts = [r.t for r in records]
    zs = [r.enstrophy for r in records]
    prods = [r.enstrophy_production for r in records]
    worst = 0.0
    for j in range(1, len(records) - 1):
        dzdt = (zs[j + 1] - zs[j - 1]) / (ts[j + 1] - ts[j - 1])
        worst = max(worst, abs(dzdt - prods[j]) / abs(prods[j]))
    assert worst < 1e-4


def test_sobolev_norm_values():
    lat = build_lattice(2, 32)
    tg = taylor_green(lat, 1.0)
    assert sobolev_norm(zero_field(lat), 1.0) == 0.0
    assert sobolev_norm(tg, 0.0) == pytest.approx(math.sqrt(2 * energy(tg)),
                                                  rel=1e-13)
    # single shell (1 + |k|^2) = 3
    assert sobolev_norm(tg, 1.0) == pytest.approx(math.sqrt(6) * np.pi, rel=1e-13)


@given(grid=st.sampled_from([(2, 8), (2, 10), (2, 16), (2, 24), (3, 8), (3, 12)]),
       seed=st.integers(0, 2**32 - 1))
def test_half_sums_weigh_each_column_by_its_multiplicity(grid, seed):
    # the transform of a random real grid fills every mode, the k_n = N/2
    # column too, which the seeded runs' bands never reach; each sum over the
    # half equals its formula over every mode of the completed spectrum
    n, N = grid
    lat = build_lattice(n, N)
    x = np.random.default_rng(seed).standard_normal((n,) + lat.shape)
    u = SpectralVectorField(lat, spectral.grid_to_coeffs(x, n))
    full = full_spectrum(u.coeffs, n)
    per_mode = np.sum(np.abs(full) ** 2, axis=0)
    tables = full_tables(n, N)
    alpha, nu, orders, betas = 1.25, 0.7, (0.0, 1.0, 2.5), (0.0, 1.0, 2.5)

    def close(got, want):
        assert got == pytest.approx(want, rel=1e-13, abs=0)

    close(energy(u), 0.5 * lat.volume * float(np.sum(np.abs(full) ** 2)))
    close(dissipation_rate(u, alpha, nu),
          lat.volume * float(np.sum(nu * tables.kmod_array ** (2 * alpha) * per_mode)))
    close(enstrophy(u), 0.5 * lat.volume * float(np.sum(tables.ksq_array * per_mode)))
    for beta in betas:
        close(sobolev_norm(u, beta), math.sqrt(
            lat.volume * float(np.sum((1.0 + tables.ksq_array) ** beta * per_mode))))
    for i, sums in enumerate(moment_sums(lat, u.coeffs, orders)):
        for m in orders:
            close(sums[m], float(np.sum(tables.kmod_array ** m * np.abs(full[i]))))
    shell = tables.dealias_mask_array & (tables.kmax_array >= N / 3.0 - 1.0)
    close(tail_fraction(u), float(np.sum(per_mode[shell])) / float(np.sum(per_mode)))
    # Parseval: the half's mode sum, the full spectrum's and the grid quadrature
    close(lat.volume * mode_sum(np.abs(u.coeffs) ** 2), lat.cell_volume * float(np.sum(x**2)))

    # only the planes k_n = 0 and k_n = N/2 hold both members of a pair
    scale = float(np.max(np.abs(u.coeffs)))
    assert spectral.hermitian_defect(u) <= 1e-14 * scale  # the transform's round-off
    for plane in (0, N // 2):
        tampered = u.coeffs.copy()
        tampered[(0, 1) + (0,) * (n - 2) + (plane,)] += 0.5 * scale
        assert spectral.hermitian_defect(u.with_coeffs(tampered)) >= 0.5 * scale * (1 - 1e-12)


# -- moment-inequality monitor -----------------------------------------------------


def _tg_records(N=32, t_end=0.3, dt=5e-3, stride=6):
    lat = build_lattice(2, N)
    tg = taylor_green(lat, 1.0)
    cfg = SolverConfig(n=2, N=N, alpha=1.0, nu=1.0, t_end=t_end, dt_max=dt,
                       cfl_safety=1.0, diag_stride=stride,
                       moment_orders=(0.0, 1.0, 2.0, 3.0, 4.0))
    records = []
    advance(SolverState(u=tg), cfg, records.append)
    return records


def test_moment_inequality_taylor_green_hand_values():
    records = _tg_records()
    rec0 = records[0]
    # t = 0: transport 2*sqrt(2), dissipative 2, pressure term 1
    for i in (0, 1):
        rhs = moment_inequality_rhs(rec0, i, 0, 1.0, 1.0)
        assert rhs == pytest.approx(2 * math.sqrt(2.0) - 1.0, abs=1e-12)
    assert rec0.pressure_moments[1.0] == pytest.approx(1.0, abs=1e-12)
    # M_m decay exactly as e^(-2t): lhs at interior sample ~ -2 M_0
    samples = moment_inequality_scan(records, 0, 0, 1.0, 1.0)
    interior = samples[len(samples) // 2]
    expected_lhs = -2.0 * math.exp(-2.0 * interior.t)
    assert interior.lhs == pytest.approx(expected_lhs, rel=1e-3)
    # residual for m=0 is (2 sqrt(2) + 1) e^(-4t) + small FD error
    expected_res = (2 * math.sqrt(2.0) + 1.0) * math.exp(-4.0 * interior.t)
    assert interior.residual == pytest.approx(expected_res, rel=1e-3)


def test_moment_inequality_residual_nonnegative_along_taylor_green():
    records = _tg_records()
    for m in (0, 1, 2):
        for i in (0, 1):
            for sample in moment_inequality_scan(records, i, m, 1.0, 1.0):
                assert sample.satisfied, (m, i, sample)


def test_moment_inequality_residual_nonnegative_random_run():
    u0 = make_random_field(seed=55, N=32, band=(1, 3), amplitude=0.8)
    cfg = SolverConfig(n=2, N=32, alpha=1.0, nu=1.0, t_end=0.2, dt_max=2e-3,
                       cfl_safety=1.0, diag_stride=10,
                       moment_orders=(0.0, 1.0, 2.0, 3.0, 4.0))
    records = []
    advance(SolverState(u=u0), cfg, records.append)
    for m in (0, 1, 2):
        for i in (0, 1):
            for sample in moment_inequality_scan(records, i, m, 1.0, 1.0):
                assert sample.satisfied, (m, i, sample)


def test_moment_inequality_zero_field():
    lat = build_lattice(2, 16)
    cfg = SolverConfig(n=2, N=16, alpha=1.0, nu=1.0, t_end=1.0,
                       moment_orders=(0.0, 1.0, 2.0, 3.0, 4.0))
    recs = [compute_diagnostics(zero_field(lat, time=0.1 * j), cfg, step=j)
            for j in range(3)]
    samples = moment_inequality_scan(recs, 0, 0, 1.0, 1.0)
    sample = samples[len(samples) // 2]
    assert sample.lhs == 0.0 and sample.rhs == 0.0 and sample.residual == 0.0
    assert sample.satisfied


def test_moment_inequality_requires_three_records():
    records = _tg_records()
    with pytest.raises(NotEnoughSamples):
        moment_inequality_scan(records[:2], 0, 0, 1.0, 1.0)


def test_moment_inequality_missing_moment_order_is_informative():
    lat = build_lattice(2, 16)
    cfg = SolverConfig(n=2, N=16, alpha=1.0, nu=1.0, t_end=1.0,
                       moment_orders=(0.0, 1.0))
    tg = taylor_green(lat, 1.0)
    recs = [
        compute_diagnostics(tg.with_coeffs(tg.coeffs, time=0.1 * j), cfg, step=j)
        for j in range(3)
    ]
    with pytest.raises(ValueError, match="moment order"):
        moment_inequality_scan(recs, 0, 1, 1.0, 1.0)  # needs order 3 = 2a + 1


# -- max-norm bound ------------------------------------------------------------------


def test_max_norm_bound_zero_field():
    lat = build_lattice(2, 16)
    for chk in max_norm_bound_check(zero_field(lat), 0):
        assert chk.lhs == 0.0 and chk.rhs == 0.0 and chk.holds


def test_max_norm_bound_taylor_green_equality_at_order_zero():
    # all four modes align at x = pi/2, y = 0: ||u_1||_inf = M_0 = 1
    lat = build_lattice(2, 32)
    checks = max_norm_bound_check(taylor_green(lat, 1.0), 0)
    for chk in checks:
        assert chk.holds
        assert chk.lhs == pytest.approx(1.0, abs=1e-12)
        assert chk.rhs == pytest.approx(1.0, abs=1e-12)


def test_max_norm_bound_taylor_green_order_one():
    # ||d_x u_1||_inf = 1 <= M_1 = sqrt(2)
    lat = build_lattice(2, 32)
    checks = max_norm_bound_check(taylor_green(lat, 1.0), 1)
    by_key = {(c.component, c.axis): c for c in checks}
    chk = by_key[(0, 0)]
    assert chk.lhs == pytest.approx(1.0, abs=1e-12)
    assert chk.rhs == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert all(c.holds for c in checks)


@given(seed=st.integers(0, 2**32 - 1), order=st.sampled_from([0, 1, 2]))
def test_max_norm_bound_holds_on_random_fields(seed, order):
    u = make_random_field(seed=seed, N=32, band=(1, 6))
    for chk in max_norm_bound_check(u, order):
        assert chk.lhs <= chk.rhs + 1e-10


# -- blow-up indicator ----------------------------------------------------------------


def test_tail_fraction_and_flags():
    lat = build_lattice(2, 32)
    cfg = SolverConfig(n=2, N=32, alpha=1.0, nu=1.0, t_end=1.0, moment_orders=())
    low = make_random_field(seed=56, N=32, band=(1, 3))
    rec = compute_diagnostics(low, cfg)
    assert rec.tail_fraction < 1e-12
    assert rec.flags == ()

    # field concentrated on the top shell |k| in [N/3 - 1, N/3)
    coeffs = np.zeros((2,) + lat.shape, dtype=np.complex128)
    coeffs[0][10, 0] = 1.0   # |k| = 10 in [9.67, 10.67)
    coeffs[0][-10, 0] = 1.0
    hot = SpectralVectorField(lat, half_of(coeffs))
    assert tail_fraction(hot) == pytest.approx(1.0)
    rec = compute_diagnostics(hot, cfg)
    assert rec.flags == ("resolution_loss",)

    nan_field = low.with_coeffs(low.coeffs * np.nan)
    rec = compute_diagnostics(nan_field, cfg)
    assert rec.flags == ("diverged",)  # a NaN tail fraction fires no resolution_loss


def test_tail_fraction_is_the_last_shell_the_dealias_mask_keeps():
    # u = (0, 0, cos(10x + 10y)) on 3D N=32 lives at k = +-(10, 10, 0): |k| = 14.1
    # lies past N/3, but max_j |k_j| = 10 is the last Chebyshev shell the 2/3
    # rule keeps, so the whole energy is tail (a |k| shell read 3.4e-30)
    lat = build_lattice(3, 32)
    x, y, _ = grid_coords(lat)
    grid = np.stack([np.zeros_like(x), np.zeros_like(x), np.cos(10 * x + 10 * y)])
    u = SpectralVectorField(lat, spectral.grid_to_coeffs(grid, 3))
    dead = ~lat.dealias_mask_array
    assert np.max(np.abs(u.coeffs[:, dead])) < 1e-15  # round-off only
    assert tail_fraction(u) == pytest.approx(1.0, rel=1e-12)
    cfg = SolverConfig(n=3, N=32, alpha=1.25, nu=1.0, t_end=1.0)
    assert compute_diagnostics(u, cfg).flags == ("resolution_loss",)


def test_blowup_indicator_pure_function():
    lat = build_lattice(2, 32)
    cfg = SolverConfig(n=2, N=32, alpha=1.0, nu=1.0, t_end=1.0, moment_orders=())
    rec = compute_diagnostics(make_random_field(seed=57), cfg)
    flags = blowup_indicator(rec)
    assert flags == rec.flags


def with_one_value(record, path, value):
    """`record` with the number at `path` (a field, then dict keys) replaced."""
    name, *keys = path
    if not keys:
        return dataclasses.replace(record, **{name: value})
    top = {k: dict(v) if isinstance(v, dict) else v
           for k, v in getattr(record, name).items()}
    inner = top
    for key in keys[:-1]:
        inner = inner[key]
    inner[keys[-1]] = value
    return dataclasses.replace(record, **{name: top})


def test_blowup_indicator_fires_diverged_on_any_nonfinite_number():
    cfg = SolverConfig(n=3, N=16, alpha=1.0, nu=1.0, t_end=1.0, sobolev_betas=(0.0, 2.0))
    rec = compute_diagnostics(make_random_field(n=3, N=16, seed=59), cfg)
    assert rec.flags == () and rec.pressure_moments
    paths = [("energy",), ("dt",), ("max_velocity",), ("moments", 2, 1.0),
             ("sobolev", 2.0), ("pressure_moments", 3.0)]
    for path in paths:
        for bad in (math.nan, math.inf):
            assert blowup_indicator(with_one_value(rec, path, bad)) == ("diverged",), path


def test_inviscid_dissipation_rate_stays_zero_on_a_nonfinite_field():
    cfg = SolverConfig(n=2, N=32, alpha=1.0, nu=0.0, t_end=1.0, moment_orders=())
    u = make_random_field(seed=60)
    rec = compute_diagnostics(u.with_coeffs(np.full_like(u.coeffs, np.inf)), cfg)
    assert rec.flags == ("diverged",)
    assert rec.dissipation_rate == 0.0


def test_tail_fraction_zero_field():
    lat = build_lattice(2, 32)
    assert tail_fraction(zero_field(lat)) == 0.0


# -- energy identity along runs ---------------------------------------------------------


def test_energy_derivative_matches_dissipation():
    u0 = make_random_field(seed=58, N=32, band=(1, 2), amplitude=0.5)
    cfg = SolverConfig(n=2, N=32, alpha=1.0, nu=1.0, t_end=0.1, dt_max=2e-4,
                       cfl_safety=1.0, diag_stride=1, moment_orders=())
    records = []
    advance(SolverState(u=u0), cfg, records.append)
    for j in range(1, len(records) - 1):
        dedt = (records[j + 1].energy - records[j - 1].energy) / (
            records[j + 1].t - records[j - 1].t
        )
        assert dedt == pytest.approx(-records[j].dissipation_rate, rel=1e-6)


# -- CSV schema ----------------------------------------------------------------------------


def named_value(record, name):
    """The record value a CSV column name names, read from the name alone."""
    if match := re.fullmatch(r"M(.+)_c(\d+)", name):
        return record.moments[int(match[2]) - 1][float(match[1])]
    if match := re.fullmatch(r"H(.+)", name):
        return record.sobolev[float(match[1])]
    return getattr(record, "enstrophy_production" if name == "production" else name)


orders = st.lists(st.sampled_from([0, 0.5, 1, 2, 3.25, 4]), unique=True, max_size=4)


@given(n=st.sampled_from([2, 3]), moment_orders=orders,
       sobolev_betas=st.lists(st.floats(-2.0, 3.0).map(lambda b: round(b, 3)),
                              unique=True, max_size=3),
       flags=st.lists(st.sampled_from(FLAGS), unique=True))
def test_csv_columns_hold_the_record_values_they_name(n, moment_orders, sobolev_betas,
                                                      flags):
    cfg = SolverConfig(n=n, N=16, alpha=1.0, nu=1.0, t_end=1.0,
                       moment_orders=moment_orders, sobolev_betas=sobolev_betas)
    rec = compute_diagnostics(make_random_field(n=n, N=16, seed=61), cfg, step=7, dt=0.125)
    rec = dataclasses.replace(rec, flags=tuple(f for f in FLAGS if f in flags))
    names = csv_header(cfg).split(",")
    cells = csv_row(rec, cfg).split(",")
    assert len(cells) == len(names) == 10 + n * len(moment_orders) + len(sobolev_betas)
    assert names[-1] == "flags" and cells[-1] == "|".join(rec.flags)
    assert int(cells[0]) == rec.step == 7
    for name, cell in zip(names[1:-1], cells[1:-1]):
        assert float(cell) == named_value(rec, name), name


@pytest.mark.parametrize("n, N", [(2, 32), (3, 16)])
def test_csv_numbers_are_plain_float_reprs(n, N):
    # every number cell is the repr of a Python float (never "np.float64(...)"),
    # which float() parses back to the same value
    cfg = SolverConfig(n=n, N=N, alpha=1.25, nu=0.1, t_end=1.0,
                       moment_orders=(0, 1, 2.5), sobolev_betas=(0, 1.5))
    u = make_random_field(n=n, N=N, seed=62, band=(1, 5))
    records = [compute_diagnostics(u, cfg, step=3, dt=0.125)]
    advance(SolverState(u=u), dataclasses.replace(cfg, t_end=2e-3, dt_max=1e-3),
            records.append)
    for rec in records:
        cells = csv_row(rec, cfg).split(",")[1:-1]
        assert len(cells) == 8 + n * len(cfg.moment_orders) + len(cfg.sobolev_betas)
        for cell in cells:
            assert cell == repr(float(cell)), cell
