"""Right-hand side assembly, pressure, integrating-factor stepping, advance."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st

import nshd.diagnostics as diagnostics
import nshd.dynamics as dynamics
from nshd.diagnostics import compute_diagnostics, energy, enstrophy_production
from nshd.dynamics import (
    Diverged,
    SolverConfig,
    SolverState,
    StepWorkspace,
    advance,
    cfl_dt,
    compute_pressure,
    dissipation_symbol,
    if_rk4_step,
    nonlinear_rhs,
    step,
)
from nshd.initial_conditions import taylor_green
from nshd.scaling import apply_discrete_rescale
from nshd.spectral import (
    SpectralVectorField,
    build_lattice,
    coeffs_to_grid,
    dealias_coeffs,
    divergence_defect,
    full_spectrum,
    grid_to_coeffs,
    hermitian_defect,
    leray_project_coeffs,
    vorticity,
)

from conftest import (
    full_tables,
    grid_coords,
    half_of,
    make_random_field,
    mean_mode,
    rhs_half,
    rhs_workspace,
    velocity_gradient_grid,
    workspace_for,
    zero_field,
)


# -- convolution oracle -----------------------------------------------------------


def convection_oracle(u):
    """Brute-force spectral convolution of (u.grad)u over active modes, on
    the full spectrum.

    conv_i(k) = sum_{k'} u_j(k') * i (k - k')_j * u_i(k - k'), computed by
    explicit looping; independent of the pseudo-spectral transform path.
    """
    lat = u.lattice
    N, n = lat.N, lat.n
    c = full_spectrum(u.coeffs, n)
    active = list(zip(*np.nonzero(np.abs(c).sum(axis=0))))
    out = np.zeros_like(c)
    modes = np.fft.fftfreq(N, d=1 / N).astype(np.int64)
    for idx_p in active:
        kp = tuple(int(modes[j]) for j in idx_p)
        for idx_pp in active:
            kpp = tuple(int(modes[j]) for j in idx_pp)
            target = tuple((a + b) % N for a, b in
                           zip(np.array(kp) % N, np.array(kpp) % N))
            for i in range(n):
                contrib = sum(
                    c[j][idx_p] * 1j * kpp[j] * c[i][idx_pp]
                    for j in range(n)
                )
                out[(i,) + target] += contrib
    return out


def test_nonlinear_term_zero_field(lattice_2d):
    out = nonlinear_rhs(zero_field(lattice_2d).coeffs, rhs_workspace(lattice_2d))
    assert np.all(out == 0)


def test_nonlinear_term_taylor_green_projects_to_zero():
    # the TG convective term is a pure gradient; projection annihilates it
    lat = build_lattice(2, 32)
    tg = taylor_green(lat, 1.0)
    raw = nonlinear_rhs(tg.coeffs, rhs_workspace(lat))
    assert np.max(np.abs(raw)) < 1e-14
    # pre-projection the term is nonzero but curl-free: check it is killed
    # by projecting the bare convolution
    from nshd.spectral import dealias_coeffs, leray_project_coeffs

    conv = convection_oracle(tg)
    full = full_tables(2, 32)
    projected = leray_project_coeffs(full, dealias_coeffs(full, conv))
    assert np.max(np.abs(conv)) > 0.1  # gradient part really is there
    assert np.max(np.abs(projected)) < 1e-14


def test_nonlinear_single_mode_is_exact_solution():
    # one divergence-free mode pair: (u.grad)u vanishes identically
    lat = build_lattice(2, 16)
    coeffs = np.zeros((2,) + lat.shape, dtype=np.complex128)
    coeffs[0][0, 3] = 0.4
    coeffs[0][0, -3] = 0.4  # u = (0.8 cos 3y, 0): k = (0,3) with polarization x
    u = SpectralVectorField(lat, half_of(coeffs))
    oracle = convection_oracle(u)
    assert np.max(np.abs(oracle)) < 1e-15
    assert np.max(np.abs(nonlinear_rhs(u.coeffs, rhs_workspace(lat)))) < 1e-15


def test_nonlinear_term_matches_convolution_oracle():
    # two interacting mode pairs (non-orthogonal wavevectors): support lands
    # on sums/differences of the input modes
    lat = build_lattice(2, 16)
    coeffs = np.zeros((2,) + lat.shape, dtype=np.complex128)
    # mode a: k=(1,2), polarization orthogonal to k
    pa = np.array([2.0, -1.0]) / math.sqrt(5.0)
    ca = (0.3 + 0.1j) * pa
    # mode b: k=(2,0), different modulus so the triad actually transfers
    pb = np.array([0.0, 1.0])
    cb = (0.2 - 0.4j) * pb
    for i in range(2):
        coeffs[i][1, 2] = ca[i]
        coeffs[i][-1, -2] = np.conj(ca[i])
        coeffs[i][2, 0] = cb[i]
        coeffs[i][-2, 0] = np.conj(cb[i])
    u = SpectralVectorField(lat, half_of(coeffs))

    from nshd.spectral import dealias_coeffs, leray_project_coeffs

    conv = convection_oracle(u)
    full = full_tables(2, 16)
    expected = -leray_project_coeffs(full, dealias_coeffs(full, conv))
    expected[(slice(None), 0, 0)] = 0.0
    got = full_spectrum(rhs_half(u), 2)
    np.testing.assert_allclose(got, expected, atol=1e-14)
    # interaction mode k_a + k_b = (3,2) must be populated after projection
    assert abs(got[0][3, 2]) > 1e-4


def full_spectrum_reference(lat, c):
    """RHS, pressure and enstrophy production from full complex transforms of
    the full spectrum c."""
    full = full_tables(lat.n, lat.N)
    n, g = lat.n, full.mode_grids
    axes = tuple(range(1, n + 1))
    inv = lambda b: scipy.fft.ifftn(b, axes=axes, norm="forward").real
    fwd = lambda v, ax=axes: scipy.fft.fftn(v, axes=ax, norm="forward")
    vel = inv(c)
    d = inv(np.stack([1j * g[j] * c[i] for i in range(n) for j in range(n)]))
    d = d.reshape((n, n) + lat.shape)  # d[i, j] = d_j u_i
    rhs = -leray_project_coeffs(full, dealias_coeffs(
        full, fwd(np.einsum("j...,ij...->i...", vel, d))))
    rhs[(slice(None),) + (0,) * n] = 0.0
    trace_hat = fwd(np.einsum("ij...,ji...->...", d, d), tuple(range(n)))
    ksq = np.where(full.ksq_array > 0, full.ksq_array, np.inf)
    p = dealias_coeffs(full, trace_hat) / ksq
    production = 0.0
    if n == 3:
        w = inv(full_spectrum(vorticity(SpectralVectorField(lat, half_of(c))), n))
        production = lat.cell_volume * float(
            np.sum(np.einsum("i...,ji...,j...->...", w, d, w)))
    return rhs, p, production


@pytest.mark.parametrize("n, N", [(2, 32), (3, 16)])
def test_rhs_pressure_production_match_full_spectrum_reference(n, N):
    u = make_random_field(n=n, N=N, seed=38, band=(1, 5))
    rhs, p, production = full_spectrum_reference(u.lattice, full_spectrum(u.coeffs, n))
    got_rhs = full_spectrum(rhs_half(u), n)
    assert np.max(np.abs(got_rhs - rhs)) <= 1e-13 * np.max(np.abs(rhs))
    got_p = full_spectrum(compute_pressure(u), n)
    assert np.max(np.abs(got_p - p)) <= 1e-13 * np.max(np.abs(p))
    assert enstrophy_production(u) == pytest.approx(production, rel=1e-13, abs=0)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=10)
def test_nonlinear_term_invariants(seed):
    u = make_random_field(seed=seed, N=16, band=(1, 3))
    out = u.with_coeffs(rhs_half(u))
    assert divergence_defect(out) <= 1e-12
    assert hermitian_defect(out) <= 1e-12
    assert np.all(mean_mode(out) == 0)


# -- pressure ----------------------------------------------------------------------


def test_pressure_zero_field(lattice_2d):
    assert np.all(compute_pressure(zero_field(lattice_2d)) == 0)


def test_pressure_taylor_green():
    # Tr(grad u)^2 = cos 2x + cos 2y; -lap p = that, so p = (cos 2x + cos 2y)/4
    lat = build_lattice(2, 32)
    p_half = compute_pressure(taylor_green(lat, 1.0))
    p = full_spectrum(p_half, 2)
    expected = {(2, 0): 0.125, (-2, 0): 0.125, (0, 2): 0.125, (0, -2): 0.125}
    for (k1, k2), val in expected.items():
        assert p[k1 % 32, k2 % 32] == pytest.approx(val, abs=1e-14)
    mask = np.ones(lat.shape, dtype=bool)
    for k in expected:
        mask[k[0] % 32, k[1] % 32] = False
    assert np.max(np.abs(p[mask])) < 1e-14
    # momentum check: (u.grad)u + grad p = 0 for the exact vortex
    x = grid_coords(lat)
    p_grid = coeffs_to_grid(p_half, 2)
    np.testing.assert_allclose(
        p_grid, (np.cos(2 * x[0]) + np.cos(2 * x[1])) / 4.0, atol=1e-13
    )


def test_pressure_poisson_consistency():
    # -lap p = Tr(grad u)^2 spectrally on dealiased modes
    u = make_random_field(seed=31, N=32, band=(1, 5))
    lat = u.lattice
    p = compute_pressure(u)
    from nshd.spectral import dealias_coeffs, grid_to_coeffs

    grids = lat.mode_grids
    batch = np.stack([1j * grids[i] * u.coeffs[j]
                      for i in range(2) for j in range(2)])
    d = coeffs_to_grid(batch, 2).reshape((2, 2) + lat.shape)
    trace = np.einsum("ij...,ji...->...", d, d)
    g_hat = dealias_coeffs(lat, grid_to_coeffs(trace, 2))
    residual = lat.ksq_array * p - g_hat
    residual[(0,) * lat.n] = 0.0  # mean of p is gauge, mean of g is dropped
    assert np.max(np.abs(residual)) <= 1e-12 * max(1.0, np.max(np.abs(g_hat)))


def test_pressure_shear_flow_is_zero():
    # u = (f(y), 0): the trace term vanishes identically
    lat = build_lattice(2, 32)
    coeffs = np.zeros((2,) + lat.shape, dtype=np.complex128)
    coeffs[0][0, 1] = 0.5 - 0.2j
    coeffs[0][0, -1] = 0.5 + 0.2j
    coeffs[0][0, 3] = 0.1j
    coeffs[0][0, -3] = -0.1j
    p = compute_pressure(SpectralVectorField(lat, half_of(coeffs)))
    assert np.max(np.abs(p)) < 1e-15


# -- dissipation symbol --------------------------------------------------------------


def test_dissipation_symbol_values():
    lat = build_lattice(2, 16)
    nu = 0.7
    sym = dissipation_symbol(lat, 1.0, nu)
    assert sym[1, 1] == pytest.approx(2 * nu, rel=1e-15)
    assert sym[0, 0] == 0.0
    sym = dissipation_symbol(lat, 1.25, nu)
    assert sym[1, 1] == pytest.approx(nu * 2.0**1.25, rel=1e-15)


# -- stepping -------------------------------------------------------------------------


def test_step_exact_decay_single_mode():
    lat = build_lattice(2, 16)
    coeffs = np.zeros((2,) + lat.shape, dtype=np.complex128)
    a = 0.5 / math.sqrt(2)
    for i, sgn in ((0, 1.0), (1, -1.0)):
        coeffs[i][1, 1] = sgn * a
        coeffs[i][-1, -1] = sgn * a
    work = StepWorkspace(lat, dissipation_symbol(lat, 1.0, 1.0))
    coeffs = work.kept(half_of(coeffs))
    out = if_rk4_step(coeffs, 0.1, lambda c, tendency: tendency.fill(0.0), work)
    np.testing.assert_allclose(out, coeffs * np.exp(-0.2), rtol=1e-14, atol=0)


def full_spectrum_step(lat, c0, dt, symbol):
    """One IF-RK4 step and cleanup on the full spectrum c0 with the full-width
    symbol, RHS from fftn/ifftn."""
    rhs = lambda c: full_spectrum_reference(lat, c)[0]
    e_half = np.exp(-0.5 * dt * symbol)
    e_full = e_half * e_half
    a = rhs(c0)
    b = rhs(e_half * (c0 + 0.5 * dt * a))
    c = rhs(e_half * c0 + 0.5 * dt * b)
    d = rhs(e_full * c0 + dt * e_half * c)
    new = e_full * c0 + (dt / 6.0) * (e_full * a + 2.0 * e_half * (b + c) + d)
    full = full_tables(lat.n, lat.N)
    new = leray_project_coeffs(full, dealias_coeffs(full, new))
    new[(slice(None),) + (0,) * lat.n] = 0.0
    return new


@pytest.mark.parametrize("n, N", [(2, 32), (3, 16)])
def test_half_spectrum_step_matches_full_spectrum_reference(n, N):
    u0 = make_random_field(n=n, N=N, seed=39, band=(1, 5))
    cfg = SolverConfig(n=n, N=N, alpha=1.25, nu=0.1, t_end=5e-3, dt_max=1e-3,
                       diag_stride=10**9)
    lat = u0.lattice
    symbol = cfg.nu * full_tables(n, N).kmod_array ** (2.0 * cfg.alpha)
    ref = [full_spectrum(u0.coeffs, n)]
    for _ in range(5):
        ref.append(full_spectrum_step(lat, ref[-1], 1e-3, symbol))

    def rel_err(got, want):
        return np.max(np.abs(full_spectrum(got, n) - want)) / np.max(np.abs(want))

    one = step(SolverState(u=u0), 1e-3, StepWorkspace(lat, symbol))  # a full-width symbol
    assert one.u.coeffs.shape == u0.coeffs.shape
    assert rel_err(one.u.coeffs, ref[1]) <= 1e-13
    final = advance(SolverState(u=u0), cfg)
    assert final.step_count == 5
    assert rel_err(final.u.coeffs, ref[-1]) <= 1e-13


def test_step_zero_field_stays_zero(lattice_2d):
    cfg = SolverConfig(n=2, N=32, alpha=1.0, t_end=1.0)
    state = SolverState(u=zero_field(lattice_2d))
    out = step(state, 0.25, workspace_for(state.u, cfg))
    assert np.all(out.u.coeffs == 0)
    assert out.t == 0.25 and out.step_count == 1


def test_step_taylor_green_full_dynamics():
    # TG is an exact solution: per-mode decay e^(-2 nu t) to near machine epsilon
    lat = build_lattice(2, 32)
    tg = taylor_green(lat, 1.0)
    cfg = SolverConfig(n=2, N=32, alpha=1.0, nu=1.0, t_end=1.0)
    state, work = SolverState(u=tg), workspace_for(tg, cfg)
    for _ in range(10):
        state = step(state, 0.01, work)
    active = np.abs(tg.coeffs) > 0
    expected = tg.coeffs[active] * np.exp(-2 * 0.1)
    rel = np.max(np.abs(state.u.coeffs[active] - expected) / np.abs(expected))
    assert rel < 1e-10


def test_step_preserves_invariants():
    u = make_random_field(seed=32, N=32, band=(1, 5))
    cfg = SolverConfig(n=2, N=32, alpha=1.0, nu=0.1, t_end=1.0)
    state, work = SolverState(u=u), workspace_for(u, cfg)
    for _ in range(5):
        state = step(state, 0.005, work)
    assert hermitian_defect(state.u) <= 1e-12
    assert divergence_defect(state.u) <= 1e-12
    assert np.all(mean_mode(state.u) == 0)


def test_step_refuses_a_nonpositive_dt():
    u = make_random_field(seed=34, N=16, band=(1, 4))
    state, work = SolverState(u=u), workspace_for(u, SolverConfig(n=2, N=16, alpha=1.0,
                                                                  t_end=1.0))
    for dt in (0.0, -1e-3, -0.0, math.nan):
        with pytest.raises(ValueError, match="dt must be positive"):
            step(state, dt, work)


def test_step_diverged_error():
    lat = build_lattice(2, 16)
    coeffs = np.zeros((2,) + lat.shape, dtype=np.complex128)
    coeffs[0][1, 0] = np.inf
    coeffs[0][-1, 0] = np.inf
    cfg = SolverConfig(n=2, N=16, alpha=1.0, t_end=1.0)
    state = SolverState(u=SpectralVectorField(lat, half_of(coeffs), time=0.5), step_count=7)
    with pytest.raises(Diverged) as err:
        step(state, 0.1, workspace_for(state.u, cfg))
    assert err.value.t == pytest.approx(0.6)
    assert err.value.step == 8


# -- step workspace -------------------------------------------------------------------


def reference_rhs(lat, coeffs):
    """nonlinear_rhs written out of place, one fresh array per operation."""
    vel, deriv = velocity_gradient_grid(lat, coeffs, lead=coeffs)
    conv = np.einsum("j...,ij...->i...", vel, deriv)
    out = leray_project_coeffs(lat, dealias_coeffs(lat, grid_to_coeffs(conv, lat.n)))
    out[(slice(None),) + (0,) * lat.n] = 0.0
    return -out


def reference_if_rk4_step(coeffs, dt, symbol, rhs):
    """if_rk4_step written out of place, one fresh array per operation."""
    e_half = np.exp(-0.5 * dt * symbol)
    e_full = e_half * e_half
    a = rhs(coeffs)
    b = rhs(e_half * (coeffs + 0.5 * dt * a))
    c = rhs(e_half * coeffs + 0.5 * dt * b)
    d = rhs(e_full * coeffs + dt * e_half * c)
    return e_full * coeffs + (dt / 6.0) * (e_full * a + 2.0 * e_half * (b + c) + d)


@pytest.mark.parametrize("n, N, slabs", [(2, 32, 1), (3, 16, 1), (2, 32, 2), (3, 16, 2)],
                         ids=["2-32", "3-16", "2-32-two-slabs", "3-16-two-slabs"])
def test_in_place_step_is_bit_identical_to_the_out_of_place_formula(n, N, slabs):
    # the workspace computes the kept columns of the half-width formula to
    # the byte, on one slab and on the slab views of two; the formula's
    # remaining columns are exact zeros
    u = make_random_field(n=n, N=N, seed=43, band=(1, 5))
    lat = u.lattice
    cfg = SolverConfig(n=n, N=N, alpha=1.25, nu=0.3, t_end=1.0)
    symbol = dissipation_symbol(lat, cfg.alpha, cfg.nu)
    with StepWorkspace(lat, symbol, slabs=slabs) as work:
        w, half = work.width, u.coeffs
        assert w == math.ceil(N / 3) < N // 2 + 1
        assert len(work.slabs) == slabs
        coeffs = work.kept(u.coeffs)
        rhs = nonlinear_rhs(coeffs, work, work.stages[0])
        want_rhs = reference_rhs(lat, half)
        assert rhs.tobytes() == np.ascontiguousarray(want_rhs[..., :w]).tobytes()
        assert np.all(want_rhs[..., w:] == 0)
        got = if_rk4_step(coeffs, 2e-3, lambda c, out: nonlinear_rhs(c, work, out), work)
    want = reference_if_rk4_step(half, 2e-3, symbol, lambda c: reference_rhs(lat, c))
    assert got.tobytes() == np.ascontiguousarray(want[..., :w]).tobytes()
    assert np.all(want[..., w:] == 0)


@pytest.mark.parametrize("n, N", [(2, 32), (3, 16)])
def test_rhs_and_steps_leave_their_input_alone(n, N):
    u = make_random_field(n=n, N=N, seed=45, band=(1, 5))
    cfg = SolverConfig(n=n, N=N, alpha=1.25, nu=0.1, t_end=1.0)
    work = workspace_for(u, cfg)
    kept = u.coeffs.copy()
    nonlinear_rhs(u.coeffs, work, work.stages[0])
    new = step(SolverState(u=u), 1e-3, work)
    assert u.coeffs.tobytes() == kept.tobytes()
    # the next step reads the result: it must not be a workspace array, and
    # whatever the workspace still holds must not reach the next step
    for buffer in (work.symbol, work.batch, work.conv, work.stages):
        assert not np.shares_memory(new.u.coeffs, buffer)
    again = step(new, 1e-3, work)
    assert again.u.coeffs.tobytes() == step(new, 1e-3, workspace_for(u, cfg)).u.coeffs.tobytes()


@pytest.mark.parametrize("n, N", [(2, 32), (3, 16)])
@pytest.mark.parametrize("stride, records", [(1, 8), (3, 4)])
def test_advance_ends_byte_equal_to_steps_without_a_workspace(n, N, stride, records):
    # advance keeps one workspace through its steps and records; the records
    # of the two strides (after every step, after every third) transform in
    # its batch between different steps, and no step may see it
    u0 = make_random_field(n=n, N=N, seed=44, band=(1, 5))
    cfg = SolverConfig(n=n, N=N, alpha=1.25, nu=0.05, t_end=0.02, dt_max=3e-3,
                       diag_stride=stride)
    emitted = []
    final = advance(SolverState(u=u0), cfg, emitted.append)
    state = SolverState(u=u0)
    while state.step_count < final.step_count:
        state = step(state, min(cfl_dt(state.u, cfg), cfg.t_end - state.t),
                     workspace_for(state.u, cfg))
    assert (final.step_count, len(emitted)) == (7, records)
    assert final.u.coeffs.tobytes() == state.u.coeffs.tobytes()


@pytest.mark.parametrize("n, N", [(2, 32), (3, 16)])
def test_batch_columns_past_the_kept_width_stay_zero(monkeypatch, n, N):
    # nothing writes them: not the batch assembly, not the inverse transform
    # that consumes the kept columns, not the complex-to-real pass, and not
    # the records, which run on the same workspace (a record after every step,
    # or only the first and last)
    built = []

    class Recorded(StepWorkspace):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(dynamics, "StepWorkspace", Recorded)
    monkeypatch.setattr(diagnostics, "StepWorkspace", Recorded)
    for stride, records in ((10**9, 2), (1, 4)):
        del built[:]
        cfg = SolverConfig(n=n, N=N, alpha=1.25, nu=0.1, t_end=3e-3, dt_max=1e-3,
                           diag_stride=stride)
        emitted = []
        final = advance(SolverState(u=make_random_field(n=n, N=N, seed=47, band=(1, 5))),
                        cfg, emitted.append)
        assert final.step_count == 3 and len(emitted) == records and len(built) == 1
        work = built[0]
        assert work.width == math.ceil(N / 3) < N // 2 + 1
        assert np.any(work.batch[..., : work.width])  # the consumed kept columns
        tail = work.batch[..., work.width :]
        assert tail.tobytes() == bytes(tail.nbytes)


@pytest.mark.parametrize("n, N", [(2, 32), (3, 16)])
def test_a_record_past_the_kept_width_leaves_the_next_step_alone(n, N):
    # a record of a field with modes past the kept width w transforms the
    # whole half in the workspace's batch; it zeroes the batch's columns past
    # w again, and the next step on that workspace is the step on a fresh one
    u = make_random_field(n=n, N=N, seed=49, band=(1, 5))
    cfg = SolverConfig(n=n, N=N, alpha=1.25, nu=0.1, t_end=1.0)
    work = workspace_for(u, cfg)
    w = work.width
    wide = u.coeffs.copy()
    wide[(0,) + (1,) * (n - 1) + (w,)] = 0.25  # a mode no step keeps
    compute_diagnostics(u.with_coeffs(wide), cfg, work=work)
    tail = work.batch[..., w:]
    assert tail.tobytes() == bytes(tail.nbytes)
    want = step(SolverState(u=u), 1e-3, workspace_for(u, cfg)).u.coeffs
    assert step(SolverState(u=u), 1e-3, work).u.coeffs.tobytes() == want.tobytes()
    # a diverged run's record: not a finite number anywhere
    compute_diagnostics(u.with_coeffs(u.coeffs * np.nan), cfg, work=work)
    assert tail.tobytes() == bytes(tail.nbytes)
    assert step(SolverState(u=u), 1e-3, work).u.coeffs.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, N", [(2, 16), (3, 16)])
def test_a_record_allocates_no_more_than_a_rhs(n, N):
    # with the run's workspace passed, a record's transient arrays (numpy
    # reports them to tracemalloc) peak no higher than one RHS call's
    u = make_random_field(n=n, N=N, seed=50, band=(1, 4))
    cfg = SolverConfig(n=n, N=N, alpha=1.25, t_end=1.0)
    work = workspace_for(u, cfg)
    coeffs = work.kept(u.coeffs)
    runs = {"rhs": lambda: nonlinear_rhs(coeffs, work),
            "record": lambda: compute_diagnostics(u, cfg, work=work)}
    for run in runs.values():  # the first calls touch the workspace
        run()
    peaks = {}
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        for name, run in runs.items():
            tracemalloc.reset_peak()
            live, _ = tracemalloc.get_traced_memory()
            run()
            peaks[name] = tracemalloc.get_traced_memory()[1] - live
    finally:
        if not tracing:
            tracemalloc.stop()
    assert 0 < peaks["record"] <= peaks["rhs"], peaks


def test_a_step_never_drops_a_nonzero_mode():
    # a 2D N=32 step keeps the columns k_n <= 10; a mode at k = (0, 11) would
    # be lost, so the cut raises, in `step` and in verify's loop alike
    lat = build_lattice(2, 32)
    coeffs = np.zeros((2,) + lat.shape, dtype=np.complex128)
    coeffs[0][0, 11] = coeffs[0][0, -11] = 0.1  # u = (0.2 cos 11y, 0)
    u = SpectralVectorField(lat, half_of(coeffs))
    cfg = SolverConfig(n=2, N=32, alpha=1.0, t_end=1.0)
    with pytest.raises(ValueError, match="k_n >= 11"):
        step(SolverState(u=u), 1e-3, workspace_for(u, cfg))
    from nshd.verify import FaultInjection, _evolve, _faulty_inputs

    with pytest.raises(ValueError, match="k_n >= 11"):
        _evolve(u, 1.0, 0.5, 0.02, 0.01, FaultInjection())
    # verify's dealias_off workspace keeps every column, so it drops nothing
    off = StepWorkspace(*_faulty_inputs(lat, 1.0, 0.5, FaultInjection(dealias_off=True)))
    assert off.kept(u.coeffs).tobytes() == u.coeffs.tobytes()
    # initial fields up to the largest band a config accepts, their steps and
    # their zooms keep every mode
    work = workspace_for(u, cfg)
    for field in (make_random_field(seed=54, band=(1, 4)), make_random_field(seed=55, band=(1, 10)),
                  apply_discrete_rescale(make_random_field(seed=56, band=(1, 5)), 2, 1.0)):
        state = step(SolverState(u=field), 1e-3, work)
        assert np.all(work.kept(field.coeffs) == field.coeffs[..., : work.width])
        work.kept(state.u.coeffs)


@pytest.mark.parametrize("n, N", [(2, 32), (3, 16), (3, 32)])
def test_warm_step_allocates_at_most_three_transform_batches(n, N):
    # a batch is the (n + n^2)-component real grid array of one RHS; its
    # irfftn output is still fresh per call (scipy.fft takes no out=)
    u = make_random_field(n=n, N=N, seed=46, band=(1, 4))
    cfg = SolverConfig(n=n, N=N, alpha=1.0, t_end=1.0)
    work = workspace_for(u, cfg)
    state = step(SolverState(u=u), 1e-3, work)  # the first step touches the workspace
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        live, _ = tracemalloc.get_traced_memory()
        step(state, 1e-3, work)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak - live <= 3 * (n + n * n) * N**n * 8


def test_workspace_and_warm_step_hold_five_kept_column_arrays():
    # IF-RK4's floor for its operation order: at RHS c the input, the
    # accumulator (the result array), b + c, the stage input and the RHS
    # output are live.  Beside them: the batch, the grid array, the symbol
    # with e_half and e_full, and the batch's inverse transform
    n, N = 3, 32
    u = make_random_field(n=n, N=N, seed=46, band=(1, 4))
    cfg = SolverConfig(n=n, N=N, alpha=1.0, t_end=1.0)
    state = step(SolverState(u=u), 1e-3, workspace_for(u, cfg))  # warms the lattice and plans
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        live, _ = tracemalloc.get_traced_memory()
        work = workspace_for(u, cfg)
        step(state, 1e-3, work)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    kept = work.stages[0].nbytes
    grid = (n + n * n) * N**n * 8
    budget = 5 * kept + work.batch.nbytes + work.conv.nbytes + grid + 3 * work.symbol.nbytes
    # Python objects take a few kB; a sixth kept-column array (528 KiB) is over
    assert peak - live <= budget + 2**16, (peak - live - budget) / kept


def test_timestep_convergence_is_fourth_order():
    # halving dt cuts the error ~16x on a fixed smooth problem
    u0 = make_random_field(seed=33, N=32, band=(1, 4), amplitude=4.0)
    cfg_base = dict(n=2, N=32, alpha=1.0, nu=0.005, t_end=0.25,
                    cfl_safety=1.0, diag_stride=10**9)

    def run(dt):
        cfg = SolverConfig(dt_max=dt, **cfg_base)
        return advance(SolverState(u=u0), cfg).u.coeffs

    ref = run(0.25 / 512)
    errs = [np.linalg.norm(run(dt) - ref) for dt in (0.025, 0.0125, 0.00625)]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    for order in orders:
        assert 3.7 < order < 4.3


# -- cfl ---------------------------------------------------------------------------


def test_cfl_formula():
    lat = build_lattice(2, 64)
    coeffs = np.zeros((2,) + lat.half_shape, dtype=np.complex128)
    coeffs[0][0, 0] = 0.0
    u = SpectralVectorField(lat, coeffs)
    cfg = SolverConfig(n=2, N=64, alpha=1.0, t_end=1.0, cfl_safety=0.5, dt_max=10.0)
    assert cfl_dt(u, cfg) == 10.0  # zero velocity -> dt_max

    # ||u||_inf = 1: u = cos x
    coeffs[0][1, 0] = 0.5
    coeffs[0][-1, 0] = 0.5
    u = SpectralVectorField(lat, coeffs)
    assert cfl_dt(u, cfg) == pytest.approx(0.5 * (2 * np.pi / 64), rel=1e-12)

    cfg128 = SolverConfig(n=2, N=128, alpha=1.0, t_end=1.0, cfl_safety=0.5,
                          dt_max=10.0)
    lat128 = build_lattice(2, 128)
    c128 = np.zeros((2,) + lat128.half_shape, dtype=np.complex128)
    c128[0][1, 0] = 0.5
    c128[0][-1, 0] = 0.5
    u128 = SpectralVectorField(lat128, c128)
    assert cfl_dt(u128, cfg128) == pytest.approx(cfl_dt(u, cfg) / 2, rel=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_cfl_and_max_velocity_read_the_max_of_abs_grid(n):
    # zero, random and non-finite fields: the grid's max of abs to the bit,
    # and dt_max where it is zero or not finite
    cfg = SolverConfig(n=n, N=16, alpha=1.0, t_end=1.0, dt_max=10.0)
    u = make_random_field(n=n, N=16, seed=57, band=(1, 4))
    for coeffs in (u.coeffs, 0.0 * u.coeffs, u.coeffs * np.nan):
        field = u.with_coeffs(coeffs)
        want = float(np.max(np.abs(coeffs_to_grid(coeffs, n))))
        assert np.float64(diagnostics.max_velocity(field)).tobytes() == np.float64(want).tobytes()
        dt = 10.0 if want == 0.0 or not np.isfinite(want) else 0.5 * field.lattice.dx / want
        assert cfl_dt(field, cfg) == min(10.0, dt)


# -- advance ------------------------------------------------------------------------


def test_advance_t_end_zero_returns_initial():
    lat = build_lattice(2, 16)
    tg = taylor_green(lat, 1.0)
    cfg = SolverConfig(n=2, N=16, alpha=1.0, t_end=0.0)
    records = []
    final = advance(SolverState(u=tg), cfg, records.append)
    assert final.step_count == 0
    assert len(records) == 1
    np.testing.assert_array_equal(final.u.coeffs, tg.coeffs)


def test_advance_taylor_green_energy():
    lat = build_lattice(2, 64)
    tg = taylor_green(lat, 1.0)
    cfg = SolverConfig(n=2, N=64, alpha=1.0, nu=1.0, t_end=1.0)
    final = advance(SolverState(u=tg), cfg)
    assert final.t == 1.0
    assert energy(final.u) == pytest.approx(np.pi**2 * math.exp(-4.0), abs=1e-8)


def test_advance_emits_records_on_stride_and_at_end():
    lat = build_lattice(2, 16)
    tg = taylor_green(lat, 1.0)
    cfg = SolverConfig(n=2, N=16, alpha=1.0, nu=1.0, t_end=0.1, dt_max=0.01,
                       diag_stride=3)
    records = []
    advance(SolverState(u=tg), cfg, records.append)
    assert [r.step for r in records] == [0, 3, 6, 9, 10]
    assert records[-1].t == pytest.approx(0.1)


def test_advance_inviscid_conserves_energy_2d():
    u0 = make_random_field(seed=34, N=64, band=(12, 20), amplitude=0.3)
    cfg = SolverConfig(n=2, N=64, alpha=1.0, nu=0.0, t_end=1.0,
                       dt_max=5e-3, diag_stride=20, moment_orders=())
    records = []
    advance(SolverState(u=u0), cfg, records.append)
    e0 = records[0].energy
    assert all(abs(r.energy - e0) <= 1e-6 * e0 for r in records)


def test_advance_diverged_flags_and_stops():
    # a non-finite coefficient must surface as a terminal diverged record,
    # not a crash
    u0 = make_random_field(seed=35, N=16, band=(1, 4))
    bad = u0.coeffs.copy()
    bad[0][1, 0] = np.inf
    bad[0][-1, 0] = np.inf
    cfg = SolverConfig(n=2, N=16, alpha=1.0, nu=1.0, t_end=1.0, diag_stride=1,
                       moment_orders=())
    records = []
    final = advance(SolverState(u=u0.with_coeffs(bad)), cfg, records.append)
    assert records[-1].flags == ("diverged",)
    assert final.t < 1.0
    assert not np.all(np.isfinite(final.u.coeffs))


def test_energy_balance_budget():
    # E(T) - E(0) + integral of dissipation ~ 0, quadrature by Simpson on
    # densely sampled records (independent of the stepper's internals)
    u0 = make_random_field(seed=36, N=32, band=(1, 2), amplitude=0.3)
    cfg = SolverConfig(n=2, N=32, alpha=1.0, nu=0.1, t_end=0.5, dt_max=0.01,
                       cfl_safety=1.0, diag_stride=1, moment_orders=())
    records = []
    advance(SolverState(u=u0), cfg, records.append)
    from scipy.integrate import simpson

    ts = np.array([r.t for r in records])
    ds = np.array([r.dissipation_rate for r in records])
    residual = records[-1].energy - records[0].energy + simpson(ds, x=ts)
    assert abs(residual) <= 1e-8 * records[0].energy * cfg.t_end


def test_viscous_energy_monotone():
    u0 = make_random_field(seed=37, N=32, band=(1, 6), amplitude=1.0)
    cfg = SolverConfig(n=2, N=32, alpha=1.0, nu=0.05, t_end=0.5, dt_max=5e-3,
                       diag_stride=5, moment_orders=())
    records = []
    advance(SolverState(u=u0), cfg, records.append)
    es = [r.energy for r in records]
    for a, b in zip(es, es[1:]):
        assert b <= a + 1e-10


def test_solver_config_validation():
    with pytest.raises(ValueError, match="alpha"):
        SolverConfig(n=2, N=32, alpha=0.0, t_end=1.0)
    with pytest.raises(ValueError, match="even"):
        SolverConfig(n=2, N=33, alpha=1.0, t_end=1.0)
    with pytest.raises(ValueError, match="t_end"):
        SolverConfig(n=2, N=32, alpha=1.0, t_end=-1.0)
    with pytest.raises(ValueError, match="cfl_safety"):
        SolverConfig(n=2, N=32, alpha=1.0, t_end=1.0, cfl_safety=1.5)
    with pytest.raises(ValueError, match="nu"):
        SolverConfig(n=2, N=32, alpha=1.0, t_end=1.0, nu=-1.0)
    # nu = 0 is the inviscid run; alpha > 0 all the same
    SolverConfig(n=2, N=32, alpha=1.0, t_end=1.0, nu=0.0)
    with pytest.raises(ValueError, match="alpha"):
        SolverConfig(n=2, N=32, alpha=0.0, t_end=1.0, nu=0.0)


@pytest.mark.parametrize("n", [2, 3])
def test_largest_accepted_alpha_keeps_the_dissipation_symbol_finite(n):
    # before the bound, nu * |k|^(2*alpha) overflowed to inf (nan at nu = 0)
    edge = 300 / (2 * math.log10(math.sqrt(n) * 32 / 2))
    with pytest.raises(ValueError, match="alpha"):
        SolverConfig(n=n, N=32, alpha=edge * (1 + 1e-9), t_end=1.0)
    for nu in (1.0, 0.0):
        cfg = SolverConfig(n=n, N=32, alpha=edge * (1 - 1e-12), nu=nu, t_end=1.0)
        symbol = dissipation_symbol(cfg.make_lattice(), cfg.alpha, cfg.nu)
        assert np.all(np.isfinite(symbol))
        assert symbol.max() > 1e299 if nu else not symbol.any()
