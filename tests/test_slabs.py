"""Row slabs: a step's pointwise work split over threads changes no output.

The slab count k is the pool's size (`SlabPool(k)`); `advance` takes it from
the `scipy.fft` workers in force when it starts.
"""

import sys
import threading

import numpy as np
import pytest
import scipy.fft

import nshd.dynamics as dynamics
from nshd import diagnostics
from nshd.dynamics import (
    SlabPool,
    SolverConfig,
    SolverState,
    StepWorkspace,
    advance,
    dissipation_symbol,
    nonlinear_rhs,
    step,
)
from nshd.spectral import (
    build_lattice,
    dealias_coeffs,
    gradient_batch,
    leray_project_coeffs,
)
from nshd.verify import FaultInjection, _faulty_inputs

from conftest import make_random_field

DT = 2e-3


def slab_outputs(u, cfg, k):
    """Bytes of one RHS, one step and a 5-step advance on k slabs."""
    lat = u.lattice
    with SlabPool(k) as pool:
        work = StepWorkspace(lat, dissipation_symbol(lat, cfg.alpha, cfg.nu), pool)
        rhs = nonlinear_rhs(work.kept(u.coeffs), work).tobytes()
        one = step(SolverState(u=u), DT, work).u.coeffs.tobytes()
    with scipy.fft.set_workers(k):
        final = advance(SolverState(u=u), cfg)
    assert final.step_count == 5
    return rhs, one, final.u.coeffs.tobytes()


@pytest.mark.parametrize("n, N", [(2, 32), (3, 16)])
def test_outputs_do_not_depend_on_the_slab_count(n, N):
    u = make_random_field(n=n, N=N, seed=48, band=(1, 5))
    cfg = SolverConfig(n=n, N=N, alpha=1.25, nu=0.1, t_end=5 * DT, dt_max=DT,
                       diag_stride=2)
    one = slab_outputs(u, cfg, 1)
    for k in (2, 3):
        assert slab_outputs(u, cfg, k) == one


@pytest.mark.parametrize("n, N", [(2, 32), (3, 16)])
def test_a_record_does_not_depend_on_the_slab_count(n, N):
    # its sums are reduced per first-axis row into a fixed array, summed once;
    # the one-slab public functions give the record's own numbers
    u = make_random_field(n=n, N=N, seed=50, band=(1, 5))
    cfg = SolverConfig(n=n, N=N, alpha=1.25, nu=0.1, t_end=1.0,
                       moment_orders=(0, 1, 2.5), sobolev_betas=(0, 1.5))
    rows = set()
    for k in (1, 2, 3):
        with SlabPool(k) as pool:
            work = StepWorkspace(u.lattice, None, pool)
            assert len(work.slabs) == k
            record = diagnostics.compute_diagnostics(u, cfg, work=work)
        rows.add(diagnostics.csv_row(record, cfg))
    assert len(rows) == 1
    assert record.energy == diagnostics.energy(u)
    assert record.dissipation_rate == diagnostics.dissipation_rate(u, cfg.alpha, cfg.nu)
    assert record.enstrophy == diagnostics.enstrophy(u)
    assert record.enstrophy_production == diagnostics.enstrophy_production(u)
    assert record.max_velocity == diagnostics.max_velocity(u)
    assert record.sobolev == {b: diagnostics.sobolev_norm(u, b) for b in cfg.sobolev_betas}
    assert record.moments == dict(enumerate(diagnostics.moment_sums(u.lattice, u.coeffs,
                                                                    cfg.moment_orders)))
    assert record.tail_fraction == diagnostics.tail_fraction(u)


def test_more_slabs_than_cores_under_fast_thread_switching():
    # 5 slabs of a 3D N=16 lattice (4/3/3/3/3 rows) on 4 pool threads, with
    # the interpreter switching threads as often as it can
    u = make_random_field(n=3, N=16, seed=51, band=(1, 5))
    cfg = SolverConfig(n=3, N=16, alpha=1.25, nu=0.1, t_end=5 * DT, dt_max=DT)
    one = slab_outputs(u, cfg, 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert slab_outputs(u, cfg, 5) == one
    finally:
        sys.setswitchinterval(interval)


def test_slabs_cover_the_first_axis_longest_first():
    lat = make_random_field(n=3, N=16).lattice
    with SlabPool(3) as pool:
        work = StepWorkspace(lat, dissipation_symbol(lat, 1.0, 1.0), pool)
    assert [(s.rows.start, s.rows.stop) for s in work.slabs] == [(0, 6), (6, 11), (11, 16)]
    one = StepWorkspace(lat, lat.ksq_array).slabs
    assert [(s.rows.start, s.rows.stop) for s in one] == [(0, 16)]


def test_never_more_slabs_than_rows():
    # ten threads offered to an 8-row lattice: 8 one-row slabs, 7 pool threads at most
    u = make_random_field(n=3, N=8, seed=52, band=(1, 2))
    lat = u.lattice
    cfg = SolverConfig(n=3, N=8, alpha=1.25, nu=0.1, t_end=5 * DT, dt_max=DT,
                       diag_stride=2)
    before = threading.active_count()
    with SlabPool(10) as pool:
        work = StepWorkspace(lat, dissipation_symbol(lat, cfg.alpha, cfg.nu), pool)
        assert [(s.rows.start, s.rows.stop) for s in work.slabs] == [(i, i + 1)
                                                                     for i in range(8)]
        step(SolverState(u=u), DT, work)
        assert threading.active_count() - before <= 7
    assert slab_outputs(u, cfg, 10) == slab_outputs(u, cfg, 1)


@pytest.mark.parametrize("n, N", [(2, 32), (3, 16)])
def test_spectral_operators_on_a_slab_equal_those_rows_of_the_lattice(n, N):
    # 3 uneven slabs (11/11/10 and 6/5/5 rows) of coefficients on the kept columns
    lat = build_lattice(n, N)
    with SlabPool(3) as pool:
        work = StepWorkspace(lat, lat.ksq_array, pool)
    shape = (n,) + lat.shape[:-1] + (work.width,)
    rng = np.random.default_rng(53)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    slabs = work.slabs
    batch = np.empty((n + n * n,) + shape[1:], dtype=complex)
    whole = [gradient_batch(lat, c, c, batch), leray_project_coeffs(lat, c),
             dealias_coeffs(lat, c)]
    for s in slabs:
        part = c[:, s.rows]
        batch = np.empty_like(whole[0][:, s.rows])
        got = [gradient_batch(s, part, part, batch), leray_project_coeffs(s, part),
               dealias_coeffs(s, part)]
        for g, w in zip(got, whole):
            assert g.tobytes() == w[:, s.rows].tobytes()


@pytest.mark.parametrize("faults", [FaultInjection(dealias_off=True),
                                    FaultInjection(dissipation_sign_flip=True)],
                         ids=["dealias_off", "dissipation_sign_flip"])
def test_verify_faults_flow_through_the_slab_kernel(faults):
    # the mask and the symbol come from the workspace on every slab: the
    # faulty step is the same at 1 and 2 slabs and differs from the sound one
    u = make_random_field(n=3, N=16, seed=49, band=(1, 5), amplitude=3.0)
    lat = u.lattice

    def stepped(k, faults):
        with SlabPool(k) as pool, np.errstate(over="ignore", invalid="ignore"):
            work = StepWorkspace(*_faulty_inputs(lat, 1.0, 0.5, faults), pool)
            return step(SolverState(u=u), 0.05, work).u.coeffs

    faulty = stepped(1, faults)
    assert stepped(2, faults).tobytes() == faulty.tobytes()
    assert not np.array_equal(stepped(2, FaultInjection()), faulty)


def test_the_rhs_reads_its_mask_from_the_workspace_alone():
    # a workspace on verify's dealias_off lattice keeps every column of the
    # half and gives the unmasked RHS; the sound one keeps k_n < N/3 and masks
    u = make_random_field(n=3, N=16, seed=49, band=(1, 5), amplitude=3.0)
    sound = u.lattice
    off, symbol = _faulty_inputs(sound, 1.0, 0.5, FaultInjection(dealias_off=True))
    unmasked = nonlinear_rhs(u.coeffs, StepWorkspace(off, symbol))
    masked = nonlinear_rhs(u.coeffs, StepWorkspace(sound, symbol))
    assert (unmasked.shape[-1], masked.shape[-1]) == (9, 6)
    assert not np.array_equal(unmasked[..., :6], masked)
    assert np.any(unmasked[..., 6:])


def small_run(amplitude=1.0):
    u = make_random_field(n=2, N=16, seed=50, band=(1, 4), amplitude=amplitude)
    cfg = SolverConfig(n=2, N=16, alpha=1.0, nu=0.1, t_end=4 * DT, dt_max=DT,
                       diag_stride=1)
    return SolverState(u=u), cfg


def test_no_thread_outlives_a_run():
    before = threading.active_count()
    seen = []
    sink = lambda record: seen.append(threading.active_count())
    with scipy.fft.set_workers(2):
        state, cfg = small_run()
        assert advance(state, cfg, sink).step_count == 4
        assert max(seen) == before + 1  # one pool thread while the run steps
        assert threading.active_count() == before

        state, cfg = small_run(amplitude=1e200)
        records = []
        assert advance(state, cfg, records.append).step_count == 1
        assert records[-1].flags == ("diverged",)
        assert threading.active_count() == before

        def failing_sink(record):
            if record.step == 2:
                raise OSError("disk full")

        state, cfg = small_run()
        with pytest.raises(OSError, match="disk full"):
            advance(state, cfg, failing_sink)
        assert threading.active_count() == before


def test_an_error_on_a_pool_thread_reaches_the_caller_of_step(monkeypatch):
    clean = dynamics._clean

    def fails_off_slab_0(slab, coeffs, out):
        if slab.rows.start != 0:
            raise FloatingPointError(f"slab at row {slab.rows.start}")
        clean(slab, coeffs, out)

    monkeypatch.setattr(dynamics, "_clean", fails_off_slab_0)
    state, cfg = small_run()
    lat = state.u.lattice
    with SlabPool(2) as pool:
        work = StepWorkspace(lat, dissipation_symbol(lat, cfg.alpha, cfg.nu), pool)
        with pytest.raises(FloatingPointError, match="slab at row 8"):
            step(state, DT, work)


def test_pool_slabs_run_under_the_callers_errstate():
    big = np.full(8, 1e300)
    overflow_off_slab_0 = lambda rows: big[rows] * (1e300 if rows.start else 1.0)
    with SlabPool(2) as pool, np.errstate(over="raise"):
        with pytest.raises(FloatingPointError, match="overflow"):
            pool.run(overflow_off_slab_0, [slice(0, 4), slice(4, 8)])
