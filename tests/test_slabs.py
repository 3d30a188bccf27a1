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
from nshd.dynamics import (
    SlabPool,
    SolverConfig,
    SolverState,
    StepWorkspace,
    _step_half,
    advance,
    dissipation_symbol,
    nonlinear_rhs,
    step,
)
from nshd.spectral import half_spectrum
from nshd.verify import FaultInjection, _faulty_inputs

from conftest import make_random_field

DT = 2e-3


def slab_outputs(u, cfg, k):
    """Bytes of one RHS, one half step and a 5-step advance on k slabs."""
    lat = u.lattice
    coeffs = half_spectrum(u.coeffs)
    with SlabPool(k) as pool:
        work = StepWorkspace(lat, dissipation_symbol(lat, cfg.alpha, cfg.nu), pool)
        rhs = nonlinear_rhs(lat, coeffs, work).tobytes()
        half = _step_half(coeffs, DT, work).tobytes()
    with scipy.fft.set_workers(k):
        final = advance(SolverState(u=u), cfg)
    assert final.step_count == 5
    return rhs, half, final.u.coeffs.tobytes()


@pytest.mark.parametrize("n, N", [(2, 32), (3, 16)])
def test_outputs_do_not_depend_on_the_slab_count(n, N):
    u = make_random_field(n=n, N=N, seed=48, band=(1, 5))
    cfg = SolverConfig(n=n, N=N, alpha=1.25, nu=0.1, t_end=5 * DT, dt_max=DT,
                       diag_stride=2)
    one = slab_outputs(u, cfg, 1)
    for k in (2, 3):
        assert slab_outputs(u, cfg, k) == one


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
    assert [(s.start, s.stop) for s in work.slabs] == [(0, 6), (6, 11), (11, 16)]
    assert [(s.start, s.stop) for s in StepWorkspace(lat, lat.ksq_array).slabs] == [(0, 16)]


@pytest.mark.parametrize("faults", [FaultInjection(dealias_off=True),
                                    FaultInjection(dissipation_sign_flip=True)],
                         ids=["dealias_off", "dissipation_sign_flip"])
def test_verify_faults_flow_through_the_slab_kernel(faults):
    # the mask and the symbol come from the workspace on every slab: the
    # faulty step is the same at 1 and 2 slabs and differs from the sound one
    u = make_random_field(n=3, N=16, seed=49, band=(1, 5), amplitude=3.0)
    lat = u.lattice
    coeffs = half_spectrum(u.coeffs)

    def stepped(k, faults):
        with SlabPool(k) as pool, np.errstate(over="ignore", invalid="ignore"):
            work = StepWorkspace(*_faulty_inputs(lat, 1.0, 0.5, faults), pool)
            return _step_half(coeffs, 0.05, work).tobytes()

    faulty = stepped(1, faults)
    assert stepped(2, faults) == faulty
    assert stepped(2, FaultInjection()) != faulty


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

    def fails_off_slab_0(lattice, coeffs, out, rows):
        if rows.start != 0:
            raise FloatingPointError(f"slab at row {rows.start}")
        clean(lattice, coeffs, out, rows)

    monkeypatch.setattr(dynamics, "_clean", fails_off_slab_0)
    state, cfg = small_run()
    lat = state.u.lattice
    with SlabPool(2) as pool:
        work = StepWorkspace(lat, dissipation_symbol(lat, cfg.alpha, cfg.nu), pool)
        with pytest.raises(FloatingPointError, match="slab at row 8"):
            step(state, DT, cfg, work)


def test_pool_slabs_run_under_the_callers_errstate():
    big = np.full(8, 1e300)
    overflow_off_slab_0 = lambda rows: big[rows] * (1e300 if rows.start else 1.0)
    with SlabPool(2) as pool, np.errstate(over="raise"):
        with pytest.raises(FloatingPointError, match="overflow"):
            pool.run(overflow_off_slab_0, [slice(0, 4), slice(4, 8)])
