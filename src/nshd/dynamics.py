"""Time integration of the hyperdissipative Navier-Stokes system.

The spectral right-hand side is du/dt = -P[(u.grad)u] - nu |k|^(2*alpha) u,
with P the Leray projector and the quadratic term formed pseudo-spectrally
under the 2/3 rule.  Time stepping is classical RK4 applied to the
integrating-factor variable v = exp(nu |k|^(2*alpha) t) u, so the stiff
dissipative part is handled exactly: with the nonlinearity switched off a
step reduces to exact exponential decay.  nu = 0 is the inviscid (Euler)
system, whose symbol is zero.

States are stored as full spectra; a step works on the k_n >= 0 half of the
real field's spectrum and completes its result once.  Its arrays (the
transform batch, the grid product and the RK4 stages) live in a
`StepWorkspace` that the stages and the RHS cleanup update in place.
`advance` builds one workspace per run, drops it before each diagnostics
record and builds it again at the next step; `verify` builds one per
integration.  There is no module-level cache, so threads that each advance
their own run share nothing.

The pointwise work of a step runs in k row slabs, cut along the first
wavenumber (or grid) axis of its arrays: the RHS batch assembly, the grid
product and the RHS cleanup, the IF-RK4 stage updates and the step's
divergence cleanup.  Each slab is written by one thread only, and every
element goes through the same operations in the same order whatever k is,
so outputs are byte-identical for every k.  k is the `scipy.fft` worker
count in force when `advance` starts (`harness` sets it); `advance` owns a
`SlabPool` of k - 1 threads for that one run and the calling thread runs
slab 0.  The transforms, the finiteness check, `cfl_dt`, `full_spectrum`
and the diagnostics records stay whole on the calling thread.
"""

from __future__ import annotations

import contextvars
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .spectral import (
    ConfigError,
    SpectralVectorField,
    WavenumberLattice,
    build_lattice,
    check_finite,
    check_grid,
    coeffs_to_grid,
    dealias_coeffs,
    full_spectrum,
    gradient_batch,
    grid_to_coeffs,
    half_spectrum,
    leray_project_coeffs,
    velocity_gradient_grid,
)


class Diverged(RuntimeError):
    """Non-finite coefficients appeared during time stepping."""

    def __init__(self, t: float, step: int):
        super().__init__(f"solution diverged at t={t:g} (step {step})")
        self.t = t
        self.step = step


@dataclass(frozen=True)
class SolverConfig:
    """Solver parameters: grid, dissipation, stepping and diagnostics policy."""

    n: int
    N: int
    alpha: float
    t_end: float
    nu: float = 1.0
    cfl_safety: float = 0.5
    dt_max: float = 0.01
    diag_stride: int = 10
    moment_orders: tuple = (0.0, 1.0, 2.0)
    sobolev_betas: tuple = (0.0, 1.0)

    def __post_init__(self):
        check_grid(self.n, self.N)
        for name in ("alpha", "nu", "t_end", "cfl_safety", "dt_max"):
            check_finite(name, getattr(self, name))
        for name in ("moment_orders", "sobolev_betas"):
            for v in getattr(self, name):
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise ConfigError(name, f"entries must be numbers, got {v!r}")
                check_finite(name, v)
            object.__setattr__(self, name, tuple(map(float, getattr(self, name))))
        if not self.alpha > 0:  # else 0 * |k|^(2*alpha) is nan at k = 0
            raise ConfigError("alpha", "must be positive")
        k_max = math.sqrt(self.n) * self.N / 2  # the lattice's largest |k|
        # each weight stays below 1e300 there, since inf * 0 (nu = 0, an empty mode) is nan
        weights = [("alpha", "|k|^(2*alpha)", k_max, 2.0 * self.alpha, self.alpha)]
        weights += [("moment_orders", "|k|^m", k_max, m, m) for m in self.moment_orders]
        weights += [("sobolev_betas", "(1+|k|^2)^beta", 1.0 + k_max**2, b, b)
                    for b in self.sobolev_betas]
        for name, weight, base, power, value in weights:
            if power * math.log10(base) > 300:
                raise ConfigError(name, f"{weight} must stay below 1e300 at the largest "
                                        f"|k| = {k_max:g} of the lattice, got {value!r}")
        if self.nu < 0:
            raise ConfigError("nu", "must be nonnegative (0 is the inviscid run)")
        if self.t_end < 0:
            raise ConfigError("t_end", "must be nonnegative")
        if not 0 < self.cfl_safety <= 1:
            raise ConfigError("cfl_safety", "must lie in (0, 1]")
        if not self.dt_max > 0:
            raise ConfigError("dt_max", "must be positive")
        if self.diag_stride < 1:
            raise ConfigError("diag_stride", "must be >= 1")
        if any(m < 0 for m in self.moment_orders):
            raise ConfigError("moment_orders", "entries must be nonnegative")

    def make_lattice(self) -> WavenumberLattice:
        return build_lattice(self.n, self.N)


@dataclass(frozen=True)
class SolverState:
    u: SpectralVectorField
    step_count: int = 0

    @property
    def t(self) -> float:
        """The time of the state, which the field carries."""
        return self.u.time


def dissipation_symbol(lattice: WavenumberLattice, alpha: float, nu: float) -> np.ndarray:
    """nu |k|^(2*alpha) per mode (zero at k = 0)."""
    return nu * lattice.kmod_array ** (2.0 * alpha)


class SlabPool:
    """The threads that run k row slabs: k - 1 pool threads and the caller.

    A context manager; leaving it shuts the pool threads down.  k = 1
    starts no thread.
    """

    def __init__(self, k: int = 1):
        self.k = k
        self._pool = (ThreadPoolExecutor(max_workers=k - 1, thread_name_prefix="nshd-slab")
                      if k > 1 else None)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._pool is not None:
            self._pool.shutdown()

    def run(self, fn, slabs) -> None:
        """fn(rows) for each slab, slab 0 on the calling thread.

        Returns once every slab is done and re-raises the first error.  Each
        pool task runs in a copy of the caller's context, so a slab sees the
        caller's `np.errstate`.
        """
        futures = [self._pool.submit(contextvars.copy_context().run, fn, rows)
                   for rows in slabs[1:]]
        try:
            fn(slabs[0])
        finally:
            for f in futures:  # no slab may still be writing once this returns
                f.exception()  # waits, and leaves the raising to result()
        for f in futures:
            f.result()


class StepWorkspace:
    """The arrays IF-RK4 steps on one lattice reuse, all on the k_n >= 0 half.

    It holds the half-width dissipation symbol, the (n + n^2)-component batch
    that `nonlinear_rhs` sends to the grid, the real grid array of u.grad u
    and four stage buffers (RHS output, b + c, stage input, accumulator).
    `lattice` supplies the RHS's and the cleanup's 2/3-rule mask.

    `slabs` cuts the first wavenumber/grid axis into `pool.k` row slabs (the
    first N mod k one row longer); `each` runs a pointwise kernel on all of
    them, each slab written by one thread only.  The pool is lent by the
    caller (`advance` keeps one for the whole run); the default runs one
    slab, the whole array, on the calling thread.

    A workspace is built once and reused across steps by one caller at a
    time, never shared between callers.  `advance` builds one per run and
    drops it before each diagnostics record, whose own arrays would otherwise
    stack on top of it, and builds it again at the next step; a `step`
    called without one builds a fresh one.  A step's result never lives in
    the workspace, so it may be fed back as the next step's input.
    """

    def __init__(self, lattice: WavenumberLattice, symbol: np.ndarray,
                 pool: SlabPool | None = None):
        n, N, half = lattice.n, lattice.N, lattice.N // 2 + 1
        half_shape = lattice.shape[:-1] + (half,)
        self.lattice = lattice
        self.symbol = np.ascontiguousarray(symbol[..., :half])  # full or half width
        self.batch = np.empty((n + n * n,) + half_shape, dtype=np.complex128)
        self.conv = np.empty((n,) + lattice.shape)
        self.stages = np.empty((4, n) + half_shape, dtype=np.complex128)
        self.pool = SlabPool() if pool is None else pool
        q, r = divmod(N, self.pool.k)
        edges = [i * q + min(i, r) for i in range(self.pool.k + 1)]
        self.slabs = [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]

    def each(self, fn) -> None:
        """fn(rows) for every row slab, on the pool's threads."""
        self.pool.run(fn, self.slabs)


def _clean(lattice: WavenumberLattice, coeffs: np.ndarray, out: np.ndarray,
           rows: slice) -> None:
    """Dealias `coeffs` into `out`, Leray-project it and zero its mean, all on
    the first-axis `rows` that both arrays are cut to."""
    dealias_coeffs(lattice, coeffs, out=out, rows=rows)
    leray_project_coeffs(lattice, out, out=out, rows=rows)
    if rows.start == 0:
        out[(slice(None),) + (0,) * lattice.n] = 0.0


def nonlinear_rhs(lattice: WavenumberLattice, coeffs: np.ndarray,
                  work: StepWorkspace | None = None,
                  out: np.ndarray | None = None) -> np.ndarray:
    """-P[(u.grad)u] on the k_n >= 0 half spectrum (array level).

    Velocity and all partial derivatives are transformed to the grid, the
    convective products are formed pointwise, and the result is transformed
    back, dealiased (2/3 rule), projected and mean-zeroed.  `coeffs` may be
    the full spectrum or its half; the result is the half, (n, N, ..., N//2 + 1).
    The batch assembly, the product and the cleanup run on `work`'s row
    slabs, in its arrays, and the cleanup writes `out`; `work` and `out`
    are fresh when None.  The two transforms take the whole batch.
    `coeffs` is not written.
    """
    n = lattice.n
    if work is None:
        work = StepWorkspace(lattice, lattice.ksq_array)  # the symbol goes unused
    if out is None:
        out = np.empty_like(work.stages[0])
    work.each(lambda rows: gradient_batch(lattice, coeffs, coeffs, work.batch, rows))
    phys = coeffs_to_grid(work.batch, n)
    vel, deriv = phys[:n], phys[n:].reshape((n, n) + lattice.shape)  # deriv[i, j] = d_j u_i
    work.each(lambda rows: np.einsum("j...,ij...->i...", vel[:, rows], deriv[:, :, rows],
                                     out=work.conv[:, rows]))
    del phys, vel, deriv  # the grid batch is freed before the forward transform
    conv_hat = grid_to_coeffs(work.conv, n)

    def cleanup(rows):
        out_s = out[:, rows]
        _clean(lattice, conv_hat[:, rows], out_s, rows)
        np.negative(out_s, out=out_s)

    work.each(cleanup)
    return out


def compute_pressure(u: SpectralVectorField) -> np.ndarray:
    """Spectral pressure from the Poisson equation -lap(p) = Tr (grad u)^2.

    Tr (grad u)^2 = sum_{i,j} (d_i u_j)(d_j u_i) is formed pseudo-spectrally
    and dealiased; p_hat(k) = g_hat(k)/|k|^2 for k != 0 and p_hat(0) = 0.
    The solve runs on the k_n >= 0 half; the full spectrum is returned.
    """
    lat = u.lattice
    _, grad = velocity_gradient_grid(lat, u.coeffs)
    trace = np.einsum("ij...,ji...->...", grad, grad)
    g_hat = dealias_coeffs(lat, grid_to_coeffs(trace, lat.n))
    return full_spectrum(g_hat * lat.inv_ksq_array[..., : g_hat.shape[-1]], lat.n)


def if_rk4_step(coeffs: np.ndarray, dt: float, symbol: np.ndarray, rhs,
                stages: np.ndarray | None = None, each=None) -> np.ndarray:
    """One integrating-factor RK4 step on raw coefficients.

    `symbol` is the dissipative symbol nu |k|^(2*alpha); `rhs(c, out)` writes
    the nonlinear tendency at c into out and leaves c unchanged.  The stages
    run in place in the four arrays of `stages`, each shaped like coeffs
    (fresh ones when None), with the operation order of
    e_full c + (dt/6) ((e_full a + 2 e_half (b + c)) + d).  Between the RHS
    calls, `each(kernel)` runs the stage arithmetic on row slabs
    (`StepWorkspace.each`); by default one slab, the whole array.  `coeffs`
    is not written and the result is a new array.  Exact when rhs == 0.
    """
    if stages is None:
        stages = np.empty((4,) + coeffs.shape, dtype=np.complex128)
    if each is None:
        each = lambda kernel: kernel(slice(None))
    r, bc, u, acc = stages
    h = 0.5 * dt
    e_half, e_full = np.empty((2,) + symbol.shape)
    new = np.empty(coeffs.shape, dtype=np.complex128)

    # each kernel works on the row slab s of every array, through views made once
    def b_input(s):  # e_half (coeffs + h a), and e_full a into the accumulator
        c_s, a_s, u_s, acc_s = coeffs[:, s], r[:, s], u[:, s], acc[:, s]
        eh, ef = e_half[s], e_full[s]
        np.exp(-0.5 * dt * symbol[s], out=eh)
        np.multiply(eh, eh, out=ef)
        np.multiply(h, a_s, out=u_s)
        np.add(c_s, u_s, out=u_s)
        np.multiply(eh, u_s, out=u_s)
        np.multiply(ef, a_s, out=acc_s)

    def c_input(s):  # e_half coeffs + h b
        b_s, hb_s, u_s = bc[:, s], r[:, s], u[:, s]
        np.multiply(h, b_s, out=hb_s)
        np.multiply(e_half[s], coeffs[:, s], out=u_s)
        np.add(u_s, hb_s, out=u_s)

    def d_input(s):  # e_full coeffs + dt e_half c, and b + c
        bc_s, c_s, u_s = bc[:, s], r[:, s], u[:, s]
        np.add(bc_s, c_s, out=bc_s)
        np.multiply(dt * e_half[s], c_s, out=c_s)
        np.multiply(e_full[s], coeffs[:, s], out=u_s)
        np.add(u_s, c_s, out=u_s)

    def combine(s):
        bc_s, d_s, acc_s, new_s = bc[:, s], r[:, s], acc[:, s], new[:, s]
        np.multiply(2.0 * e_half[s], bc_s, out=bc_s)
        np.add(acc_s, bc_s, out=acc_s)
        np.add(acc_s, d_s, out=acc_s)
        np.multiply(dt / 6.0, acc_s, out=acc_s)
        np.multiply(e_full[s], coeffs[:, s], out=new_s)
        np.add(new_s, acc_s, out=new_s)

    with np.errstate(over="ignore", invalid="ignore"):
        rhs(coeffs, r)  # a
        each(b_input)
        rhs(u, bc)  # b
        each(c_input)
        rhs(u, r)  # c
        each(d_input)
        rhs(u, r)  # d
        each(combine)
    return new


def _step_half(coeffs: np.ndarray, dt: float, work: StepWorkspace) -> np.ndarray:
    """IF-RK4 step plus cleanup on k_n >= 0 half-spectrum arrays.

    The RHS and the cleanup apply the 2/3-rule mask of `work.lattice`;
    verify's faults are inputs it builds into the workspace itself.  All
    pointwise work runs on the workspace's row slabs.  The result is a new
    array, outside the workspace.
    """
    lattice = work.lattice
    rhs = lambda c, out: nonlinear_rhs(lattice, c, work, out)
    new = if_rk4_step(coeffs, dt, work.symbol, rhs, work.stages, work.each)
    # divergence cleanup: cheap, stops projection drift from accumulating
    work.each(lambda rows: _clean(lattice, new[:, rows], new[:, rows], rows))
    return new


def step(state: SolverState, dt: float, cfg: SolverConfig,
         work: StepWorkspace | None = None) -> SolverState:
    """Advance one RK4 step of size dt; raises Diverged on non-finite output.

    `work` defaults to a fresh one-slab workspace on the state's lattice
    with the dissipation symbol of cfg.  The step runs on the k_n >= 0 half
    and completes the result once.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    lat = state.u.lattice
    if work is None:
        work = StepWorkspace(lat, dissipation_symbol(lat, cfg.alpha, cfg.nu))
    new = _step_half(half_spectrum(state.u.coeffs), dt, work)
    t_new = state.t + dt
    if not np.all(np.isfinite(new)):
        raise Diverged(t_new, state.step_count + 1)
    return SolverState(u=SpectralVectorField(lat, full_spectrum(new, lat.n), t_new),
                       step_count=state.step_count + 1)


def cfl_dt(u: SpectralVectorField, cfg: SolverConfig) -> float:
    """Advective CFL step: cfl_safety * dx / max_i ||u_i||_inf, capped at dt_max.

    Dissipation imposes no restriction (the integrating factor is exact).
    """
    vmax = float(np.max(np.abs(coeffs_to_grid(u.coeffs, u.lattice.n))))
    if vmax == 0.0 or not np.isfinite(vmax):
        return cfg.dt_max
    return min(cfg.dt_max, cfg.cfl_safety * u.lattice.dx / vmax)


def advance(state: SolverState, cfg: SolverConfig, sink=None) -> SolverState:
    """Step from state.t to cfg.t_end, emitting diagnostics records to sink.

    Records are emitted at the initial state, every cfg.diag_stride steps and
    at t_end.  A divergence emits a final record flagged `diverged` and stops
    cleanly instead of raising.  The steps run in as many row slabs as
    `scipy.fft` has workers when the call starts, on a `SlabPool` that is
    shut down before the call returns or raises.
    """
    from .diagnostics import compute_diagnostics  # cycle: diagnostics reads cfg

    lat = state.u.lattice
    symbol = half_spectrum(dissipation_symbol(lat, cfg.alpha, cfg.nu))
    work = None

    def emit(st, dt_last):
        nonlocal work
        if sink is not None:
            work = None  # a record's arrays would stack on the workspace's
            sink(compute_diagnostics(st.u, cfg, step=st.step_count, dt=dt_last))

    with SlabPool(scipy.fft.get_workers()) as pool:
        emit(state, 0.0)
        eps = 1e-14 * max(1.0, cfg.t_end)
        while state.t < cfg.t_end - eps:
            dt = min(cfl_dt(state.u, cfg), cfg.t_end - state.t)
            if work is None:
                work = StepWorkspace(lat, symbol, pool)
            try:
                state = step(state, dt, cfg, work)
            except Diverged:
                state = SolverState(
                    u=state.u.with_coeffs(state.u.coeffs * np.nan, time=state.t + dt),
                    step_count=state.step_count + 1,
                )
                emit(state, dt)
                return state
            final = abs(state.t - cfg.t_end) <= eps
            if final:
                # snap the time label; the step sizes already sum to t_end
                state = SolverState(u=state.u.with_coeffs(state.u.coeffs, time=cfg.t_end),
                                    step_count=state.step_count)
            if final or state.step_count % cfg.diag_stride == 0:
                emit(state, dt)
    return state
