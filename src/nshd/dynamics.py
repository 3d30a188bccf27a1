"""Time integration of the hyperdissipative Navier-Stokes system.

The spectral right-hand side is du/dt = -P[(u.grad)u] - nu |k|^(2*alpha) u,
with P the Leray projector and the quadratic term formed pseudo-spectrally
under the 2/3 rule.  Time stepping is classical RK4 applied to the
integrating-factor variable v = exp(nu |k|^(2*alpha) t) u, so the stiff
dissipative part is handled exactly: with the nonlinearity switched off a
step reduces to exact exponential decay.  nu = 0 is the inviscid (Euler)
system, whose symbol is zero.

A state holds the real field's k_n >= 0 half spectrum (the full spectrum
only on disk).  `step`, the only way a state advances (in `advance` and in
verify's fixed-step loop), steps the kept columns, the first w of the half
that the 2/3 rule keeps (`WavenumberLattice.kept_width`: 22 of 33 at N=64,
11 of 17 at N=32, every column under verify's `dealias_off` fault), and
cleans them into a fresh half whose other columns are exact zeros.  Its
arrays live in a `StepWorkspace`: `advance` builds one per run and keeps it
through the run's diagnostics records, verify one per integration (its
faults in the lattice and symbol), a one-off record one per call.  There
is no module-level cache, so threads that each advance their own run share
nothing.

The pointwise work runs in k row slabs along the first axis, each written
by one thread: a step's batch assembly, grid product, cleanups and IF-RK4
stage updates, and a record's batch assembly, grid products, moduli and
weighted sums.  Every element goes through the same operations whatever k
is, and a sum over modes is reduced per row into a fixed array summed once,
so outputs are byte-identical for every k.  k is the `scipy.fft` worker
count when `advance` starts (`harness` sets it), at most N; `advance` owns
a `SlabPool` of k - 1 threads and the calling thread runs slab 0.  The
`spectral` operators see a slab as a lattice.  The transforms, the
finiteness check and `cfl_dt` stay whole on the calling thread.
"""

from __future__ import annotations

import contextvars
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from types import SimpleNamespace

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
    gradient_batch,
    grid_to_coeffs,
    leray_project_coeffs,
    live_width,
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
    """nu |k|^(2*alpha) per mode of the k_n >= 0 half (zero at k = 0)."""
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
        """fn(slab) for each slab, slab 0 on the calling thread.

        Returns once every slab is done and re-raises the first error.  Each
        pool task runs in a copy of the caller's context, so a slab sees the
        caller's `np.errstate`.
        """
        futures = [self._pool.submit(contextvars.copy_context().run, fn, slab)
                   for slab in slabs[1:]]
        try:
            fn(slabs[0])
        finally:
            for f in futures:  # no slab may still be writing once this returns
                f.exception()  # waits, and leaves the raising to result()
        for f in futures:
            f.result()


class StepWorkspace:
    """The arrays IF-RK4 steps and diagnostics records on one lattice reuse.

    `width` is w, the lattice's `kept_width`: a step holds and computes only
    those columns of the half, since the 2/3 rule zeroes the rest; `kept`
    cuts a state's half to them, the one layout change of a step.

    It holds the width-w dissipation symbol (None for a workspace that only
    serves records), the (n + n^2)-component batch the transforms to the
    grid consume, the real grid array of u.grad u (a record's products) and
    four width-w stage buffers (RHS output, b + c, stage input,
    accumulator).  The batch is N//2 + 1 wide, as the complex-to-real pass
    reads, and zeroed once: each RHS call and record builds its first w
    columns afresh, and the columns past w are zero whenever a step starts.

    `slabs` cuts the first wavenumber/grid axis into k = min(pool.k, N) row
    slabs (the first N mod k one row longer), once; a slab holds its `rows`
    and those rows of the lattice's tables.  `each` runs a pointwise kernel
    on every slab, each written by one thread.  The pool is lent by the
    caller (`advance` keeps one per run); the default runs one slab on the
    calling thread.  One caller at a time uses a workspace.  A step's result
    never lives in it, so it may be fed back as the next step's input.
    """

    def __init__(self, lattice: WavenumberLattice, symbol: np.ndarray | None = None,
                 pool: SlabPool | None = None):
        n = lattice.n
        w = self.width = lattice.kept_width
        self.lattice = lattice
        self.symbol = None if symbol is None else np.ascontiguousarray(symbol[..., :w])
        self.batch = np.zeros((n + n * n,) + lattice.half_shape, dtype=np.complex128)
        self.conv = np.empty((n,) + lattice.shape)
        self.stages = np.empty((4, n) + lattice.shape[:-1] + (w,), dtype=np.complex128)
        self.pool = SlabPool() if pool is None else pool
        k = min(self.pool.k, lattice.N)  # no empty slab, no idle thread
        q, r = divmod(lattice.N, k)
        edges = [i * q + min(i, r) for i in range(k + 1)]
        # a sparse mode grid keeps its broadcast (length 1) first axis whole
        cut = lambda a, rows: a[rows] if a.shape[0] > 1 else a
        self.slabs = [SimpleNamespace(rows=rows, n=n, N=lattice.N,
                                      mode_grids=tuple(cut(g, rows) for g in lattice.mode_grids),
                                      **{name: cut(getattr(lattice, name), rows) for name in
                                         ("kmax_array", "kmod_array", "ksq_array",
                                          "inv_ksq_array", "dealias_mask_array")})
                      for rows in map(slice, edges, edges[1:])]

    def each(self, fn) -> None:
        """fn(slab) for every row slab, on the pool's threads."""
        self.pool.run(fn, self.slabs)

    def kept(self, coeffs: np.ndarray) -> np.ndarray:
        """A contiguous copy of the first `width` columns of a k_n >= 0 half.

        Raises ValueError if a column it drops holds a nonzero mode, so no
        energy is dropped silently.
        """
        dropped = coeffs[..., self.width :]
        if np.any(dropped):
            raise ValueError(f"nonzero modes at k_n >= {self.width}, which the 2/3 rule "
                             f"of N={self.lattice.N} drops")
        return coeffs[..., : self.width].copy()


def _clean(slab, coeffs: np.ndarray, out: np.ndarray) -> None:
    """Dealias `coeffs` into `out`, Leray-project it and zero its mean; all three are one slab's."""
    dealias_coeffs(slab, coeffs, out=out)
    leray_project_coeffs(slab, out, out=out)
    if slab.rows.start == 0:
        out[(slice(None),) + (0,) * slab.n] = 0.0


def nonlinear_rhs(coeffs: np.ndarray, work: StepWorkspace,
                  out: np.ndarray | None = None) -> np.ndarray:
    """-P[(u.grad)u] on the kept columns of the k_n >= 0 half (array level).

    Velocity and all partial derivatives are transformed to the grid, the
    convective products are formed pointwise, and the result is transformed
    back, dealiased (2/3 rule), projected and mean-zeroed.  `coeffs` is the
    half or its kept columns; only the first `work.width` columns are read,
    so the rest must hold zeros.  The result is (n, N, ..., work.width).
    The lattice, its mask and projection are
    `work.lattice`'s.  The batch assembly, the product and the cleanup run on
    `work`'s row slabs, in its arrays, and the cleanup writes `out`, fresh
    when None.  The two transforms take the whole batch on the kept columns,
    and the inverse one runs in `work.batch`, consuming it.  `coeffs` is not
    written.
    """
    n, shape, w = work.lattice.n, work.lattice.shape, work.width
    if out is None:
        out = np.empty_like(work.stages[0])
    batch = work.batch[..., :w]
    work.each(lambda s: gradient_batch(s, coeffs[:, s.rows], coeffs[:, s.rows],
                                       batch[:, s.rows]))
    phys = coeffs_to_grid(work.batch, n, overwrite=True, width=w)
    vel, deriv = phys[:n], phys[n:].reshape((n, n) + shape)  # deriv[i, j] = d_j u_i
    work.each(lambda s: np.einsum("j...,ij...->i...", vel[:, s.rows], deriv[:, :, s.rows],
                                  out=work.conv[:, s.rows]))
    del phys, vel, deriv  # the grid batch is freed before the forward transform
    conv_hat = grid_to_coeffs(work.conv, n, width=w)

    def cleanup(s):
        out_s = out[:, s.rows]
        _clean(s, conv_hat[:, s.rows], out_s)
        np.negative(out_s, out=out_s)

    work.each(cleanup)
    return out


def gradient_grid(work: StepWorkspace, coeffs: np.ndarray, cols: int, curl: bool = False):
    """(omega, grad u) on the grid, `grad[i, j] = d_j u_i`, from one inverse
    transform that consumes `work.batch` on the first `cols` columns: the
    `gradient_batch` of the half `coeffs` in its last n^2 components and,
    with `curl` (3D), omega_i = d_j u_k - d_k u_j from those in the first 3,
    all built on the row slabs; omega is empty without.  Past the kept
    width the batch is left zero for the next step.
    """
    n, w = work.lattice.n, work.width
    lead = 3 if curl else 0
    batch = work.batch[n - lead :]
    part = batch[..., :cols]

    def build(s):
        b = part[:, s.rows]
        gradient_batch(s, coeffs[:, s.rows], batch=b[lead:])
        for i, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))[:lead]):
            np.subtract(b[lead + 3 * k + j], b[lead + 3 * j + k], out=b[i])

    work.each(build)
    phys = coeffs_to_grid(batch, n, overwrite=True, width=cols)
    work.batch[..., w:cols] = 0.0
    return phys[:lead], phys[lead:].reshape((n, n) + work.lattice.shape)


def compute_pressure(u: SpectralVectorField, work: StepWorkspace | None = None) -> np.ndarray:
    """Spectral pressure from the Poisson equation -lap(p) = Tr (grad u)^2.

    Tr (grad u)^2 = sum_{i,j} (d_i u_j)(d_j u_i) is formed pseudo-spectrally
    (`gradient_grid` in `work.batch[n:]`, the trace in `work.conv[0]`, on a
    fresh workspace when None) from the columns `live_width` reads, and
    dealiased; p_hat(k) = g_hat(k)/|k|^2 for k != 0 and p_hat(0) = 0, on
    the k_n >= 0 half.
    """
    lat = u.lattice
    work = StepWorkspace(lat) if work is None else work
    cols = live_width(u.coeffs, work.width)
    grad = gradient_grid(work, u.coeffs, cols)[1]
    trace = work.conv[0]
    work.each(lambda s: np.einsum("ij...,ji...->...", grad[:, :, s.rows], grad[:, :, s.rows],
                                  out=trace[s.rows]))
    del grad
    p_hat = np.zeros(lat.half_shape, dtype=np.complex128)
    g_hat = dealias_coeffs(lat, grid_to_coeffs(trace, lat.n, width=cols))
    np.multiply(g_hat, lat.inv_ksq_array[..., :cols], out=p_hat[..., :cols])
    return p_hat


def if_rk4_step(coeffs: np.ndarray, dt: float, symbol: np.ndarray, rhs,
                stages: np.ndarray | None = None, each=None) -> np.ndarray:
    """One integrating-factor RK4 step on raw coefficients.

    `symbol` is the dissipative symbol nu |k|^(2*alpha); `rhs(c, out)` writes
    the nonlinear tendency at c into out and leaves c unchanged.  The stages
    run in place in the four arrays of `stages`, each shaped like coeffs
    (fresh ones when None), with the operation order of
    e_full c + (dt/6) ((e_full a + 2 e_half (b + c)) + d).  Between the RHS
    calls, `each(kernel)` runs the stage arithmetic as kernel(rows) on
    first-axis row slabs; by default one slab, the whole array.  `coeffs`
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


def step(state: SolverState, dt: float, work: StepWorkspace) -> SolverState:
    """Advance one IF-RK4 step of size dt on `work`; raises Diverged on non-finite output.

    The state is cut to the workspace's kept columns (`StepWorkspace.kept`,
    which raises ValueError rather than drop a nonzero mode), stepped with
    the mask of `work.lattice` and the symbol `work.symbol` (verify builds
    its faults into these), cleaned into the kept columns of a zeroed half
    and checked.  All pointwise work runs on the workspace's row slabs.
    The result is a new state on the state's lattice, outside the workspace.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    rhs = lambda c, out: nonlinear_rhs(c, work, out)
    new = if_rk4_step(work.kept(state.u.coeffs), dt, work.symbol, rhs, work.stages,
                      lambda kernel: work.each(lambda s: kernel(s.rows)))
    half = np.zeros(state.u.coeffs.shape, dtype=np.complex128)
    kept = half[..., : work.width]
    # divergence cleanup: cheap, stops projection drift from accumulating
    work.each(lambda s: _clean(s, new[:, s.rows], kept[:, s.rows]))
    t_new = state.t + dt
    if not np.all(np.isfinite(kept)):
        raise Diverged(t_new, state.step_count + 1)
    return SolverState(u=state.u.with_coeffs(half, time=t_new),
                       step_count=state.step_count + 1)


def cfl_dt(u: SpectralVectorField, cfg: SolverConfig) -> float:
    """Advective CFL step: cfl_safety * dx / max_i ||u_i||_inf, capped at dt_max.

    Dissipation imposes no restriction (the integrating factor is exact).
    The transform takes the kept columns when u holds zeros past them.
    """
    lat = u.lattice
    grid = coeffs_to_grid(u.coeffs, lat.n, width=live_width(u.coeffs, lat.kept_width))
    vmax = float(np.max(np.abs(grid)))
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

    def emit(st, dt_last):
        if sink is not None:
            sink(compute_diagnostics(st.u, cfg, step=st.step_count, dt=dt_last, work=work))

    with SlabPool(scipy.fft.get_workers()) as pool:
        work = StepWorkspace(lat, dissipation_symbol(lat, cfg.alpha, cfg.nu), pool)
        emit(state, 0.0)
        eps = 1e-14 * max(1.0, cfg.t_end)
        while state.t < cfg.t_end - eps:
            dt = min(cfl_dt(state.u, cfg), cfg.t_end - state.t)
            try:
                state = step(state, dt, work)
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
