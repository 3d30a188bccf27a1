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
count when `advance` starts (`harness` sets it), at most N; the run's
workspace owns k - 1 threads and the calling thread runs slab 0.  The
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
    max_abs,
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


class StepWorkspace:
    """The arrays IF-RK4 steps and diagnostics records on one lattice reuse.

    `width` is w, the lattice's `kept_width`: a step holds and computes only
    those columns of the half, since the 2/3 rule zeroes the rest; `kept`
    cuts a state's half to them, the one layout change of a step.

    It holds the width-w dissipation symbol (None for a workspace that only
    serves records), the (n + n^2)-component batch the transforms to the
    grid consume, the real grid array of u.grad u (a record's products) and
    three width-w stage buffers (RHS output, b + c, stage input); with a
    step's input and its result, which is the accumulator, a step holds
    five kept-column arrays.  The batch is N//2 + 1 wide, as the
    complex-to-real pass reads, and zeroed once: each RHS call and record
    builds its first w columns afresh, and the columns past w are zero
    whenever a step starts.

    It cuts the first wavenumber/grid axis into k = min(slabs, N) row slabs
    (the first N mod k one row longer), once; each of `self.slabs` holds
    its `rows` and those rows of the lattice's tables.  `each` runs a
    pointwise kernel on every slab, each written by one thread: slab 0 by
    the caller, the others by the workspace's own k - 1 threads.  A context
    manager; leaving it shuts those threads down (k = 1, the default,
    starts none).  One caller at a time uses a workspace.  A step's result
    never lives in it, so it may be fed back as the next step's input.
    """

    def __init__(self, lattice: WavenumberLattice, symbol: np.ndarray | None = None,
                 slabs: int = 1):
        n = lattice.n
        w = self.width = lattice.kept_width
        self.lattice = lattice
        self.symbol = None if symbol is None else np.ascontiguousarray(symbol[..., :w])
        self.batch = np.zeros((n + n * n,) + lattice.half_shape, dtype=np.complex128)
        self.conv = np.empty((n,) + lattice.shape)
        self.stages = np.empty((3, n) + lattice.shape[:-1] + (w,), dtype=np.complex128)
        k = min(slabs, lattice.N)  # no empty slab, no idle thread
        self._pool = (ThreadPoolExecutor(max_workers=k - 1, thread_name_prefix="nshd-slab")
                      if k > 1 else None)
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

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._pool is not None:
            self._pool.shutdown()

    def each(self, fn) -> None:
        """fn(slab) for every row slab, slab 0 on the calling thread.

        Returns once every slab is done and re-raises the first error.  Each
        other slab runs in a copy of the caller's context, so it sees the
        caller's `np.errstate`.
        """
        futures = [self._pool.submit(contextvars.copy_context().run, fn, slab)
                   for slab in self.slabs[1:]]
        try:
            fn(self.slabs[0])
        finally:
            for f in futures:  # no slab may still be writing once this returns
                f.exception()  # waits, and leaves the raising to result()
        for f in futures:
            f.result()

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

    u and grad u come to the grid from `gradient_grid`'s velocity batch, the
    convective products are formed pointwise, and the result is transformed
    back, dealiased (2/3 rule), projected and mean-zeroed.  `coeffs` is the
    half or its kept columns; only the first `work.width` columns are read,
    so the rest must hold zeros.  The result is (n, N, ..., work.width).
    The lattice, its mask and projection are `work.lattice`'s.  The product
    and the cleanup run on `work`'s row slabs, in its arrays, and the
    cleanup writes `out`, fresh when None.  `coeffs` is not written.
    """
    n, w = work.lattice.n, work.width
    if out is None:
        out = np.empty_like(work.stages[0])
    vel, deriv = gradient_grid(work, coeffs, w, "velocity")
    work.each(lambda s: np.einsum("j...,ij...->i...", vel[:, s.rows], deriv[:, :, s.rows],
                                  out=work.conv[:, s.rows]))
    del vel, deriv  # the grid batch is freed before the forward transform
    conv_hat = grid_to_coeffs(work.conv, n, width=w)

    def cleanup(s):
        out_s = out[:, s.rows]
        _clean(s, conv_hat[:, s.rows], out_s)
        np.negative(out_s, out=out_s)

    work.each(cleanup)
    return out


def gradient_grid(work: StepWorkspace, coeffs: np.ndarray, cols: int, lead=None):
    """(lead, grad u) on the grid, `grad[i, j] = d_j u_i`, from one inverse
    transform that consumes `work.batch` on the first `cols` columns: the
    lead, then the `gradient_batch` of the half `coeffs`, built on the row
    slabs.  The lead is nothing for None (the pressure), u for "velocity"
    (the RHS) or, in 3D, omega_i = d_j u_k - d_k u_j from the gradient
    components for "vorticity" (the enstrophy production).  Past the kept
    width the batch is left zero for the next step.
    """
    n, w = work.lattice.n, work.width
    m = 0 if lead is None else n
    batch = work.batch[n - m :]
    part = batch[..., :cols]
    pairs = ((1, 2), (2, 0), (0, 1)) if lead == "vorticity" else ()

    def build(s):
        b = part[:, s.rows]
        gradient_batch(s, coeffs[:, s.rows], b[m:])
        if lead == "velocity":
            b[:m] = coeffs[:, s.rows, ..., :cols]
        for i, (j, k) in enumerate(pairs):
            np.subtract(b[m + n * k + j], b[m + n * j + k], out=b[i])

    work.each(build)
    phys = coeffs_to_grid(batch, n, overwrite=True, width=cols)
    work.batch[..., w:cols] = 0.0
    return phys[:m], phys[m:].reshape((n, n) + work.lattice.shape)


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


def if_rk4_step(coeffs: np.ndarray, dt: float, rhs, work: StepWorkspace) -> np.ndarray:
    """One integrating-factor RK4 step of the kept columns `coeffs` on `work`.

    The dissipative symbol nu |k|^(2*alpha) is `work.symbol`; `rhs(c, out)`
    writes the nonlinear tendency at c into out and leaves c unchanged.  The
    stages run in place in `work.stages` with the operation order of
    e_full c + (dt/6) ((e_full a + 2 e_half (b + c)) + d), their arithmetic
    on the workspace's row slabs.  The result is a new array and the
    accumulator: e_full a goes into it before RHS b, and the last kernel
    forms e_full c in the b + c buffer, free by then, and adds the sum to
    it.  At RHS c the input, the accumulator, b + c, the stage input and
    the RHS output are all live, so five kept-column arrays is the floor
    for this order while rhs leaves c unchanged.  `coeffs` is not
    written.  Exact when rhs == 0.
    """
    r, bc, u = work.stages
    h = 0.5 * dt
    e_half, e_full = np.empty((2,) + work.symbol.shape)
    new = np.empty(coeffs.shape, dtype=np.complex128)

    # each kernel works on the rows s of one slab of every array, through views made once
    def b_input(slab):  # e_half (coeffs + h a), and e_full a into the accumulator `new`
        s = slab.rows
        c_s, a_s, u_s, new_s = coeffs[:, s], r[:, s], u[:, s], new[:, s]
        eh, ef = e_half[s], e_full[s]
        np.exp(-0.5 * dt * work.symbol[s], out=eh)
        np.multiply(eh, eh, out=ef)
        np.multiply(h, a_s, out=u_s)
        np.add(c_s, u_s, out=u_s)
        np.multiply(eh, u_s, out=u_s)
        np.multiply(ef, a_s, out=new_s)

    def c_input(slab):  # e_half coeffs + h b
        s = slab.rows
        b_s, hb_s, u_s = bc[:, s], r[:, s], u[:, s]
        np.multiply(h, b_s, out=hb_s)
        np.multiply(e_half[s], coeffs[:, s], out=u_s)
        np.add(u_s, hb_s, out=u_s)

    def d_input(slab):  # e_full coeffs + dt e_half c, and b + c
        s = slab.rows
        bc_s, c_s, u_s = bc[:, s], r[:, s], u[:, s]
        np.add(bc_s, c_s, out=bc_s)
        np.multiply(dt * e_half[s], c_s, out=c_s)
        np.multiply(e_full[s], coeffs[:, s], out=u_s)
        np.add(u_s, c_s, out=u_s)

    def combine(slab):  # the accumulator's sum, then e_full coeffs in the free b + c buffer
        s = slab.rows
        bc_s, d_s, new_s = bc[:, s], r[:, s], new[:, s]
        np.multiply(2.0 * e_half[s], bc_s, out=bc_s)
        np.add(new_s, bc_s, out=new_s)
        np.add(new_s, d_s, out=new_s)
        np.multiply(dt / 6.0, new_s, out=new_s)
        np.multiply(e_full[s], coeffs[:, s], out=bc_s)
        np.add(bc_s, new_s, out=new_s)

    with np.errstate(over="ignore", invalid="ignore"):
        rhs(coeffs, r)  # a
        work.each(b_input)
        rhs(u, bc)  # b
        work.each(c_input)
        rhs(u, r)  # c
        work.each(d_input)
        rhs(u, r)  # d
        work.each(combine)
    return new


def step(state: SolverState, dt: float, work: StepWorkspace) -> SolverState:
    """Advance one IF-RK4 step of size dt on `work`; raises Diverged on non-finite output.

    The composition of the step's two parts: the state's kept columns are
    copied (`StepWorkspace.kept`, which raises ValueError rather than drop
    a nonzero mode), the state is dropped, and `step_kept` steps the copy.
    A caller that passes the state as a temporary, as `advance` does, so
    holds no stepped-from half while the RHS runs: CPython 3.11+ moves a
    Python-to-Python call's arguments into the callee's frame.
    """
    kept = work.kept(state.u.coeffs)
    lattice, t, step_count = state.u.lattice, state.t, state.step_count
    del state
    return step_kept(kept, lattice, t, step_count, dt, work)


def step_kept(kept: np.ndarray, lattice: WavenumberLattice, t: float, step_count: int,
              dt: float, work: StepWorkspace) -> SolverState:
    """One IF-RK4 step of size dt of the kept columns `kept` of a state at
    time t after step_count steps; raises Diverged on non-finite output.

    The columns are stepped with the mask of `work.lattice` and the symbol
    `work.symbol` (verify builds its faults into these), cleaned into the
    kept columns of a zeroed half and checked.  All pointwise work runs on
    the workspace's row slabs.  The result is a new state on `lattice`,
    outside the workspace.  `kept` is not written.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    rhs = lambda c, out: nonlinear_rhs(c, work, out)
    new = if_rk4_step(kept, dt, rhs, work)
    half = np.zeros((lattice.n,) + lattice.half_shape, dtype=np.complex128)
    cleaned = half[..., : work.width]
    # divergence cleanup: cheap, stops projection drift from accumulating
    work.each(lambda s: _clean(s, new[:, s.rows], cleaned[:, s.rows]))
    t_new = t + dt
    if not np.all(np.isfinite(cleaned)):
        raise Diverged(t_new, step_count + 1)
    return SolverState(u=SpectralVectorField(lattice, half, t_new), step_count=step_count + 1)


def cfl_dt(u: SpectralVectorField, cfg: SolverConfig) -> float:
    """Advective CFL step: cfl_safety * dx / max_i ||u_i||_inf, capped at dt_max.

    Dissipation imposes no restriction (the integrating factor is exact).
    The transform takes the kept columns when u holds zeros past them.
    """
    lat = u.lattice
    grid = coeffs_to_grid(u.coeffs, lat.n, width=live_width(u.coeffs, lat.kept_width))
    vmax = max_abs(grid)
    if vmax == 0.0 or not np.isfinite(vmax):
        return cfg.dt_max
    return min(cfg.dt_max, cfg.cfl_safety * u.lattice.dx / vmax)


def advance(state: SolverState, cfg: SolverConfig, sink=None) -> SolverState:
    """Step from state.t to cfg.t_end, emitting diagnostics records to sink.

    Records are emitted at the initial state, every cfg.diag_stride steps and
    at t_end.  A divergence emits a final record flagged `diverged` and stops
    cleanly instead of raising.  The steps run in as many row slabs as
    `scipy.fft` has workers when the call starts, on the threads of a
    `StepWorkspace` that shuts them down before the call returns or raises.

    Each step is handed advance's only reference to the state it steps
    from, which `step` drops once it has copied the kept columns, so no
    half of advance's is live while an RHS runs; nor is the initial field,
    if the caller passes the initial state as a temporary, as
    `harness.run_config` does.
    """
    from .diagnostics import compute_diagnostics  # cycle: diagnostics reads cfg

    lat = state.u.lattice

    def emit(st, dt_last):
        if sink is not None:
            sink(compute_diagnostics(st.u, cfg, step=st.step_count, dt=dt_last, work=work))

    with StepWorkspace(lat, dissipation_symbol(lat, cfg.alpha, cfg.nu),
                       scipy.fft.get_workers()) as work:
        emit(state, 0.0)
        eps = 1e-14 * max(1.0, cfg.t_end)
        while state.t < cfg.t_end - eps:
            dt = min(cfl_dt(state.u, cfg), cfg.t_end - state.t)
            handed = [state]
            del state  # step(handed.pop(), ...) gets the only reference
            try:
                state = step(handed.pop(), dt, work)
            except Diverged as exc:
                # nan+nanj in every mode: the bytes of the stepped-from coeffs * nan
                nan = np.full((lat.n,) + lat.half_shape, complex(math.nan, math.nan))
                state = SolverState(u=SpectralVectorField(lat, nan, exc.t), step_count=exc.step)
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
