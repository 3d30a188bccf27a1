"""Time integration of the hyperdissipative Navier-Stokes system.

The spectral right-hand side is du/dt = -P[(u.grad)u] - nu |k|^(2*alpha) u,
with P the Leray projector and the quadratic term formed pseudo-spectrally
under the 2/3 rule.  Time stepping is classical RK4 applied to the
integrating-factor variable v = exp(nu |k|^(2*alpha) t) u, so the stiff
dissipative part is handled exactly: with the nonlinearity switched off a
step reduces to exact exponential decay.  nu = 0 is the inviscid (Euler)
system, whose symbol is zero.

States are stored as full spectra; a step works on the k_n >= 0 half of the
real field's spectrum and completes its result once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
        if 2.0 * self.alpha * math.log10(k_max) > 300:  # else inf symbol, nan at nu = 0
            raise ConfigError("alpha", f"|k|^(2*alpha) must stay below 1e300 at the largest "
                                       f"|k| = {k_max:g} of the lattice, got {self.alpha!r}")
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


def nonlinear_rhs(lattice: WavenumberLattice, coeffs: np.ndarray) -> np.ndarray:
    """-P[(u.grad)u] on the k_n >= 0 half spectrum (array level).

    Velocity and all partial derivatives are transformed to the grid, the
    convective products are formed pointwise, and the result is transformed
    back, dealiased (2/3 rule), projected and mean-zeroed.  `coeffs` may be
    the full spectrum or its half; the result is the half, (n, N, ..., N//2 + 1).
    """
    n = lattice.n
    vel, deriv = velocity_gradient_grid(lattice, coeffs, lead=coeffs)
    conv = np.einsum("j...,ij...->i...", vel, deriv)  # deriv[i, j] = d_j u_i
    out = dealias_coeffs(lattice, grid_to_coeffs(conv, n))
    out = leray_project_coeffs(lattice, out)
    out[(slice(None),) + (0,) * n] = 0.0
    return -out


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


def if_rk4_step(coeffs: np.ndarray, dt: float, symbol: np.ndarray, rhs) -> np.ndarray:
    """One integrating-factor RK4 step on raw coefficients.

    `symbol` is the dissipative symbol nu |k|^(2*alpha); `rhs` maps
    coefficients to the nonlinear tendency.  Exact when rhs == 0.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        e_half = np.exp(-0.5 * dt * symbol)
        e_full = e_half * e_half
        a = rhs(coeffs)
        u_a = e_half * (coeffs + 0.5 * dt * a)
        b = rhs(u_a)
        u_b = e_half * coeffs + 0.5 * dt * b
        c = rhs(u_b)
        u_c = e_full * coeffs + dt * e_half * c
        d = rhs(u_c)
        return e_full * coeffs + (dt / 6.0) * (
            e_full * a + 2.0 * e_half * (b + c) + d
        )


def _step_half(lattice: WavenumberLattice, coeffs: np.ndarray, dt: float,
               symbol: np.ndarray) -> np.ndarray:
    """IF-RK4 step plus cleanup on k_n >= 0 half-spectrum arrays.

    `symbol` may be full or half width.  The RHS and the cleanup always apply
    the lattice's 2/3-rule mask; verify's faults are inputs it builds itself.
    """
    symbol = symbol[..., : coeffs.shape[-1]]
    rhs = lambda c: nonlinear_rhs(lattice, c)
    new = if_rk4_step(coeffs, dt, symbol, rhs)
    # divergence cleanup: cheap, stops projection drift from accumulating
    new = dealias_coeffs(lattice, new)
    new = leray_project_coeffs(lattice, new)
    new[(slice(None),) + (0,) * lattice.n] = 0.0
    return new


def step(state: SolverState, dt: float, cfg: SolverConfig,
         symbol: np.ndarray | None = None) -> SolverState:
    """Advance one RK4 step of size dt; raises Diverged on non-finite output.

    `symbol`, full or half width, defaults to the dissipation symbol of cfg.
    The step runs on the k_n >= 0 half and completes the result once.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    lat = state.u.lattice
    if symbol is None:
        symbol = half_spectrum(dissipation_symbol(lat, cfg.alpha, cfg.nu))
    new = _step_half(lat, half_spectrum(state.u.coeffs), dt, symbol)
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
    cleanly instead of raising.
    """
    from .diagnostics import compute_diagnostics  # cycle: diagnostics reads cfg

    symbol = half_spectrum(dissipation_symbol(state.u.lattice, cfg.alpha, cfg.nu))

    def emit(st, dt_last):
        if sink is not None:
            sink(compute_diagnostics(st.u, cfg, step=st.step_count, dt=dt_last))

    emit(state, 0.0)
    last_emitted = state.step_count
    dt = 0.0
    eps = 1e-14 * max(1.0, cfg.t_end)
    while state.t < cfg.t_end - eps:
        dt = min(cfl_dt(state.u, cfg), cfg.t_end - state.t)
        try:
            state = step(state, dt, cfg, symbol=symbol)
        except Diverged:
            state = SolverState(
                u=state.u.with_coeffs(state.u.coeffs * np.nan, time=state.t + dt),
                step_count=state.step_count + 1,
            )
            emit(state, dt)
            return state
        if abs(state.t - cfg.t_end) <= eps:
            # snap the time label; the step sizes already sum to t_end
            state = SolverState(u=state.u.with_coeffs(state.u.coeffs, time=cfg.t_end),
                                step_count=state.step_count)
        if state.step_count % cfg.diag_stride == 0:
            emit(state, dt)
            last_emitted = state.step_count
    if state.step_count != last_emitted:
        emit(state, dt)
    return state
