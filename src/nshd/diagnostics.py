"""Norms, monitors and per-snapshot diagnostics records.

Conventions (Fourier-series coefficients on the 2*pi torus):
    energy            E = 1/2 (2*pi)^n sum_k sum_i |u_i(k)|^2
    dissipation rate  D = nu (2*pi)^n sum_k |k|^(2*alpha) sum_i |u_i(k)|^2
    enstrophy         Z = 1/2 (2*pi)^n sum_k |k|^2 sum_i |u_i(k)|^2 = 1/2 ||grad u||^2
                      (= 1/2 ||omega||^2 on divergence-free fields)
    moment sum        M_m(v) = sum_k |k|^m |v(k)|  (plain mode sum), v = u_i or p
    Sobolev norm      ||u||_{H^beta}^2 = (2*pi)^n sum_k (1+|k|^2)^beta sum_i |u_i|^2

Along exact solutions dE/dt = -D (the differentiated energy identity, with
the factor 2 kept explicit).  Every sum_k runs over all modes, through
`spectral.mode_sum` on the k_n >= 0 half that a field holds.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .dynamics import SolverConfig, compute_pressure, dissipation_symbol
from .spectral import (
    SpectralVectorField,
    WavenumberLattice,
    coeffs_to_grid,
    mode_sum,
    velocity_gradient_grid,
    vorticity,
)

TAIL_FRACTION_THRESHOLD = 1e-6


class NotEnoughSamples(ValueError):
    """A monitor was asked to differentiate fewer than three records."""


FLAGS = ("diverged", "resolution_loss")  # the run flags, gravest first


@dataclass(frozen=True)
class DiagnosticsRecord:
    step: int
    t: float
    dt: float
    energy: float
    dissipation_rate: float
    enstrophy: float
    enstrophy_production: float
    max_velocity: float
    moments: dict          # component -> {order: M_m}
    sobolev: dict          # beta -> ||u||_{H^beta}
    pressure_moments: dict # exponent j -> sum_k |k|^j |p_hat(k)|
    tail_fraction: float
    flags: tuple = ()      # the FLAGS that fired, in FLAGS order


# -- scalar diagnostics --------------------------------------------------------


def _weighted(weights: np.ndarray, u: SpectralVectorField) -> float:
    """sum_k weights(k) sum_i |u_i(k)|^2, with `weights` on the k_n >= 0 half."""
    return mode_sum(weights * np.sum(np.abs(u.coeffs) ** 2, axis=0))


def energy(u: SpectralVectorField) -> float:
    return 0.5 * u.lattice.volume * mode_sum(np.abs(u.coeffs) ** 2)


def dissipation_rate(u: SpectralVectorField, alpha: float, nu: float) -> float:
    """D, weighted by the step's own `dynamics.dissipation_symbol`."""
    return u.lattice.volume * _weighted(dissipation_symbol(u.lattice, alpha, nu), u)


def moment_sums(lattice: WavenumberLattice, values, orders) -> list:
    """[{m: M_m(v)} for each v along the leading axis of `values`, k_n >= 0
    halves] (|k|^0 = 1 at k = 0); |v| is formed once per call and |k|^m once
    per order."""
    mags = np.abs(values)
    kmod = lattice.kmod_array
    sums = [{} for _ in mags]
    for m in orders:
        weights = kmod ** float(m)
        for out, mag in zip(sums, mags):
            out[m] = mode_sum(weights * mag)
    return sums


def enstrophy(u: SpectralVectorField) -> float:
    """1/2 ||grad u||^2, which is 1/2 ||omega||^2 when div u = 0."""
    return 0.5 * u.lattice.volume * _weighted(u.lattice.ksq_array, u)


def enstrophy_production(u: SpectralVectorField) -> float:
    """<omega . grad u, omega> by grid quadrature; identically 0 for n = 2."""
    lat = u.lattice
    if lat.n == 2:
        return 0.0
    w, grad = velocity_gradient_grid(lat, u.coeffs, lead=vorticity(u))
    # omega_i omega_j is symmetric, so the orientation of grad does not matter
    integrand = np.einsum("i...,ij...,j...->...", w, grad, w)
    return lat.cell_volume * float(np.sum(integrand))


def max_velocity(u: SpectralVectorField) -> float:
    return float(np.max(np.abs(coeffs_to_grid(u.coeffs, u.lattice.n))))


def sobolev_norm(u: SpectralVectorField, beta: float) -> float:
    lat = u.lattice
    return math.sqrt(lat.volume * _weighted((1.0 + lat.ksq_array) ** float(beta), u))


def tail_fraction(u: SpectralVectorField) -> float:
    """Energy fraction in the last shell the 2/3 rule keeps, max_j |k_j| in [N/3 - 1, N/3).

    The shell is cut from `kmax_array` by the dealias mask (`zoom_cut`), the
    table the solver cuts with.
    """
    lat = u.lattice
    shell = lat.dealias_mask_array & (lat.kmax_array >= lat.N / 3.0 - 1.0)
    per_mode = np.sum(np.abs(u.coeffs) ** 2, axis=0)
    total = mode_sum(per_mode)
    if total == 0.0:
        return 0.0
    return mode_sum(np.where(shell, per_mode, 0.0)) / total


# -- the moment-inequality monitor ---------------------------------------------


@dataclass(frozen=True)
class MomentInequalitySample:
    """Moment-inequality residual at one diagnostic time.

    residual = rhs - lhs where lhs is the finite-difference d/dt of
    M_m(u_i) and rhs is the binomial transport sum minus the dissipative
    moment plus the pressure term.  The inequality holds iff
    residual >= -tol.
    """

    t: float
    component: int
    m: float
    lhs: float
    rhs: float
    residual: float
    tol: float
    one_sided: bool

    @property
    def satisfied(self) -> bool:
        return self.residual >= -self.tol


def _require_moment(record: DiagnosticsRecord, component: int, order: float) -> float:
    comp = record.moments.get(component)
    if comp is None or order not in comp:
        raise ValueError(
            f"record at t={record.t:g} lacks moment order {order:g} for "
            f"component {component}; configure moment_orders accordingly"
        )
    return comp[order]


def moment_inequality_rhs(record: DiagnosticsRecord, component: int, m: int,
              alpha: float, nu: float) -> float:
    """Binomial sum - nu M_{2a+m} + pressure moment, from one record."""
    m = int(m)
    n_comp = len(record.moments)
    transport = 0.0
    for j in range(n_comp):
        for ell in range(m + 1):
            transport += (
                math.comb(m, ell)
                * _require_moment(record, j, float(ell))
                * _require_moment(record, component, float(m - ell + 1))
            )
    dissipative = nu * _require_moment(record, component, float(2.0 * alpha + m))
    c_pressure = record.pressure_moments.get(float(m + 1))
    if c_pressure is None:
        raise ValueError(
            f"record at t={record.t:g} lacks pressure moment exponent {m + 1}"
        )
    return transport - dissipative + c_pressure


def _fd_derivative(ts, ys, idx):
    """Three-point derivative of ys at ts[idx]; one-sided at the ends."""
    last = len(ts) - 1
    if idx == 0:
        return (ys[1] - ys[0]) / (ts[1] - ts[0]), True
    if idx == last:
        return (ys[last] - ys[last - 1]) / (ts[last] - ts[last - 1]), True
    h1 = ts[idx] - ts[idx - 1]
    h2 = ts[idx + 1] - ts[idx]
    # nonuniform centered 3-point formula
    d = (
        ys[idx - 1] * (-h2 / (h1 * (h1 + h2)))
        + ys[idx] * ((h2 - h1) / (h1 * h2))
        + ys[idx + 1] * (h1 / (h2 * (h1 + h2)))
    )
    return d, False


def moment_inequality_scan(records, component: int, m: int, alpha: float, nu: float):
    """Evaluate the moment-inequality residual at every record in a window."""
    if len(records) < 3:
        raise NotEnoughSamples(
            f"need at least 3 consecutive records, got {len(records)}"
        )
    ts = [r.t for r in records]
    ms = [_require_moment(r, component, float(m)) for r in records]
    out = []
    for idx, rec in enumerate(records):
        lhs, one_sided = _fd_derivative(ts, ms, idx)
        rhs = moment_inequality_rhs(rec, component, m, alpha, nu)
        h = max(
            ts[min(idx + 1, len(ts) - 1)] - ts[idx],
            ts[idx] - ts[max(idx - 1, 0)],
        )
        # local decay-rate estimate sizes the finite-difference error term
        lo, hi = max(idx - 1, 0), min(idx + 2, len(ms))
        m_loc = max(max(abs(v) for v in ms[lo:hi]), 1e-300)
        rate = max(1.0, abs(lhs) / m_loc)
        if one_sided:
            fd_allowance = 0.5 * h * m_loc * rate**2
        else:
            fd_allowance = (h**2 / 6.0) * m_loc * rate**3
        tol = 1e-6 * (1.0 + abs(rhs)) + fd_allowance
        out.append(MomentInequalitySample(rec.t, component, float(m), lhs, rhs,
                               rhs - lhs, tol, one_sided))
    return out


# -- the max-norm vs moment bound ------------------------------------------------


@dataclass(frozen=True)
class MaxNormBoundCheck:
    component: int
    axis: int | None
    order: int
    lhs: float   # ||d^beta u_i||_inf
    rhs: float   # M_|beta|(u_i)
    holds: bool


def max_norm_bound_check(u: SpectralVectorField, beta_total: int):
    """Check ||d^beta u_i||_inf <= M_|beta|(u_i) for pure-axis multi-indices.

    Returns one MaxNormBoundCheck per component (and per axis when beta_total > 0).
    With the series convention the bound carries prefactor 1 and is a
    triangle-inequality fact, exact up to rounding (tolerance 1e-10).
    """
    lat = u.lattice
    out = []
    axes = [None] if beta_total == 0 else list(range(lat.n))
    sums = moment_sums(lat, u.coeffs, [beta_total])
    for i in range(lat.n):
        rhs = sums[i][beta_total]
        for axis in axes:
            if axis is None:
                deriv = u.coeffs[i]
            else:
                deriv = (1j * lat.mode_grids[axis]) ** beta_total * u.coeffs[i]
            lhs = float(np.max(np.abs(coeffs_to_grid(deriv, lat.n))))
            out.append(MaxNormBoundCheck(i, axis, beta_total, lhs, rhs,
                                   lhs <= rhs + 1e-10))
    return out


# -- record assembly -------------------------------------------------------------


def _numbers(value):
    """Every number in a record field, walking dict values."""
    if isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    elif isinstance(value, (int, float)):
        yield value


def blowup_indicator(record: DiagnosticsRecord) -> tuple:
    """The FLAGS the record fires, as discrete blow-up proxies.

    `diverged` fires on any non-finite number the record holds, whatever its
    field; neither flag claims a true singularity.
    """
    fired = {
        "diverged": not all(math.isfinite(v) for f in dataclasses.fields(record)
                            for v in _numbers(getattr(record, f.name))),
        "resolution_loss": record.tail_fraction > TAIL_FRACTION_THRESHOLD,
    }
    return tuple(name for name in FLAGS if fired[name])


def compute_diagnostics(u: SpectralVectorField, cfg: SolverConfig,
                        step: int = 0, dt: float = 0.0) -> DiagnosticsRecord:
    with np.errstate(over="ignore", invalid="ignore"):
        return _compute_diagnostics(u, cfg, step, dt)


def _compute_diagnostics(u, cfg, step, dt):
    exponents = sorted({m + 1.0 for m in cfg.moment_orders if m == int(m)})
    # D of an inviscid (nu = 0) run is exactly 0, also where |u|^2 is not finite
    record = DiagnosticsRecord(
        step=step,
        t=u.time,
        dt=dt,
        energy=energy(u),
        dissipation_rate=dissipation_rate(u, cfg.alpha, cfg.nu) if cfg.nu else 0.0,
        enstrophy=enstrophy(u),
        enstrophy_production=enstrophy_production(u),
        max_velocity=max_velocity(u),
        moments=dict(enumerate(moment_sums(u.lattice, u.coeffs, cfg.moment_orders))),
        sobolev={b: sobolev_norm(u, b) for b in cfg.sobolev_betas},
        pressure_moments=(moment_sums(u.lattice, [compute_pressure(u)], exponents)[0]
                          if exponents else {}),
        tail_fraction=tail_fraction(u),
    )
    return dataclasses.replace(record, flags=blowup_indicator(record))


# -- CSV schema -------------------------------------------------------------------


def _fmt_order(x: float) -> str:
    return str(int(x)) if float(x) == int(x) else repr(float(x))


def _columns(cfg: SolverConfig) -> list:
    """The CSV columns in order: (name, the record value the column holds)."""
    return [
        *((name, attrgetter(name)) for name in
          ("step", "t", "dt", "energy", "dissipation_rate", "enstrophy")),
        ("production", attrgetter("enstrophy_production")),
        ("max_velocity", attrgetter("max_velocity")),
        *((f"M{_fmt_order(m)}_c{i + 1}", lambda r, i=i, m=m: r.moments[i][m])
          for m in cfg.moment_orders for i in range(cfg.n)),
        *((f"H{_fmt_order(b)}", lambda r, b=b: r.sobolev[b]) for b in cfg.sobolev_betas),
        ("tail_fraction", attrgetter("tail_fraction")),
        ("flags", lambda r: "|".join(r.flags)),
    ]


def csv_header(cfg: SolverConfig) -> str:
    return ",".join(name for name, _ in _columns(cfg))


def csv_row(record: DiagnosticsRecord, cfg: SolverConfig) -> str:
    """One CSV line: the flags joined by "|", every number by its repr."""
    return ",".join(v if isinstance(v, str) else repr(v)
                    for v in (value(record) for _, value in _columns(cfg)))
