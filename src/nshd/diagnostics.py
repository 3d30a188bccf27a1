"""Norms, monitors and per-snapshot diagnostics records.

Conventions (Fourier-series coefficients on the 2*pi torus):
    energy            E = 1/2 (2*pi)^n sum_k sum_i |u_i(k)|^2
    dissipation rate  D = nu (2*pi)^n sum_k |k|^(2*alpha) sum_i |u_i(k)|^2
    enstrophy         Z = 1/2 (2*pi)^n sum_k |k|^2 sum_i |u_i(k)|^2 = 1/2 ||grad u||^2
                      (= 1/2 ||omega||^2 on divergence-free fields)
    moment sum        M_m(v) = sum_k |k|^m |v(k)|  (plain mode sum), v = u_i or p
    Sobolev norm      ||u||_{H^beta}^2 = (2*pi)^n sum_k (1+|k|^2)^beta sum_i |u_i|^2

Along exact solutions dE/dt = -D (the differentiated energy identity, with
the factor 2 kept explicit).  Every sum_k runs over all modes, from the
k_n >= 0 half a field holds, through the one kernel `_weighted_sums`.  A
record runs on a `dynamics.StepWorkspace` (the run's, or a fresh one):
transforms in its batch, pointwise work on its row slabs.
"""

from __future__ import annotations

import dataclasses
import math
from collections import namedtuple
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .dynamics import SolverConfig, StepWorkspace, compute_pressure, gradient_grid
from .spectral import SpectralVectorField, WavenumberLattice, coeffs_to_grid, live_width

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


# -- sums over every mode -----------------------------------------------------------


# scale (shift + table)^p for a table of the lattice; table None is the last
# shell the 2/3 rule keeps, max_j |k_j| in [N/3 - 1, N/3), cut by the dealias mask
_Weight = namedtuple("_Weight", "table p shift scale", defaults=(0.0, 1.0))
_ONE, _KSQ, _SHELL = _Weight("ksq_array", 0.0), _Weight("ksq_array", 1.0), _Weight(None, 0.0)


def _weighted_sums(each, N: int, cols: int, terms) -> list:
    """[sum_k weight(k) v(k) over every mode, for each v of each (weight,
    values) in `terms`], each v on the first `cols` columns of the half.

    On each row slab of `each` a `_Weight` is formed in one buffer, times
    the column multiplicity 1, 2, ..., 2, 1 (exact, a power of 2), and its
    dot product with each v is taken per first-axis row into a fixed
    (values, N) array, summed once: the sums do not depend on the slab count.
    """
    mult = np.full(cols, 2.0)
    mult[:: N // 2] = 1.0  # the columns k_n = 0 and -N/2 stand for themselves alone
    rows = np.empty((sum(len(values) for _, values in terms), N))

    def kernel(s):
        cut = lambda name: getattr(s, name)[..., :cols]
        weight = np.empty(cut("ksq_array").shape)
        flat = lambda a: a.reshape(len(a), -1)
        j = 0
        for (table, p, shift, scale), values in terms:
            if table is None:
                keep = cut("dealias_mask_array") & (cut("kmax_array") >= N / 3.0 - 1.0)
                np.multiply(keep, mult, out=weight)
            else:
                np.power(np.add(cut(table), shift, out=weight) if shift else cut(table), p,
                         out=weight)
                weight *= scale * mult
            for v in values:
                v = v[s.rows] if table else np.where(keep, v[s.rows], 0.0)  # 0 * inf is nan
                np.einsum("ij,ij->i", flat(weight), flat(v), out=rows[j, s.rows])
                j += 1

    each(kernel)
    return rows.sum(axis=1).tolist()


def _moduli(each, coeffs: np.ndarray, cols: int):
    """(|c_i|, sum_i |c_i|^2) of the component-first half `coeffs` on its
    first `cols` columns, on the row slabs."""
    mags = np.empty(coeffs.shape[:-1] + (cols,))
    sq = np.empty(mags.shape[1:])

    def kernel(s):
        m, q = mags[:, s.rows], sq[s.rows]
        np.abs(coeffs[:, s.rows, ..., :cols], out=m)
        np.square(m[0], out=q)
        for mi in m[1:]:
            q += np.square(mi)

    each(kernel)
    return mags, sq


def _square_sums(u: SpectralVectorField, *weights) -> list:
    """[sum_k w(k) sum_i |u_i(k)|^2 for each `_Weight` w], on the lattice as
    its own one slab."""
    lat, each = u.lattice, lambda kernel: kernel(u.lattice)
    cols = live_width(u.coeffs, lat.kept_width)
    sq = _moduli(each, u.coeffs, cols)[1]
    return _weighted_sums(each, lat.N, cols, [(w, [sq]) for w in weights])


# -- scalar diagnostics --------------------------------------------------------


def energy(u: SpectralVectorField) -> float:
    return 0.5 * u.lattice.volume * _square_sums(u, _ONE)[0]


def dissipation_rate(u: SpectralVectorField, alpha: float, nu: float) -> float:
    """D, weighted by nu |k|^(2*alpha), the step's `dynamics.dissipation_symbol`."""
    return u.lattice.volume * _square_sums(u, _Weight("kmod_array", 2.0 * alpha, 0.0, nu))[0]


def moment_sums(lattice: WavenumberLattice, values, orders) -> list:
    """[{m: M_m(v)} for each v along the leading axis of `values`, k_n >= 0
    halves] (|k|^0 = 1 at k = 0)."""
    values, each = np.asarray(values), lambda kernel: kernel(lattice)
    cols = live_width(values, lattice.kept_width)
    mags = _moduli(each, values, cols)[0]
    sums = _weighted_sums(each, lattice.N, cols, [(_Weight("kmod_array", m), mags)
                                                  for m in orders])
    return [{m: sums[j * len(mags) + i] for j, m in enumerate(orders)}
            for i in range(len(mags))]


def enstrophy(u: SpectralVectorField) -> float:
    """1/2 ||grad u||^2, which is 1/2 ||omega||^2 when div u = 0."""
    return 0.5 * u.lattice.volume * _square_sums(u, _KSQ)[0]


def enstrophy_production(u: SpectralVectorField, work: StepWorkspace | None = None) -> float:
    """<omega . grad u, omega> by grid quadrature; identically 0 for n = 2.

    omega and grad u go to the grid in the whole batch of `work` (fresh when
    None), from the columns `live_width` reads.
    """
    lat = u.lattice
    if lat.n == 2:
        return 0.0
    work = StepWorkspace(lat) if work is None else work
    w, grad = gradient_grid(work, u.coeffs, live_width(u.coeffs, work.width), curl=True)
    integrand, rows = work.conv[0], np.empty(lat.N)

    def kernel(s):
        # omega_i omega_j is symmetric, so the orientation of grad does not matter
        r = s.rows
        np.einsum("i...,ij...,j...->...", w[:, r], grad[:, :, r], w[:, r], out=integrand[r])
        np.sum(integrand[r].reshape(len(rows[r]), -1), axis=1, out=rows[r])

    work.each(kernel)
    return lat.cell_volume * float(rows.sum())


def max_velocity(u: SpectralVectorField) -> float:
    """max_i ||u_i||_inf, transformed from the columns `live_width` reads."""
    cols = live_width(u.coeffs, u.lattice.kept_width)
    return float(np.max(np.abs(coeffs_to_grid(u.coeffs, u.lattice.n, width=cols))))


def sobolev_norm(u: SpectralVectorField, beta: float) -> float:
    return math.sqrt(u.lattice.volume * _square_sums(u, _Weight("ksq_array", beta, 1.0))[0])


def tail_fraction(u: SpectralVectorField) -> float:
    """Energy fraction in the last shell the 2/3 rule keeps, max_j |k_j| in [N/3 - 1, N/3)."""
    total, shell = _square_sums(u, _ONE, _SHELL)
    return 0.0 if total == 0.0 else shell / total


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


def compute_diagnostics(u: SpectralVectorField, cfg: SolverConfig, step: int = 0,
                        dt: float = 0.0, *, work: StepWorkspace | None = None
                        ) -> DiagnosticsRecord:
    """The record of u on `work` (fresh when None); its transforms read the
    kept columns when u is zero past them (`live_width`)."""
    work = StepWorkspace(u.lattice) if work is None else work
    vol, orders = u.lattice.volume, cfg.moment_orders
    exponents = sorted({m + 1.0 for m in orders if m == int(m)})
    cols = live_width(u.coeffs, work.width)
    with np.errstate(over="ignore", invalid="ignore"):
        production = enstrophy_production(u, work)
        peak = max_velocity(u)
        mags, sq = _moduli(work.each, u.coeffs, cols)
        p_mag = _moduli(work.each, compute_pressure(u, work)[None], cols)[0] if exponents else []
        viscous = [_Weight("kmod_array", 2.0 * cfg.alpha, 0.0, cfg.nu)] if cfg.nu else []
        sums = iter(_weighted_sums(work.each, u.lattice.N, cols, [
            *((w, [sq]) for w in [_ONE, _KSQ, _SHELL, *viscous]),
            *((_Weight("ksq_array", b, 1.0), [sq]) for b in cfg.sobolev_betas),
            *((_Weight("kmod_array", m), mags) for m in orders),
            *((_Weight("kmod_array", j), p_mag) for j in exponents)]))
    total, ksq_sum, shell = next(sums), next(sums), next(sums)
    # D of an inviscid (nu = 0) run is exactly 0, also where |u|^2 is not finite
    dissipation = vol * next(sums) if cfg.nu else 0.0
    sobolev = {b: math.sqrt(vol * next(sums)) for b in cfg.sobolev_betas}
    by_order = {m: [next(sums) for _ in mags] for m in orders}
    record = DiagnosticsRecord(
        step=step, t=u.time, dt=dt, energy=0.5 * vol * total, dissipation_rate=dissipation,
        enstrophy=0.5 * vol * ksq_sum, enstrophy_production=production, max_velocity=peak,
        moments={i: {m: by_order[m][i] for m in orders} for i in range(len(mags))},
        sobolev=sobolev, pressure_moments={j: next(sums) for j in exponents},
        tail_fraction=0.0 if total == 0.0 else shell / total,
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
