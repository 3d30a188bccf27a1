"""Standalone verification suite: every checkable identity, pass/fail per name.

Dynamics-based properties run through a fixed-step loop over the solver's own
stepping kernel.  Its faults (dissipation sign flip, dealiasing disabled) are
inputs built only here, so the suite itself can be tested: a deliberately
broken operator must trip the property that watches for it, and only that kind.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.integrate

from . import checkpoint as ckpt
from .diagnostics import (
    compute_diagnostics,
    dissipation_rate,
    energy,
    enstrophy,
    enstrophy_production,
    max_norm_bound_check,
    moment_norm,
    moment_inequality_rhs,
    moment_inequality_scan,
)
from .dynamics import (
    SolverConfig,
    _step_half,
    dissipation_symbol,
    if_rk4_step,
    nonlinear_rhs,
)
from .initial_conditions import InitialConditionSpec, random_band_limited, taylor_green
from .scaling import (
    apply_discrete_rescale,
    expected_energy_ratio,
    gaussian_moment,
    interpolation_ratio,
    lions_exponent,
    scaled_energy_ratio,
    solvability_margin,
    sub_ball,
)
from .spectral import (
    SpectralVectorField,
    build_lattice,
    coeffs_to_grid,
    dealias,
    divergence_defect,
    full_spectrum,
    grid_to_coeffs,
    half_spectrum,
    hermitian_defect,
    leray_project,
    leray_project_coeffs,
    spectral_derivative,
)


@dataclass(frozen=True)
class FaultInjection:
    """Deliberate defects for exercising the suite itself; `_faulty_inputs` builds them."""

    dissipation_sign_flip: bool = False
    dealias_off: bool = False


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    metric: float
    threshold: float
    detail: str = ""


def _faulty_inputs(lat, alpha, nu, faults: FaultInjection):
    """The stepping lattice and the full dissipation symbol, with `faults` built in."""
    sign = -1.0 if faults.dissipation_sign_flip else 1.0
    if faults.dealias_off:  # a copy of the lattice whose 2/3-rule mask keeps every mode
        lat = build_lattice(lat.n, lat.N)
        object.__setattr__(lat, "dealias_mask_array", np.ones_like(lat.dealias_mask_array))
    return lat, sign * dissipation_symbol(lat, alpha, nu)


def _evolve(u0: SpectralVectorField, alpha, nu, t_end, dt, faults: FaultInjection,
            stride=1):
    """Fixed-step integration through the faulty kernel; samples stay on u0's lattice."""
    lat = u0.lattice
    step_lat, symbol = _faulty_inputs(lat, alpha, nu, faults)
    symbol = half_spectrum(symbol)
    coeffs = half_spectrum(u0.coeffs)
    t = 0.0
    samples = [SpectralVectorField(lat, u0.coeffs, t)]
    step = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while t < t_end - 1e-14:
            h = min(dt, t_end - t)
            coeffs = _step_half(step_lat, coeffs, h, symbol)
            t += h
            step += 1
            if step % stride == 0 or t >= t_end - 1e-14:
                samples.append(SpectralVectorField(lat, full_spectrum(coeffs, lat.n), t))
    return samples


def _random_field(n=2, N=32, seed=1234, band=(1, 4), amplitude=1.0, slope=0.0):
    lat = build_lattice(n, N)
    spec = InitialConditionSpec("random_band", amplitude=amplitude, seed=seed,
                                band=band, spectrum_slope=slope)
    return random_band_limited(lat, spec)


# -- structural properties ----------------------------------------------------


def _check_parseval(faults):
    worst = 0.0
    for seed in (1, 2, 3):
        u = _random_field(seed=seed)
        phys = coeffs_to_grid(u.coeffs, u.lattice.n)
        quad = u.lattice.cell_volume * float(np.sum(phys**2))
        modes = u.lattice.volume * float(np.sum(np.abs(u.coeffs) ** 2))
        worst = max(worst, abs(quad - modes) / modes)
    return worst, 1e-10


def _check_transform_roundtrip(faults):
    u = _random_field(seed=4)
    n = u.lattice.n
    back = full_spectrum(grid_to_coeffs(coeffs_to_grid(u.coeffs, n), n), n)
    err = float(np.max(np.abs(back - u.coeffs)))
    scale = float(np.max(np.abs(u.coeffs)))
    return err / scale, 1e-12


def _check_leray_idempotent(faults):
    u = _random_field(seed=5)
    noisy = u.with_coeffs(u.coeffs + 0.3j * np.roll(u.coeffs, 1, axis=-1))
    once = leray_project(noisy)
    twice = leray_project(once)
    err = float(np.max(np.abs(twice.coeffs - once.coeffs)))
    return err, 1e-15


def _check_leray_divergence_free(faults):
    u = _random_field(seed=6)
    noisy = u.with_coeffs(u.coeffs + 0.3j * np.roll(u.coeffs, 1, axis=-1))
    return divergence_defect(leray_project(noisy)), 1e-12


def _check_derivative_leray_commute(faults):
    u = _random_field(seed=7)
    worst = 0.0
    for axis in range(u.lattice.n):
        d = np.stack([spectral_derivative(u, i, axis) for i in range(u.lattice.n)])
        projected = leray_project_coeffs(u.lattice, d)
        worst = max(worst, float(np.max(np.abs(projected - d))))
    return worst, 1e-12


def _check_hermitian_preservation(faults):
    u = _random_field(seed=8)
    candidates = [
        leray_project(u),
        dealias(u),
        u.with_coeffs(full_spectrum(nonlinear_rhs(u.lattice, u.coeffs), u.lattice.n)),
        _evolve(u, 1.0, 0.5, 0.02, 0.01, faults)[-1],
    ]
    worst = max(hermitian_defect(v) for v in candidates)
    return worst, 1e-12


def _check_dealias_idempotent(faults):
    u = _random_field(seed=9)
    full = u.with_coeffs(np.ones_like(u.coeffs))
    once = dealias(full)
    twice = dealias(once)
    err = float(np.max(np.abs(twice.coeffs - once.coeffs)))
    kept = dealias(u)
    err2 = float(np.max(np.abs(kept.coeffs - u.coeffs)))  # band-limited unchanged
    return max(err, err2), 1e-15


# -- dynamics properties --------------------------------------------------------


def _check_exact_linear_decay(faults):
    lat = build_lattice(2, 16)
    coeffs = np.zeros((2,) + lat.shape, dtype=np.complex128)
    # single mode pair at k=(1,1), polarization (1,-1)/sqrt(2): divergence-free
    a = 0.5 / math.sqrt(2)
    coeffs[0][1, 1] = a
    coeffs[0][-1, -1] = a
    coeffs[1][1, 1] = -a
    coeffs[1][-1, -1] = -a
    u0 = SpectralVectorField(lat, coeffs)
    alpha, nu, t_end = 1.25, 0.7, 0.3
    _, symbol = _faulty_inputs(lat, alpha, nu, faults)
    out = u0.coeffs
    for _ in range(3):
        out = if_rk4_step(out, 0.1, symbol, lambda c: np.zeros_like(c))
    expected = u0.coeffs * np.exp(-nu * 2.0**alpha * t_end)
    err = float(np.max(np.abs(out - expected))) / a
    return err, 1e-12


def _check_taylor_green_exact(faults):
    lat = build_lattice(2, 32)
    u0 = taylor_green(lat, 1.0)
    alpha, nu, t_end = 1.0, 1.0, 0.25
    final = _evolve(u0, alpha, nu, t_end, 0.01, faults)[-1]
    expected = u0.coeffs * np.exp(-nu * 2.0**alpha * t_end)
    active = np.abs(u0.coeffs) > 0
    rel = np.max(np.abs(final.coeffs[active] - expected[active])
                 / np.abs(expected[active]))
    stray = np.max(np.abs(final.coeffs[~active])) / np.max(np.abs(expected))
    return float(max(rel, stray)), 1e-10


def _check_energy_identity(faults):
    u0 = _random_field(n=2, N=32, seed=10, band=(5, 9), amplitude=1.0)
    alpha, nu = 1.0, 0.01
    samples = _evolve(u0, alpha, nu, 0.05, 5e-4, faults)
    ts = [s.time for s in samples]
    es = [energy(s) for s in samples]
    ds = [dissipation_rate(s, alpha, nu) for s in samples]
    worst = 0.0
    for j in range(1, len(samples) - 1):
        dedt = (es[j + 1] - es[j - 1]) / (ts[j + 1] - ts[j - 1])
        worst = max(worst, abs(dedt + ds[j]) / ds[j])
    return worst, 1e-6


def _check_energy_monotonic(faults):
    u0 = _random_field(n=2, N=16, seed=11, band=(1, 4), amplitude=1.0)
    samples = _evolve(u0, 1.0, 0.5, 0.05, 5e-3, faults)
    es = [energy(s) for s in samples]
    worst = max(
        (es[j + 1] - es[j]) / es[0] for j in range(len(es) - 1)
    )
    return worst, 1e-10


def _check_inviscid_energy_conservation(faults):
    u0 = _random_field(n=2, N=64, seed=12, band=(12, 20), amplitude=1.0)
    samples = _evolve(u0, 1.0, 0.0, 0.1, 2e-3, faults)
    es = [energy(s) for s in samples]
    drift = max(abs(e - es[0]) for e in es) / es[0]
    return drift, 1e-6


def _check_enstrophy_production_identity(faults):
    u0 = _random_field(n=3, N=16, seed=13, band=(1, 3), amplitude=1.0)
    samples = _evolve(u0, 1.0, 0.0, 0.02, 1e-3, faults)
    ts = [s.time for s in samples]
    zs = [enstrophy(s) for s in samples]
    worst = 0.0
    for j in range(1, len(samples) - 1):
        dzdt = (zs[j + 1] - zs[j - 1]) / (ts[j + 1] - ts[j - 1])
        prod = enstrophy_production(samples[j])
        worst = max(worst, abs(dzdt - prod) / abs(prod))
    return worst, 1e-4


def _check_moment_inequality_taylor_green(faults):
    lat = build_lattice(2, 32)
    u0 = taylor_green(lat, 1.0)
    alpha, nu = 1.0, 1.0
    cfg = SolverConfig(n=2, N=32, alpha=alpha, nu=nu, t_end=0.25,
                       moment_orders=(0.0, 1.0, 2.0, 3.0, 4.0))
    samples = _evolve(u0, alpha, nu, 0.25, 5e-3, faults, stride=5)
    records = [compute_diagnostics(s, cfg) for s in samples]
    rhs0 = moment_inequality_rhs(records[0], 0, 0, alpha, nu)
    rhs_err = abs(rhs0 - (2.0 * math.sqrt(2.0) - 1.0))
    worst = -math.inf
    for m in (0, 1, 2):
        for i in (0, 1):
            for sample in moment_inequality_scan(records, i, m, alpha, nu):
                worst = max(worst, -(sample.residual + sample.tol))
    metric = max(worst, rhs_err - 1e-6)
    return metric, 0.0, f"t0 rhs error {rhs_err:.2e}"


# -- continuum / calculus properties --------------------------------------------


def _gaussian_moment_quadrature(n, ell, sigma):
    sphere = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    val, _ = scipy.integrate.quad(
        lambda r: r ** (ell + n - 1) * math.exp(-0.5 * (sigma * r) ** 2),
        0.0, math.inf,
    )
    return sigma ** (n / 2.0) * sphere * val


def _check_gaussian_closed_form(faults):
    worst = 0.0
    for n in (1, 2, 3):
        for ell in (0, 1, 2, 4):
            for sigma in (0.5, 1.0, 2.0):
                closed = gaussian_moment(n, ell, sigma)
                quad = _gaussian_moment_quadrature(n, ell, sigma)
                worst = max(worst, abs(closed - quad) / quad)
    return worst, 1e-10


def _check_interpolation_ratio_scale_invariance(faults):
    worst = 0.0
    for n in (2, 3):
        for ell, m in ((0, 2), (1, 3), (2, 4)):
            vals = [interpolation_ratio(n, ell, m, s) for s in (0.25, 0.5, 1.0, 2.0, 4.0)]
            ref = vals[len(vals) // 2]
            worst = max(worst, max(abs(v - ref) / ref for v in vals))
    return worst, 1e-10


def _check_max_norm_bound(faults):
    worst = -math.inf
    for seed in range(5):
        u = _random_field(n=2, N=32, seed=100 + seed, band=(1, 6))
        for order in (0, 1, 2):
            for chk in max_norm_bound_check(u, order):
                worst = max(worst, chk.lhs - chk.rhs)
    lat = build_lattice(2, 16)
    tg = taylor_green(lat, 1.0)
    for chk in max_norm_bound_check(tg, 0):
        worst = max(worst, chk.lhs - chk.rhs)
    return worst, 1e-10


def _check_moment_homogeneity(faults):
    u = _random_field(seed=14)
    scaled = u.with_coeffs(3.5 * u.coeffs)
    worst = 0.0
    for i in range(u.lattice.n):
        for m in (0.0, 1.0, 2.5):
            a = moment_norm(scaled, i, m)
            b = 3.5 * moment_norm(u, i, m)
            worst = max(worst, abs(a - b) / b)
    return worst, 1e-12


def _check_scaled_energy_ratio(faults):
    worst = 0.0
    for n, N in ((2, 32), (3, 16)):
        lat = build_lattice(n, N)
        u = taylor_green(lat, 1.0)
        for q in (2, 3):
            if q * 1 >= N / 3:
                continue
            for alpha in (0.75, 1.0, 1.25):
                ratio = scaled_energy_ratio(u, q, alpha, n)
                expected = expected_energy_ratio(q, alpha, n)
                worst = max(worst, abs(ratio - expected) / expected)
    return worst, 1e-12


def _check_solution_map_commutation(faults):
    u0 = _random_field(n=2, N=64, seed=15, band=(1, 3), amplitude=0.5)
    alpha, nu, q, t_end = 1.0, 1.0, 2, 0.2
    a_final = _evolve(u0, alpha, nu, t_end, 2e-3, faults)[-1]
    u0q = apply_discrete_rescale(u0, q, alpha)
    tf = float(q) ** (2.0 * alpha)
    b_final = _evolve(u0q, alpha, nu, t_end / tf, 2e-3 / tf, faults)[-1]
    rescaled = apply_discrete_rescale(sub_ball(a_final, q), q, alpha)
    num = float(np.sqrt(np.sum(np.abs(rescaled.coeffs - b_final.coeffs) ** 2)))
    den = float(np.sqrt(np.sum(np.abs(b_final.coeffs) ** 2)))
    return num / den, 1e-6


def _check_exponent_calculus(faults):
    if lions_exponent(2) != 1 or lions_exponent(3) != Fraction(5, 4):
        return 1.0, 0.5, "closed-form values wrong"
    worst = 0.0
    for n in range(2, 65):
        margin, label = solvability_margin(n, lions_exponent(n))
        if margin != 0 or label != "critical":
            worst = 1.0
    return worst, 0.5


def _check_rng_determinism(faults):
    a = _random_field(seed=77)
    b = _random_field(seed=77)
    identical = np.array_equal(a.coeffs, b.coeffs)
    return 0.0 if identical else 1.0, 0.5


def _check_checkpoint_roundtrip(faults):
    u = _random_field(seed=16)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.nshd")
        ckpt.write_checkpoint(path, u, alpha=1.25, nu=0.5, seed=16)
        back, meta = ckpt.read_checkpoint(path)
        ok = (np.array_equal(back.coeffs, u.coeffs) and meta.alpha == 1.25
              and meta.nu == 0.5 and meta.seed == 16)
        rejected = False
        with open(path, "rb") as fh:
            bad = b"XXXX" + fh.read()[4:]
        bad_path = os.path.join(tmp, "bad.nshd")
        with open(bad_path, "wb") as fh:
            fh.write(bad)
        try:
            ckpt.read_checkpoint(bad_path)
        except ckpt.CheckpointFormatError:
            rejected = True
    return 0.0 if (ok and rejected) else 1.0, 0.5


# name -> check(faults), which returns (metric, threshold[, detail]); passes if metric <= threshold
PROPERTY_CHECKS = {
    "parseval": _check_parseval,
    "transform_roundtrip": _check_transform_roundtrip,
    "leray_idempotent": _check_leray_idempotent,
    "leray_divergence_free": _check_leray_divergence_free,
    "derivative_leray_commute": _check_derivative_leray_commute,
    "hermitian_preservation": _check_hermitian_preservation,
    "dealias_idempotent": _check_dealias_idempotent,
    "exact_linear_decay": _check_exact_linear_decay,
    "taylor_green_exact_solution": _check_taylor_green_exact,
    "energy_identity": _check_energy_identity,
    "energy_monotonic": _check_energy_monotonic,
    "inviscid_energy_conservation": _check_inviscid_energy_conservation,
    "enstrophy_production_identity": _check_enstrophy_production_identity,
    "moment_inequality_taylor_green": _check_moment_inequality_taylor_green,
    "gaussian_closed_form_vs_quadrature": _check_gaussian_closed_form,
    "interpolation_ratio_scale_invariance": _check_interpolation_ratio_scale_invariance,
    "max_norm_moment_bound": _check_max_norm_bound,
    "moment_homogeneity": _check_moment_homogeneity,
    "scaled_energy_ratio_identity": _check_scaled_energy_ratio,
    "solution_map_commutation": _check_solution_map_commutation,
    "exponent_calculus": _check_exponent_calculus,
    "rng_determinism": _check_rng_determinism,
    "checkpoint_roundtrip": _check_checkpoint_roundtrip,
}


def run_verification(name_filter: str | None = None,
                     faults: FaultInjection = FaultInjection()):
    """Run the property suite; returns a PropertyResult per matching PROPERTY_CHECKS key."""
    results = []
    for name, check in PROPERTY_CHECKS.items():
        if name_filter is not None and name_filter not in name:
            continue
        try:
            metric, threshold, *detail = check(faults)
            results.append(PropertyResult(name, bool(metric <= threshold), float(metric),
                                          float(threshold), *detail))
        except Exception as exc:  # a crash is a failure, not an abort
            results.append(PropertyResult(name, False, math.inf, 0.0,
                                          detail=f"{type(exc).__name__}: {exc}"))
    return results
