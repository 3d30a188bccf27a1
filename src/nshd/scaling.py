"""Criticality calculus for the dissipation exponent.

The solvability threshold is alpha_L(n) = (2+n)/4: dissipation wins when
2*alpha - 1 > n/2.  The rescaling symmetry of the equations sends a solution
u to u_q(x, t) = q^(2*alpha-1) u(qx, q^(2*alpha) t), on the torus the zoom
c'(qk) = q^(2*alpha-1) c(k), which `spectral.zoom_cut` keeps inside the 2/3
rule.  With the q^(-n) change-of-variables volume factor restored, the
energy ratio is q^(4*alpha-2-n), which is 1 exactly at alpha = alpha_L(n).
`zoom_commutation` and `energy_ratio_error` are the scale checks, run by both
`harness.scale_check` and the verify suite against the bounds declared here.

Exponent arithmetic accepts exact rationals (fractions.Fraction) so that
"critical" is decided exactly rather than by float comparison.  The
moment-interpolation ratio is checked on a continuum Gaussian family with
closed-form moments; a grid mode-sum would miss the R^n measure Jacobian
that produces the (ell + n/2)/(m + n/2) exponent.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .diagnostics import energy
from .spectral import SpectralVectorField, zoom_cut

SUBCRITICAL = "subcritical"
CRITICAL = "critical"
SUPERCRITICAL = "supercritical"


COMMUTATION_TOL = 1e-6  # pass bounds, relative: `zoom_commutation` discrepancy
ENERGY_RATIO_TOL = 1e-12  # and `energy_ratio_error`


class RescaleOverflow(ValueError):
    """A zoom would leave the dealiased ball, or its energy ratio float range."""


def lions_exponent(n: int) -> Fraction:
    """(2 + n)/4, exactly."""
    if n < 2 or int(n) != n:
        raise ValueError(f"n must be an integer >= 2, got {n}")
    return Fraction(2 + int(n), 4)


def solvability_margin(n: int, alpha):
    """margin = 2*alpha - 1 - n/2 and its three-way classification.

    alpha may be a float, int or Fraction; arithmetic is exact in all cases
    (floats are dyadic rationals), so the critical case is detected exactly.
    Returns (margin, label) with margin a Fraction.
    """
    if n < 2 or int(n) != n:
        raise ValueError(f"n must be an integer >= 2, got {n}")
    margin = 2 * Fraction(alpha) - 1 - Fraction(int(n), 2)
    if margin > 0:
        label = SUBCRITICAL
    elif margin == 0:
        label = CRITICAL
    else:
        label = SUPERCRITICAL
    return margin, label


def apply_discrete_rescale(u: SpectralVectorField, q: int, alpha) -> SpectralVectorField:
    """Torus zoom: c'(q k) = q^(2*alpha-1) c(k), zero elsewhere.

    Requires every active mode inside `zoom_cut` for q, so the image stays
    dealiased; otherwise raises RescaleOverflow.
    """
    if int(q) != q or q < 1:
        raise ValueError(f"q must be a positive integer, got {q}")
    q = int(q)
    lat = u.lattice
    N = lat.N
    active = np.abs(u.coeffs).sum(axis=0) > 0
    kmax = int(lat.kmax_array[active].max()) if active.any() else 0
    if not zoom_cut(kmax, q, N):
        raise RescaleOverflow(
            f"q={q} pushes active modes (max |k_j|={kmax}) past N/3={N / 3:g}"
        )
    if q == 1:
        return u.with_coeffs(u.coeffs.copy())
    # the half holds k_n >= 0 only, and q * kmax < N/3 keeps the image there
    src_modes = [np.arange(-kmax, kmax + 1)] * (lat.n - 1) + [np.arange(kmax + 1)]
    factor = float(q) ** (2.0 * float(alpha) - 1.0)
    out = np.zeros_like(u.coeffs)
    sel_src = (slice(None),) + np.ix_(*(k % N for k in src_modes))
    sel_dst = (slice(None),) + np.ix_(*(q * k % N for k in src_modes))
    out[sel_dst] = factor * u.coeffs[sel_src]
    return u.with_coeffs(out)


def sub_ball(u: SpectralVectorField, q: int) -> SpectralVectorField:
    """u truncated to the modes inside `zoom_cut` for q, which a zoom by q keeps dealiased."""
    lat = u.lattice
    return u.with_coeffs(u.coeffs * zoom_cut(lat.kmax_array, q, lat.N))


def zoom_commutation(u0: SpectralVectorField, q: int, alpha, evolve) -> tuple[float, float]:
    """(relative L2 discrepancy, dropped energy fraction) of evolve-then-zoom
    against zoom-then-evolve for a zoom by q; a bad q raises before any evolve.

    `evolve(u, time_factor)` returns u evolved over the caller's horizon, with
    it and the step bound divided by time_factor: q^(2*alpha) for the zoomed
    run, 1 for the other.  The evolved field is cut to `sub_ball` before its
    zoom (its image elsewhere is not resolved), dropping that energy fraction.
    """
    b = evolve(apply_discrete_rescale(u0, q, alpha), float(q) ** (2.0 * float(alpha)))
    a = evolve(u0, 1.0)
    e_full = energy(a)
    sub = sub_ball(a, q)
    dropped = 0.0 if e_full == 0 else max(0.0, 1.0 - energy(sub) / e_full)
    diff = b.with_coeffs(apply_discrete_rescale(sub, q, alpha).coeffs - b.coeffs)
    scale = energy(b)
    discrepancy = math.sqrt(energy(diff) / scale) if scale else 0.0
    return discrepancy, dropped


def expected_energy_ratio(q: int, alpha, n: int) -> float:
    """q^(4*alpha-2-n): the energy ratio of a zoom by q, 1 iff alpha = alpha_L(n)."""
    return float(q) ** (4.0 * float(alpha) - 2.0 - n)


def scaled_energy_ratio(u: SpectralVectorField, q: int, alpha) -> float:
    """E(u_q) * q^(-n) / E(u); equals `expected_energy_ratio` by Parseval.

    The q^(-n) factor restores the R^n change-of-variables Jacobian that the
    fixed torus lacks, so criticality reads off the ratio directly.
    """
    e0 = energy(u)
    if e0 == 0.0:
        raise ValueError("scaled energy ratio is undefined for the zero field")
    e_q = energy(apply_discrete_rescale(u, q, alpha))
    return e_q * float(q) ** (-float(u.lattice.n)) / e0


def energy_ratio_error(u: SpectralVectorField, q: int, alpha) -> tuple[float, float, float]:
    """(scaled, expected, relative error) of the energy ratio of a zoom by q.

    Raises RescaleOverflow when the zoomed energy or q^(4*alpha-2-n) is not
    a finite float.
    """
    with np.errstate(over="ignore"):
        ratio = scaled_energy_ratio(u, q, alpha)
    try:
        expected = expected_energy_ratio(q, alpha, u.lattice.n)
    except OverflowError:  # float ** float raises where numpy would give inf
        expected = math.inf
    if not (math.isfinite(ratio) and math.isfinite(expected)):
        raise RescaleOverflow(f"the energy ratio of a zoom by q={q} at alpha={alpha!r} "
                              f"leaves float range")
    return ratio, expected, abs(ratio - expected) / expected


def gaussian_moment(n: int, ell, sigma) -> float:
    """Closed-form moment sum for the Gaussian profile sigma^(n/2) e^(-sigma^2 |k|^2 / 2).

    M_ell = sigma^(n/2) S_{n-1} 2^((ell+n-2)/2) Gamma((ell+n)/2) / sigma^(ell+n)
    with S_{n-1} = 2 pi^(n/2) / Gamma(n/2) the unit-sphere area.  The family
    has sigma-independent L^2 norm, which is what drives the interpolation
    exponent below.
    """
    if n < 1 or int(n) != n:
        raise ValueError(f"n must be a positive integer, got {n}")
    if ell < 0:
        raise ValueError("moment order must be nonnegative")
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    n = int(n)
    sphere = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    return (
        sigma ** (n / 2.0)
        * sphere
        * 2.0 ** ((ell + n - 2) / 2.0)
        * math.gamma((ell + n) / 2.0)
        * sigma ** (-(ell + n))
    )


def interpolation_ratio(n: int, ell, m, sigma) -> float:
    """M_ell / M_m^((ell+n/2)/(m+n/2)) on the Gaussian family.

    Independent of sigma: under k -> k/lambda with the L^2-preserving
    amplitude factor, M_j scales as lambda^(j+n/2), so this combination is
    scale-free.  Its constancy is the checkable content of the moment
    interpolation bound.
    """
    if not 0 <= ell <= m:
        raise ValueError(f"need 0 <= ell <= m, got ell={ell}, m={m}")
    exponent = (ell + n / 2.0) / (m + n / 2.0)
    return gaussian_moment(n, ell, sigma) / gaussian_moment(n, m, sigma) ** exponent
