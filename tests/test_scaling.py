"""Exponent calculus, discrete rescaling, Gaussian moment oracles."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate

from nshd.diagnostics import energy
from nshd.initial_conditions import taylor_green
from nshd.scaling import (
    CRITICAL,
    SUBCRITICAL,
    SUPERCRITICAL,
    RescaleOverflow,
    apply_discrete_rescale,
    expected_energy_ratio,
    gaussian_moment,
    interpolation_ratio,
    lions_exponent,
    scaled_energy_ratio,
    solvability_margin,
    sub_ball,
    zoom_commutation,
)
from nshd.spectral import (
    SpectralVectorField,
    build_lattice,
    divergence_defect,
    full_spectrum,
    hermitian_defect,
    zoom_cut,
)
from nshd.verify import _gaussian_moment_quadrature

from conftest import make_random_field, zero_field


# -- exponent calculus ------------------------------------------------------------


def test_lions_exponent_values():
    assert lions_exponent(2) == 1
    assert lions_exponent(3) == Fraction(5, 4)
    assert lions_exponent(6) == 2
    assert float(lions_exponent(3)) == 1.25


def test_lions_exponent_rejects_bad_n():
    with pytest.raises(ValueError):
        lions_exponent(1)


def test_solvability_margin_three_way():
    margin, label = solvability_margin(3, 1.25)
    assert margin == 0 and label == CRITICAL
    margin, label = solvability_margin(2, 1.0)
    assert margin == 0 and label == CRITICAL
    margin, label = solvability_margin(3, 1.0)
    assert margin == Fraction(-1, 2) and label == SUPERCRITICAL
    margin, label = solvability_margin(3, Fraction(3, 2))
    assert margin == Fraction(1, 2) and label == SUBCRITICAL


def test_margin_zero_exactly_at_lions_exponent():
    for n in range(2, 65):
        margin, label = solvability_margin(n, lions_exponent(n))
        assert margin == 0
        assert label == CRITICAL


# -- discrete rescale ----------------------------------------------------------------


def test_rescale_identity_at_q1():
    u = make_random_field(seed=61, band=(1, 4))
    out = apply_discrete_rescale(u, 1, 1.0)
    np.testing.assert_array_equal(out.coeffs, u.coeffs)


def test_rescale_taylor_green_by_hand():
    # q=2, alpha=1: modes move to (+-2, +-2) with magnitude 1/4 * 2 = 1/2
    lat = build_lattice(2, 32)
    tg = taylor_green(lat, 1.0)
    out = apply_discrete_rescale(tg, 2, 1.0)
    full = full_spectrum(out.coeffs, 2)
    for s1 in (1, -1):
        for s2 in (1, -1):
            assert abs(full[0][(2 * s1) % 32, (2 * s2) % 32]) == pytest.approx(
                0.5, abs=1e-14
            )
            assert full[0][s1 % 32, s2 % 32] == 0.0
    assert divergence_defect(out) <= 1e-14
    assert hermitian_defect(out) <= 1e-14


def test_rescale_energy_ratio_parseval():
    u = make_random_field(seed=62, band=(1, 3), N=64)
    for q in (2, 3):
        for alpha in (0.75, 1.0, 1.3):
            out = apply_discrete_rescale(u, q, alpha)
            ratio = energy(out) / energy(u)
            assert ratio == pytest.approx(float(q) ** (2 * (2 * alpha - 1)),
                                          rel=1e-13)


def test_rescale_overflow():
    u = make_random_field(seed=63, band=(1, 6), N=32)  # 6 * 2 = 12 >= 32/3
    with pytest.raises(RescaleOverflow):
        apply_discrete_rescale(u, 2, 1.0)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_sub_ball_keeps_what_a_zoom_keeps_dealiased(q):
    u = make_random_field(seed=65, band=(1, 9), N=32)
    sub = sub_ball(u, q)
    kept = np.ones(u.lattice.half_shape, dtype=bool)
    for g in u.lattice.mode_grids:
        kept &= q * np.abs(g) < 32 / 3
    np.testing.assert_array_equal(sub.coeffs[:, kept], u.coeffs[:, kept])
    assert not np.any(sub.coeffs[:, ~kept])
    apply_discrete_rescale(sub, q, 1.0)  # fits: no RescaleOverflow


# the one zoom cut against the three formulas it replaced, written out inline:
# the dealias mask |k_j| < N/3, the sub-ball |k_j| <= ceil(N/(3q)) - 1 and the
# rescale overflow check q max|k_j| < N/3


def test_zoom_cut_matches_the_former_formulas_for_every_grid():
    for N in range(8, 513, 2):
        qs = np.arange(1, N + 1)
        k = np.arange(N // 2 + 1, dtype=np.float64)  # |k| <= N/2, float like kmax_array
        sub_kmax = np.array([int(np.ceil(N / 3.0 / q)) - 1 for q in qs])
        cut = zoom_cut(k[None, :], qs[:, None], N)
        np.testing.assert_array_equal(cut, k[None, :] <= sub_kmax[:, None])
        np.testing.assert_array_equal(cut[0], k < N / 3.0)
        for q, edge in zip(qs.tolist(), sub_kmax.tolist()):
            for kmax in (edge, edge + 1):  # Python ints, as the overflow check passes them
                assert zoom_cut(kmax, q, N) == (q * kmax < N / 3) == (kmax <= edge)


@pytest.mark.parametrize("n, N", [(2, 8), (2, 12), (2, 32), (3, 8), (3, 12), (3, 18)])
def test_lattice_masks_match_the_former_per_axis_formulas(n, N):
    lat = build_lattice(n, N)
    u = make_random_field(n=n, N=N, seed=66, band=(1, (N + 2) // 3 - 1))  # k_max < N/3
    for q in range(1, N + 1):
        sub_kmax = int(np.ceil(N / 3.0 / q)) - 1
        old_dealias = np.ones(lat.half_shape, dtype=bool)
        old_sub = np.ones(lat.half_shape, dtype=bool)
        for g in lat.mode_grids:
            old_dealias &= np.abs(g) < N / 3.0
            old_sub &= np.abs(g) <= sub_kmax
        if q == 1:
            np.testing.assert_array_equal(lat.dealias_mask_array, old_dealias)
        np.testing.assert_array_equal(zoom_cut(lat.kmax_array, q, N), old_sub)
        np.testing.assert_array_equal(sub_ball(u, q).coeffs, u.coeffs * old_sub)


@pytest.mark.parametrize("n, N", [(2, 32), (3, 12)])
@pytest.mark.parametrize("q", [1, 2, 3, 5])
def test_rescale_accepts_the_sub_ball_and_rejects_one_mode_outside(n, N, q):
    lat = build_lattice(n, N)
    full = SpectralVectorField(lat, np.ones((n,) + lat.half_shape, dtype=np.complex128))
    inside = sub_ball(full, q)
    apply_discrete_rescale(inside, q, 1.0)  # fits: no RescaleOverflow
    edge = int(np.ceil(N / 3.0 / q)) - 1
    coeffs = inside.coeffs.copy()
    coeffs[(0, edge + 1) + (0,) * (n - 1)] = 1.0  # max|k_j| just past the sub-ball
    with pytest.raises(RescaleOverflow):
        apply_discrete_rescale(inside.with_coeffs(coeffs), q, 1.0)


def test_rescale_requires_integer_q():
    u = make_random_field(seed=64, band=(1, 2))
    with pytest.raises(ValueError):
        apply_discrete_rescale(u, 0, 1.0)


# -- scaled energy ratio ---------------------------------------------------------------


@pytest.mark.parametrize("n,N", [(2, 32), (3, 16)])
def test_scaled_energy_ratio_exponent(n, N):
    lat = build_lattice(n, N)
    u = taylor_green(lat, 1.0)
    for q in (2, 3):
        if q >= N / 3:
            continue
        for alpha in (0.75, 1.0, 1.25, 1.5):
            ratio = scaled_energy_ratio(u, q, alpha)
            expected = float(q) ** (4 * alpha - 2 - n)
            assert ratio == pytest.approx(expected, rel=1e-12)
            assert expected_energy_ratio(q, alpha, n) == expected


def test_scaled_energy_ratio_critical_is_one():
    # alpha = alpha_L(n): the ratio is 1 to within rounding
    for n, N in ((2, 32), (3, 16)):
        u = taylor_green(build_lattice(n, N), 1.0)
        alpha = float(lions_exponent(n))
        assert abs(scaled_energy_ratio(u, 2, alpha) - 1.0) <= 1e-14


def test_scaled_energy_ratio_supercritical_example():
    # n=3, alpha=1, q=2 -> 2^(4-2-3) = 1/2
    u = taylor_green(build_lattice(3, 16), 1.0)
    assert scaled_energy_ratio(u, 2, 1.0) == pytest.approx(0.5, rel=1e-14)


def test_scaled_energy_ratio_2d_parabolic_is_critical():
    u = taylor_green(build_lattice(2, 64), 1.0)
    assert scaled_energy_ratio(u, 3, 1.0) == pytest.approx(1.0, abs=1e-14)


def test_scaled_energy_ratio_rejects_zero_field():
    with pytest.raises(ValueError):
        scaled_energy_ratio(zero_field(build_lattice(2, 16)), 2, 1.0)


# -- Gaussian moments -------------------------------------------------------------------


def quadrature_moment(n, ell, sigma):
    """Adaptive radial quadrature oracle for the Gaussian moment integral.

    It runs to a relative tolerance alone: quad's default absolute tolerance
    stops early on the small moments of sigma = 4, 4.4e-13 off the closed form.
    """
    sphere = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    val, err = scipy.integrate.quad(
        lambda r: r ** (ell + n - 1) * math.exp(-0.5 * (sigma * r) ** 2),
        0.0, np.inf, epsabs=0.0,
    )
    return sigma ** (n / 2.0) * sphere * val


def test_gaussian_moment_known_values():
    assert gaussian_moment(2, 0, 1.0) == pytest.approx(2 * math.pi, rel=1e-14)
    assert gaussian_moment(2, 2, 1.0) == pytest.approx(4 * math.pi, rel=1e-14)
    assert gaussian_moment(1, 0, 1.0) == pytest.approx(math.sqrt(2 * math.pi),
                                                       rel=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("ell", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("sigma", [0.25, 0.5, 1.0, 2.0, 4.0])
def test_gaussian_moment_matches_quadrature(n, ell, sigma):
    closed = gaussian_moment(n, ell, sigma)
    quad = quadrature_moment(n, ell, sigma)
    assert closed == pytest.approx(quad, rel=1e-10)
    # verify's exp-sinh rule agrees with the adaptive oracle, and halving its step moves nothing
    rule = _gaussian_moment_quadrature(n, ell, sigma)
    assert rule == pytest.approx(quad, rel=1e-13, abs=0.0)
    assert abs(_gaussian_moment_quadrature(n, ell, sigma, h=2.0**-6) - rule) <= 1e-14 * rule


def test_gaussian_moment_validation():
    with pytest.raises(ValueError):
        gaussian_moment(0, 1, 1.0)
    with pytest.raises(ValueError):
        gaussian_moment(2, -1, 1.0)
    with pytest.raises(ValueError):
        gaussian_moment(2, 1, 0.0)


# -- interpolation ratio ---------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("ell,m", [(0, 2), (1, 3), (2, 4)])
def test_interpolation_ratio_sigma_invariant(n, ell, m):
    sigmas = (0.25, 0.5, 1.0, 2.0, 4.0)
    vals = [interpolation_ratio(n, ell, m, s) for s in sigmas]
    ref = vals[2]
    for v in vals:
        assert abs(v - ref) / ref < 1e-10


def test_interpolation_ratio_trivial_cases():
    assert interpolation_ratio(2, 2, 2, 0.7) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ValueError):
        interpolation_ratio(2, 3, 2, 1.0)


def test_interpolation_ratio_concrete_value():
    # n=2, ell=0, m=2, sigma=1: 2 pi / (4 pi)^(1/3)
    expected = 2 * math.pi / (4 * math.pi) ** (1.0 / 3.0)
    assert interpolation_ratio(2, 0, 2, 1.0) == pytest.approx(expected, rel=1e-14)
    assert interpolation_ratio(2, 0, 2, 0.5) == pytest.approx(expected, rel=1e-10)


# -- solution-map commutation -------------------------------------------------------------


@pytest.mark.parametrize("alpha", [0.8, 1.0, 1.3])
@pytest.mark.parametrize("q", [2, 3])
def test_solution_map_commutation(alpha, q):
    from nshd.dynamics import SolverConfig, SolverState, advance

    u0 = make_random_field(n=2, N=64, seed=65, band=(1, 3), amplitude=0.5)
    t_end = 0.2
    cfg_a = SolverConfig(n=2, N=64, alpha=alpha, nu=1.0, t_end=t_end,
                         dt_max=2e-3, cfl_safety=1.0, moment_orders=())
    a_final = advance(SolverState(u=u0), cfg_a).u

    tf = float(q) ** (2 * alpha)
    u0q = apply_discrete_rescale(u0, q, alpha)
    cfg_b = SolverConfig(n=2, N=64, alpha=alpha, nu=1.0, t_end=t_end / tf,
                         dt_max=2e-3 / tf, cfl_safety=1.0, moment_orders=())
    b_final = advance(SolverState(u=u0q), cfg_b).u

    lat = u0.lattice
    sub_kmax = int(np.ceil(lat.N / 3.0 / q)) - 1
    mask = np.ones(lat.half_shape, dtype=bool)
    for g in lat.mode_grids:
        mask &= np.abs(g) <= sub_kmax
    rescaled = apply_discrete_rescale(a_final.with_coeffs(a_final.coeffs * mask),
                                      q, alpha)
    num = np.linalg.norm(full_spectrum(rescaled.coeffs - b_final.coeffs, 2))
    den = np.linalg.norm(full_spectrum(b_final.coeffs, 2))
    assert num / den <= 1e-6

    evolve = lambda u, tf: advance(SolverState(u=u), dataclasses.replace(
        cfg_a, t_end=t_end / tf, dt_max=2e-3 / tf)).u
    discrepancy, dropped = zoom_commutation(u0, q, alpha, evolve)
    assert discrepancy == pytest.approx(num / den, rel=1e-12)
    assert 0.0 <= dropped < 1e-10  # the evolved band (1, 3) barely leaves the sub-ball
