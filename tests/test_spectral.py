"""Lattice construction, transforms, projection, derivatives, dealiasing, curl."""

import math

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st

from nshd.spectral import (
    SpectralVectorField,
    build_lattice,
    coeffs_to_grid,
    dealias,
    divergence_defect,
    full_spectrum,
    grid_to_coeffs,
    hermitian_defect,
    leray_project,
    max_abs,
    spectral_derivative,
    vorticity,
)
from nshd.initial_conditions import taylor_green

from conftest import (full_tables, grid_coords, half_of, hermitian_conjugate,
                      make_random_field, zero_field)


# -- lattice -------------------------------------------------------------------


def _k(lat, idx):
    """The wavenumber of the half's mode at index `idx`, read from the lattice's grids."""
    return tuple(float(np.broadcast_to(g, lat.half_shape)[idx]) for g in lat.mode_grids)


def test_lattice_basic_2d():
    lat = build_lattice(2, 8)
    assert _k(lat, (1, 1)) == (1, 1)
    assert lat.kmod_array[1, 1] == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_lattice_mode_ordering():
    lat = build_lattice(2, 8)
    assert list(lat.mode_grids[0].ravel()) == [0, 1, 2, 3, -4, -3, -2, -1]
    assert list(lat.mode_grids[1].ravel()) == [0, 1, 2, 3, -4]  # the half's columns


def test_dealias_mask_two_thirds_rule():
    lat = build_lattice(2, 8)
    assert not lat.dealias_mask_array[3, 0]  # 3 >= 8/3
    assert lat.dealias_mask_array[2, 0]  # 2 < 8/3

    lat3 = build_lattice(3, 16)
    assert _k(lat3, (5, 0, 0)) == (5, 0, 0)
    assert lat3.dealias_mask_array[5, 0, 0]  # 5 < 16/3


def test_dealias_mask_kills_nyquist():
    lat = build_lattice(2, 8)
    assert _k(lat, (4, 0)) == (-4, 0)
    assert not lat.dealias_mask_array[4, 0]
    assert _k(lat, (0, 4)) == (0, -4)  # the half's last column
    assert not lat.dealias_mask_array[0, 4]


def test_dealias_mask_symmetric_under_reflection():
    lat = build_lattice(2, 16)
    mask = lat.dealias_mask_array
    idx = (-np.arange(16)) % 16
    assert np.array_equal(mask, mask[idx])  # k_1 -> -k_1
    assert np.array_equal(mask[:, 0], mask[idx, 0])  # k -> -k on the plane k_n = 0


@pytest.mark.parametrize("n, N", [(2, 8), (2, 30), (2, 98), (3, 8), (3, 12), (3, 18)])
def test_lattice_tables_hold_the_half(n, N):
    lat = build_lattice(n, N)
    full = full_tables(n, N)
    w = N // 2 + 1
    for name in ("kmax_array", "kmod_array", "ksq_array", "inv_ksq_array", "dealias_mask_array"):
        table = getattr(lat, name)
        assert table.shape == lat.half_shape, name
        want = np.ascontiguousarray(getattr(full, name)[..., :w])
        assert table.dtype == want.dtype and table.tobytes() == want.tobytes(), name
    assert lat.mode_grids[-1].shape == (1,) * (n - 1) + (w,)
    for got, want in zip(lat.mode_grids, full.mode_grids):
        assert got.tobytes() == np.ascontiguousarray(want[..., :w]).tobytes()


def test_inv_ksq_inverts_ksq_off_the_mean_mode():
    lat = build_lattice(3, 8)
    assert lat.inv_ksq_array[0, 0, 0] == 0.0
    nonzero = lat.ksq_array > 0
    np.testing.assert_array_equal(lat.inv_ksq_array[nonzero],
                                  1.0 / lat.ksq_array[nonzero])


def test_kmod_zero_unique():
    lat = build_lattice(2, 16)
    assert lat.kmod_array[0, 0] == 0.0
    assert np.count_nonzero(lat.kmod_array == 0.0) == 1


@pytest.mark.parametrize("n,N", [(4, 16), (2, 7), (2, 4), (2, 1024)])
def test_build_lattice_rejects_bad_args(n, N):
    with pytest.raises(ValueError):
        build_lattice(n, N)


# -- transforms ----------------------------------------------------------------


def test_taylor_green_spectrum_from_grid():
    # hand expansion: sin x cos y has four modes at (+-1, +-1), magnitude 1/4
    lat = build_lattice(2, 16)
    x = grid_coords(lat)
    values = np.stack([np.sin(x[0]) * np.cos(x[1]), -np.cos(x[0]) * np.sin(x[1])])
    coeffs = full_spectrum(grid_to_coeffs(values, 2), 2)
    c1 = coeffs[0]
    for s1 in (1, -1):
        for s2 in (1, -1):
            assert abs(c1[s1 % 16, s2 % 16]) == pytest.approx(0.25, abs=1e-12)
    active = np.zeros(lat.shape, dtype=bool)
    for s1 in (1, -1):
        for s2 in (1, -1):
            active[s1 % 16, s2 % 16] = True
    assert np.max(np.abs(c1[~active])) < 1e-12
    # matches the exact spectral constructor
    np.testing.assert_allclose(half_of(coeffs), taylor_green(lat, 1.0).coeffs, atol=1e-14)


def test_transform_zero_field(lattice_2d):
    coeffs = grid_to_coeffs(np.zeros((2,) + lattice_2d.shape), 2)
    assert np.all(full_spectrum(coeffs, 2) == 0)


def test_round_trip_identity():
    u = make_random_field(seed=21)
    back = grid_to_coeffs(coeffs_to_grid(u.coeffs, 2), 2)
    np.testing.assert_allclose(back, u.coeffs, rtol=0, atol=1e-12)


@given(seed=st.integers(0, 2**32 - 1))
def test_parseval(seed):
    u = make_random_field(seed=seed, band=(1, 6))
    phys = coeffs_to_grid(u.coeffs, 2)
    quadrature = u.lattice.cell_volume * float(np.sum(phys**2))
    mode_sum = u.lattice.volume * float(np.sum(np.abs(full_spectrum(u.coeffs, 2)) ** 2))
    assert quadrature == pytest.approx(mode_sum, rel=1e-10)


def _transform_batch(u):
    """Velocity components and derivatives of odd and even order."""
    c = u.coeffs
    g = u.lattice.mode_grids
    return np.stack([
        c[0],
        1j * g[0] * c[1],
        1j * g[-1] * c[0],
        -g[1] * g[-1] * c[-1],
        (1j * g[-1]) ** 3 * c[1],
    ])


def assert_same_bytes(got, want):
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, N", [(2, 32), (3, 16)])
def test_coeffs_to_grid_reads_only_the_half_spectrum(n, N):
    # byte-equal to scipy's irfftn of the k_n >= 0 half, for a batched and a
    # bare array, with the input copied (default) or consumed
    # (overwrite=True); row 0 of a batch equals the bare transform
    batched = _transform_batch(make_random_field(n=n, N=N, seed=22, band=(1, 4)))
    assert_same_bytes(coeffs_to_grid(batched[0], n), coeffs_to_grid(batched, n)[0])
    assert_same_bytes(coeffs_to_grid(batched[0].copy(), n, overwrite=True),
                      coeffs_to_grid(batched.copy(), n, overwrite=True)[0])
    for coeffs in (batched, batched[0]):
        axes = tuple(range(coeffs.ndim - n, coeffs.ndim))
        want = scipy.fft.irfftn(coeffs, s=(N,) * n, axes=axes, norm="forward")
        scratch = coeffs.copy()
        assert_same_bytes(coeffs_to_grid(coeffs, n), want)
        assert_same_bytes(coeffs, scratch)  # the default path leaves its input alone
        assert_same_bytes(coeffs_to_grid(scratch, n, overwrite=True), want)
        assert not np.array_equal(scratch, coeffs)  # the complex passes ran in it


@pytest.mark.parametrize("n, N", [(2, 32), (3, 16)])
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=10)
def test_coeffs_to_grid_matches_complex_inverse(n, N, seed):
    # on Hermitian band-limited input the complex-to-real transform agrees
    # with the full complex inverse transform, odd derivatives included
    batch = _transform_batch(make_random_field(n=n, N=N, seed=seed, band=(1, 4)))
    want = scipy.fft.ifftn(full_spectrum(batch, n), axes=tuple(range(1, n + 1)),
                           norm="forward").real
    got = coeffs_to_grid(batch, n)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("n, N", [(2, 32), (2, 256), (3, 16), (3, 64), (2, 48)])
@pytest.mark.parametrize("workers", [1, 2])
def test_transforms_on_the_kept_columns_equal_the_full_width_ones(n, N, workers):
    # width = w runs the complex passes on the first w columns only: the
    # inverse of a half whose columns from w on are zero, and the first w
    # columns of the forward, are the full-width bytes; the full-width
    # forward is rfftn's, at N = 48 too
    w = math.ceil(N / 3)
    rng = np.random.default_rng(60 + N)
    shape = (n,) + (N,) * (n - 1) + (N // 2 + 1,)
    half = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    half[..., w:] = 0.0
    x = rng.standard_normal((n,) + (N,) * n)
    with scipy.fft.set_workers(workers):
        want = coeffs_to_grid(half, n)
        assert_same_bytes(coeffs_to_grid(half, n, width=w), want)
        scratch = half.copy()
        assert_same_bytes(coeffs_to_grid(scratch, n, overwrite=True, width=w), want)
        assert scratch[..., w:].tobytes() == half[..., w:].tobytes()  # never written
        full = grid_to_coeffs(x, n)
        kept = grid_to_coeffs(x, n, width=w)
        rfftn = scipy.fft.rfftn(x, axes=tuple(range(1, n + 1)), norm="forward")
    assert_same_bytes(full, rfftn)
    assert_same_bytes(np.ascontiguousarray(kept), np.ascontiguousarray(full[..., :w]))


_INF = np.array([np.inf, -np.inf])
MAX_ABS_CASES = {
    "zero": np.zeros((2, 4, 4)),
    "negative zero": -np.zeros((2, 4, 4)),
    "signed zeros": np.array([0.0, -0.0, -0.0]),
    "negative largest": np.array([-3.0, 1.0, 2.5]),
    "positive largest": np.array([-2.0, 1.0, 2.5]),
    "subnormal": np.array([-5e-324, 0.0]),
    "nan": np.array([1.0, np.nan, -2.0]),
    "negative nan": np.array([1.0, -np.nan, -2.0]),
    "nan of inf - inf": np.array([1.0, np.subtract(*_INF)]),
    "+inf": np.array([1.0, np.inf, -2.0]),
    "-inf": np.array([1.0, -np.inf, -2.0]),
    "both infs": np.array([-np.inf, 0.0, np.inf]),
    "random grid": np.random.default_rng(61).standard_normal((3, 8, 8, 8)),
}


@pytest.mark.parametrize("values", MAX_ABS_CASES.values(), ids=MAX_ABS_CASES.keys())
def test_max_abs_is_the_max_of_abs_to_the_bit(values):
    # +0.0 for a zero array, a NaN without sign, +inf for either infinity
    want = float(np.max(np.abs(values)))
    assert np.float64(max_abs(values)).tobytes() == np.float64(want).tobytes()


# -- half-spectrum layout ---------------------------------------------------------


def test_a_field_holds_the_half_and_nothing_else():
    lat = build_lattice(2, 16)
    assert SpectralVectorField(lat, np.zeros((2, 16, 9), dtype=np.complex128)).coeffs.shape \
        == (2,) + lat.half_shape
    for shape in ((2,) + lat.shape, (2, 16, 8), (3, 16, 9)):  # full, short, a component too many
        with pytest.raises(ValueError, match="does not match"):
            SpectralVectorField(lat, np.zeros(shape, dtype=np.complex128))


@pytest.mark.parametrize("n, N", [(2, 32), (3, 16)])
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=10)
def test_full_spectrum_inverts_half_spectrum(n, N, seed):
    half = make_random_field(n=n, N=N, seed=seed, band=(1, 4)).coeffs
    assert half.shape == (n,) + (N,) * (n - 1) + (N // 2 + 1,)
    assert half.flags.c_contiguous
    full = full_spectrum(half, n)
    np.testing.assert_array_equal(half_of(full), half)
    np.testing.assert_array_equal(hermitian_conjugate(full, n), full)
    # zero columns, as a step leaves past the 2/3 rule, have 0-0j mirrors
    half[..., 5:] = 0.0
    mirrors = full_spectrum(half, n)[..., N // 2 + 1 : N - 4]
    assert mirrors.real.tobytes() == bytes(mirrors.real.nbytes)
    assert np.all(np.signbit(mirrors.imag))


@pytest.mark.parametrize("n, N", [(2, 32), (3, 16)])
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=10)
def test_completed_half_is_hermitian_off_the_edge_planes(n, N, seed):
    # an arbitrary half: only the k_n = 0 and k_n = N/2 planes, which hold
    # both partners of a pair, can break the symmetry of the completion
    rng = np.random.default_rng(seed)
    shape = (n,) + (N,) * (n - 1) + (N // 2 + 1,)
    half = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    full = full_spectrum(half, n)
    np.testing.assert_array_equal(full[..., : N // 2 + 1], half)
    defect = full - hermitian_conjugate(full, n)
    assert np.all(defect[..., 1 : N // 2] == 0)
    assert np.all(defect[..., N // 2 + 1 :] == 0)
    assert np.max(np.abs(defect[..., 0])) > 0


@pytest.mark.parametrize("n, N", [(2, 32), (3, 16)])
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=10)
def test_grid_to_coeffs_is_the_half_of_fftn(n, N, seed):
    x = np.random.default_rng(seed).standard_normal((n,) + (N,) * n)
    want = scipy.fft.fftn(x, axes=tuple(range(1, n + 1)), norm="forward")
    got = grid_to_coeffs(x, n)
    assert got.shape == want[..., : N // 2 + 1].shape
    assert np.max(np.abs(got - want[..., : N // 2 + 1])) <= 1e-15 * np.max(np.abs(want))


# -- Leray projection ------------------------------------------------------------


def test_leray_annihilates_gradients(lattice_2d):
    # c(k) = k * phi(k) for a random scalar phi
    rng = np.random.default_rng(3)
    phi = half_of(rng.standard_normal(lattice_2d.shape)
                  + 1j * rng.standard_normal(lattice_2d.shape))
    grids = lattice_2d.mode_grids
    coeffs = np.stack([grids[0] * phi, grids[1] * phi]).astype(np.complex128)
    out = leray_project(SpectralVectorField(lattice_2d, coeffs))
    assert np.max(np.abs(out.coeffs)) < 1e-12 * np.max(np.abs(coeffs))


def test_leray_fixes_divergence_free_fields():
    u = make_random_field(seed=22)
    out = leray_project(u)
    assert np.max(np.abs(out.coeffs - u.coeffs)) < 1e-15


def test_leray_single_mode_by_hand(lattice_2d):
    # k=(1,0), c=(a,b) -> (0,b)
    coeffs = np.zeros((2,) + lattice_2d.shape, dtype=np.complex128)
    a, b = 0.7 + 0.2j, -0.3 + 0.5j
    coeffs[0][1, 0] = a
    coeffs[1][1, 0] = b
    coeffs[0][-1, 0] = np.conj(a)
    coeffs[1][-1, 0] = np.conj(b)
    out = leray_project(SpectralVectorField(lattice_2d, half_of(coeffs)))
    assert out.coeffs[0][1, 0] == pytest.approx(0.0, abs=1e-15)
    assert out.coeffs[1][1, 0] == pytest.approx(b, abs=1e-15)


@given(seed=st.integers(0, 2**32 - 1))
def test_leray_idempotent_and_divergence_free(seed):
    u = make_random_field(seed=seed)
    noisy = u.with_coeffs(u.coeffs + 0.5j * np.roll(u.coeffs, 2, axis=-1))
    once = leray_project(noisy)
    twice = leray_project(once)
    assert np.max(np.abs(twice.coeffs - once.coeffs)) <= 1e-15
    assert divergence_defect(once) <= 1e-12


def test_leray_keeps_mode_zero():
    lat = build_lattice(2, 16)
    coeffs = np.zeros((2,) + lat.half_shape, dtype=np.complex128)
    coeffs[0][0, 0] = 1.0  # constant background
    out = leray_project(SpectralVectorField(lat, coeffs))
    assert out.coeffs[0][0, 0] == 1.0


# -- derivatives ------------------------------------------------------------------


def test_derivative_sine_by_hand():
    # u1 = sin x: modes (+-1, 0) at -+i/2; d/dx -> cos x: both 1/2
    lat = build_lattice(2, 16)
    coeffs = np.zeros((2,) + lat.shape, dtype=np.complex128)
    coeffs[0][1, 0] = -0.5j
    coeffs[0][-1, 0] = 0.5j
    u = SpectralVectorField(lat, half_of(coeffs))
    d = spectral_derivative(u, 0, 0)
    assert d[1, 0] == pytest.approx(0.5, abs=1e-15)
    assert d[-1, 0] == pytest.approx(0.5, abs=1e-15)
    assert np.max(np.abs(spectral_derivative(u, 0, 1))) == 0.0  # x-only field


def test_derivative_of_constant_is_zero(lattice_2d):
    coeffs = np.zeros((2,) + lattice_2d.half_shape, dtype=np.complex128)
    coeffs[:, 0, 0] = 2.0
    u = SpectralVectorField(lattice_2d, coeffs)
    assert np.max(np.abs(spectral_derivative(u, 0, 0))) == 0.0


def test_derivative_matches_grid_derivative():
    u = make_random_field(seed=23, N=64, band=(1, 3))
    lat = u.lattice
    from nshd.spectral import coeffs_to_grid

    d_spec = coeffs_to_grid(spectral_derivative(u, 0, 1), lat.n)
    vals = coeffs_to_grid(u.coeffs[0], lat.n)
    # central difference on the periodic grid (2nd order independent oracle)
    fwd = np.roll(vals, -1, axis=1)
    bwd = np.roll(vals, 1, axis=1)
    approx = (fwd - bwd) / (2 * lat.dx)
    # band-limited field: FD error ~ (k dx)^2/6; loose bound
    assert np.max(np.abs(d_spec - approx)) < 0.05 * np.max(np.abs(d_spec))


def test_derivative_commutes_with_leray():
    u = make_random_field(seed=24)
    lat = u.lattice
    from nshd.spectral import leray_project_coeffs

    for axis in range(lat.n):
        d = np.stack([spectral_derivative(u, i, axis) for i in range(lat.n)])
        projected = leray_project_coeffs(lat, d)
        assert np.max(np.abs(projected - d)) <= 1e-12


# -- dealias -----------------------------------------------------------------------


def test_dealias_trivial_cases(lattice_2d):
    inside = make_random_field(seed=25, band=(1, 5))
    np.testing.assert_array_equal(dealias(inside).coeffs, inside.coeffs)

    nyq = zero_field(lattice_2d)
    nyq.coeffs[0][16, 0] = 1.0  # k1 = -16 Nyquist at N=32
    assert np.all(dealias(nyq).coeffs == 0)

    tg = taylor_green(build_lattice(2, 8), 1.0)
    np.testing.assert_array_equal(dealias(tg).coeffs, tg.coeffs)


def test_dealias_idempotent(lattice_2d):
    full = SpectralVectorField(
        lattice_2d, np.ones((2,) + lattice_2d.half_shape, dtype=np.complex128)
    )
    once = dealias(full)
    np.testing.assert_array_equal(dealias(once).coeffs, once.coeffs)


# -- vorticity ----------------------------------------------------------------------


def test_vorticity_taylor_green():
    # omega = 2 sin x sin y: four modes (+-1, +-1) of magnitude 1/2
    lat = build_lattice(2, 16)
    w = vorticity(taylor_green(lat, 1.0))
    for s1 in (1, -1):
        for s2 in (1, -1):
            assert abs(full_spectrum(w, 2)[s1 % 16, s2 % 16]) == pytest.approx(0.5, abs=1e-13)
    from nshd.spectral import coeffs_to_grid

    x = grid_coords(lat)
    np.testing.assert_allclose(
        coeffs_to_grid(w, 2), 2 * np.sin(x[0]) * np.sin(x[1]), atol=1e-12
    )


def test_vorticity_of_gradient_is_zero(lattice_2d):
    rng = np.random.default_rng(6)
    phi = half_of(rng.standard_normal(lattice_2d.shape)
                  + 1j * rng.standard_normal(lattice_2d.shape))
    grids = lattice_2d.mode_grids
    coeffs = 1j * np.stack([grids[0] * phi, grids[1] * phi]).astype(np.complex128)
    w = vorticity(SpectralVectorField(lattice_2d, coeffs))
    assert np.max(np.abs(w)) < 1e-12 * np.max(np.abs(coeffs))


def test_vorticity_constant_field_zero(lattice_2d):
    coeffs = np.zeros((2,) + lattice_2d.half_shape, dtype=np.complex128)
    coeffs[:, 0, 0] = 3.0
    assert np.max(np.abs(vorticity(SpectralVectorField(lattice_2d, coeffs)))) == 0.0


def test_vorticity_3d_divergence_free():
    u = make_random_field(n=3, N=16, seed=26, band=(1, 3))
    w = SpectralVectorField(u.lattice, vorticity(u))
    assert divergence_defect(w) <= 1e-12
    assert hermitian_defect(w) <= 1e-12


# -- invariants under operations -----------------------------------------------------


@given(seed=st.integers(0, 2**32 - 1))
def test_hermitian_preserved_by_operations(seed):
    u = make_random_field(seed=seed)
    assert hermitian_defect(u) <= 1e-12
    assert hermitian_defect(leray_project(u)) <= 1e-12
    assert hermitian_defect(dealias(u)) <= 1e-12
    d = np.stack([spectral_derivative(u, i, 0) for i in range(u.lattice.n)])
    assert hermitian_defect(u.with_coeffs(d)) <= 1e-12
