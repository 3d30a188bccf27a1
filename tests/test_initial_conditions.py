"""Taylor-Green and seeded random band-limited field construction."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nshd import initial_conditions
from nshd.diagnostics import energy
from nshd.initial_conditions import (
    EmptyBand,
    InitialConditionSpec,
    random_band_limited,
    taylor_green,
)
from nshd.spectral import (
    ConfigError,
    build_lattice,
    coeffs_to_grid,
    dealias,
    divergence_defect,
    hermitian_defect,
)

from conftest import full_lattice_random_band, grid_coords, mean_mode, peak_above_live


def test_taylor_green_2d_energy():
    lat = build_lattice(2, 32)
    tg = taylor_green(lat, 1.0)
    assert energy(tg) == pytest.approx(np.pi**2, rel=1e-13)
    assert divergence_defect(tg) <= 1e-14
    assert hermitian_defect(tg) == 0.0
    assert np.all(mean_mode(tg) == 0)


def test_taylor_green_matches_grid_formula():
    lat = build_lattice(2, 16)
    x = grid_coords(lat)
    expected = np.stack([np.sin(x[0]) * np.cos(x[1]),
                         -np.cos(x[0]) * np.sin(x[1])])
    np.testing.assert_allclose(coeffs_to_grid(taylor_green(lat, 1.0).coeffs, 2),
                               expected, atol=1e-13)


def test_taylor_green_3d_energy():
    lat = build_lattice(3, 16)
    tg = taylor_green(lat, 1.0)
    assert energy(tg) == pytest.approx(np.pi**3, rel=1e-13)
    assert divergence_defect(tg) <= 1e-14
    x = grid_coords(lat)
    expected = np.stack([
        np.sin(x[0]) * np.cos(x[1]) * np.cos(x[2]),
        -np.cos(x[0]) * np.sin(x[1]) * np.cos(x[2]),
        np.zeros(lat.shape),
    ])
    np.testing.assert_allclose(coeffs_to_grid(tg.coeffs, 3), expected, atol=1e-13)


def test_taylor_green_amplitude_scaling():
    lat = build_lattice(2, 16)
    assert energy(taylor_green(lat, 2.0)) == pytest.approx(4 * np.pi**2, rel=1e-13)


def test_random_band_deterministic():
    lat = build_lattice(2, 32)
    spec = InitialConditionSpec("random_band", amplitude=0.7, seed=123, band=(2, 6))
    a = random_band_limited(lat, spec)
    b = random_band_limited(lat, spec)
    assert np.array_equal(a.coeffs, b.coeffs)  # bit-exact

    other = random_band_limited(
        lat, InitialConditionSpec("random_band", amplitude=0.7, seed=124, band=(2, 6))
    )
    assert not np.array_equal(a.coeffs, other.coeffs)


@given(seed=st.integers(0, 2**32 - 1))
def test_random_band_invariants(seed):
    lat = build_lattice(2, 32)
    spec = InitialConditionSpec("random_band", amplitude=1.3, seed=seed, band=(1, 5))
    u = random_band_limited(lat, spec)
    assert energy(u) == pytest.approx(1.3**2, rel=1e-12)
    assert divergence_defect(u) <= 1e-12
    assert hermitian_defect(u) <= 1e-12
    assert np.all(mean_mode(u) == 0)
    np.testing.assert_array_equal(dealias(u).coeffs, u.coeffs)


def test_random_band_support_is_in_shell():
    lat = build_lattice(2, 32)
    u = random_band_limited(
        lat, InitialConditionSpec("random_band", seed=5, band=(3, 5))
    )
    kmod = lat.kmod_array
    outside = (kmod < 3) | (kmod > 5)
    assert np.max(np.abs(u.coeffs[:, outside])) == 0.0


def test_random_band_spectrum_slope():
    lat = build_lattice(2, 32)
    flat = random_band_limited(
        lat, InitialConditionSpec("random_band", seed=6, band=(1, 6)))
    steep = random_band_limited(
        lat, InitialConditionSpec("random_band", seed=6, band=(1, 6),
                                  spectrum_slope=-2.0))
    kmod = lat.kmod_array
    hi, lo = kmod > 4, (kmod > 0) & (kmod < 2)
    def shell_energy(u, sel):
        return float(np.sum(np.abs(u.coeffs[:, sel]) ** 2))
    ratio_flat = shell_energy(flat, hi) / shell_energy(flat, lo)
    ratio_steep = shell_energy(steep, hi) / shell_energy(steep, lo)
    assert ratio_steep < ratio_flat  # slope suppresses the high shell


LATTICES = {n: build_lattice(n, 32) for n in (2, 3)}


@given(n=st.sampled_from([2, 3]),
       band=st.lists(st.integers(1, 10), min_size=2, max_size=2).map(sorted),
       slope=st.floats(-400.0, 400.0), seed=st.integers(0, 2**64 - 1))
def test_every_accepted_spectrum_slope_builds_a_finite_field(n, band, slope, seed):
    try:
        spec = InitialConditionSpec("random_band", seed=seed, band=band,
                                    spectrum_slope=slope)
    except ConfigError:
        assume(False)
    u = random_band_limited(LATTICES[n], spec)  # k_max <= 10 < 32/3
    assert np.all(np.isfinite(u.coeffs)) and np.any(u.coeffs != 0)
    assert energy(u) == pytest.approx(1.0, rel=1e-12)


def test_empty_band_rejected():
    lat = build_lattice(2, 32)
    # radii strictly between 4 and 4.1 contain no integer-lattice modes
    spec = InitialConditionSpec.__new__(InitialConditionSpec)
    object.__setattr__(spec, "kind", "random_band")
    object.__setattr__(spec, "amplitude", 1.0)
    object.__setattr__(spec, "seed", 0)
    object.__setattr__(spec, "band", (4.05, 4.1))
    object.__setattr__(spec, "spectrum_slope", 0.0)
    with pytest.raises(EmptyBand):
        random_band_limited(lat, spec)


def test_band_outside_dealias_rejected():
    lat = build_lattice(2, 32)
    spec = InitialConditionSpec("random_band", seed=0, band=(1, 11))  # 11 >= 32/3
    with pytest.raises(ValueError, match="N/3"):
        random_band_limited(lat, spec)


def test_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        InitialConditionSpec("vortex_sheet")
    with pytest.raises(ValueError, match="amplitude"):
        InitialConditionSpec("taylor_green", amplitude=0.0)
    with pytest.raises(ValueError, match="band"):
        InitialConditionSpec("random_band", band=(0, 3))
    with pytest.raises(ValueError, match="band"):
        InitialConditionSpec("random_band", band=(4, 2))


# the half build against the full-lattice build it replaced (conftest's oracle)


@given(n=st.sampled_from([2, 3]), seed=st.integers(0, 2**64 - 1),
       band=st.tuples(st.integers(1, 5), st.integers(0, 4)).map(lambda b: (b[0], min(5, sum(b)))),
       slope=st.floats(-3.0, 3.0), amplitude=st.floats(0.01, 100.0))
@settings(max_examples=40)
def test_half_build_matches_the_full_lattice_build(n, seed, band, slope, amplitude):
    # the projected half before the rescaling is byte-equal; only the
    # normalising sum, over the half by `diagnostics.energy`, moves the scaled field
    lat = {2: build_lattice(2, 32), 3: build_lattice(3, 16)}[n]
    spec = InitialConditionSpec("random_band", amplitude=amplitude, seed=seed, band=band,
                                spectrum_slope=slope)
    projected, project = [], initial_conditions.leray_project_coeffs

    def spy(lattice, coeffs, out=None):
        result = project(lattice, coeffs, out=out)
        projected.append(result.copy())
        return result

    with mock.patch.object(initial_conditions, "leray_project_coeffs", spy):
        u = random_band_limited(lat, spec)
    assert len(projected) == 1
    want = full_lattice_random_band(lat, spec, scaled=False)
    assert projected[0].dtype == want.dtype and projected[0].tobytes() == want.tobytes()
    np.testing.assert_allclose(u.coeffs, full_lattice_random_band(lat, spec),
                               rtol=1e-15, atol=0)


def test_random_band_peak_memory_stays_below_two_full_spectra():
    # the full-lattice build peaked at 3.1 full spectra (n N^n complex numbers)
    lat = build_lattice(3, 32)
    spec = InitialConditionSpec("random_band", seed=9, band=(1, 10))
    _, peak = peak_above_live(lambda: random_band_limited(lat, spec))
    assert peak < 2 * (3 * 32**3 * 16)
