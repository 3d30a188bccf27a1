import errno
import functools
from types import SimpleNamespace

import hypothesis
import numpy as np
import pytest

from nshd.dynamics import StepWorkspace, dissipation_symbol, nonlinear_rhs
from nshd.initial_conditions import InitialConditionSpec, random_band_limited
from nshd.spectral import (
    SpectralVectorField,
    build_lattice,
    coeffs_to_grid,
    gradient_batch,
    leray_project_coeffs,
)

hypothesis.settings.register_profile(
    "ci", max_examples=25, deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)
hypothesis.settings.load_profile("ci")


@pytest.fixture
def lattice_2d():
    return build_lattice(2, 32)


@pytest.fixture
def lattice_3d():
    return build_lattice(3, 16)


def make_random_field(n=2, N=32, seed=0, band=(1, 4), amplitude=1.0, slope=0.0):
    lat = build_lattice(n, N)
    spec = InitialConditionSpec("random_band", amplitude=amplitude, seed=seed,
                                band=band, spectrum_slope=slope)
    return random_band_limited(lat, spec)


def rhs_workspace(lattice):
    """A one-slab step workspace for bare `nonlinear_rhs` calls; its symbol goes unused."""
    return StepWorkspace(lattice, lattice.ksq_array)


def rhs_half(u):
    """`nonlinear_rhs` of u on its k_n >= 0 half: the kept columns, then zeros."""
    work = rhs_workspace(u.lattice)
    out = np.zeros_like(u.coeffs)
    nonlinear_rhs(u.coeffs, work, out[..., : work.width])
    return out


def workspace_for(u, cfg):
    """A one-slab step workspace on u's lattice with cfg's dissipation symbol."""
    return StepWorkspace(u.lattice, dissipation_symbol(u.lattice, cfg.alpha, cfg.nu))


def half_of(coeffs):
    """A contiguous copy of the k_n >= 0 half of the last axis, [..., :N//2 + 1]."""
    return coeffs[..., : coeffs.shape[-2] // 2 + 1].copy()


def grid_coords(lattice):
    """Meshgrid of physical coordinates, shape (n, N, ..., N)."""
    axis = np.arange(lattice.N) * lattice.dx
    return np.stack(np.meshgrid(*[axis] * lattice.n, indexing="ij"))


def zero_field(lattice, time=0.0):
    return SpectralVectorField(
        lattice, np.zeros((lattice.n,) + lattice.half_shape, dtype=np.complex128), time
    )


class FullDisk:
    """A file wrapper that writes the first chunk, then half the next, then fails."""

    def __init__(self, fh):
        self.fh, self.calls = fh, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.calls += 1
        if self.calls == 1:
            return self.fh.write(data)
        self.fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def mean_mode(u):
    """The k = 0 coefficient of every component."""
    return u.coeffs[(slice(None),) + (0,) * u.lattice.n]


def velocity_gradient_grid(lattice, coeffs, lead=None):
    """Grid values of `lead` and of grad u from one inverse transform of a
    fresh whole-half `gradient_batch`: `(lead_values, grad)`, `grad[i, j] =
    d_j u_i`.  The out-of-place oracle of the solver's workspace batches."""
    n = lattice.n
    m = 0 if lead is None else len(lead)
    phys = coeffs_to_grid(gradient_batch(lattice, coeffs, lead), n, overwrite=True)
    return phys[:m], phys[m:].reshape((n, n) + lattice.shape)


# -- full-lattice oracles: every mode of the N^n lattice, not the k_n >= 0 half --


def full_tables(n, N):
    """The lattice tables over every mode, from np.fft.fftfreq, under the
    lattice's names (`mode_grids`, `kmax_array`, `kmod_array`, `ksq_array`,
    `inv_ksq_array`, `dealias_mask_array`, each broadcasting to (N,) * n), so
    it stands in for the lattice in the spectral operators on full spectra."""
    modes = np.fft.fftfreq(N, d=1.0 / N).astype(np.int64).astype(np.float64)
    grids = tuple(np.meshgrid(*[modes] * n, indexing="ij", sparse=True))
    kmax = functools.reduce(np.maximum, map(np.abs, grids))
    ksq = sum(g**2 for g in grids)
    return SimpleNamespace(
        n=n, N=N, mode_grids=grids, kmax_array=kmax, kmod_array=np.sqrt(ksq),
        ksq_array=ksq, inv_ksq_array=np.divide(1.0, ksq, out=np.zeros(ksq.shape), where=ksq > 0),
        dealias_mask_array=kmax < N / 3.0)


def hermitian_conjugate(coeffs, n):
    """conj(c(-k)) of an array over every mode, the trailing n axes index-reversed mod N."""
    idx = (-np.arange(coeffs.shape[-1])) % coeffs.shape[-1]  # mode k -> mode -k (mod N)
    return np.conj(coeffs[(slice(None),) * (coeffs.ndim - n) + np.ix_(*((idx,) * n))])


def halfspace_mask(tables):
    """Lexicographically positive half of the full mode lattice (k and -k split)."""
    shape = tables.ksq_array.shape
    mask = np.zeros(shape, dtype=bool)
    prev_zero = np.ones(shape, dtype=bool)
    for g in tables.mode_grids:
        mask |= prev_zero & np.broadcast_to(g > 0, shape)
        prev_zero = prev_zero & np.broadcast_to(g == 0, shape)
    return mask


def full_lattice_random_band(lattice, spec, scaled=True):
    """`random_band_limited`'s field built over every mode and cut to the
    k_n >= 0 half at the end: the same draws, mirrored by `hermitian_conjugate`,
    Leray-projected and normalised by the sum over every mode.  `scaled=False`
    stops before the normalisation."""
    n, N = lattice.n, lattice.N
    k_min, k_max = spec.band
    tables = full_tables(n, N)
    kmod = tables.kmod_array
    half = (kmod >= k_min) & (kmod <= k_max) & halfspace_mask(tables)
    flat_idx = np.flatnonzero(half)
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    draws = rng.standard_normal((n, flat_idx.size, 2))
    amplitudes = (draws[..., 0] + 1j * draws[..., 1]) * (
        kmod.flat[flat_idx] ** spec.spectrum_slope)
    coeffs = np.zeros((n,) + lattice.shape, dtype=np.complex128)
    for i in range(n):
        coeffs[i].flat[flat_idx] = amplitudes[i]
    coeffs = coeffs + hermitian_conjugate(coeffs, n)
    coeffs = leray_project_coeffs(tables, coeffs)
    if scaled:
        total = lattice.volume * np.sum(np.abs(coeffs) ** 2)
        coeffs = coeffs * (spec.amplitude / np.sqrt(0.5 * total))
    return half_of(coeffs)
