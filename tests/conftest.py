import errno

import hypothesis
import numpy as np
import pytest

from nshd.dynamics import StepWorkspace, dissipation_symbol, nonlinear_rhs
from nshd.initial_conditions import InitialConditionSpec, random_band_limited
from nshd.spectral import SpectralVectorField, build_lattice

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
