"""Smooth, zero-mean, divergence-free initial fields.

Random fields use numpy's Philox bit generator (philox4x64-10), a 64-bit
counter-based RNG with a documented, platform-stable stream, so a (seed,
lattice, band) triple reproduces coefficients bit-exactly.  Draw order is
fixed: components major, then the lexicographically positive modes of the
band in the lattice's flat row-major order, real part before imaginary
part.  Fields are built directly on the k_n >= 0 half that
`SpectralVectorField` holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import energy
from .spectral import (
    ConfigError,
    SpectralVectorField,
    WavenumberLattice,
    check_finite,
    leray_project_coeffs,
)

SLOPE_DECADES = 100  # the band's largest |k|^spectrum_slope lies within 1e+-100


class EmptyBand(ValueError):
    """Raised when a requested spectral shell contains no modes."""


@dataclass(frozen=True)
class InitialConditionSpec:
    """Declarative description of an initial field.

    kind is "taylor_green" (amplitude only) or "random_band" (seeded band
    of Gaussian modes with amplitude ~ |k|^spectrum_slope, rescaled so the
    total energy equals amplitude^2; the energy before the rescaling must
    neither overflow nor underflow to zero).
    """

    kind: str
    amplitude: float = 1.0
    seed: int = 0
    band: tuple = (1, 3)
    spectrum_slope: float = 0.0

    def __post_init__(self):
        if self.kind not in ("taylor_green", "random_band"):
            raise ConfigError("kind",
                              f"must be 'taylor_green' or 'random_band', got {self.kind!r}")
        for name in ("amplitude", "spectrum_slope"):
            check_finite(name, getattr(self, name))
        if not self.amplitude > 0:
            raise ConfigError("amplitude", "must be positive")
        if len(self.band) != 2 or not all(type(k) is int for k in self.band):  # no bool
            raise ConfigError("band", "must be a pair of integers [k_min, k_max]")
        object.__setattr__(self, "band", tuple(self.band))
        if self.kind == "random_band":
            k_min, k_max = self.band
            if not 1 <= k_min <= k_max:
                raise ConfigError("band", f"need 1 <= k_min <= k_max, got {list(self.band)}")
            if not 0 <= self.seed < 2**64:  # the Philox key and the checkpoint's u64
                raise ConfigError("seed", f"must lie in [0, 2**64), got {self.seed}")
            k_dom = k_max if self.spectrum_slope > 0 else k_min  # the largest |k|^slope
            if abs(self.spectrum_slope) * math.log10(k_dom) > SLOPE_DECADES:
                raise ConfigError(
                    "spectrum_slope",
                    f"{k_dom}^{self.spectrum_slope:g} leaves [1e-{SLOPE_DECADES}, "
                    f"1e+{SLOPE_DECADES}] for band {list(self.band)}",
                )


def taylor_green(lattice: WavenumberLattice, amplitude: float = 1.0) -> SpectralVectorField:
    """Taylor-Green vortex, constructed directly in spectral space.

    n=2: A (sin x cos y, -cos x sin y); n=3: A (sin x cos y cos z,
    -cos x sin y cos z, 0).  Exactly divergence-free and zero-mean.
    """
    n, N = lattice.n, lattice.N
    coeffs = np.zeros((n,) + lattice.half_shape, dtype=np.complex128)
    # sin x -> -+ i/2 at k1 = +-1 ; cos x -> 1/2 at k1 = +-1; the half holds
    # the last axis's k_n = +1 only
    for s1 in (1, -1):
        for s2 in (1, -1) if n == 3 else (1,):
            c_sin_x = s1 / 2j  # coefficient of exp(i s1 x) in sin x
            c_cos_x = 0.5
            c_sin_y = s2 / 2j
            c_cos_y = 0.5
            i1, i2 = s1 % N, s2 % N
            if n == 2:
                coeffs[0][i1, i2] = amplitude * c_sin_x * c_cos_y
                coeffs[1][i1, i2] = -amplitude * c_cos_x * c_sin_y
            else:
                c_cos_z = 0.5
                coeffs[0][i1, i2, 1] = amplitude * c_sin_x * c_cos_y * c_cos_z
                coeffs[1][i1, i2, 1] = -amplitude * c_cos_x * c_sin_y * c_cos_z
    return SpectralVectorField(lattice, coeffs, 0.0)


def random_band_limited(lattice: WavenumberLattice, spec: InitialConditionSpec) -> SpectralVectorField:
    """Seeded random divergence-free field supported on a spectral shell.

    Modes with k_min <= |k| <= k_max get independent complex Gaussian
    amplitudes shaped by |k|^spectrum_slope.  One mode of each pair +-k is
    drawn, the lexicographically positive one (its first nonzero k_j is
    positive); the draw is written at k and its conjugate at -k, each where
    it lies in the k_n >= 0 half, which on the plane k_n = 0 holds both.
    The half is then Leray-projected and rescaled so its energy is exactly
    amplitude^2.
    """
    if spec.kind != "random_band":
        raise ValueError("spec.kind must be 'random_band'")
    n, N = lattice.n, lattice.N
    k_min, k_max = spec.band
    if not k_max < N / 3:
        raise ValueError(
            f"band upper bound {k_max} must stay below N/3 = {N / 3:g}"
        )
    # the band lies in the box max_j |k_j| <= k_max, whose wavenumbers run in
    # the lattice's index order on each axis, so the box's row-major order is
    # the lattice's
    edge = math.floor(k_max)
    k_axis = np.r_[0 : edge + 1, -edge : 0]
    box = np.meshgrid(*[k_axis.astype(np.float64)] * n, indexing="ij", sparse=True)
    kmod = np.sqrt(sum(g**2 for g in box))
    shell = (kmod >= k_min) & (kmod <= k_max)
    if not shell.any():
        raise EmptyBand(f"no modes with |k| in [{k_min}, {k_max}]")
    positive = False  # the first nonzero k_j is positive
    undecided = True  # k_1 = ... = k_j = 0 so far
    for g in box:
        positive = positive | (undecided & (g > 0))
        undecided = undecided & (g == 0)

    drawn = np.nonzero(shell & positive)  # row-major order fixes the draw order
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    draws = rng.standard_normal((n, drawn[0].size, 2))
    amplitudes = (draws[..., 0] + 1j * draws[..., 1]) * (kmod[drawn] ** spec.spectrum_slope)

    k = np.stack([k_axis[i] for i in drawn])  # (n, modes) wavenumbers
    coeffs = np.zeros((n,) + lattice.half_shape, dtype=np.complex128)
    for at, values in ((k, amplitudes), (-k, np.conj(amplitudes))):
        inside = at[-1] >= 0
        coeffs[(slice(None),) + tuple(at[:, inside] % N)] = values[:, inside]
    leray_project_coeffs(lattice, coeffs, out=coeffs)

    e = energy(SpectralVectorField(lattice, coeffs))
    if e == 0.0:
        raise EmptyBand("projection annihilated every mode in the band")
    coeffs *= spec.amplitude / np.sqrt(e)
    return SpectralVectorField(lattice, coeffs, 0.0)


def build_initial_field(lattice: WavenumberLattice, spec: InitialConditionSpec) -> SpectralVectorField:
    if spec.kind == "taylor_green":
        return taylor_green(lattice, spec.amplitude)
    return random_band_limited(lattice, spec)
