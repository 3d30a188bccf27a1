"""Fourier lattice, the spectral vector field, transforms and the basic spectral operators.

Everything lives on the periodic torus [0, 2*pi)^n with integer wavenumbers in
standard FFT ordering (0, 1, ..., N/2-1, -N/2, ..., -1) per axis.  Coefficients
follow the Fourier-series convention

    f(x) = sum_k c(k) exp(i k.x),

so Parseval reads  integral |f|^2 dx = (2*pi)^n * sum_k |c(k)|^2.

The fields are real, so c(-k) = conj(c(k)), and a field holds only the
k_n >= 0 half of the last axis, N//2 + 1 columns: the half in memory, the
full spectrum on disk.  `full_spectrum` completes a half for the checkpoint
file; sums over every mode are the weighted-sum kernel's, in `diagnostics`.
The lattice's tables (`kmod_array` and the others) hold the same half,
`half_shape`, and its last sparse mode grid the half's columns.  The
transforms take the half, and a keyword-only `width` for arrays whose
columns from `width` on are zero, as the 2/3 rule leaves them (the first
`kept_width` columns; `live_width` tests a field): the complex passes then
skip those columns, and every computed column keeps its bytes.  The
array-level operators (`gradient_batch`, `dealias_coeffs`,
`leray_project_coeffs`) take any width of the half, and the rows of a
lattice as well as the whole: a step's row slab stands in for the lattice.

The module also holds ConfigError and the grid bounds (`check_grid`), since
it is the lowest module the config dataclasses import.

Fields are treated as immutable values and every operation returns a fresh
field, so values can be shared freely between threads.  There are two
exceptions.  An array-level operation given an `out=` array (`gradient_batch`
its batch) writes its result there, and that array belongs to the caller.
`coeffs_to_grid(..., overwrite=True)` consumes its input as scratch, so only
a caller that owns that array and reads it no more may pass it.
"""

from __future__ import annotations

import functools
import itertools
import reprlib
import sys
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.fft as _fft

TWO_PI = 2.0 * np.pi


class ConfigError(ValueError):
    """Invalid run configuration; `field` names the offending entry, `reason` says why."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason


def check_finite(name: str, value) -> None:
    """Raise ConfigError(name, ...) unless `value` is a finite number in float range."""
    if not -sys.float_info.max <= value <= sys.float_info.max:  # NaN, +-inf, 10**400
        raise ConfigError(name, f"must be finite, got {reprlib.repr(value)}")


def check_grid(n, N) -> None:
    """Raise ConfigError unless n is 2 or 3 and N is even with 8 <= N <= 512."""
    if n not in (2, 3):
        raise ConfigError("n", f"must be 2 or 3, got {n!r}")
    if not (N % 2 == 0 and 8 <= N <= 512):
        raise ConfigError("N", f"must be even with 8 <= N <= 512, got {N!r}")


def zoom_cut(kmax, q: int, N: int):
    """q * kmax < N/3: a zoom by q keeps modes of max_j |k_j| = kmax (number or
    array) inside the 2/3 rule of N points per axis; q = 1 is the dealias mask."""
    return q * kmax < N / 3.0


@dataclass(frozen=True)
class WavenumberLattice:
    """Discrete Fourier grid for an n-dimensional periodic box.

    Parameters
    ----------
    n : int
        Spatial dimension, 2 or 3.
    N : int
        Modes (and grid points) per axis; even, 8 <= N <= 512.

    The period is 2*pi on every axis, which is what makes the wavenumbers
    integers.
    """

    n: int
    N: int

    # cached arrays over the k_n >= 0 half, filled in __post_init__: `mode_grids`
    # holds the sparse float (k_1, ..., k_n), `kmax_array` the Chebyshev size
    # max_j |k_j| of each mode
    mode_grids: tuple = field(init=False, repr=False, compare=False)
    kmax_array: np.ndarray = field(init=False, repr=False, compare=False)
    kmod_array: np.ndarray = field(init=False, repr=False, compare=False)
    ksq_array: np.ndarray = field(init=False, repr=False, compare=False)
    inv_ksq_array: np.ndarray = field(init=False, repr=False, compare=False)
    dealias_mask_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_grid(self.n, self.N)
        modes = np.fft.fftfreq(self.N, d=1.0 / self.N).astype(np.int64).astype(np.float64)
        # the half's last axis: k_n = 0, ..., N/2 - 1 and the Nyquist column, -N/2
        grids = tuple(np.meshgrid(*([modes] * (self.n - 1)), modes[: self.N // 2 + 1],
                                  indexing="ij", sparse=True))
        # the sparse grids broadcast to the half shape in both reductions
        kmax = functools.reduce(np.maximum, map(np.abs, grids))
        ksq = sum(g**2 for g in grids)
        inv_ksq = np.divide(1.0, ksq, out=np.zeros(self.half_shape), where=ksq > 0)
        object.__setattr__(self, "mode_grids", grids)
        object.__setattr__(self, "kmax_array", kmax)
        object.__setattr__(self, "ksq_array", ksq)
        object.__setattr__(self, "inv_ksq_array", inv_ksq)
        object.__setattr__(self, "kmod_array", np.sqrt(ksq))
        object.__setattr__(self, "dealias_mask_array", zoom_cut(kmax, 1, self.N))

    @property
    def shape(self):
        """The grid, (N, ..., N)."""
        return (self.N,) * self.n

    @property
    def half_shape(self):
        """The k_n >= 0 half of the mode lattice that a field and the tables
        hold, (N, ..., N//2 + 1)."""
        return self.shape[:-1] + (self.N // 2 + 1,)

    @property
    def rows(self) -> slice:
        """All rows of the first axis: the lattice is its own one row slab."""
        return slice(0, self.N)

    @functools.cached_property
    def kept_width(self) -> int:
        """w: the leading k_n >= 0 columns that the dealias mask keeps anywhere,
        k_n < N/3 (22 of 33 at N=64), or N//2 + 1 when it keeps every mode."""
        kept = self.dealias_mask_array.any(axis=tuple(range(self.n - 1)))
        return int(np.flatnonzero(kept)[-1]) + 1

    @property
    def dx(self) -> float:
        return TWO_PI / self.N

    @property
    def cell_volume(self) -> float:
        return self.dx**self.n

    @property
    def volume(self) -> float:
        return TWO_PI**self.n


def build_lattice(n: int, N: int) -> WavenumberLattice:
    """Construct the wavenumber lattice for an N^n periodic grid."""
    return WavenumberLattice(n=n, N=N)


@dataclass(frozen=True)
class SpectralVectorField:
    """Velocity field stored as the k_n >= 0 half of its Fourier coefficients.

    `coeffs` has shape (n, N, ..., N//2 + 1): component index first, then
    the FFT grid with the last axis cut to k_n = 0, ..., N/2.  The modes
    k_n < 0 are the conjugates of their mirrors, c(-k) = conj(c(k)), since
    the field is real; on the planes k_n = 0 and k_n = N/2 the half holds
    both members of each pair, and valid states keep them Hermitian.  Valid
    solver states are also zero-mean and divergence-free.
    """

    lattice: WavenumberLattice
    coeffs: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        expected = (self.lattice.n,) + self.lattice.half_shape
        if self.coeffs.shape != expected:
            raise ValueError(
                f"coeffs shape {self.coeffs.shape} does not match lattice "
                f"shape {expected}"
            )

    def with_coeffs(self, coeffs, time=None) -> "SpectralVectorField":
        return replace(self, coeffs=coeffs, time=self.time if time is None else time)


# -- array-level transforms (leading axes are batched) ------------------------


def grid_to_coeffs(values: np.ndarray, n: int, *, width: int | None = None) -> np.ndarray:
    """Forward real-to-complex transform of grid samples over the trailing n axes.

    Returns the first `width` columns of the k_n >= 0 half of the last axis,
    shape (..., N, ..., width); by default the whole half, width N//2 + 1.

    One real-to-complex pass over the last axis makes the half, which is
    scaled by 1/N^n; its first `width` columns then run through the complex
    passes over the other n - 1 axes in place, and that view of the half is
    returned.  The axis order and scaling are those of `rfftn`, so every
    returned column is its output to the byte, at any N; the complex passes
    skip the columns past `width`.
    """
    N = values.shape[-1]
    half = _fft.rfft(values, axis=-1)
    # rfftn's scale, in its real-to-complex pass: the parts of each number alike
    np.multiply(half.view(np.float64), float(1 / np.longdouble(N) ** n),
                out=half.view(np.float64))
    return _fft.fftn(half[..., :width], axes=tuple(range(values.ndim - n, values.ndim - 1)),
                     overwrite_x=True)


def coeffs_to_grid(coeffs: np.ndarray, n: int, *, overwrite: bool = False,
                   width: int | None = None) -> np.ndarray:
    """Inverse transform of the k_n >= 0 half to real grid samples over the trailing n axes.

    A complex-to-real transform of the real field whose modes k_n < 0 are
    the conjugates of their mirrors.  N is read from the second-to-last
    axis, which is never halved.

    The complex passes over the first n - 1 axes run in place on a copy of
    the half, and one complex-to-real pass over the last axis makes the
    output: the axis order and scaling of `irfftn`, whose output is the
    same to the byte.  `width` declares that the half's columns from
    `width` on hold zeros: the complex passes then run on the first `width`
    columns only, and the output is unchanged.  `overwrite=True` skips the
    copy and runs the complex passes in the caller's array, whose first
    `width` columns are then consumed (left holding garbage) while the rest
    is left as it was; only a caller that owns its input and reads it no
    more may set it.
    """
    N = coeffs.shape[-2]
    work = coeffs if overwrite else coeffs.copy()
    cols = work[..., :width]
    done = _fft.ifftn(cols, axes=tuple(range(coeffs.ndim - n, coeffs.ndim - 1)),
                      norm="forward", overwrite_x=True)
    if not np.may_share_memory(done, cols):  # scipy copies an unaligned or non-native input
        cols[...] = done
    return _fft.irfft(work, n=N, axis=-1, norm="forward")


def live_width(coeffs: np.ndarray, w: int) -> int:
    """The columns a transform of the half `coeffs` must read: w when its
    columns from w on hold zeros, else all of them."""
    return w if not coeffs[..., w:].any() else coeffs.shape[-1]


def max_abs(values: np.ndarray) -> float:
    """float(np.max(np.abs(values))) of a real array to the bit, without the |values| temporary.

    The larger of max and -min (both NaN when either is), made +0.0 for a
    zero array and a NaN without sign by the final abs.
    """
    return abs(max(float(values.max()), -float(values.min())))


def full_spectrum(half: np.ndarray, n: int) -> np.ndarray:
    """Hermitian completion of a k_n >= 0 half spectrum: the checkpoint file's layout.

    `half` holds the N//2 + 1 columns k_n >= 0 of the last axis, over the
    trailing n axes.  They are copied unchanged, and the modes k_n < 0 are
    filled with conj(c(-k)), so the mirrors of zeros are 0-0j.
    """
    N = half.shape[-2]
    w = N // 2 + 1
    full = np.empty(half.shape[:-1] + (N,), dtype=half.dtype)
    full[..., :w] = half
    # mode -k: index 0 stays 0 and 1..N-1 reverse on each leading axis; the
    # missing last-axis indices w..N-1 mirror N//2 - 1..1
    lead = (slice(None),) * (half.ndim - n)
    for flipped in itertools.product((False, True), repeat=n - 1):
        dst = tuple(slice(1, None) if f else slice(0, 1) for f in flipped)
        src = tuple(slice(None, 0, -1) if f else slice(0, 1) for f in flipped)
        np.conjugate(full[lead + src + (slice(N // 2 - 1, 0, -1),)],
                     out=full[lead + dst + (slice(w, None),)])
    return full


def gradient_batch(lattice: WavenumberLattice, coeffs: np.ndarray,
                   batch: np.ndarray) -> np.ndarray:
    """The n^2 derivative components i k_j c_i, at n i + j, of the half
    `coeffs`, written into `batch`: a complex (n^2, N, ..., width) array
    whose last axis sets how many leading columns of the half."""
    n, width = lattice.n, batch.shape[-1]
    ik = [1j * g[..., :width] for g in lattice.mode_grids]
    for i in range(n):
        c = coeffs[i, ..., :width]
        for j in range(n):
            np.multiply(ik[j], c, out=batch[n * i + j])
    return batch


# -- operators ----------------------------------------------------------------


def leray_project_coeffs(lattice: WavenumberLattice, coeffs: np.ndarray,
                         out: np.ndarray | None = None) -> np.ndarray:
    """Array-level Leray projection: c <- c - k (k.c)/|k|^2, mode 0 untouched.

    Takes the first columns of the k_n >= 0 half.  The result goes to `out`
    when given, which may be `coeffs` itself.

    Preserves Hermitian symmetry on dealiased fields.  On an undealiased
    field it breaks the symmetry on the Nyquist planes (k_j = -N/2): a mode
    and its partner -k (mod N) share the label -N/2 on that axis, so their
    projectors differ.  On a 2D N=16 field with every mode filled the defect
    is 0.13 against a largest coefficient of 0.18.  The half holds both
    partners on the k_n = 0 and k_n = N/2 planes, where `hermitian_defect`
    sees the break.
    """
    width = coeffs.shape[-1]
    grids = [g[..., :width] for g in lattice.mode_grids]
    div = sum(grids[j] * coeffs[j] for j in range(lattice.n))
    div_over_ksq = div * lattice.inv_ksq_array[..., :width]
    if out is None:
        out = coeffs.copy()
    elif out is not coeffs:
        np.copyto(out, coeffs)
    for j in range(lattice.n):
        out[j] -= grids[j] * div_over_ksq
    return out


def leray_project(u: SpectralVectorField) -> SpectralVectorField:
    """Project onto divergence-free fields; idempotent, annihilates gradients."""
    return u.with_coeffs(leray_project_coeffs(u.lattice, u.coeffs))


def spectral_derivative(u: SpectralVectorField, component: int, axis: int) -> np.ndarray:
    """Coefficients of d(u_component)/d(x_axis): multiply by i*k_axis."""
    return 1j * u.lattice.mode_grids[axis] * u.coeffs[component]


def dealias_coeffs(lattice: WavenumberLattice, coeffs: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Zero the 2/3-rule modes of the first columns of the k_n >= 0 half.

    The result goes to `out` when given, which may be `coeffs` itself.
    """
    return np.multiply(coeffs, lattice.dealias_mask_array[..., : coeffs.shape[-1]],
                       out=out)


def dealias(u: SpectralVectorField) -> SpectralVectorField:
    """Zero every mode with any |k_j| >= N/3 (2/3 rule)."""
    return u.with_coeffs(dealias_coeffs(u.lattice, u.coeffs))


def vorticity(u: SpectralVectorField) -> np.ndarray:
    """Coefficients of the curl of the velocity field.

    A scalar array for n=2 (omega = d_x u_2 - d_y u_1) and a component-first
    vector array, shaped like `u.coeffs`, for n=3.
    """
    lat = u.lattice
    g = lat.mode_grids
    c = u.coeffs
    if lat.n == 2:
        return 1j * (g[0] * c[1] - g[1] * c[0])
    w = np.empty_like(c)
    w[0] = 1j * (g[1] * c[2] - g[2] * c[1])
    w[1] = 1j * (g[2] * c[0] - g[0] * c[2])
    w[2] = 1j * (g[0] * c[1] - g[1] * c[0])
    return w


# -- invariant helpers --------------------------------------------------------


def hermitian_defect(u: SpectralVectorField) -> float:
    """Max |c(k) - conj(c(-k))| over all components, on the planes k_n = 0 and k_n = N/2.

    These are the only planes where the half holds both members of a +-k
    pair; it holds every other mode once, and its mirror is its conjugate by
    definition of the layout.
    """
    N = u.lattice.N
    planes = np.moveaxis(u.coeffs[..., [0, N // 2]], -1, 0)
    idx = (-np.arange(N)) % N  # mode k -> mode -k (mod N) on the other axes
    mirror = planes[(slice(None),) * 2 + np.ix_(*((idx,) * (u.lattice.n - 1)))]
    return float(np.max(np.abs(planes - np.conj(mirror))))


def divergence_defect(u: SpectralVectorField) -> float:
    """Max |k . c(k)| relative to the largest coefficient amplitude."""
    grids = u.lattice.mode_grids
    div = sum(grids[j] * u.coeffs[j] for j in range(u.lattice.n))
    scale = float(np.max(np.abs(u.coeffs)))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(div))) / scale
