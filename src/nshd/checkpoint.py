"""Binary checkpoint files for spectral fields.

Layout (little-endian):
    magic "NSHD", version byte 1,
    header: u8 n, u32 N, f64 alpha, f64 nu, f64 time, u64 seed,
    body: for each component i = 1..n, the complex coefficients of every
    mode in flat row-major FFT order, each written as (f64 real, f64 imag).

A field is the k_n >= 0 half in memory and the full spectrum on disk: a
write completes the half, and a read checks the modes k_n < 0 and cuts them.

Writes are atomic: `atomic_open` sends the bytes to a temporary file in the
same directory, which then replaces the target, so a failed write leaves the
previous file.  The harness writes its run and sweep summaries through it too.
"""

from __future__ import annotations

import contextlib
import os
import struct
import threading
from dataclasses import dataclass

import numpy as np

from .spectral import (
    ConfigError,
    SpectralVectorField,
    build_lattice,
    check_grid,
    full_spectrum,
)

MAGIC = b"NSHD"
VERSION = 1
_HEADER = struct.Struct("<4sBBIdddQ")


class CheckpointFormatError(Exception):
    """Raised when a checkpoint file has the wrong magic, version, header or size,
    or a body that is not the spectrum of a real field."""


@dataclass(frozen=True)
class CheckpointMeta:
    alpha: float
    nu: float
    time: float
    seed: int


@contextlib.contextmanager
def atomic_open(path, mode: str, **kwargs):
    """`open` a temporary file beside `path` that replaces it on a clean exit; on
    an error it is removed, so a failed write leaves `path` as it was."""
    tmp = f"{os.fspath(path)}.{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_checkpoint(path, u: SpectralVectorField, alpha: float, nu: float,
                     seed: int = 0) -> None:
    lat = u.lattice
    header = _HEADER.pack(MAGIC, VERSION, lat.n, lat.N, float(alpha), float(nu),
                          float(u.time), int(seed))
    # the completed spectrum's own bytes, through the buffer protocol: no copy
    body = memoryview(full_spectrum(u.coeffs, lat.n).astype("<c16", copy=False)).cast("B")
    with atomic_open(path, "wb") as fh:
        fh.write(header)
        fh.write(body)


def read_checkpoint(path):
    """Read a checkpoint; returns (SpectralVectorField, CheckpointMeta).

    The body's modes k_n < 0 must equal the conjugates of their mirrors -k,
    which lie in its k_n >= 0 half, by value, NaN equal to NaN, so that no
    mode is dropped silently.  Only those columns and the half are copied.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise CheckpointFormatError("truncated checkpoint header")
    magic, version, n, N, alpha, nu, time, seed = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise CheckpointFormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise CheckpointFormatError(f"unsupported checkpoint version {version}")
    try:
        check_grid(n, N)
    except ConfigError as exc:
        raise CheckpointFormatError(f"bad checkpoint header: {exc}") from None
    expected = n * N**n * 16
    body = raw[_HEADER.size:]
    if len(body) != expected:
        raise CheckpointFormatError(
            f"checkpoint body has {len(body)} bytes, expected {expected}"
        )
    lattice = build_lattice(n, N)
    full = np.frombuffer(body, dtype="<c16").reshape((n,) + lattice.shape)
    w = N // 2 + 1
    rev = (-np.arange(N)) % N  # mode k -> mode -k (mod N) on one axis
    mirror = full[(slice(None),) + np.ix_(*([rev] * (n - 1)), rev[w:])]  # -k of each k_n < 0
    if not np.array_equal(full[..., w:], np.conjugate(mirror, out=mirror), equal_nan=True):
        raise CheckpointFormatError("checkpoint body is not Hermitian: a mode k_n < 0 "
                                    "differs from the conjugate of its mirror")
    field = SpectralVectorField(lattice, full[..., :w].astype(np.complex128), time)
    return field, CheckpointMeta(alpha=alpha, nu=nu, time=time, seed=seed)
