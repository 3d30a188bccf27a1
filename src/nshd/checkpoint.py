"""Binary checkpoint files for spectral fields.

Layout (little-endian):
    magic "NSHD", version byte 1,
    header: u8 n, u32 N, f64 alpha, f64 nu, f64 time, u64 seed,
    body: for each component i = 1..n, the complex coefficients in flat
    row-major FFT order, each written as (f64 real, f64 imag).

Writes are atomic: the bytes go to a temporary file in the same directory,
which then replaces the target, so a failed write leaves the previous file.
"""

from __future__ import annotations

import contextlib
import os
import struct
import threading
from dataclasses import dataclass

import numpy as np

from .spectral import ConfigError, SpectralVectorField, build_lattice, check_grid

MAGIC = b"NSHD"
VERSION = 1
_HEADER = struct.Struct("<4sBBIdddQ")


class CheckpointFormatError(Exception):
    """Raised when a checkpoint file has the wrong magic, version, header or size."""


@dataclass(frozen=True)
class CheckpointMeta:
    alpha: float
    nu: float
    time: float
    seed: int


def write_checkpoint(path, u: SpectralVectorField, alpha: float, nu: float,
                     seed: int = 0) -> None:
    lat = u.lattice
    header = _HEADER.pack(MAGIC, VERSION, lat.n, lat.N, float(alpha), float(nu),
                          float(u.time), int(seed))
    body = np.ascontiguousarray(u.coeffs, dtype="<c16").tobytes()
    tmp = f"{os.fspath(path)}.{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            fh.write(body)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def read_checkpoint(path):
    """Read a checkpoint; returns (SpectralVectorField, CheckpointMeta)."""
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
    coeffs = np.frombuffer(body, dtype="<c16").astype(np.complex128)
    coeffs = coeffs.reshape((n,) + lattice.shape)
    field = SpectralVectorField(lattice, coeffs, time)
    return field, CheckpointMeta(alpha=alpha, nu=nu, time=time, seed=seed)
