"""Binary checkpoint format: roundtrip, layout, rejection of bad files."""

import errno
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nshd import checkpoint
from nshd.checkpoint import (
    CheckpointFormatError,
    read_checkpoint,
    write_checkpoint,
)

from conftest import make_random_field


def test_roundtrip(tmp_path):
    u = make_random_field(seed=41, N=16)
    path = tmp_path / "state.nshd"
    write_checkpoint(path, u, alpha=1.25, nu=0.5, seed=41)
    back, meta = read_checkpoint(path)
    np.testing.assert_array_equal(back.coeffs, u.coeffs)
    assert back.time == u.time
    assert (meta.alpha, meta.nu, meta.seed) == (1.25, 0.5, 41)


def test_layout_by_hand(tmp_path):
    # parse the header and first coefficient with struct, independently
    u = make_random_field(seed=42, N=8, band=(1, 2))
    path = tmp_path / "state.nshd"
    write_checkpoint(path, u, alpha=1.0, nu=2.0, seed=7)
    raw = path.read_bytes()
    magic, version, n, N, alpha, nu, time, seed = struct.unpack_from(
        "<4sBBIdddQ", raw
    )
    assert magic == b"NSHD" and version == 1
    assert (n, N) == (2, 8)
    assert (alpha, nu, time, seed) == (1.0, 2.0, 0.0, 7)
    header_size = struct.calcsize("<4sBBIdddQ")
    assert len(raw) == header_size + 2 * 8 * 8 * 16
    # flat row-major FFT order: coefficient at flat index 9 is mode (1, 1)
    re, im = struct.unpack_from("<dd", raw, header_size + 9 * 16)
    assert re + 1j * im == u.coeffs[0].reshape(-1)[9]


def test_reject_bad_magic(tmp_path):
    u = make_random_field(seed=43, N=8, band=(1, 2))
    path = tmp_path / "state.nshd"
    write_checkpoint(path, u, alpha=1.0, nu=1.0)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"JUNK"
    bad = tmp_path / "bad.nshd"
    bad.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError, match="magic"):
        read_checkpoint(bad)


def test_reject_bad_version(tmp_path):
    u = make_random_field(seed=44, N=8, band=(1, 2))
    path = tmp_path / "state.nshd"
    write_checkpoint(path, u, alpha=1.0, nu=1.0)
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    bad = tmp_path / "bad.nshd"
    bad.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError, match="version"):
        read_checkpoint(bad)


def test_reject_truncated_body(tmp_path):
    u = make_random_field(seed=45, N=8, band=(1, 2))
    path = tmp_path / "state.nshd"
    write_checkpoint(path, u, alpha=1.0, nu=1.0)
    raw = path.read_bytes()
    bad = tmp_path / "bad.nshd"
    bad.write_bytes(raw[:-8])
    with pytest.raises(CheckpointFormatError, match="body"):
        read_checkpoint(bad)


@pytest.mark.parametrize("field, value", [("n", 5), ("N", 33), ("N", 4)])
def test_reject_unsupported_lattice_header(tmp_path, field, value):
    u = make_random_field(seed=46, N=8, band=(1, 2))
    path = tmp_path / "state.nshd"
    write_checkpoint(path, u, alpha=1.0, nu=1.0)
    raw = bytearray(path.read_bytes())
    if field == "n":
        struct.pack_into("<B", raw, 5, value)
    else:
        struct.pack_into("<I", raw, 6, value)
    bad = tmp_path / "bad.nshd"
    bad.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError, match="header"):
        read_checkpoint(bad)


def _header(n, N):
    return struct.pack("<4sBBIdddQ", b"NSHD", 1, n, N, 1.0, 1.0, 0.0, 0)


def test_body_size_is_checked_before_the_lattice_is_built(tmp_path, monkeypatch):
    # a header-only file claiming 3D N=512 (a 6 GB body) must not allocate that lattice
    def no_lattice(n, N):
        raise AssertionError(f"built a {n}D N={N} lattice for a file without a body")

    monkeypatch.setattr(checkpoint, "build_lattice", no_lattice)
    bad = tmp_path / "bad.nshd"
    bad.write_bytes(_header(3, 512))
    with pytest.raises(CheckpointFormatError, match="body"):
        read_checkpoint(bad)


@given(raw=st.binary(max_size=200))
def test_fuzz_arbitrary_bytes_raise_only_format_errors(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("fuzz") / "any.nshd"
    path.write_bytes(raw)
    with pytest.raises(CheckpointFormatError):
        read_checkpoint(path)


@given(n=st.sampled_from([2, 3]) | st.integers(0, 255),
       N=st.sampled_from([8, 10]) | st.integers(0, 2**32 - 1),
       body=st.sampled_from([2 * 8**2 * 16, 2 * 10**2 * 16, 3 * 8**3 * 16])
       | st.integers(0, 4096))
def test_fuzz_valid_header_with_any_grid_and_body_length(tmp_path_factory, n, N, body):
    path = tmp_path_factory.mktemp("fuzz") / "any.nshd"
    path.write_bytes(_header(n, N) + bytes(body))
    try:
        u, meta = read_checkpoint(path)
    except CheckpointFormatError:
        return
    # accepted only when the body is exactly the claimed all-zero lattice
    assert body == n * N**n * 16
    assert u.coeffs.shape == (n,) + (N,) * n and not u.coeffs.any()


def test_failed_write_keeps_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "state.nshd"
    write_checkpoint(path, make_random_field(seed=43, N=16), alpha=1.0, nu=1.0)
    before = path.read_bytes()

    class FullDisk:
        """Writes the header, then half the body, then fails."""

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

    monkeypatch.setattr(checkpoint, "open", lambda *a, **k: FullDisk(open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError, match="No space"):
        write_checkpoint(path, make_random_field(seed=44, N=16), alpha=1.0, nu=1.0)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["state.nshd"]
