"""Binary checkpoint format: roundtrip, layout, rejection of bad files."""

import itertools
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

from conftest import FullDisk, make_random_field


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
    # flat row-major FFT order over every mode: flat index 9 is mode (1, 1),
    # and 15 is mode (1, -1), the conjugate of the half's mode (-1, 1)
    re, im = struct.unpack_from("<dd", raw, header_size + 9 * 16)
    assert re + 1j * im == u.coeffs[0][1, 1]
    re, im = struct.unpack_from("<dd", raw, header_size + 15 * 16)
    assert re + 1j * im == np.conj(u.coeffs[0][-1, 1]) != 0


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


def test_reject_a_body_that_is_not_the_completion_of_its_half(tmp_path):
    # a field holds the k_n >= 0 half, so a mode k_n < 0 that is not the
    # conjugate of its mirror would otherwise be dropped silently; in 2D and
    # 3D one such mode is tampered with in each block of leading indices,
    # each 0 (its own mirror index) or not (a reversed one)
    N = 8
    for n in (2, 3):
        u = make_random_field(n=n, N=N, seed=47, band=(1, 2))
        path = tmp_path / "state.nshd"
        write_checkpoint(path, u, alpha=1.0, nu=1.0)
        good = path.read_bytes()
        for lead in itertools.product((0, 1), repeat=n - 1):
            raw = bytearray(good)
            mode = lead + (N - 1,)  # component 0, k_n = -1
            offset = (struct.calcsize("<4sBBIdddQ")
                      + 16 * int(np.ravel_multi_index(mode, (N,) * n)))
            re, im = struct.unpack_from("<dd", raw, offset)
            struct.pack_into("<dd", raw, offset, re, im + 1e-3)
            bad = tmp_path / "bad.nshd"
            bad.write_bytes(bytes(raw))
            with pytest.raises(CheckpointFormatError, match="Hermitian"):
                read_checkpoint(bad)
        back, _ = read_checkpoint(path)
        np.testing.assert_array_equal(back.coeffs, u.coeffs)


def test_an_all_nan_body_loads(tmp_path):
    # a diverged run's final state: NaN compares equal to its NaN mirror
    u = make_random_field(seed=48, N=8, band=(1, 2))
    path = tmp_path / "state.nshd"
    write_checkpoint(path, u.with_coeffs(u.coeffs * np.nan), alpha=1.0, nu=1.0)
    back, _ = read_checkpoint(path)
    assert back.coeffs.shape == u.coeffs.shape and np.all(np.isnan(back.coeffs))


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
    assert u.coeffs.shape == (n,) + (N,) * (n - 1) + (N // 2 + 1,) and not u.coeffs.any()


def test_failed_write_keeps_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "state.nshd"
    write_checkpoint(path, make_random_field(seed=43, N=16), alpha=1.0, nu=1.0)
    before = path.read_bytes()
    # FullDisk writes the header, then half the body, then fails
    monkeypatch.setattr(checkpoint, "open", lambda *a, **k: FullDisk(open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError, match="No space"):
        write_checkpoint(path, make_random_field(seed=44, N=16), alpha=1.0, nu=1.0)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["state.nshd"]
