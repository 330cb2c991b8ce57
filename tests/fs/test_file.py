"""Tests for the byte-accurate file store."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import FileSystemError
from repro.fs.file import SimFile


def test_empty_file():
    f = SimFile("x")
    assert f.size == 0
    assert f.contents().size == 0


def test_write_and_read_back():
    f = SimFile("x")
    f.write(0, b"hello")
    assert bytes(f.read(0, 5)) == b"hello"
    assert f.size == 5


def test_write_at_offset_leaves_hole_of_zeros():
    f = SimFile("x")
    f.write(10, b"ab")
    assert f.size == 12
    assert bytes(f.read(0, 12)) == b"\0" * 10 + b"ab"


def test_overwrite():
    f = SimFile("x")
    f.write(0, b"aaaa")
    f.write(1, b"bb")
    assert bytes(f.read(0, 4)) == b"abba"


def test_read_past_eof_zero_filled():
    f = SimFile("x")
    f.write(0, b"xy")
    assert bytes(f.read(0, 5)) == b"xy\0\0\0"


def test_numpy_write():
    f = SimFile("x")
    data = np.arange(256, dtype=np.uint8)
    f.write(3, data)
    assert np.array_equal(f.read(3, 256), data)


@pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
def test_buffer_inputs_store_identical_bytes(wrap):
    raw = bytes(range(200))
    f = SimFile("x")
    f.write(7, wrap(raw))
    assert bytes(f.read(7, 200)) == raw
    assert f.size == 207


def test_reserve_allocates_once_and_keeps_size():
    f = SimFile("x")
    f.reserve(10_000)
    data = f._data
    assert f.size == 0
    f.reserve(5_000)  # capacity suffices: no-op
    f.write(9_000, b"tail")
    assert f._data is data  # no regrowth inside the reservation
    assert f.size == 9_004
    f.write(20_000, b"x")  # past the reservation: grows as before
    assert bytes(f.read(9_000, 4)) == b"tail"
    assert f.size == 20_001


def test_view_is_readonly_zero_copy_and_short_at_eof():
    f = SimFile("x")
    f.reserve(64)
    f.write(0, b"abcdef")
    v = f.view(2, 10)
    assert bytes(v) == b"cdef"  # the file ends first: view is short
    assert not v.flags.writeable
    f.write(3, b"Z")
    assert bytes(v) == b"cZef"  # a view, not a copy
    assert f.view(100, 4).size == 0


def test_invalid_args():
    f = SimFile("x")
    with pytest.raises(FileSystemError):
        f.write(-1, b"a")
    with pytest.raises(FileSystemError):
        f.read(-1, 4)
    with pytest.raises(FileSystemError):
        f.read(0, -4)
    with pytest.raises(FileSystemError):
        f.view(-1, 4)


@given(
    writes=st.lists(
        st.tuples(st.integers(0, 500), st.binary(min_size=0, max_size=100)),
        max_size=20,
    )
)
def test_matches_reference_model(writes):
    """SimFile behaves like a simple grow-able bytearray."""
    f = SimFile("x")
    ref = bytearray()
    for offset, data in writes:
        f.write(offset, data)
        if offset + len(data) > len(ref):
            ref.extend(b"\0" * (offset + len(data) - len(ref)))
        ref[offset : offset + len(data)] = data
    assert bytes(f.contents()) == bytes(ref)
    assert f.size == len(ref)
