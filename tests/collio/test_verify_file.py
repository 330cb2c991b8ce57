"""The windowed byte-exact verify of a written file.

``_verify_file`` walks the file in fixed windows.  These tests shrink
the window so every case spans several of them, and check that the
windowed walk is exactly as strict as a whole-file compare: every byte
of ``[0, size)`` counts, holes and a short file read as zero, a later
rank wins where views overlap, and the digest is the sha256 of the
stored bytes.  A last test bounds the memory of a verified write.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collio import api
from repro.collio.api import RunSpec, run_collective_write
from repro.collio.config import CollectiveConfig
from repro.collio.view import FileView
from repro.fs import beegfs_crill
from repro.hardware import crill
from repro.mpi.world import World
from repro.workloads import make_workload

from tests.collio.test_algorithms import small_cluster, small_fs

WINDOW = 64
PATH = "/verify"


@pytest.fixture(autouse=True)
def small_window(monkeypatch):
    monkeypatch.setattr(api, "_VERIFY_WINDOW", WINDOW)


def _world(views, payloads, upto=None):
    """A world whose file holds exactly what ``views`` expect, cut at ``upto``."""
    world = World(small_cluster(), len(views), fs_spec=small_fs())
    simfile = world.pfs.open(PATH)
    for rank, view in views.items():
        for off, ln, loc in zip(view.offsets, view.lengths, view.local_offsets):
            if upto is not None:
                ln = min(ln, upto - off)
            if ln > 0:
                simfile.write(int(off), payloads[rank][loc : loc + ln])
    return world, simfile


def _verify(world, views, payloads):
    return api._verify_file(world, PATH, views, payloads)


def _flip(simfile, offset):
    simfile.write(offset, simfile.read(offset, 1) ^ np.uint8(0x10))


# Two ranks with a hole between them and a last window that is partial:
# rank 0 owns [0, 150), rank 1 owns [200, 300) and [310, 330).
VIEWS = {
    0: FileView.contiguous(0, 150),
    1: FileView(np.array([200, 310]), np.array([100, 20])),
}
PAYLOADS = {0: np.full(150, 1, np.uint8), 1: np.full(120, 2, np.uint8)}
SIZE = 330


def _raises(count, first):
    return pytest.raises(
        AssertionError,
        match=f"corrupted the file: {count} wrong bytes, first at offset {first}$",
    )


def test_clean_file_digest_is_sha256_of_stored_bytes():
    world, simfile = _world(VIEWS, PAYLOADS)
    ok, digest = _verify(world, VIEWS, PAYLOADS)
    assert ok
    assert digest == hashlib.sha256(simfile.read(0, SIZE).tobytes()).hexdigest()


@pytest.mark.parametrize(
    "offsets, first",
    [
        ([170], 170),  # in the hole between the ranks
        ([WINDOW - 1, WINDOW], WINDOW - 1),  # both sides of a window boundary
        ([4 * WINDOW, 5 * WINDOW - 1], 4 * WINDOW),  # first and last byte of a window
        ([SIZE - 1], SIZE - 1),  # in the last, partial window
        ([SIZE - 1, 3, 2 * WINDOW + 7], 3),  # three windows: total count, first offset
    ],
)
def test_flipped_bytes_raise_with_count_and_first_offset(offsets, first):
    world, simfile = _world(VIEWS, PAYLOADS)
    for off in offsets:
        _flip(simfile, off)
    with _raises(len(offsets), first):
        _verify(world, VIEWS, PAYLOADS)


def test_file_ending_before_last_view_end_reads_as_zero():
    # The file stops at 250: rank 1's bytes [250, 300) and [310, 330)
    # are missing, and they are nonzero.
    world, simfile = _world(VIEWS, PAYLOADS, upto=250)
    assert simfile.size == 250
    with _raises(70, 250):
        _verify(world, VIEWS, PAYLOADS)


def test_short_file_passes_when_missing_tail_is_expected_zero():
    payloads = {0: PAYLOADS[0], 1: np.concatenate([np.full(60, 2, np.uint8),
                                                   np.zeros(60, np.uint8)])}
    world, simfile = _world(VIEWS, payloads, upto=260)
    ok, digest = _verify(world, VIEWS, payloads)
    assert ok
    assert digest == hashlib.sha256(simfile.read(0, SIZE).tobytes()).hexdigest()


def test_overlapping_views_last_rank_wins():
    views = {0: FileView.contiguous(0, 200), 1: FileView.contiguous(100, 200)}
    payloads = {0: np.full(200, 1, np.uint8), 1: np.full(200, 2, np.uint8)}
    world, simfile = _world(views, payloads)  # rank 1 writes last
    assert _verify(world, views, payloads)[0]
    simfile.write(100, np.full(100, 1, np.uint8))  # rank 0's bytes survive instead
    with _raises(100, 100):
        _verify(world, views, payloads)


def _reference_verify(simfile, views, payloads):
    """The whole-file compare the windowed walk must agree with."""
    ends = [v.file_range[1] for v in views.values() if v.num_extents]
    size = max(ends) if ends else 0
    expected = np.zeros(size, np.uint8)
    for rank, view in views.items():
        for off, ln, loc in zip(view.offsets, view.lengths, view.local_offsets):
            expected[off : off + ln] = payloads[rank][loc : loc + ln]
    actual = simfile.read(0, size)
    bad = np.flatnonzero(actual != expected)
    return bad.size, (int(bad[0]) if bad.size else None), hashlib.sha256(actual).hexdigest()


@st.composite
def _scenarios(draw):
    nprocs = draw(st.integers(1, 4))
    views = {}
    for rank in range(nprocs):
        pieces = draw(st.lists(st.tuples(st.integers(0, 40), st.integers(1, 90)), max_size=4))
        offsets, pos = [], draw(st.integers(0, 200))
        for gap, ln in pieces:
            offsets.append((pos + gap, ln))
            pos += gap + ln
        views[rank] = FileView(np.array([o for o, _ in offsets], np.int64),
                               np.array([n for _, n in offsets], np.int64))
    payloads = {r: np.frombuffer(draw(st.binary(min_size=v.total_bytes,
                                                max_size=v.total_bytes)), np.uint8)
                for r, v in views.items()}
    upto = draw(st.none() | st.integers(0, 700))
    flips = draw(st.lists(st.integers(0, 700), max_size=4))
    return views, payloads, upto, flips


@settings(max_examples=80, deadline=None)
@given(_scenarios())
def test_windowed_verify_matches_whole_file_compare(scenario):
    views, payloads, upto, flips = scenario
    world, simfile = _world(views, payloads, upto)
    for off in flips:
        if off < simfile.size:
            _flip(simfile, off)
    count, first, digest = _reference_verify(simfile, views, payloads)
    if count:
        with _raises(count, first):
            _verify(world, views, payloads)
    else:
        assert _verify(world, views, payloads) == (True, digest)


def test_verified_write_memory_is_bounded(monkeypatch):
    """Payloads, file and one window: well under the ~5 file copies a
    whole-file expected image, a copying read-back, a compare mask and a
    hash input used to hold."""
    monkeypatch.setattr(api, "_VERIFY_WINDOW", 1 << 20)
    nprocs = 16
    views = make_workload("ior", nprocs=nprocs, block_size=1 << 20).views()
    spec = RunSpec(cluster=crill(), fs=beegfs_crill(), nprocs=nprocs, views=views,
                   algorithm="write_overlap", config=CollectiveConfig.for_scale(64),
                   verify=True)
    file_bytes = nprocs << 20
    tracemalloc.start()
    try:
        result = run_collective_write(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.verified
    assert peak <= 2.5 * file_bytes, f"peak {peak / file_bytes:.2f}x the file bytes"
