"""The checksum-carrying datapath: combine algebra, ledger tiling,
stored-CRC metadata, and the end-to-end reuse guarantee.

The carrying invariant (DESIGN Appendix F): a CRC computed once at the
producing rank, combined through any number of hops with
:func:`crc32_combine`, equals a fresh byte-level recompute of the bytes
it describes — and any payload mutation breaks the equality.  These
tests pin the algebra property-style against ``zlib.crc32`` and assert
the system-level consequences: detect-mode runs reuse carried CRCs
instead of recomputing, and produce byte-identical files to mode=off.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collio import CollectiveConfig, run_collective_write
from repro.collio.api import RunSpec
from repro.fs.file import SimFile
from repro.integrity import IntegritySpec
from repro.integrity.checksum import (
    ChecksumLedger,
    crc32_combine,
    crc32_concat,
    extent_checksum,
)
from repro.staging.spec import StagingSpec

from tests.integrity.conftest import contiguous_views, small_cluster, small_fs


def _split(raw: bytes, cuts: list[int]) -> list[bytes]:
    """Split ``raw`` at the (sorted, deduplicated, in-range) cut points."""
    points = sorted({c % (len(raw) + 1) for c in cuts})
    bounds = [0] + points + [len(raw)]
    return [raw[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]


class TestCombineAlgebra:
    """crc32_combine/crc32_concat against zlib's ground truth."""

    @settings(max_examples=80, deadline=None)
    @given(st.binary(max_size=1024), st.binary(max_size=1024))
    def test_combine_matches_whole_buffer_crc(self, a, b):
        assert crc32_combine(zlib.crc32(a), zlib.crc32(b), len(b)) == zlib.crc32(a + b)

    @settings(max_examples=60, deadline=None)
    @given(
        st.binary(min_size=1, max_size=2048),
        st.lists(st.integers(min_value=0, max_value=4096), max_size=8),
    )
    def test_concat_of_any_split_equals_whole(self, raw, cuts):
        """CRC of coalesced extents == whole-buffer CRC, for any split."""
        pieces = [(len(p), zlib.crc32(p)) for p in _split(raw, cuts)]
        assert crc32_concat(pieces) == zlib.crc32(raw)

    def test_combine_empty_suffix_is_identity(self):
        crc = zlib.crc32(b"payload")
        assert crc32_combine(crc, 0, 0) == crc

    @settings(max_examples=40, deadline=None)
    @given(
        st.binary(max_size=64),
        st.one_of(
            st.sampled_from([0, 1]),
            st.integers(0, 4096).map(lambda n: 2 * n + 1),  # odd lengths
            st.integers(1 << 20, (1 << 20) + 4096),  # over 1 MiB
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_table_combine_matches_zlib_at_any_length(self, a, len2, seed):
        """The byte tables give zlib's answer at edge and large lengths."""
        b = np.random.default_rng(seed).integers(0, 256, len2, dtype=np.uint8).tobytes()
        assert crc32_combine(zlib.crc32(a), zlib.crc32(b), len2) == zlib.crc32(a + b)


class TestChecksumLedger:
    """Offset-keyed piece registry: exact tiling or nothing."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.binary(min_size=1, max_size=2048),
        st.lists(st.integers(min_value=0, max_value=4096), max_size=8),
        st.integers(min_value=0, max_value=1 << 30),
    )
    def test_tiled_combine_equals_fresh_recompute(self, raw, cuts, base):
        """Filed pieces tiling [base, base+len) combine to the whole CRC."""
        led = ChecksumLedger()
        pos = base
        for p in _split(raw, cuts):
            led.file(pos, len(p), zlib.crc32(p))
            pos += len(p)
        assert led.combine(base, base + len(raw)) == zlib.crc32(raw)

    @settings(max_examples=60, deadline=None)
    @given(st.binary(min_size=2, max_size=512), st.data())
    def test_mutation_invalidates_carried_crc(self, raw, data):
        """Flipping any payload byte breaks carried-vs-recompute equality."""
        led = ChecksumLedger()
        led.file(0, len(raw), zlib.crc32(raw))
        idx = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
        bit = data.draw(st.integers(min_value=0, max_value=7))
        mutated = bytearray(raw)
        mutated[idx] ^= 1 << bit
        assert led.combine(0, len(raw)) != zlib.crc32(bytes(mutated))

    def test_gap_returns_none(self):
        led = ChecksumLedger()
        led.file(0, 4, zlib.crc32(b"abcd"))
        led.file(8, 4, zlib.crc32(b"efgh"))
        assert led.combine(0, 12) is None  # hole at [4, 8)
        assert led.combine(0, 4) == zlib.crc32(b"abcd")

    def test_overhang_returns_none(self):
        led = ChecksumLedger()
        led.file(0, 8, zlib.crc32(b"abcdefgh"))
        assert led.combine(0, 4) is None  # piece overshoots the range

    def test_pop_consumes_only_on_success(self):
        led = ChecksumLedger()
        led.file(0, 4, zlib.crc32(b"abcd"))
        assert led.combine(0, 8, pop=True) is None
        assert len(led) == 1  # failed combine must not consume
        assert led.combine(0, 4, pop=True) == zlib.crc32(b"abcd")
        assert len(led) == 0

    def test_refile_replaces_and_clear_empties(self):
        led = ChecksumLedger()
        led.file(0, 4, 111)
        led.file(0, 4, zlib.crc32(b"wxyz"))
        assert led.combine(0, 4) == zlib.crc32(b"wxyz")
        led.clear()
        assert led.combine(0, 4) is None

    def test_empty_range_is_zero_reversed_is_none(self):
        led = ChecksumLedger()
        assert led.combine(5, 5) == 0
        assert led.combine(5, 4) is None


class TestStoredCrcMetadata:
    """SimFile commit-time CRC notes: hit on clean reuse, die on overlap."""

    def test_note_and_lookup(self):
        f = SimFile("/x")
        f.write(0, np.arange(16, dtype=np.uint8))
        crc = extent_checksum(f.read(0, 16))
        f.note_stored_crc(0, 16, crc)
        assert f.stored_crc(0, 16) == crc
        assert f.stored_crc(0, 8) is None  # different extent: no entry

    def test_overlapping_write_invalidates(self):
        f = SimFile("/x")
        f.write(0, np.zeros(16, dtype=np.uint8))
        f.note_stored_crc(0, 16, extent_checksum(f.read(0, 16)))
        f.note_stored_crc(32, 8, 12345)
        f.write(8, np.ones(4, dtype=np.uint8))  # overlaps [0, 16) only
        assert f.stored_crc(0, 16) is None
        assert f.stored_crc(32, 8) == 12345

    @settings(max_examples=80, deadline=None)
    @given(st.lists(
        st.one_of(
            st.tuples(st.just("write"), st.integers(0, 300), st.integers(0, 60)),
            st.tuples(st.just("note"), st.integers(0, 300), st.integers(0, 60)),
        ),
        max_size=40,
    ))
    def test_interval_index_matches_linear_scan(self, ops):
        """Invalidation by bisection drops exactly the keys a scan of
        every stored extent would, also when recorded extents overlap."""
        f = SimFile("/x")
        ref: dict[tuple[int, int], int] = {}
        for i, (op, offset, nbytes) in enumerate(ops):
            if op == "note":
                f.note_stored_crc(offset, nbytes, i)
                ref[(offset, nbytes)] = i
                continue
            f.write(offset, np.full(nbytes, i % 256, dtype=np.uint8))
            end = offset + nbytes
            ref = {k: v for k, v in ref.items() if not (k[0] < end and offset < k[0] + k[1])}
            for off, ln in {(o, n) for _, o, n in ops}:
                assert f.stored_crc(off, ln) == ref.get((off, ln))
        assert f._crc_keys == sorted(ref)

    def test_adjacent_write_does_not_invalidate(self):
        f = SimFile("/x")
        f.write(0, np.zeros(16, dtype=np.uint8))
        crc = extent_checksum(f.read(0, 16))
        f.note_stored_crc(0, 16, crc)
        f.write(16, np.ones(4, dtype=np.uint8))  # touches [16, 20): no overlap
        assert f.stored_crc(0, 16) == crc


ALL_ALGORITHMS = [
    "no_overlap", "comm_overlap", "write_overlap", "write_comm", "write_comm2",
]


def _spec(algorithm, mode, shuffle="two_sided", staged=False, two_layer=None):
    return RunSpec(
        cluster=small_cluster(), fs=small_fs(), nprocs=8,
        views=contiguous_views(8, 40_000), algorithm=algorithm,
        shuffle=shuffle, verify=True, seed=11, two_layer=two_layer,
        config=CollectiveConfig(
            cb_buffer_size=16 * 1024,
            staging=StagingSpec() if staged else None,
            integrity=IntegritySpec(mode=mode) if mode else None,
        ),
    )


class TestEndToEndCarrying:
    """Detect-mode runs must *reuse* checksums, not recompute per hop."""

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_detect_reuses_and_preserves_bytes(self, algorithm):
        base = run_collective_write(_spec(algorithm, None))
        checked = run_collective_write(_spec(algorithm, "detect"))
        assert checked.file_sha256 == base.file_sha256
        counters = checked.integrity["counters"]
        assert counters["integrity.checksum_reused"] > 0
        # Carrying must beat recomputing: each producer-side CRC is
        # reused at least once downstream (delivery verify + extent
        # record + commit + scrub all consume carried values).
        assert counters["integrity.checksum_reused"] >= counters[
            "integrity.checksum_computed"]

    @pytest.mark.parametrize("shuffle", ["one_sided_fence", "one_sided_lock"])
    def test_window_path_carries(self, shuffle):
        checked = run_collective_write(_spec("write_comm2", "detect", shuffle=shuffle))
        assert checked.integrity["counters"]["integrity.checksum_reused"] > 0

    def test_two_layer_gather_carries(self):
        checked = run_collective_write(_spec("write_overlap", "detect", two_layer=True))
        assert checked.integrity["counters"]["integrity.checksum_reused"] > 0

    def test_staging_path_carries(self):
        base = run_collective_write(_spec("write_overlap", None, staged=True))
        checked = run_collective_write(_spec("write_overlap", "detect", staged=True))
        assert checked.file_sha256 == base.file_sha256
        assert checked.integrity["counters"]["integrity.checksum_reused"] > 0

    def test_detect_adds_no_simulated_time_fault_free(self):
        """The tentpole's headline: carrying makes clean-run detect free."""
        base = run_collective_write(_spec("write_overlap", None))
        checked = run_collective_write(_spec("write_overlap", "detect"))
        assert checked.elapsed == pytest.approx(base.elapsed, rel=1e-9)
