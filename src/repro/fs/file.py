"""Byte-accurate file contents for the simulated file system."""

from __future__ import annotations

from bisect import bisect_left, insort

import numpy as np

from repro.errors import FileSystemError

__all__ = ["SimFile"]


class SimFile:
    """The data of one simulated file.

    Contents are held in a numpy ``uint8`` array (like a sparse file,
    holes read as zero).  A writer that knows the final size calls
    :meth:`reserve` once; writes past the reserved end still grow the
    array geometrically.  This class is pure data — timing lives in
    :class:`repro.fs.pfs.ParallelFileSystem`.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._data = np.zeros(0, dtype=np.uint8)
        self._size = 0
        #: CRC-32 of committed extents, keyed by ``(offset, nbytes)`` —
        #: recorded by the PFS at commit time when the write carried a
        #: producer checksum (see repro.fs.pfs).  This is the stored-CRC
        #: metadata a real checksumming file system keeps per block; the
        #: integrity scrub verifies against it instead of re-reading
        #: every extent.  Empty (zero-cost) without an integrity layer.
        self._stored_crcs: dict[tuple[int, int], int] = {}
        #: The stored-CRC keys sorted by offset, and the longest recorded
        #: extent: every key overlapping ``[lo, hi)`` starts in
        #: ``(lo - _crc_maxlen, hi)``, so a write finds them by bisection
        #: instead of scanning every key.  Exact even when recorded
        #: extents overlap (a torn commit records its full extent but
        #: invalidates only the prefix it wrote).
        self._crc_keys: list[tuple[int, int]] = []
        self._crc_maxlen = 0

    @property
    def size(self) -> int:
        """Current file size in bytes (highest written offset + 1)."""
        return self._size

    def _grow(self, capacity: int) -> None:
        # np.zeros is calloc-backed: pages nobody writes are never resident.
        grown = np.zeros(capacity, dtype=np.uint8)
        grown[: len(self._data)] = self._data
        self._data = grown

    def reserve(self, end: int) -> None:
        """Make room for bytes up to ``end`` in one allocation.

        A no-op when the capacity already suffices.  Reserving the final
        size up front avoids the doubling copies (old and new array alive
        together) that geometric growth costs.
        """
        if end > len(self._data):
            self._grow(end)

    def write(self, offset: int, data: np.ndarray | bytes | bytearray | memoryview) -> None:
        """Store ``data`` at ``offset`` (extends the file as needed)."""
        if offset < 0:
            raise FileSystemError(f"negative write offset: {offset}")
        buf = data if isinstance(data, np.ndarray) else np.frombuffer(memoryview(data), np.uint8)
        if buf.dtype != np.uint8:
            buf = buf.view(np.uint8)
        end = offset + len(buf)
        if end > len(self._data):
            self._grow(max(end, 2 * len(self._data), 4096))
        self._data[offset:end] = buf
        self._size = max(self._size, end)
        if self._crc_keys:
            # Any overlapping write invalidates previously recorded CRCs
            # (the commit path re-records the exact extent afterwards).
            keys = self._crc_keys
            lo = bisect_left(keys, (offset - self._crc_maxlen + 1,))
            hi = bisect_left(keys, (end,), lo)
            near = keys[lo:hi]
            stale = [key for key in near if offset < key[0] + key[1]]
            if stale:
                keys[lo:hi] = [key for key in near if key[0] + key[1] <= offset]
                for key in stale:
                    del self._stored_crcs[key]

    def note_size(self, end: int) -> None:
        """Record a size-only write's end offset (no bytes stored)."""
        if end < 0:
            raise FileSystemError(f"negative size: {end}")
        self._size = max(self._size, end)

    def view(self, offset: int, size: int) -> np.ndarray:
        """A read-only, zero-copy view of the stored bytes in ``[offset, offset + size)``.

        Shorter than ``size`` when the file ends first: the caller reads
        the missing tail as zeros.  Later writes show through the view
        until one grows the file past its capacity.
        """
        if offset < 0 or size < 0:
            raise FileSystemError(f"invalid read: offset={offset} size={size}")
        out = self._data[offset : min(offset + size, self._size)]
        out.flags.writeable = False
        return out

    def read(self, offset: int, size: int) -> np.ndarray:
        """Return ``size`` bytes at ``offset`` (a copy); holes/EOF read as zeros."""
        stored = self.view(offset, size)
        out = np.zeros(size, dtype=np.uint8)
        out[: len(stored)] = stored
        return out

    def note_stored_crc(self, offset: int, nbytes: int, crc: int) -> None:
        """Record the CRC-32 of the committed extent at ``offset``."""
        key = (int(offset), int(nbytes))
        if key not in self._stored_crcs:
            insort(self._crc_keys, key)
            self._crc_maxlen = max(self._crc_maxlen, key[1])
        self._stored_crcs[key] = int(crc)

    def stored_crc(self, offset: int, nbytes: int) -> int | None:
        """The recorded CRC of exactly this extent, or None (unknown)."""
        return self._stored_crcs.get((int(offset), int(nbytes)))

    def contents(self) -> np.ndarray:
        """The full file contents as a uint8 array (a copy)."""
        return self._data[: self._size].copy()
