"""The one extent-checksum implementation shared by every layer.

CRC-32 over a contiguous ``uint8`` buffer.  The same function backs

* the recovery journal's commit records (:mod:`repro.recovery.journal`),
* the integrity layer's per-extent manifest and message checksums
  (:mod:`repro.integrity.layer`, :mod:`repro.mpi.runtime`),
* the verify-on-drain and commit-time checks (:mod:`repro.staging.tier`,
  :mod:`repro.fs.pfs`).

CRC-32 detects *all* single-bit errors (and all burst errors up to 32
bits), which makes it exactly strong enough for the simulator's bit-flip
fault model: an injected corruption can never slip past a verify point
by colliding.

Beyond the plain checksum this module provides the *carry* machinery the
checksum-carrying datapath is built on:

* :func:`crc32_combine` — fuse ``crc(A)`` and ``crc(B)`` into
  ``crc(A+B)`` without touching a single payload byte (the standard
  GF(2) matrix method zlib implements in C but does not expose to
  Python);
* :func:`crc32_concat` — fold a piece list ``[(nbytes, crc), ...]``;
* :class:`ChecksumLedger` — an offset-keyed registry of verified piece
  CRCs that can answer "what is the CRC of [lo, hi)?" by combining,
  provided the filed pieces tile the range exactly.
"""

from __future__ import annotations

import zlib
from functools import lru_cache

__all__ = ["ChecksumLedger", "crc32_combine", "crc32_concat", "extent_checksum"]


def extent_checksum(payload) -> int:
    """CRC-32 of a ``uint8`` buffer (numpy array or bytes).

    Contiguous buffers are checksummed zero-copy; a strided view (rare —
    every datapath call site slices contiguously) is made contiguous
    with one copy via ``np.ascontiguousarray`` and checksummed from its
    buffer directly.
    """
    view = memoryview(payload)
    if not view.c_contiguous:
        import numpy as np

        view = memoryview(np.ascontiguousarray(payload))
    return zlib.crc32(view)


# ----------------------------------------------------------------------
# CRC-32 combination (GF(2) matrix method)
# ----------------------------------------------------------------------
# crc(A+B) is a linear function of crc(A), crc(B) and len(B): shift
# crc(A) through len(B) zero bytes (a GF(2) matrix power) and xor with
# crc(B).  zlib's crc32_combine() does exactly this in C; Python's zlib
# binding does not expose it, so we implement the 32x32 bit-matrix
# arithmetic here.  Matrices are plain 32-entry int lists (column i is
# the image of bit i), squared/applied with shifts and xors.

_CRC32_POLY_REFLECTED = 0xEDB88320


def _matrix_times_vec(mat: list[int], vec: int) -> int:
    out = 0
    i = 0
    while vec:
        if vec & 1:
            out ^= mat[i]
        vec >>= 1
        i += 1
    return out


def _matrix_square(mat: list[int]) -> list[int]:
    return [_matrix_times_vec(mat, col) for col in mat]


def _shift_operator(len2: int) -> list[int]:
    """The 32x32 GF(2) matrix advancing a CRC through ``len2`` zero bytes."""
    # One-bit-shift operator (reflected polynomial).
    odd = [_CRC32_POLY_REFLECTED] + [1 << i for i in range(31)]
    even = _matrix_square(odd)  # two-bit shift
    op = _matrix_square(even)  # four-bit shift
    # Walk the bits of len2 (bytes); the first square yields the
    # one-zero-byte (8-bit) operator, each further square doubles it.
    combined: list[int] | None = None
    n = len2
    while n:
        op = _matrix_square(op)
        if n & 1:
            combined = op if combined is None else [
                _matrix_times_vec(op, col) for col in combined
            ]
        n >>= 1
    if combined is None:  # len2 == 0 -> identity (callers short-circuit)
        combined = [1 << i for i in range(32)]
    return combined


@lru_cache(maxsize=None)
def _shift_tables(len2: int) -> tuple[list[int], list[int], list[int], list[int]]:
    """:func:`_shift_operator` as four 256-entry byte tables.

    The operator is linear, so its image of a CRC is the xor of the
    images of the CRC's four bytes: table ``k`` holds the image of every
    value of byte ``k``.  Cached per length: piece sizes in a collective
    write repeat heavily (every cycle produces the same extent shapes),
    so after the first cycle a combine is four lookups and three xors,
    not a 32-step matrix·vector product or a fresh O(log n) matrix build.
    """
    mat = _shift_operator(len2)
    tables = []
    for k in range(4):
        table = [0]
        for col in mat[8 * k : 8 * k + 8]:
            table += [entry ^ col for entry in table]
        tables.append(table)
    return tuple(tables)


def crc32_combine(crc1: int, crc2: int, len2: int) -> int:
    """``crc32(A + B)`` given ``crc1 = crc32(A)``, ``crc2 = crc32(B)``.

    ``len2`` is ``len(B)`` in bytes.  Pure metadata arithmetic — no
    payload bytes are touched.
    """
    if len2 == 0:
        return crc1
    t0, t1, t2, t3 = _shift_tables(len2)
    return (
        t0[crc1 & 0xFF] ^ t1[(crc1 >> 8) & 0xFF] ^ t2[(crc1 >> 16) & 0xFF]
        ^ t3[crc1 >> 24] ^ crc2
    )


def crc32_concat(pieces) -> int:
    """CRC-32 of the concatenation of ``pieces = [(nbytes, crc), ...]``."""
    crc = 0
    for nbytes, piece_crc in pieces:
        crc = crc32_combine(crc, piece_crc, nbytes)
    return crc


class ChecksumLedger:
    """Verified piece CRCs keyed by absolute offset, combinable on demand.

    The datapath files ``(offset, nbytes, crc)`` for every piece whose
    CRC it has *verified* (delivery compare, RMA landing, local copy at
    the producer).  :meth:`combine` answers "CRC of ``[lo, hi)``" by
    fusing filed pieces with :func:`crc32_combine` — but only when the
    pieces tile the range **exactly**; any gap or misalignment returns
    ``None`` and the caller must fall back to a fresh recompute (a hole
    means the range includes buffer bytes nobody checksummed).
    """

    __slots__ = ("_pieces",)

    def __init__(self) -> None:
        #: offset -> (nbytes, crc)
        self._pieces: dict[int, tuple[int, int]] = {}

    def __len__(self) -> int:
        return len(self._pieces)

    def file(self, offset: int, nbytes: int, crc: int) -> None:
        """Register a verified piece (re-filing an offset replaces it)."""
        if nbytes > 0:
            self._pieces[int(offset)] = (int(nbytes), crc)

    def combine(self, lo: int, hi: int, pop: bool = False) -> int | None:
        """CRC-32 of ``[lo, hi)`` if filed pieces tile it exactly, else None.

        With ``pop=True`` the consumed pieces are removed on success
        (the common consume-once pattern: one extent record per cycle).
        """
        if hi <= lo:
            return 0 if hi == lo else None
        crc = 0
        pos = lo
        used: list[int] = []
        while pos < hi:
            entry = self._pieces.get(pos)
            if entry is None:
                return None
            nbytes, piece_crc = entry
            if pos + nbytes > hi:
                return None
            crc = crc32_combine(crc, piece_crc, nbytes)
            used.append(pos)
            pos += nbytes
        if pop:
            for off in used:
                del self._pieces[off]
        return crc

    def clear(self) -> None:
        self._pieces.clear()
