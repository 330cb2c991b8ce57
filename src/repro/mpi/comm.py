"""The per-rank MPI API (communicator facade).

Every potentially time-consuming call is driven with ``yield from``
inside a rank's program; this is how the simulation charges CPU time and
opens *progress windows* (see :mod:`repro.mpi.runtime`).  Most calls are
generators.  A call that is nothing but one timeout (:meth:`compute`)
returns that timeout in a one-element tuple instead, and a call that only
forwards to another returns the callee's generator, so the rank's own
generator waits on the event without an extra generator frame per call:

* all methods here charge the cluster's ``mpi_call_overhead`` and hold a
  progress window for their duration — in particular, a rank blocked in
  :meth:`wait`/:meth:`waitall`/:meth:`barrier` keeps driving pending
  protocol work, exactly like a real MPI library spinning in its progress
  engine;
* :meth:`compute` models application CPU time — **no** MPI progress.

Example rank program::

    def program(mpi):
        if mpi.rank == 0:
            req = yield from mpi.isend(1, tag=7, data=buf)
            yield from mpi.wait(req)
        elif mpi.rank == 1:
            req = yield from mpi.irecv(0, tag=7, buffer=out)
            yield from mpi.wait(req)
        yield from mpi.barrier()
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.errors import MPIError
from repro.mpi.request import Request
from repro.sim.primitives import all_of

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.world import World

__all__ = ["Communicator"]


def _as_payload(data: np.ndarray | bytes | None, size: int | None) -> tuple[np.ndarray | None, int]:
    """Normalize (data, size) into (uint8 payload or None, byte count)."""
    if data is None:
        if size is None:
            raise MPIError("either data or size must be given")
        return None, int(size)
    if isinstance(data, (bytes, bytearray)):
        data = np.frombuffer(bytes(data), dtype=np.uint8)
    if not isinstance(data, np.ndarray):
        raise MPIError(f"payload must be ndarray/bytes/None, got {type(data).__name__}")
    view = data.reshape(-1).view(np.uint8)
    if size is not None and int(size) != view.size:
        raise MPIError(f"size={size} does not match payload of {view.size} bytes")
    return view, view.size


class Communicator:
    """MPI world communicator as seen by one rank."""

    def __init__(self, world: "World", rank: int) -> None:
        self.world = world
        self.rank = rank
        self._runtime = world.runtime(rank)
        self._spec = world.cluster.spec
        self._coll_seq = 0
        #: The world's engine, cached: ``now`` is read on every hot call.
        self.engine = world.engine

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of ranks in the world."""
        return self.world.nprocs

    @property
    def now(self) -> float:
        return self.engine.now

    @property
    def node(self) -> int:
        return self._runtime.node

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def isend(
        self,
        dest: int,
        tag: int,
        data: np.ndarray | bytes | None = None,
        size: int | None = None,
        context: str = "pt2pt",
        readonly: bool = False,
        checksum: int | None = None,
        piece_checksums: tuple | None = None,
    ):
        """Non-blocking send.  ``yield from``; returns a :class:`Request`.

        ``readonly=True`` promises the payload buffer is not mutated until
        the message has fully arrived; the eager path then keeps a
        reference instead of its buffered-semantics snapshot (zero-copy).
        The collective-write hot path sends views of frozen rank data and
        single-use pack buffers, so it opts in.

        ``checksum``/``piece_checksums`` let a producer that already
        holds the payload's CRC-32 (and per-piece CRCs) ship it with the
        message instead of having the runtime recompute it at post time.
        """
        payload, nbytes = _as_payload(data, size)
        self._check_peer(dest)
        rt = self._runtime
        rt.enter_progress()
        try:
            yield self.engine.timeout(self._spec.mpi_call_overhead)
            op = rt.start_send(
                dest, tag, nbytes, payload, context, readonly=readonly,
                checksum=checksum, piece_checksums=piece_checksums,
            )
        finally:
            rt.exit_progress()
        return Request(op.event, "send", op)

    def irecv(
        self,
        source: int,
        tag: int,
        buffer: np.ndarray | None = None,
        size: int | None = None,
        context: str = "pt2pt",
    ):
        """Non-blocking receive.  ``yield from``; returns a :class:`Request`.

        Posting pays the unexpected-queue scan cost — the longer the
        receiver's backlog, the more expensive this call (paper, III-B1).
        """
        if buffer is not None:
            if buffer.dtype != np.uint8:
                raise MPIError(f"receive buffer must be uint8, got {buffer.dtype}")
            nbytes = buffer.size if size is None else int(size)
        else:
            if size is None:
                raise MPIError("either buffer or size must be given")
            nbytes = int(size)
        self._check_peer(source)
        rt = self._runtime
        rt.enter_progress()
        try:
            yield self.engine.timeout(self._spec.mpi_call_overhead + rt.match_cost())
            op = rt.post_recv(source, tag, nbytes, buffer, context)
        finally:
            rt.exit_progress()
        return Request(op.event, "recv", op)

    def wait(self, request: Request):
        """Block (with progress) until ``request`` completes."""
        return self.waitall([request])

    def waitall(self, requests: Sequence[Request]):
        """Block (with progress) until every request completes."""
        rt = self._runtime
        rt.enter_progress()
        try:
            yield self.engine.timeout(self._spec.mpi_call_overhead)
            yield all_of(self.engine, [r.event for r in requests])
        finally:
            rt.exit_progress()

    def send(
        self, dest: int, tag: int, data=None, size=None, context: str = "pt2pt",
        readonly: bool = False, checksum: int | None = None,
        piece_checksums: tuple | None = None,
    ):
        """Blocking send (isend + wait)."""
        req = yield from self.isend(
            dest, tag, data=data, size=size, context=context, readonly=readonly,
            checksum=checksum, piece_checksums=piece_checksums,
        )
        yield from self.wait(req)

    def recv(
        self,
        source: int,
        tag: int,
        buffer: np.ndarray | None = None,
        size: int | None = None,
        context: str = "pt2pt",
    ):
        """Blocking receive (irecv + wait); returns the buffer."""
        req = yield from self.irecv(source, tag, buffer=buffer, size=size, context=context)
        yield from self.wait(req)
        return buffer

    def _check_peer(self, peer: int) -> None:
        if not (0 <= peer < self.world.nprocs):
            raise MPIError(f"peer rank {peer} out of range [0, {self.world.nprocs})")

    # ------------------------------------------------------------------
    # Collectives (analytic; see repro.mpi.collops)
    # ------------------------------------------------------------------
    def _collective(self, kind: str, payload=None, nbytes: int = 0, root=None):
        rt = self._runtime
        rt.enter_progress()
        try:
            yield self.engine.timeout(self._spec.mpi_call_overhead)
            self._coll_seq += 1
            evt = self.world.coll.enter(
                self._coll_seq, kind, self.rank, payload=payload, nbytes=nbytes, root=root
            )
            result = yield evt
        finally:
            rt.exit_progress()
        return result

    def barrier(self):
        """Synchronize all ranks (dissemination-cost model)."""
        return self._collective("barrier")

    def bcast(self, obj: Any = None, root: int = 0, nbytes: int = 0):
        """Broadcast ``obj`` from ``root``; returns the root's object."""
        return self._collective("bcast", payload=obj, nbytes=nbytes, root=root)

    def allgather(self, obj: Any, nbytes: int):
        """All-gather Python objects; returns the list ordered by rank."""
        return self._collective("allgather", payload=obj, nbytes=nbytes)

    def allreduce_sum(self, value: Any, nbytes: int = 8):
        return self._collective("allreduce_sum", payload=value, nbytes=nbytes)

    def allreduce_max(self, value: Any, nbytes: int = 8):
        return self._collective("allreduce_max", payload=value, nbytes=nbytes)

    # ------------------------------------------------------------------
    # One-sided communication
    # ------------------------------------------------------------------
    def win_allocate(self, size: int):
        """Collectively create an RMA window (``size`` bytes on this rank).

        Returns this rank's :class:`~repro.mpi.window.WindowHandle`.
        """
        rt = self._runtime
        rt.enter_progress()
        try:
            yield self.engine.timeout(self._spec.mpi_call_overhead)
            self._coll_seq += 1
            win_id = self._coll_seq
            handle = self.world.window_registry.attach(win_id, self.rank, int(size))
            evt = self.world.coll.enter(win_id, "win_allocate", self.rank, nbytes=int(size))
            yield evt
        finally:
            rt.exit_progress()
        return handle

    # ------------------------------------------------------------------
    # Non-MPI time
    # ------------------------------------------------------------------
    def compute(self, seconds: float):
        """Application CPU time: the rank makes **no** MPI progress.

        ``yield from`` it like every other call: the one timeout comes in
        a one-element tuple (empty for zero seconds), so the caller's
        generator yields it directly.
        """
        if seconds < 0:
            raise ValueError(f"negative compute time: {seconds}")
        return (self.engine.timeout(seconds),) if seconds else ()

    def io_wait(self, event, setup_cost: float = 0.0):
        """Block in a non-MPI system call (e.g. a POSIX write).

        The rank makes **no** MPI progress while waiting — the mechanism
        that starves Comm-Overlap's background rendezvous traffic during
        blocking file writes.
        """
        if setup_cost:
            yield self.engine.timeout(setup_cost)
        result = yield event
        return result

    # ------------------------------------------------------------------
    # MPI-IO
    # ------------------------------------------------------------------
    def file_open(self, path: str):
        """Collectively open ``path``; returns this rank's MPI-IO handle."""
        from repro.mpi.mpiio import MPIFile  # local import to avoid a cycle

        yield from self.barrier()
        return MPIFile(self, path)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Communicator rank={self.rank}/{self.size}>"
