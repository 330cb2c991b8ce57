"""Intra-node pre-aggregation: the gather stage of two-layer shuffles.

With a :class:`~repro.collio.plan.TwoLayerPlan`, every cycle runs two
hops instead of one:

1. *Gather* (this module): each rank packs its cycle contributions into
   one contiguous stream and sends it — a single intra-node message over
   the node's memory engine — to its elected leader, which scatters the
   streams into a staging buffer laid out per aggregator (file-sorted,
   contiguous runs merged).  Leaders of single-rank nodes skip this hop
   entirely (the plan marks them pass-through).
2. *Forward*: the wrapped shuffle primitive runs unchanged against the
   plan's leader-level schedule; leaders send the coalesced messages out
   of staging (``AlgoContext.send_source``), every other rank has
   nothing to send inter-node.

:class:`TwoLayerShuffle` wraps any of the three shuffle primitives and
presents the same ``setup`` / ``init`` / ``wait`` / ``blocking`` /
``finish`` interface, so all five overlap algorithms drive a two-layer
shuffle without modification.  The gather runs synchronously inside
``init`` — exactly where a member's cycle data must be complete anyway —
and reuses staging slot ``cycle % nsub`` only after the slot's previous
forward shuffle has been waited (the same discipline as the collective
sub-buffers, which every algorithm already guarantees).

The gather's messages use the ``"intranode"`` match context, keeping
them out of the inter-node shuffle's matching space, and are recorded
as ``"gather"`` spans in the ``"intranode"`` span category with
``intranode.*`` metrics derived from the per-rank counters.
"""

from __future__ import annotations

import numpy as np

from repro.collio.context import AlgoContext
from repro.collio.plan import TwoLayerPlan
from repro.integrity.checksum import crc32_concat, extent_checksum

__all__ = ["TwoLayerShuffle", "INTRANODE_CONTEXT"]

#: MPI match-context tag of gather messages (disjoint from "shuffle").
INTRANODE_CONTEXT = "intranode"


def _stream_pieces(plan: TwoLayerPlan, rank: int, cycle: int):
    """(local_offset, length) pairs of a member's pack stream, in order."""
    for sa in plan.member_sends_for(rank, cycle):
        for loc, ln in zip(sa.local_offsets, sa.lengths):
            yield int(loc), int(ln)


def _stream_checksums(ctx: AlgoContext, rank: int, cycle: int):
    """Per-piece ``(nbytes, crc)`` of a member's pack stream + whole CRC.

    This is where gather traffic's checksums are *born*: each stream
    piece is checksummed once from the member's user buffer; the whole-
    message CRC is combined from them (no second byte pass).  Returns
    ``(None, None)`` without an integrity layer or payload bytes.
    """
    integrity = ctx.integrity
    if integrity is None or not ctx.carries_data:
        return None, None
    pieces = []
    for loc, ln in _stream_pieces(ctx.plan, rank, cycle):
        pieces.append((ln, extent_checksum(ctx.data[loc : loc + ln])))
        integrity.checksum_computed += 1
    if not pieces:
        return None, None
    if len(pieces) == 1:
        whole = pieces[0][1]
    else:
        whole = crc32_concat(pieces)
        integrity.checksum_reused += 1
    return tuple(pieces), whole


class TwoLayerShuffle:
    """A shuffle primitive with a node-local gather stage in front."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.name = f"two_layer({inner.name})"

    # ------------------------------------------------------------------
    # Engine interface (delegating to the wrapped primitive)
    # ------------------------------------------------------------------
    def setup(self, ctx: AlgoContext):
        ctx.allocate_staging()
        yield from self.inner.setup(ctx)

    def init(self, ctx: AlgoContext, cycle: int):
        yield from self._gather(ctx, cycle)
        handle = yield from self.inner.init(ctx, cycle)
        return handle

    def wait(self, ctx: AlgoContext, handle):
        return self.inner.wait(ctx, handle)

    def finish(self, ctx: AlgoContext, handle):
        return self.inner.finish(ctx, handle)

    def blocking(self, ctx: AlgoContext, cycle: int):
        handle = yield from self.init(ctx, cycle)
        yield from self.wait(ctx, handle)

    @property
    def combinable(self) -> bool:
        return self.inner.combinable

    @property
    def context_tag(self) -> str:
        return getattr(self.inner, "context_tag", "shuffle")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TwoLayerShuffle inner={self.inner.name}>"

    # ------------------------------------------------------------------
    # The gather stage
    # ------------------------------------------------------------------
    def _gather(self, ctx: AlgoContext, cycle: int):
        """Collect this cycle's node-local data at the leader (SPMD)."""
        plan: TwoLayerPlan = ctx.plan
        rank = ctx.rank
        leader = plan.leader_of_rank[rank]
        if not plan.uses_staging(leader):
            return  # pass-through node: nothing to coalesce
        t0 = ctx.mpi.now
        span = None
        if ctx.recorder.active:
            span = ctx.recorder.begin(
                t0, "gather", "intranode", rank=rank, cycle=cycle, leader=leader
            )
        if rank == leader:
            yield from self._gather_leader(ctx, cycle)
        else:
            yield from self._gather_member(ctx, cycle, leader)
        ctx.recorder.end(span, ctx.mpi.now)
        ctx.stats.add_time("gather", ctx.mpi.now - t0)

    def _gather_member(self, ctx: AlgoContext, cycle: int, leader: int):
        """Pack this rank's stream and ship it to the leader (blocking).

        Blocking matters: the send's completion keeps the member inside
        an MPI progress window, so a rendezvous-sized stream can hand
        its CTS/data exchange even while the leader is still busy.
        """
        plan: TwoLayerPlan = ctx.plan
        nbytes, npieces = plan.gather_load(ctx.rank, cycle)
        if not nbytes:
            return
        payload = None
        if ctx.carries_data:
            parts = [
                ctx.data[loc : loc + ln] for loc, ln in _stream_pieces(plan, ctx.rank, cycle)
            ]
            payload = parts[0] if len(parts) == 1 else np.concatenate(parts)
        cost = ctx.pack_cost(nbytes, npieces)
        if cost:
            yield from ctx.mpi.compute(cost)
        pieces, whole = _stream_checksums(ctx, ctx.rank, cycle)
        yield from ctx.mpi.send(
            leader, tag=cycle, data=payload, size=nbytes,
            context=INTRANODE_CONTEXT, readonly=True,
            checksum=whole, piece_checksums=pieces,
        )
        ctx.note_message(leader, nbytes, stage="gather")

    def _gather_leader(self, ctx: AlgoContext, cycle: int):
        """Receive every member's stream and assemble the staging slot."""
        plan: TwoLayerPlan = ctx.plan
        rank = ctx.rank
        # The slot is being refilled: any leftover verified CRCs from the
        # cycle that previously used it are stale now.
        led = ctx.staging_ledger(cycle)
        if led is not None:
            led.clear()
        requests = []
        inbound: list[tuple[int, np.ndarray | None, object]] = []
        for member in plan.members_of_leader[rank]:
            if member == rank:
                continue
            nbytes, _pieces = plan.gather_load(member, cycle)
            if not nbytes:
                continue
            # Pooled receive buffer (returned once staged).
            buf = ctx.take_buffer(nbytes)
            req = yield from ctx.mpi.irecv(
                member, tag=cycle, buffer=buf, size=nbytes, context=INTRANODE_CONTEXT
            )
            requests.append(req)
            inbound.append((member, buf, req))
        own_bytes, own_pieces = plan.gather_load(rank, cycle)
        if own_bytes:
            self._stage_own(ctx, cycle)
            yield from ctx.mpi.compute(ctx.local_copy_cost(own_bytes, own_pieces))
            ctx.stats.bump("gather_local_copies")
        if requests:
            yield from ctx.mpi.waitall(requests)
        total_bytes = 0
        total_pieces = 0
        for member, buf, req in inbound:
            self._stage_member(ctx, cycle, member, buf, req)
            ctx.release_buffer(buf)
            nbytes, npieces = plan.gather_load(member, cycle)
            total_bytes += nbytes
            total_pieces += npieces
        cost = ctx.unpack_cost(total_bytes, total_pieces)
        if cost:
            yield from ctx.mpi.compute(cost)

    # ------------------------------------------------------------------
    # Staging-buffer byte movement (skipped in size-only mode)
    # ------------------------------------------------------------------
    def _stage_own(self, ctx: AlgoContext, cycle: int) -> None:
        """Copy the leader's own pieces straight into staging.

        The leader is the producer of its own stream, so its piece CRCs
        are computed here (once) and filed in the staging ledger under
        their staging offsets — the forward shuffle combines them.
        """
        if not ctx.carries_data:
            return
        plan: TwoLayerPlan = ctx.plan
        stag = ctx.staging(ctx.sub_of_cycle(cycle))
        dests = plan.gather_scatter(cycle, ctx.rank)
        led = ctx.staging_ledger(cycle)
        integrity = ctx.integrity
        for i, (loc, ln) in enumerate(_stream_pieces(plan, ctx.rank, cycle)):
            off = int(dests[i])
            piece = ctx.data[loc : loc + ln]
            stag[off : off + ln] = piece
            if led is not None:
                led.file(off, ln, extent_checksum(piece))
                integrity.checksum_computed += 1

    def _stage_member(
        self, ctx: AlgoContext, cycle: int, member: int,
        buf: np.ndarray | None, req=None,
    ) -> None:
        """Scatter a member's received stream into staging positions.

        The delivered message's carried piece CRCs (already verified as
        a whole at receive time) are filed in the staging ledger under
        their staging offsets — no byte is re-checksummed here.
        """
        if buf is None:
            return
        plan: TwoLayerPlan = ctx.plan
        stag = ctx.staging(ctx.sub_of_cycle(cycle))
        dests = plan.gather_scatter(cycle, member)
        led = ctx.staging_ledger(cycle)
        carried = getattr(req.detail, "piece_checksums", None) if req is not None else None
        pos = 0
        for i, (_loc, ln) in enumerate(_stream_pieces(plan, member, cycle)):
            off = int(dests[i])
            stag[off : off + ln] = buf[pos : pos + ln]
            if led is not None and carried is not None and i < len(carried):
                led.file(off, ln, carried[i][1])
                ctx.integrity.checksum_reused += 1
            pos += ln
