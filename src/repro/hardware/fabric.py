"""The network fabric: point-to-point transfers between nodes.

Transfer model (LogGP-flavoured, cut-through):

* inter-node: the transfer starts when *both* the sender's tx port and the
  receiver's rx port are free; both ports are held for
  ``size / min(tx.bw, rx.bw)`` seconds (optionally stretched by the
  cluster's network noise), and the data is fully visible at the receiver
  one wire latency after the ports drain.
* intra-node: a single reservation of the node's memory engine.

The fabric is purely a data-movement model; *when* a transfer may start
(matching, rendezvous handshakes, RMA synchronization) is the MPI layer's
job.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.engine import Engine, Timeout
from repro.hardware.nic import Nic
from repro.hardware.node import Node

__all__ = ["Fabric"]


class Fabric:
    """Moves bytes between nodes, modelling endpoint contention."""

    def __init__(
        self,
        engine: Engine,
        nodes: list[Node],
        nics: list[Nic],
        wire_latency: float,
        intra_node_latency: float,
        noise: Callable[[], float] | None = None,
    ) -> None:
        if len(nodes) != len(nics):
            raise ValueError("need exactly one NIC per node")
        self.engine = engine
        self.nodes = nodes
        self.nics = nics
        self.wire_latency = float(wire_latency)
        self.intra_node_latency = float(intra_node_latency)
        self.noise = noise
        #: Cumulative inter-node bytes moved (accounting/diagnostics).
        self.inter_node_bytes = 0
        self.intra_node_bytes = 0

    def transfer(self, src_node: int, dst_node: int, size: int) -> Timeout:
        """Start moving ``size`` bytes; returns the arrival-complete event.

        The returned event fires when the last byte is visible at the
        destination.  Contention with other transfers sharing either
        endpoint is accounted for via the port queues.
        """
        if size < 0:
            raise ValueError(f"negative transfer size: {size}")
        if src_node == dst_node:
            self.intra_node_bytes += size
            # submit() already charges the memory engine's own latency.
            return self.nodes[src_node].memory.submit(size)
        self.inter_node_bytes += size
        tx = self.nics[src_node].tx
        rx = self.nics[dst_node].rx
        bandwidth = min(tx.bandwidth, rx.bandwidth)
        duration = size / bandwidth
        if self.noise is not None:
            duration *= self.noise()
        eng = self.engine
        now = eng.now
        start = max(tx.earliest_start(), rx.earliest_start(), now)
        tx.occupy(start, duration, size)
        rx.occupy(start, duration, size)
        finish = start + duration + self.wire_latency
        return eng.timeout(finish - now, value=finish)

    def transfer_time_estimate(self, src_node: int, dst_node: int, size: int) -> float:
        """Uncontended transfer time estimate (used by planners, not physics)."""
        if src_node == dst_node:
            node = self.nodes[src_node]
            return node.memory.service_time(size)
        bw = min(self.nics[src_node].tx.bandwidth, self.nics[dst_node].rx.bandwidth)
        return self.wire_latency + size / bw
