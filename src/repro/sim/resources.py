"""Shared-resource primitives built on the event kernel.

Three shapes cover everything the upper layers need:

:class:`FifoResource`
    A counted semaphore with FIFO granting — models a pool of slots (e.g.
    aio threads, CPU cores).

:class:`Store`
    An unbounded FIFO of items with blocking ``get`` — models mailboxes and
    request queues serviced by a daemon process.

:class:`ServerQueue`
    A serialized server with latency + bandwidth service times — models a
    NIC injection port or a storage target.  Implemented without a server
    process: each submission reserves the next free slot of the server
    timeline (``max(now, next_free) + service_time``), which is O(1) per
    request and exactly equivalent to an M/G/1-style FIFO queue.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from repro.sim.engine import Engine, Event, Timeout

__all__ = ["FifoResource", "Store", "ServerQueue"]


class FifoResource:
    """A counted resource granting requests in FIFO order."""

    def __init__(self, engine: Engine, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self._in_use = 0
        self._waiters: deque[Event] = deque()

    @property
    def in_use(self) -> int:
        """Number of currently granted slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiters)

    def request(self) -> Event:
        """Return an event that succeeds once a slot is granted."""
        grant = self.engine.event()
        if self._in_use < self.capacity:
            self._in_use += 1
            grant.succeed(None)
        else:
            self._waiters.append(grant)
        return grant

    def release(self) -> None:
        """Release a previously granted slot."""
        if self._in_use <= 0:
            raise RuntimeError("release() without a matching request()")
        if self._waiters:
            # Hand the slot straight to the next waiter.
            self._waiters.popleft().succeed(None)
        else:
            self._in_use -= 1


class Store:
    """An unbounded FIFO item store with blocking ``get``."""

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit ``item``; wakes the oldest waiting getter, if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that succeeds with the oldest available item."""
        fetch = self.engine.event()
        if self._items:
            fetch.succeed(self._items.popleft())
        else:
            self._getters.append(fetch)
        return fetch

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get: ``(True, item)`` if available, else ``(False, None)``."""
        if self._items:
            return True, self._items.popleft()
        return False, None


class ServerQueue:
    """A FIFO server with ``latency + size / bandwidth`` service times.

    Used for NIC injection ports and storage targets.  ``noise`` is an
    optional callable returning a multiplicative service-time factor
    (>= some positive floor), used to model shared-system interference;
    it is drawn once per request so repeated runs under one seed are
    deterministic.
    """

    def __init__(
        self,
        engine: Engine,
        bandwidth: float,
        latency: float = 0.0,
        noise: Callable[[], float] | None = None,
        name: str = "",
    ) -> None:
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        self.engine = engine
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self.noise = noise
        self.name = name
        self._next_free = 0.0
        #: Total bytes submitted, for utilisation accounting.
        self.bytes_served = 0
        self.requests_served = 0

    def busy_until(self) -> float:
        """Simulated time at which the server's current backlog drains."""
        return max(self._next_free, self.engine.now)

    def earliest_start(self) -> float:
        """Alias of :meth:`busy_until`, named for joint reservations."""
        return self.busy_until()

    def occupy(self, start: float, duration: float, size: int = 0) -> None:
        """Reserve the server for ``[start, start + duration)``.

        Used for *joint* reservations spanning several servers (e.g. a
        network transfer holding both the sender's tx port and the
        receiver's rx port): the caller computes a common start as the max
        of the servers' :meth:`earliest_start` values and occupies each.
        ``start`` must not precede this server's own earliest start.
        """
        if duration < 0:
            raise ValueError(f"negative duration: {duration}")
        if start < self.busy_until() - 1e-12:
            raise ValueError("occupy() start precedes the server's backlog drain")
        self._next_free = start + duration
        self.bytes_served += size
        self.requests_served += 1

    def service_time(self, size: int) -> float:
        """Unperturbed service time for a request of ``size`` bytes."""
        return self.latency + size / self.bandwidth

    def submit(self, size: int, factor: float = 1.0) -> Timeout:
        """Enqueue a request of ``size`` bytes; returns its completion event.

        The completion event's value is the completion time.  ``factor``
        scales this one request's service time on top of the queue's own
        noise (used for injected straggler faults).
        """
        if size < 0:
            raise ValueError(f"negative request size: {size}")
        if factor <= 0:
            raise ValueError(f"service factor must be positive, got {factor}")
        service = self.service_time(size) * factor
        if self.noise is not None:
            noise_factor = self.noise()
            if noise_factor <= 0:
                raise ValueError(f"noise factor must be positive, got {noise_factor}")
            service *= noise_factor
        engine = self.engine
        now = engine.now
        start = max(self._next_free, now)
        finish = start + service
        self._next_free = finish
        self.bytes_served += size
        self.requests_served += 1
        return engine.timeout(finish - now, value=finish)
