"""Benchmark-side spans around the calls the benchmark makes into the program.

Host time (``time.perf_counter``), recorded on the program's own
:class:`repro.obs.SpanRecorder` so the timeline exports through
``repro.obs.write_chrome_trace`` and passes ``python -m repro.obs
validate``.  All spans sit on one track (exported as "rank 0" of the
"ranks" process, the only compute track the exporter knows); the
benchmark is single-threaded, so they nest properly.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.obs import SpanRecorder, write_chrome_trace

__all__ = ["Recorder"]


class Recorder:
    """Spans plus the payload-byte count of one benchmark process."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans = SpanRecorder(enabled=True)
        #: Bytes produced by the workload's ``data_factory``.
        self.payload_bytes = 0

    def now(self) -> float:
        return time.perf_counter() - self.origin

    @contextmanager
    def span(self, name: str, category: str, **attrs):
        handle = self.spans.begin(self.now(), name, category, rank=0, **attrs)
        try:
            yield handle
        finally:
            self.spans.end(handle, self.now())

    def total(self, name: str, since: float = 0.0) -> float:
        """Host seconds inside closed spans called ``name`` opened after ``since``."""
        return sum(s.dur for s in self.spans.spans_of(name=name) if s.t0 >= since)

    def write_chrome_trace(self, path: str) -> int:
        """Write the spans as a validated Chrome trace; returns the event count."""
        return len(write_chrome_trace(path, self.spans.closed_spans())["traceEvents"])
