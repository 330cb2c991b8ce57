"""Aggregator failover: restart the collective from the cycle journal.

The SPMD simulation cannot keep running a world whose rank generator
died, so recovery is modelled the way checkpoint/restart-style MPI
stacks (and the batch systems above them) actually behave: when the
survivors detect a permanent fault, the collective is **re-launched** —
crashed ranks respawn as plain senders, the aggregator set is
deterministically re-elected without them, stripes of dead targets are
remapped onto survivors, and only the cycles the journal has *not*
committed are replayed.  Durable state carries across attempts: the file
contents that reached storage, the cycle journal, and the sets of dead
ranks/targets.

Each failover charges the :class:`~repro.recovery.spec.RecoverySpec`'s
detection timeout and failover overhead to the global clock, and the
per-attempt span timelines are shifted onto that clock so one merged
Chrome trace shows write → crash → failover gap → replay.

Determinism: every injection draw comes from a per-entity stream keyed
only by the world seed, the re-election is a pure function of the
crashed set, and replay views are a pure function of the journal — so
one ``(spec, seed)`` pair yields bit-identical recovery traces and file
bytes on every run.
"""

from __future__ import annotations

import numpy as np

from repro.collio.api import Harvest, assemble_result, run_attempt
from repro.collio.view import FileView
from repro.errors import RankCrashError, RecoveryExhaustedError
from repro.obs.span import Span
from repro.recovery.journal import CycleJournal
from repro.recovery.report import RecoveryReport
from repro.recovery.spec import RecoverySpec

__all__ = ["run_with_recovery", "subtract_intervals"]


def _uncovered(lo: int, hi: int, intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Sub-ranges of ``[lo, hi)`` not covered by the merged ``intervals``."""
    out: list[tuple[int, int]] = []
    cur = lo
    for ilo, ihi in intervals:
        if ihi <= cur:
            continue
        if ilo >= hi:
            break
        if ilo > cur:
            out.append((cur, ilo))
        cur = max(cur, ihi)
        if cur >= hi:
            return out
    if cur < hi:
        out.append((cur, hi))
    return out


def subtract_intervals(view: FileView, intervals: list[tuple[int, int]]) -> FileView:
    """The replay view: ``view`` minus the journal-committed intervals.

    Remaining pieces keep their *original* local buffer offsets, so the
    rank replays straight out of its full payload buffer.
    """
    if not intervals or not view.num_extents:
        return view
    offs: list[int] = []
    lens: list[int] = []
    locs: list[int] = []
    for off, ln, loc in zip(view.offsets, view.lengths, view.local_offsets):
        for plo, phi in _uncovered(int(off), int(off + ln), intervals):
            offs.append(plo)
            lens.append(phi - plo)
            locs.append(int(loc) + (plo - int(off)))
    return FileView.from_pieces(
        np.array(offs, dtype=np.int64),
        np.array(lens, dtype=np.int64),
        np.array(locs, dtype=np.int64),
    )


def run_with_recovery(spec, algorithm: str, config, auto_counters: dict | None):
    """Run one collective write to completion under permanent faults.

    Called by :func:`repro.collio.api.run_collective_write` when the
    spec's :class:`~repro.faults.spec.FaultSpec` has crash-class faults;
    ``algorithm`` is already resolved (never ``"auto"``).  Each attempt
    is one :func:`~repro.collio.api.run_attempt` — the same one a plain
    run makes — and the result is assembled from the summed harvests by
    :func:`~repro.collio.api.assemble_result`, so a recovery run reports
    every metric a plain run does plus the ``recovery.*`` set.  Returns a
    :class:`~repro.collio.api.CollectiveWriteResult` whose ``recovery``
    field carries the :class:`~repro.recovery.report.RecoveryReport`.

    Raises :class:`~repro.errors.RecoveryExhaustedError` if the attempt
    budget runs out or a failed attempt yields no new fault information
    (which would loop forever, as the schedule is deterministic).
    """
    spec.validate()
    rspec = spec.recovery if spec.recovery is not None else RecoverySpec()
    payloads = spec.payloads()
    budget = rspec.attempt_budget(spec.nprocs, spec.fs.num_targets)

    journal = CycleJournal()
    total = Harvest(counters=dict(auto_counters or {}))
    crashed: set[int] = set()
    down: set[int] = set()
    files = None  # durable file store, carried world to world
    base = 0.0  # global-clock offset of the current attempt
    spans: list[Span] = []
    events: list[dict] = []
    replayed_bytes = 0
    torn_total = 0
    staging_lost = 0
    total_failover = 0.0
    plan0 = None  # the intended (attempt-1) plan, reported in the result
    final = None
    attempt = 0
    last_failure: BaseException | None = None

    while attempt < budget:
        attempt += 1
        if len(down) >= spec.fs.num_targets:
            raise RecoveryExhaustedError(
                "all storage targets are down; no survivors to remap onto"
            ) from last_failure
        durable = files.get(spec.path) if files is not None else None
        intervals, torn = journal.committed_intervals(durable)
        torn_total += torn
        views = {
            r: subtract_intervals(spec.views[r], intervals)
            for r in range(spec.nprocs)
        }
        remaining = sum(v.total_bytes for v in views.values())
        if attempt > 1:
            replayed_bytes += remaining
        run = run_attempt(
            spec, algorithm, config, views, payloads, files=files,
            journal=journal, crashed_ranks=frozenset(crashed),
            down_targets=frozenset(down),
        )
        if plan0 is None:
            plan0 = run.plan
        total.add(run.harvest)
        world = run.world
        files = world.pfs._files
        newly_down = sorted(
            {t.target_id for t in world.pfs.targets if t.down} - down
        )
        down.update(newly_down)
        if spec.trace:
            # Shift the attempt's timeline onto the global clock.
            spans.append(Span(
                name=f"attempt{attempt}", category="recovery", rank=-1,
                t0=base, t1=base + run.elapsed, flow="async",
                attrs={"attempt": attempt, "remaining_bytes": remaining,
                       "aggregators": list(run.plan.aggregators)},
            ))
            for span in run.spans:
                span.t0 += base
                span.t1 += base
                spans.append(span)

        if run.failure is None:
            events.append({
                "attempt": attempt, "t": base + run.elapsed, "kind": "completed",
                "replayed_bytes": remaining if attempt > 1 else 0,
            })
            final = run
            base += run.elapsed
            break

        # The staging tier is per-attempt (volatile): bytes a failed
        # attempt had not drained are the data the crash destroyed (the
        # journal never committed them, so replay re-drives those cycles).
        staging_lost += run.harvest.gauges.get("staging.undrained_bytes", 0)
        failure = last_failure = run.failure
        if isinstance(failure, RankCrashError):
            crashed.add(failure.rank)
            event_kind = "rank_crash"
            detail = {"rank": failure.rank}
        elif newly_down:
            event_kind = "ost_outage"
            detail = {"targets": newly_down}
        else:
            # No new fault information: the identical attempt would fail
            # identically forever.  Give up rather than spin.
            raise RecoveryExhaustedError(
                f"attempt {attempt} failed with {type(failure).__name__} but "
                "exposed no new crashed rank or down target"
            ) from failure
        failover = rspec.detection_timeout + rspec.failover_overhead
        total_failover += failover
        events.append({
            "attempt": attempt, "t": base + run.elapsed, "kind": event_kind,
            "error": type(failure).__name__, **detail,
        })
        if spec.trace:
            spans.append(Span(
                name="failover", category="recovery", rank=-1,
                t0=base + run.elapsed, t1=base + run.elapsed + failover,
                flow="async", attrs={"attempt": attempt, **detail},
            ))
        base += run.elapsed + failover

    if final is None:
        raise RecoveryExhaustedError(
            f"collective write did not complete within {budget} attempts"
        ) from last_failure

    report = RecoveryReport(
        attempts=attempt,
        crashed_ranks=sorted(crashed),
        down_targets=sorted(down),
        failover_time=total_failover,
        replayed_bytes=replayed_bytes,
        torn_cycles=torn_total,
        journal_commits=journal.commits,
        completed=True,
        events=events,
    )
    total.count({
        "recovery.attempts": attempt,
        "recovery.rank_crashes": len(crashed),
        "recovery.ost_outages": len(down),
        "recovery.replayed_bytes": replayed_bytes,
        "recovery.torn_cycles": torn_total,
    })
    total.gauges["recovery.failover_time"] = total_failover
    if "staging.capacity" in total.gauges:
        total.count({"staging.lost_bytes": staging_lost})
    return assemble_result(
        spec, config, algorithm, final, total, payloads,
        plan=plan0, elapsed=base, spans=spans, recovery=report,
    )
