"""Public entry points for the collective write.

Two levels:

* :func:`collective_write` — the MPI-style per-rank call (a generator run
  inside a simulated rank program), analogous to ``MPI_File_write_all``
  with the fcoll component chosen by ``algorithm``/``shuffle``.
* :func:`run_collective_write` — one call that builds the world, runs the
  collective write for a given :class:`RunSpec`, optionally verifies the
  resulting file byte-for-byte, and returns a
  :class:`CollectiveWriteResult`.

A :class:`RunSpec` is the only way to describe a run::

    spec = RunSpec(cluster=crill(), fs=beegfs_crill(), nprocs=16,
                   views=views, algorithm="write_comm2", trace=True)
    result = run_collective_write(spec)
    result.overlap_efficiency()      # fraction of write time hidden
    result.metrics["counters"]       # the run's one metrics channel

Every run, plain or crash-recovering, executes through
:func:`run_attempt` (one world, harvested into a :class:`Harvest`) and
:func:`assemble_result` (harvest -> result and metrics snapshot); the
recovery manager only adds the loop around the attempt.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass, field, replace
from typing import Any, Callable, ClassVar, Mapping

import numpy as np

from repro.collio.aggregation import elect_leaders, select_aggregators
from repro.collio.config import CollectiveConfig
from repro.collio.context import AlgoContext
from repro.collio.domains import partition_domains
from repro.collio.intranode import TwoLayerShuffle
from repro.collio.overlap import ALGORITHMS, make_algorithm
from repro.collio.plan import (
    TwoLayerPlan,
    TwoPhasePlan,
    cached_plan,
    plan_content_key,
    store_plan,
)
from repro.collio.shuffle import SHUFFLE_PRIMITIVES, make_shuffle
from repro.collio.view import FileView
from repro.config import DEFAULT_SEED
from repro.errors import ConfigurationError, ReproError
from repro.faults.retry import RetryPolicy
from repro.faults.spec import FaultSpec
from repro.fs.presets import FsSpec
from repro.hardware.cluster import ClusterSpec
from repro.mpi.world import World
from repro.obs.metrics import MetricsRegistry
from repro.obs.span import SpanRecorder
from repro.specbase import SpecBase

__all__ = [
    "CollectiveWriteResult",
    "RunSpec",
    "build_plan",
    "collective_write",
    "default_data",
    "run_collective_write",
]


def default_data(rank: int, nbytes: int) -> np.ndarray:
    """Deterministic, rank-distinguishable payload bytes.

    Byte ``i`` is ``(i * 31 + rank * 65537) % 251``.  Because 31 and 251
    are coprime, the sequence over ``i`` is periodic with period 251, so
    it is materialized by tiling one precomputed period instead of
    running the modular arithmetic over a full-length ``int64`` arange
    (which cost two transient ``8 * nbytes`` arrays per rank and
    dominated payload-carrying benchmark runs).
    """
    period = ((np.arange(251, dtype=np.int64) * 31 + rank * 65537) % 251).astype(np.uint8)
    reps = -(-nbytes // 251)  # ceil
    return np.tile(period, reps)[:nbytes]


@dataclass(frozen=True)
class RunSpec(SpecBase):
    """Complete description of one simulated collective write.

    Groups the scenario (cluster, file system, ranks, views), the
    algorithm choice, fault/retry behaviour and observability options
    that used to travel as ~16 loose keyword arguments.  Frozen so specs
    can be shared, cached and varied safely with :meth:`replace`, and a
    :class:`~repro.specbase.SpecBase`, so it serializes
    (``to_dict``/``to_json``) and hashes canonically (``spec_sha256``).
    A prebuilt ``plan`` is derived state and is not serialized.
    """

    _transient: ClassVar[frozenset[str]] = frozenset({"plan"})

    cluster: ClusterSpec
    fs: FsSpec
    nprocs: int
    views: dict[int, FileView]
    data_factory: Callable[[int, int], np.ndarray] = default_data
    algorithm: str = "write_overlap"
    shuffle: str = "two_sided"
    config: CollectiveConfig | None = None
    #: Shorthand for ``config.with_(two_layer=...)``: two-layer intra-node
    #: aggregation (True/False/"auto"); None keeps the config's setting.
    two_layer: bool | str | None = None
    seed: int = DEFAULT_SEED
    verify: bool = False
    #: False = size-only mode (identical timing, no payload bytes move).
    carry_data: bool = True
    plan: TwoPhasePlan | None = None
    path: str = "/collective.out"
    faults: FaultSpec | None = None
    #: Shorthand for ``config.with_(retry=...)``.
    retry: RetryPolicy | None = None
    #: Shorthand for ``config.with_(staging=...)``: the node-local
    #: burst-buffer tier (a :class:`~repro.staging.spec.StagingSpec`);
    #: None keeps the config's setting.
    staging: Any = None
    #: Tunables of the crash-recovery loop (a
    #: :class:`~repro.recovery.spec.RecoverySpec`); only consulted when
    #: ``faults`` has crash-class rates.  ``None`` = defaults.  Typed
    #: loosely because collio must not import the recovery layer above it.
    recovery: Any = None
    auto_cache_dir: str | None = None
    #: Record span timelines (exportable as a Chrome trace; see repro.obs).
    trace: bool = False
    #: Ring-buffer bound for trace records/spans (None = unbounded).
    max_trace_records: int | None = None

    def validate(self) -> "RunSpec":
        """Check cross-field consistency; returns self for chaining."""
        if self.nprocs < 1:
            raise ConfigurationError(f"nprocs must be >= 1, got {self.nprocs}")
        if set(self.views) != set(range(self.nprocs)):
            raise ConfigurationError("views must cover exactly ranks 0..nprocs-1")
        if self.algorithm != "auto" and self.algorithm not in ALGORITHMS:
            raise ConfigurationError(
                f"unknown algorithm {self.algorithm!r}; "
                f"known: {sorted(ALGORITHMS)} or 'auto'"
            )
        if self.shuffle not in SHUFFLE_PRIMITIVES:
            raise ConfigurationError(
                f"unknown shuffle {self.shuffle!r}; known: {sorted(SHUFFLE_PRIMITIVES)}"
            )
        if self.two_layer not in (None, True, False, "auto"):
            raise ConfigurationError(
                f"two_layer must be True, False, 'auto' or None, got {self.two_layer!r}"
            )
        if self.staging is not None:
            from repro.staging.spec import StagingSpec  # local: layering

            if not isinstance(self.staging, StagingSpec):
                raise ConfigurationError(
                    f"staging must be a StagingSpec or None, "
                    f"got {type(self.staging).__name__}"
                )
        if self.recovery is not None:
            from repro.recovery.spec import RecoverySpec  # local: layering

            if not isinstance(self.recovery, RecoverySpec):
                raise ConfigurationError(
                    f"recovery must be a RecoverySpec or None, "
                    f"got {type(self.recovery).__name__}"
                )
        config = self.config or CollectiveConfig()
        if (self.verify or config.verify) and not self.carry_data:
            raise ConfigurationError("verify=True requires carry_data=True")
        if (
            config.integrity is not None
            and config.integrity.enabled
            and not self.carry_data
        ):
            raise ConfigurationError(
                "integrity checking requires carry_data=True "
                "(checksums need real payload bytes)"
            )
        if self.max_trace_records is not None and self.max_trace_records < 1:
            raise ConfigurationError(
                f"max_trace_records must be >= 1 or None, got {self.max_trace_records}"
            )
        return self

    def replace(self, **overrides: Any) -> "RunSpec":
        """A copy with the given fields replaced (the spec is frozen)."""
        return replace(self, **overrides)

    def resolved_config(self) -> CollectiveConfig:
        """The effective config: defaults applied, shorthands folded in."""
        config = self.config or CollectiveConfig()
        if self.retry is not None:
            config = config.with_(retry=self.retry)
        if self.two_layer is not None:
            config = config.with_(two_layer=self.two_layer)
        if self.staging is not None:
            config = config.with_(staging=self.staging)
        return config

    def payloads(self) -> dict[int, np.ndarray | None]:
        """Each rank's payload buffer (None per rank in size-only mode)."""
        return {
            r: self.data_factory(r, self.views[r].total_bytes) if self.carry_data else None
            for r in range(self.nprocs)
        }


def build_plan(
    cluster,
    nprocs: int,
    views: dict[int, FileView],
    config: CollectiveConfig,
    cycle_bytes: int,
    stripe_size: int | None = None,
    exclude_ranks: frozenset[int] = frozenset(),
    two_layer: bool | str | None = None,
) -> TwoPhasePlan:
    """Select aggregators, partition domains and schedule all cycles.

    ``cluster`` is a :class:`~repro.hardware.cluster.Cluster` (only its
    rank placement is used, so a throwaway instance works); the plan is a
    pure data object reusable across repeated runs of the same case.
    ``exclude_ranks`` bars ranks from aggregator duty (crashed ranks
    during recovery failover) without removing them as data senders; it
    equally bars them from intra-node leadership when the plan is
    two-layer.  ``two_layer`` overrides ``config.two_layer`` (None keeps
    it); ``"auto"`` resolves to enabled when the run places at least two
    ranks per used node, where the inter-node message-count win exists.
    Two-layer runs return a :class:`~repro.collio.plan.TwoLayerPlan`.

    Results are served from a process-local content-hash cache (see
    :func:`repro.collio.plan.plan_content_key`): repeated runs and
    tuning trials with identical ingredients skip the partitioning pass
    entirely.
    """
    placement = tuple(cluster.node_of_rank(r) for r in range(nprocs))
    cache_key = plan_content_key(
        views,
        nprocs=nprocs,
        cycle_bytes=int(cycle_bytes),
        stripe_size=stripe_size,
        exclude_ranks=tuple(sorted(exclude_ranks)),
        two_layer=two_layer,
        config=config.cache_key(),
        placement=placement,
    )
    cached = cached_plan(cache_key)
    if cached is not None:
        return cached
    total_bytes = sum(v.total_bytes for v in views.values())
    aggregators = select_aggregators(
        cluster,
        nprocs,
        total_bytes,
        config.cb_buffer_size,
        num_aggregators=config.num_aggregators,
        exclude=exclude_ranks,
    )
    starts = [v.file_range[0] for v in views.values() if v.num_extents]
    ends = [v.file_range[1] for v in views.values() if v.num_extents]
    lo = min(starts) if starts else 0
    hi = max(ends) if ends else 0
    stripe = stripe_size if config.stripe_align_domains else None
    domains = partition_domains(lo, hi, len(aggregators), stripe_size=stripe)
    if two_layer is None:
        two_layer = config.two_layer
    if two_layer == "auto":
        nodes_used = {cluster.node_of_rank(r) for r in range(nprocs)}
        two_layer = nprocs >= 2 * len(nodes_used)
    if two_layer:
        leader_of_rank = elect_leaders(cluster, nprocs, exclude=exclude_ranks)
        plan = TwoLayerPlan.build_two_layer(
            views, aggregators, domains, cycle_bytes, leader_of_rank
        )
    else:
        plan = TwoPhasePlan.build(views, aggregators, domains, cycle_bytes)
    store_plan(cache_key, plan)
    return plan


def collective_write(
    mpi,
    fh,
    view: FileView,
    data: np.ndarray,
    plan: TwoPhasePlan,
    algorithm: str = "write_overlap",
    shuffle: str = "two_sided",
    config: CollectiveConfig | None = None,
    exchange_metadata: bool = True,
):
    """Per-rank collective write (generator; run on **every** rank).

    Returns the rank's :class:`~repro.collio.context.PhaseStats`.
    ``exchange_metadata=False`` skips the planning allgather when the
    caller already performed it (e.g. ``MPIFile.write_all``).
    """
    config = config or CollectiveConfig()
    algo = make_algorithm(algorithm)
    engine = make_shuffle(shuffle)
    if isinstance(plan, TwoLayerPlan):
        engine = TwoLayerShuffle(engine)
    if config.staging is not None and config.staging.enabled:
        # First rank in creates the world's tier; peers reuse it (the
        # same get-or-create pattern ``world.journal`` follows).
        from repro.staging.tier import StagingTier  # local: layering

        StagingTier.ensure(mpi.world, config.staging)
    if config.integrity is not None and config.integrity.enabled:
        from repro.integrity.layer import IntegrityLayer  # local: layering

        IntegrityLayer.ensure(mpi.world, config.integrity)
    ctx = AlgoContext(mpi, fh, plan, view, data, config, nsub=algo.nsub)
    # Planning phase: exchange view metadata (cost model; the plan itself
    # is precomputed deterministically, as every rank would compute the
    # same partitioning from the gathered metadata).
    if exchange_metadata:
        yield from mpi.allgather(None, nbytes=view.num_extents * config.meta_bytes_per_extent)
    yield from engine.setup(ctx)
    t0 = mpi.now
    algo_span = ctx.recorder.begin(
        t0, algorithm, "algo", rank=mpi.rank, shuffle=shuffle,
        cycles=plan.num_cycles,
    )
    yield from algo.run(ctx, engine)
    yield from ctx.staging_flush()
    yield from ctx.integrity_scrub()
    ctx.stats.add_time("total", mpi.now - t0)
    yield from mpi.barrier()
    ctx.recorder.end(algo_span, mpi.now)
    ctx.stats.add_time("total_with_barrier", mpi.now - t0)
    return ctx.stats


@dataclass
class CollectiveWriteResult:
    """Outcome of one simulated collective write."""

    algorithm: str
    shuffle: str
    nprocs: int
    num_aggregators: int
    num_cycles: int
    cycle_bytes: int
    total_bytes: int
    #: End-to-end simulated wall time of the collective write, seconds.
    elapsed: float
    #: Effective write bandwidth (total bytes / elapsed), bytes/s.
    write_bandwidth: float
    per_rank_stats: list = field(default_factory=list)
    verified: bool | None = None
    #: SHA-256 of the actual file bytes read back from the simulated PFS
    #: (set by verification runs; None when ``verify`` was off).
    file_sha256: str | None = None
    #: Closed spans recorded during the run (``RunSpec(trace=True)`` only).
    spans: list = field(default_factory=list, repr=False)
    #: :meth:`MetricsRegistry.snapshot` of the run's metrics — the one
    #: channel for counters (tracer ``fault.*``/``retry.*``/protocol
    #: counts, engine, fs, comm, bufpool, staging, integrity, recovery,
    #: tune), gauges and span-duration histograms; names follow the
    #: prefix schema in DESIGN.md.
    metrics: dict = field(default_factory=dict, repr=False)
    #: :class:`~repro.recovery.report.RecoveryReport` when the run went
    #: through the crash-recovery manager; None for plain runs.
    recovery: Any = None
    #: :meth:`repro.integrity.layer.IntegrityLayer.snapshot` when the run
    #: checksummed its datapath (mode, detection/repair counts, scrub
    #: reports); None when integrity was off.
    integrity: Any = None

    def phase_time(self, phase: str, rank: int | None = None) -> float:
        """Max (or one rank's) accumulated time in a phase."""
        if rank is not None:
            return self.per_rank_stats[rank].time_in(phase)
        return max(s.time_in(phase) for s in self.per_rank_stats)

    def overlap_report(self):
        """Overlap analysis of the recorded spans (needs ``trace=True``)."""
        from repro.obs.overlap import overlap_report

        return overlap_report(self.spans)

    def overlap_efficiency(self) -> float:
        """Fraction of write time hidden under in-flight shuffles."""
        return self.overlap_report().efficiency


def run_collective_write(spec: RunSpec, *args: Any, **kwargs: Any) -> CollectiveWriteResult:
    """Build a world, run one collective write, return timing (and verify).

    Takes exactly one :class:`RunSpec`::

        run_collective_write(RunSpec(cluster=..., fs=..., nprocs=..., views=...))

    ``spec.views`` maps every rank to its :class:`FileView`;
    ``spec.data_factory(rank, nbytes)`` produces each rank's payload.
    Anything else (loose arguments, or a spec plus overrides) is a
    ``TypeError``; vary a spec with :meth:`RunSpec.replace`.

    ``carry_data=False`` runs in size-only mode: every transfer and write
    carries only its byte count, producing *identical simulated timing*
    (all time costs derive from the plan's sizes and piece counts) without
    touching the host's memory bus — the mode the large benchmark sweeps
    use.  Verification requires real payloads, so it is incompatible with
    ``verify=True``.

    ``faults`` injects deterministic failures (see
    :class:`~repro.faults.spec.FaultSpec`); ``retry`` wraps the
    file-access phase in a :class:`~repro.faults.retry.RetryPolicy`
    (shorthand for ``config.with_(retry=...)``).  Injection decisions
    draw from seeded streams, so a faulty run is reproducible from
    ``(faults, seed)`` alone.  Crash-class faults route the run through
    :func:`repro.recovery.manager.run_with_recovery`, which loops the
    same attempt; any other run is a single attempt, with no journal, no
    ``attempt<N>`` spans, no ``recovery.*`` metrics and
    ``result.recovery is None``.

    ``algorithm="auto"`` asks the tuner to pick: the candidate overlap
    algorithms are raced once each on these exact views (size-only
    simulations sharing this call's seed) and the winner runs the real
    write.  The returned result reports the *chosen* algorithm, and its
    ``metrics["counters"]`` gain ``tune.auto_select`` /
    ``tune.auto_trials`` (or ``tune.auto_cache_hit`` when
    ``auto_cache_dir`` holds a previously cached decision for this
    workload shape).

    ``trace=True`` records span timelines: the result's ``spans`` feed
    :func:`repro.obs.export.chrome_trace` and
    :meth:`CollectiveWriteResult.overlap_report`.
    """
    if not isinstance(spec, RunSpec) or args or kwargs:
        raise TypeError(
            "run_collective_write() takes exactly one RunSpec and no further "
            "arguments: call run_collective_write(RunSpec(...)) and vary a "
            "spec with RunSpec.replace(...)"
        )
    spec.validate()
    config = spec.resolved_config()
    algorithm = spec.algorithm
    auto_counters: dict | None = None
    if algorithm == "auto":
        # Imported here: repro.tune is a layer *above* collio.
        from repro.tune.api import select_algorithm

        algorithm, auto_counters = select_algorithm(
            spec.cluster, spec.fs, spec.nprocs, spec.views, config=config,
            shuffle=spec.shuffle, seed=spec.seed, cache_dir=spec.auto_cache_dir,
        )
    if spec.faults is not None and spec.faults.has_permanent:
        # Crash-class faults need the restart-from-journal loop, which
        # lives a layer above collio — hence the local import.
        from repro.recovery.manager import run_with_recovery

        return run_with_recovery(spec, algorithm, config, auto_counters)
    payloads = spec.payloads()
    attempt = run_attempt(spec, algorithm, config, spec.views, payloads, plan=spec.plan)
    if attempt.failure is not None:
        raise attempt.failure
    attempt.harvest.count(auto_counters or {})
    return assemble_result(
        spec, config, algorithm, attempt, attempt.harvest, payloads,
        plan=attempt.plan, elapsed=attempt.elapsed, spans=attempt.spans,
    )


#: How a gauge combines when harvests of several attempts are summed;
#: any other gauge keeps the latest attempt's value.
_GAUGE_MERGE: dict[str, Callable[[float, float], float]] = {
    "sim.max_heap_len": max,
    "staging.occupancy_peak": max,
    "fs.bytes_written": operator.add,
}


@dataclass
class Harvest:
    """Counters and gauges read off finished worlds.

    :func:`run_attempt` harvests one world; the recovery manager sums the
    harvests of all its attempts with :meth:`add` (counters add, gauges
    combine per ``_GAUGE_MERGE``), and :func:`assemble_result` turns the
    total into the result's metrics snapshot.
    """

    counters: dict[str, int] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)

    def count(self, counters: Mapping[str, int]) -> None:
        """Add a ``{name: value}`` counter mapping."""
        for name, value in counters.items():
            self.counters[name] = self.counters.get(name, 0) + value

    def add(self, other: "Harvest") -> None:
        """Fold a later attempt's harvest into this one."""
        self.count(other.counters)
        for name, value in other.gauges.items():
            merge = _GAUGE_MERGE.get(name)
            if merge is not None and name in self.gauges:
                value = merge(self.gauges[name], value)
            self.gauges[name] = value


def _harvest(world: World, stats: list | None) -> Harvest:
    """Every producer's counters and gauges from one attempt's world.

    Covers the tracer (``fault.*``, ``retry.*``, ``integrity.*``,
    protocol counters), the engine, the file system, the buffer pools,
    the staging tier and — when the attempt completed and returned its
    per-rank :class:`~repro.collio.context.PhaseStats` — the ``comm.*``
    and ``intranode.*`` message counts.
    """
    harvest = Harvest()
    harvest.count(world.cluster.tracer.counters)
    targets = world.pfs.targets
    harvest.count({
        "sim.events_processed": world.engine.events_processed,
        "fs.writes_failed": sum(t.writes_failed for t in targets),
        "fs.writes_rejected": sum(t.writes_rejected for t in targets),
    })
    harvest.count(world.buffer_pool_counters())
    harvest.gauges.update({
        "sim.max_heap_len": world.engine.max_heap_len,
        "fs.bytes_written": world.pfs.bytes_written,
        "fs.targets_down": sum(1 for t in targets if t.down),
    })
    if stats is not None:
        def per_rank(name: str) -> int:
            return sum(s.counters.get(name, 0) for s in stats)

        harvest.count({
            "comm.messages_inter_node": per_rank("messages_inter_node"),
            "comm.messages_intra_node": per_rank("messages_intra_node"),
        })
        if per_rank("gather_messages"):
            harvest.count({
                "intranode.gather_messages": per_rank("gather_messages"),
                "intranode.gather_bytes": per_rank("gather_bytes"),
                "intranode.leader_local_copies": per_rank("gather_local_copies"),
            })
    tier = world.staging
    if tier is not None:
        harvest.count(tier.counter_totals())
        harvest.gauges.update({
            "staging.occupancy_peak": tier.occupancy_peak(),
            "staging.capacity": tier.spec.capacity,
            "staging.undrained_bytes": tier.undrained_bytes(),
        })
    return harvest


@dataclass
class Attempt:
    """One world's run of the collective write (see :func:`run_attempt`)."""

    world: World
    plan: TwoPhasePlan
    #: Simulated time the world ran for (to completion or to the failure).
    elapsed: float
    #: Per-rank :class:`~repro.collio.context.PhaseStats`; None on failure.
    stats: list | None
    #: The error that aborted the attempt, or None if it completed.
    failure: BaseException | None
    #: Closed spans on the attempt's own clock (``trace=True`` only).
    spans: list
    harvest: Harvest


def run_attempt(
    spec: RunSpec,
    algorithm: str,
    config: CollectiveConfig,
    views: dict[int, FileView],
    payloads: dict[int, np.ndarray | None],
    plan: TwoPhasePlan | None = None,
    files: dict | None = None,
    **world_state: Any,
) -> Attempt:
    """Build one world, run :func:`collective_write` on every rank, harvest it.

    The one place a collective write executes: a plain run calls it once;
    the recovery manager calls it per attempt with replay ``views``, the
    carried-over durable ``files`` and ``world_state`` (the ``journal``,
    ``crashed_ranks`` and ``down_targets`` :class:`World` arguments).
    ``plan`` is built for ``views`` — barring crashed ranks from
    aggregator duty — unless supplied.  An error the recovery manager
    can act on (:class:`ReproError`, ``ValueError``) is returned in
    :attr:`Attempt.failure` instead of raised, so the failed world is
    still harvested.
    """
    recorder = (
        SpanRecorder(enabled=True, max_records=spec.max_trace_records)
        if spec.trace
        else None
    )
    world = World(
        spec.cluster, spec.nprocs, fs_spec=spec.fs, seed=spec.seed,
        faults=spec.faults, tracer=recorder, **world_state,
    )
    if files is not None:
        world.pfs.adopt_files(files)
    cycle_bytes = make_algorithm(algorithm).cycle_bytes(config.cb_buffer_size)
    if plan is None:
        plan = build_plan(
            world.cluster, spec.nprocs, views, config, cycle_bytes,
            stripe_size=spec.fs.stripe_size, exclude_ranks=world.crashed_ranks,
        )
    elif plan.cycle_bytes != cycle_bytes:
        raise ConfigurationError(
            f"supplied plan has cycle_bytes={plan.cycle_bytes}, but algorithm "
            f"{algorithm!r} needs {cycle_bytes}"
        )
    if spec.carry_data:
        world.pfs.open(spec.path).reserve(plan.file_end)

    def program(mpi):
        fh = yield from mpi.file_open(spec.path)
        stats = yield from collective_write(
            mpi, fh, views[mpi.rank], payloads[mpi.rank], plan,
            algorithm=algorithm, shuffle=spec.shuffle, config=config,
        )
        return stats

    stats = failure = None
    try:
        stats = world.run(program)
    except (ReproError, ValueError) as exc:
        failure = exc
    return Attempt(
        world=world,
        plan=plan,
        elapsed=world.now,
        stats=stats,
        failure=failure,
        spans=recorder.closed_spans() if recorder is not None else [],
        harvest=_harvest(world, stats),
    )


def assemble_result(
    spec: RunSpec,
    config: CollectiveConfig,
    algorithm: str,
    final: Attempt,
    harvest: Harvest,
    payloads: dict[int, np.ndarray | None],
    *,
    plan: TwoPhasePlan,
    elapsed: float,
    spans: list,
    recovery: Any = None,
) -> CollectiveWriteResult:
    """The :class:`CollectiveWriteResult` of a completed run.

    ``final`` is the completed attempt (its world holds the file, its
    per-rank stats and integrity layer are reported); ``harvest`` is the
    run's total (auto-selection, every attempt and, for recovery runs,
    the ``recovery.*`` counters); ``plan``/``elapsed``/``spans`` are the
    run-level values, which differ from ``final``'s under recovery.
    """
    result = CollectiveWriteResult(
        algorithm=algorithm,
        shuffle=spec.shuffle,
        nprocs=spec.nprocs,
        num_aggregators=len(plan.aggregators),
        num_cycles=plan.num_cycles,
        cycle_bytes=plan.cycle_bytes,
        total_bytes=plan.total_bytes,
        elapsed=elapsed,
        write_bandwidth=plan.total_bytes / elapsed if elapsed > 0 else 0.0,
        per_rank_stats=final.stats,
        spans=spans,
        recovery=recovery,
    )
    if final.world.integrity is not None:
        result.integrity = final.world.integrity.snapshot()
    registry = MetricsRegistry()
    registry.merge_counters(harvest.counters)
    for name, value in harvest.gauges.items():
        registry.gauge(name).set(value)
    registry.gauge("run.elapsed").set(result.elapsed)
    registry.gauge("run.write_bandwidth").set(result.write_bandwidth)
    for span in spans:
        registry.histogram(f"span.{span.category}.dur").observe(span.dur)
    result.metrics = registry.snapshot()
    if spec.verify or config.verify:
        result.verified, result.file_sha256 = _verify_file(
            final.world, spec.path, spec.views, payloads
        )
    return result


#: Bytes :func:`_verify_file` checks per step.  One window of expected
#: bytes and its compare mask are all a verify allocates beyond the
#: payloads and the file.
_VERIFY_WINDOW = 8 << 20


def _verify_file(
    world: World,
    path: str,
    views: dict[int, FileView],
    payloads: dict[int, np.ndarray],
) -> tuple[bool, str]:
    """Byte-exact check of the written file against the views' expectation.

    Returns ``(ok, sha256)`` where the hash is of the *actual* file bytes
    read back from the simulated PFS — the identity witness the staging
    acceptance check compares across staging-on/off runs.

    Walks ``[0, size)`` in :data:`_VERIFY_WINDOW` steps: each window's
    expected bytes are scattered from the payloads in view order (a later
    rank wins on overlap), compared against a zero-copy view of the
    stored bytes and fed to the digest, so memory stays at one window
    beyond the payloads and the file.
    """
    ends = [v.file_range[1] for v in views.values() if v.num_extents]
    size = max(ends) if ends else 0
    simfile = world.pfs.open(path)
    digest = hashlib.sha256()
    wrong = 0
    first_bad = None
    for lo in range(0, size, _VERIFY_WINDOW):
        hi = min(lo + _VERIFY_WINDOW, size)
        expected = np.zeros(hi - lo, dtype=np.uint8)
        for rank, view in views.items():
            data = payloads[rank]
            offs, lens, locs = view.clip(lo, hi)
            for off, ln, loc in zip(offs.tolist(), lens.tolist(), locs.tolist()):
                expected[off - lo : off - lo + ln] = data[loc : loc + ln]
        actual = simfile.view(lo, hi - lo)
        if len(actual) < hi - lo:  # the file ends inside this window: zeros
            actual = np.concatenate([actual, np.zeros(hi - lo - len(actual), np.uint8)])
        digest.update(actual)
        diff = actual != expected
        nbad = int(np.count_nonzero(diff))
        if nbad:
            wrong += nbad
            if first_bad is None:
                first_bad = lo + int(diff.argmax())
    if wrong:
        raise AssertionError(
            f"collective write corrupted the file: {wrong} wrong bytes, "
            f"first at offset {first_bad}"
        )
    return True, digest.hexdigest()
