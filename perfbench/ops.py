"""The benchmark's inputs: each workload's simulated operations, from a seed.

A workload is a fixed list of :class:`Op` — one simulated collective
write or read each — that the worker issues in a closed loop.  The seed
is the only source of variation: it draws every op's simulation seed
(network/storage noise and the fault schedules), the payload pattern and
the IOR block-slot permutation of ``resilient_staged``.  Sizes,
rank counts and the op mix do not depend on the seed, so the host cost
of one pass stays comparable across seeds while the simulated outputs
(and so the pins) differ.

The program under test receives only what is built here: ``RunSpec``
objects for writes and the keyword arguments of ``run_collective_read``
for reads.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.api import (
    CollectiveConfig,
    IntegritySpec,
    RunSpec,
    beegfs_crill,
    beegfs_ibex,
    build_plan,
    crill,
    default_data,
    ibex,
    make_workload,
    nvme_staging,
)
from repro.collio.overlap import ALGORITHMS, make_algorithm
from repro.collio.read import READ_ALGORITHMS
from repro.faults.presets import fault_preset
from repro.hardware.cluster import Cluster
from repro.sim.engine import Engine
from repro.units import KiB, MiB, MS

__all__ = ["WORKLOADS", "Op", "build_ops", "prebuild_plans", "input_fingerprint"]

WORKLOADS = ("sweep_sizeonly", "checkpoint_verified", "resilient_staged")

#: Data-size divisor of every spec (the repository default).
SCALE = 64

#: The paper's four benchmarks at sizes that keep one size-only op in the
#: tens of milliseconds (the campaign "quick" regime, shrunk further).
_SWEEP_SIZES: dict[str, dict] = {
    "ior": {"block_size": 1 * MiB},
    "tile_1m": {"element_size": 2048},
    "tile_256": {"rows": 64, "row_elements": 16},
    "flash": {},
}
_SWEEP_NPROCS = 24
#: (algorithm, shuffle) series of every matrix case: all five overlap
#: algorithms two-sided, plus the paper's one-sided variants of Write-Comm-2.
_SWEEP_SERIES = tuple((a, "two_sided") for a in sorted(ALGORITHMS)) + (
    ("write_comm2", "one_sided_fence"),
    ("write_comm2", "one_sided_lock"),
)
#: The rank-ladder op: enough ranks that per-rank costs growing faster
#: than the rank count show.
_LADDER_NPROCS = 256

#: Payload workloads: 16 ranks on crill's fabric, 4 ranks per node, so a
#: run spans 4 nodes (inter-node traffic, several staging buffers and
#: intra-node leaders).
_PAYLOAD_NPROCS = 16
_CORES_PER_NODE = 4

#: Checkpoints keep IOR's sequential layout: with random block slots the
#: order in which the simulated file grows, and so the workload's peak
#: RSS, would change with the seed.
_CHECKPOINT_SIZES: dict[str, dict] = {
    "ior": {"block_size": 4 * MiB},
    "flash": {},
    "tile_256": {"rows": 256, "row_elements": 16},
}
_RESILIENT_SIZES: dict[str, dict] = {
    "ior": {"block_size": 1 * MiB, "segment_count": 2, "random_offsets": True},
    "flash": {},
    "tile_256": {"rows": 128, "row_elements": 16},
}
#: Staging capacity per node, small enough that watermark drains and
#: back-pressure stalls happen within one write.
_STAGING_CAPACITY = 512 * KiB
#: Crash window of the flaky_aggregator preset per case: about 80% of
#: the fault-free simulated elapsed, so crashes land inside the write
#: (the preset's own window suits test-sized runs only).
_CRASH_WINDOW = {"ior": 18 * MS, "flash": 1.4 * MS, "tile_256": 4.7 * MS}


class SeededData:
    """``data_factory`` that shifts ``default_data``'s pattern by the seed.

    Each call is recorded as a ``data_factory`` span, so payload
    generation shows as its own layer in the benchmark's timeline.
    """

    def __init__(self, shift: int, recorder) -> None:
        self.shift = shift
        self.recorder = recorder

    def __call__(self, rank: int, nbytes: int) -> np.ndarray:
        with self.recorder.span("data_factory", "payload", data_rank=rank, nbytes=nbytes):
            data = default_data(rank + self.shift, nbytes)
        self.recorder.payload_bytes += int(nbytes)
        return data


@dataclass
class Op:
    """One simulated operation of a workload."""

    name: str
    #: ``"write"`` (``run_collective_write(spec)``) or ``"read"``
    #: (``run_collective_read(**read_args)``).
    kind: str
    spec: RunSpec | None = None
    read_args: dict[str, Any] = field(default_factory=dict)
    #: Export this op's simulated spans through ``chrome_trace`` and
    #: ``overlap_report`` (the op runs with ``trace=True``).
    export: bool = False
    #: Member of an integrity off/detect pair: ``"off"`` or ``"detect"``.
    pair: str | None = None


class _Inputs:
    """Seed-driven draws plus cached, timed view generation."""

    def __init__(self, seed: int, recorder) -> None:
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EED]))
        self.recorder = recorder
        self.data = SeededData(int(self.rng.integers(0, 251)), recorder)
        self._cases: dict[tuple, tuple[dict, CollectiveConfig]] = {}

    def sim_seed(self) -> int:
        return int(self.rng.integers(0, 2**31 - 1))

    def case(self, name: str, nprocs: int, **kwargs) -> tuple[dict, CollectiveConfig]:
        """Views of one benchmark case and its base collective config."""
        if name == "ior" and kwargs.get("random_offsets"):
            kwargs["random_seed"] = int(self.rng.integers(0, 2**31 - 1))
        key = (name, nprocs, tuple(sorted(kwargs.items())))
        if key not in self._cases:
            with self.recorder.span("views", "workloads", workload=name, nprocs=nprocs):
                workload = make_workload(name, nprocs, scale=SCALE, **kwargs)
                views = workload.views()
            config = CollectiveConfig.for_scale(
                SCALE, extent_cost_factor=workload.extent_cost_factor
            )
            self._cases[key] = (views, config)
        return self._cases[key]


def _sweep(inp: _Inputs) -> list[Op]:
    ops: list[Op] = []
    platforms = (("crill", crill, beegfs_crill), ("ibex", ibex, beegfs_ibex))
    n = _SWEEP_NPROCS
    for bench, sizes in _SWEEP_SIZES.items():
        views, config = inp.case(bench, n, **sizes)
        for label, cluster, fs in platforms:
            for algorithm, shuffle in _SWEEP_SERIES:
                ops.append(Op(
                    f"{bench}@{label}/{algorithm}/{shuffle}", "write",
                    RunSpec(cluster=cluster(SCALE), fs=fs(SCALE), nprocs=n, views=views,
                            algorithm=algorithm, shuffle=shuffle, config=config,
                            seed=inp.sim_seed(), carry_data=False),
                ))
    views, config = inp.case("tile_1m", n, **_SWEEP_SIZES["tile_1m"])
    ops.append(Op(
        "tile_1m@ibex/auto/two_sided", "write",
        RunSpec(cluster=ibex(SCALE), fs=beegfs_ibex(SCALE), nprocs=n, views=views,
                algorithm="auto", config=config, seed=inp.sim_seed(), carry_data=False),
    ))
    n = _LADDER_NPROCS
    views, config = inp.case("ior", n, **_SWEEP_SIZES["ior"])
    ops.append(Op(
        f"ior@crill-P{n}/write_comm2/two_sided", "write",
        RunSpec(cluster=crill(SCALE), fs=beegfs_crill(SCALE), nprocs=n, views=views,
                algorithm="write_comm2", config=config, seed=inp.sim_seed(),
                carry_data=False),
    ))
    return ops


def _payload_platform():
    cluster = dataclasses.replace(crill(SCALE), cores_per_node=_CORES_PER_NODE)
    return cluster, beegfs_crill(SCALE)


def _checkpoint(inp: _Inputs) -> list[Op]:
    ops: list[Op] = []
    cluster, fs = _payload_platform()
    n = _PAYLOAD_NPROCS
    for bench, sizes in _CHECKPOINT_SIZES.items():
        views, config = inp.case(bench, n, **sizes)
        seed = inp.sim_seed()
        for mode in ("off", "detect"):
            ops.append(Op(
                f"{bench}/write/{mode}", "write",
                RunSpec(cluster=cluster, fs=fs, nprocs=n, views=views,
                        data_factory=inp.data, algorithm="write_comm2",
                        config=config.with_(integrity=IntegritySpec(mode=mode)),
                        seed=seed, verify=True),
                pair=mode,
            ))
        ops.append(Op(
            f"{bench}/read", "read",
            read_args=dict(cluster_spec=cluster, fs_spec=fs, nprocs=n, views=views,
                           data_factory=inp.data, algorithm="read_ahead",
                           config=config, seed=seed, verify=True),
        ))
    return ops


def _resilient(inp: _Inputs) -> list[Op]:
    ops: list[Op] = []
    cluster, fs = _payload_platform()
    n = _PAYLOAD_NPROCS
    staging = nvme_staging(SCALE, policy="watermark", capacity=_STAGING_CAPACITY)
    for bench, sizes in _RESILIENT_SIZES.items():
        views, config = inp.case(bench, n, **sizes)
        base = RunSpec(cluster=cluster, fs=fs, nprocs=n, views=views,
                       data_factory=inp.data, algorithm="write_comm2", verify=True)
        staged = config.with_(two_layer=True, staging=staging)
        ops.append(Op(f"{bench}/staged_two_layer", "write",
                      base.replace(config=staged, seed=inp.sim_seed())))
        ops.append(Op(
            f"{bench}/repair/bitrot_cluster", "write",
            base.replace(config=staged.with_(integrity=IntegritySpec(mode="repair")),
                         faults=fault_preset("bitrot_cluster"), seed=inp.sim_seed()),
        ))
        crash = fault_preset("flaky_aggregator").with_(crash_window=_CRASH_WINDOW[bench])
        ops.append(Op(f"{bench}/recovery/flaky_aggregator", "write",
                      base.replace(config=config, faults=crash, seed=inp.sim_seed())))
    views, config = inp.case("ior", n, **_RESILIENT_SIZES["ior"])
    ops.append(Op(
        "ior/staged_two_layer/traced", "write",
        RunSpec(cluster=cluster, fs=fs, nprocs=n, views=views, data_factory=inp.data,
                algorithm="write_comm2", verify=True, trace=True, seed=inp.sim_seed(),
                config=config.with_(two_layer=True, staging=staging)),
        export=True,
    ))
    return ops


_BUILDERS = {
    "sweep_sizeonly": _sweep,
    "checkpoint_verified": _checkpoint,
    "resilient_staged": _resilient,
}


def build_ops(workload: str, seed: int, recorder) -> list[Op]:
    """The ops of ``workload`` for ``seed`` (views generated here, timed)."""
    try:
        builder = _BUILDERS[workload]
    except KeyError:
        raise ValueError(f"unknown workload {workload!r}; known: {list(WORKLOADS)}") from None
    return builder(_Inputs(seed, recorder))


def _plan_args(op: Op) -> list[tuple]:
    """The ``build_plan`` calls the op itself will make on its first attempt."""
    if op.kind == "read":
        args = op.read_args
        config = args["config"]
        cycle = max(1, config.cb_buffer_size // READ_ALGORITHMS[args["algorithm"]]().nsub)
        return [(args["cluster_spec"], args["nprocs"], args["views"], config, cycle,
                 args["fs_spec"].stripe_size, False)]
    spec = op.spec
    config = spec.resolved_config()
    names = sorted(ALGORITHMS) if spec.algorithm == "auto" else [spec.algorithm]
    cycles = {make_algorithm(a).cycle_bytes(config.cb_buffer_size) for a in names}
    return [(spec.cluster, spec.nprocs, spec.views, config, c, spec.fs.stripe_size, None)
            for c in sorted(cycles)]


def prebuild_plans(ops: list[Op], recorder) -> None:
    """Cold ``build_plan`` for every case, so the timed ops hit the cache."""
    seen: set[tuple] = set()
    for op in ops:
        for cluster, nprocs, views, config, cycle, stripe, two_layer in _plan_args(op):
            key = (id(views), cluster, repr(config), cycle, two_layer)
            if key in seen:
                continue
            seen.add(key)
            placement = Cluster(Engine(), cluster)
            with recorder.span("build_plan", "collio", op=op.name):
                build_plan(placement, nprocs, views, config, cycle,
                           stripe_size=stripe, two_layer=two_layer)


def input_fingerprint(ops: list[Op]) -> list[tuple]:
    """Plain-data summary of the inputs (names, seeds, view extents, payload)."""
    out = []
    for op in ops:
        if op.kind == "write":
            spec = op.spec
            views, seed, data = spec.views, spec.seed, spec.data_factory
        else:
            args = op.read_args
            views, seed, data = args["views"], args["seed"], args["data_factory"]
        extents = tuple(
            (r, tuple(v.offsets.tolist()), tuple(v.lengths.tolist()))
            for r, v in sorted(views.items())
        )
        out.append((op.name, seed, getattr(data, "shift", None), hash(extents)))
    return out
