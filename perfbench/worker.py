"""One workload in one fresh process: set up, run, check every op, report.

``run.py`` starts this script once per workload — and, for a traced run,
once more with ``--mode trace`` — one process at a time, so each
process's peak RSS belongs to one workload alone.  Modes:

``measure``
    set up five times (the median is reported), then run whole passes
    over the workload's ops until ``--seconds`` have elapsed.  Host
    times are calibrated to a reference speed (:func:`_calibrate`).  No
    profiler, no tracemalloc.
``trace``
    set up once and run one pass under ``cProfile`` and ``tracemalloc``;
    writes the benchmark-side spans as a Chrome trace (``--trace-out``).
``record``
    set up once, run two passes, require them to agree, and store the
    simulated outputs as the pins of ``--seed`` in ``--pins``.

Every op is checked: it must not raise, must pass its own verification
(``verify=True`` byte checks, completed recovery, a valid exported trace)
and must reproduce its pin when the seed has one.  The last line of
standard output is one JSON object with the process's results.
"""

from __future__ import annotations

import argparse
import cProfile
import ctypes
import gc
import json
import pstats
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

try:  # glibc: hand freed heap memory back to the OS between ops
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes = [ctypes.c_size_t]
    _malloc_trim.restype = ctypes.c_int
except AttributeError:
    _malloc_trim = None

#: The simulated outputs pinned per op and seed.
PIN_FIELDS = ("elapsed", "events", "cycles", "sha256", "attempts", "detected", "repaired")
#: Per-op counts that take the maximum over a pass; the others are summed.
_COUNT_MAX = ("max_heap_len", "staging_occupancy_peak")
#: Set-up repetitions in measure mode; the median is reported.
SETUP_REPS = 5
#: Iterations of the calibration loop (about 2 ms).
_CAL_ITERS = 20_000
#: Reference time of the calibration loop: host times are reported as if
#: the loop had taken this long around them (see :func:`_calibrate`).
CAL_REF_S = 0.002


def _calibrate() -> float:
    """Seconds a fixed pure-Python loop takes right now.

    The host's speed drifts by up to ~30% over seconds (its cores are
    shared).  Scaling an interval by ``CAL_REF_S`` / (the loop's time
    around it) reports the interval at a fixed reference speed.  On
    ``sweep_sizeonly`` this cut the range of ``ops_per_s`` over eight
    seeds from 31% to 9% of the median.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(_CAL_ITERS):
        acc += i * i % 97
    return time.perf_counter() - t0


def _counts(result) -> dict[str, int]:
    """Layer counts of one write result, from its own metrics/integrity/recovery."""
    counters = result.metrics.get("counters", {})
    gauges = result.metrics.get("gauges", {})
    integrity = result.integrity or {}
    checksums = integrity.get("counters", {})
    recovery = result.recovery
    return {
        "events": counters.get("sim.events_processed", 0),
        "max_heap_len": gauges.get("sim.max_heap_len", 0),
        "messages_inter_node": counters.get("comm.messages_inter_node", 0),
        "messages_intra_node": counters.get("comm.messages_intra_node", 0),
        "send_rendezvous": counters.get("send.rendezvous", 0),
        "progress_deferred": counters.get("progress.deferred", 0),
        "fs_bytes_written": gauges.get("fs.bytes_written", 0),
        "bufpool_takes": counters.get("bufpool.takes", 0),
        "bufpool_hits": counters.get("bufpool.hits", 0),
        "bufpool_bytes_allocated": counters.get("bufpool.bytes_allocated", 0),
        "checksum_computed": checksums.get("integrity.checksum_computed", 0),
        "checksum_reused": checksums.get("integrity.checksum_reused", 0),
        "detected": integrity.get("detected", 0),
        "repaired": integrity.get("repaired", 0),
        "staging_absorbed_bytes": counters.get("staging.absorbed_bytes", 0),
        "staging_stalls": counters.get("staging.stalls", 0),
        "staging_occupancy_peak": gauges.get("staging.occupancy_peak", 0),
        "gather_messages": counters.get("intranode.gather_messages", 0),
        "recovery_ops": int(recovery is not None),
        "recovery_attempts": recovery.attempts if recovery is not None else 0,
        "recovery_replayed_bytes": recovery.replayed_bytes if recovery is not None else 0,
        "recovery_total_bytes": result.total_bytes if recovery is not None else 0,
        "spans": len(result.spans),
    }


class Runner:
    """Executes ops in a closed loop and checks each one."""

    def __init__(self, api, recorder, pins: dict | None, mem: bool = False) -> None:
        self.api = api
        self.rec = recorder
        #: op name -> pin of this seed; None when the seed is unrecorded.
        self.pins = pins
        self.mem = mem
        self.attempted = 0
        #: Objects the between-op garbage collection freed.
        self.garbage = 0
        #: Latest calibration loop time (see :func:`_calibrate`).
        self.cal = _calibrate()
        self.failures: list[str] = []
        #: op name -> pin observed on the op's latest run.
        self.observed: dict[str, dict] = {}

    def run(self, op) -> dict | None:
        """Run one op; returns its record, or None when it failed.

        After the op, outside its timed interval, its cyclic garbage is
        collected and freed heap memory is returned to the OS, so no op's
        memory is counted against the next one and each op pays for its
        own pages.
        The record's ``scale`` converts its host times to the reference
        speed, from the calibration loops just before and after it.
        """
        self.attempted += 1
        if self.mem:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        t0 = time.perf_counter()
        try:
            record = self._execute(op)
            record["mem_peak"] = tracemalloc.get_traced_memory()[1] - base if self.mem else 0
            self.observed[op.name] = record["pin"]
            problem = self._check(op, record)
        except Exception as exc:  # an op that raises is a failed op, not a crashed benchmark
            traceback.print_exc(file=sys.stderr)
            record, problem = None, f"raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        self.garbage += gc.collect()
        if _malloc_trim is not None:
            _malloc_trim(0)
        cal = _calibrate()
        scale = CAL_REF_S / ((self.cal + cal) / 2)
        self.cal = cal
        if problem:
            return self._fail(op, problem)
        record["wall"] = wall
        record["scale"] = scale
        return record

    def _fail(self, op, reason: str) -> None:
        self.failures.append(f"{op.name}: {reason}")
        print(f"FAIL {op.name}: {reason}", file=sys.stderr, flush=True)
        return None

    def _execute(self, op) -> dict:
        api, rec = self.api, self.rec
        if op.kind == "read":
            with rec.span("run_collective_read", "collio", op=op.name) as span:
                result = api.run_collective_read(**op.read_args)
            return {
                "name": op.name, "kind": "read", "pair": None, "call_s": span.dur,
                "bytes": result.total_bytes, "elapsed": result.elapsed,
                "verified": result.verified, "complete": True, "trace_ok": True,
                "counts": {},
                "pin": dict.fromkeys(PIN_FIELDS) | {
                    "elapsed": repr(result.elapsed), "cycles": result.num_cycles,
                },
            }
        with rec.span("run_collective_write", "collio", op=op.name) as span:
            result = api.run_collective_write(op.spec)
        trace_ok = True
        if op.export:
            with rec.span("chrome_trace", "obs", op=op.name):
                trace = api.chrome_trace(result.spans)
            with rec.span("overlap_report", "obs", op=op.name):
                api.overlap_report(result.spans)
            trace_ok = api.validate_chrome_trace(trace) > 0
        counts = _counts(result)
        return {
            "name": op.name, "kind": "write", "pair": op.pair, "call_s": span.dur,
            "bytes": result.total_bytes, "elapsed": result.elapsed,
            "verified": result.verified if op.spec.verify else True,
            "complete": result.recovery is None or result.recovery.completed,
            "trace_ok": trace_ok, "counts": counts,
            "pin": {
                "elapsed": repr(result.elapsed),
                "events": counts["events"],
                "cycles": result.num_cycles,
                "sha256": result.file_sha256,
                "attempts": result.recovery.attempts if result.recovery else None,
                "detected": result.integrity["detected"] if result.integrity else None,
                "repaired": result.integrity["repaired"] if result.integrity else None,
            },
        }

    def _check(self, op, record: dict) -> str | None:
        if record["verified"] is not True:
            return "verification did not pass"
        if not record["complete"]:
            return "recovery left the write incomplete"
        if not record["trace_ok"]:
            return "exported trace is empty"
        if self.pins is None:
            return None
        expected = self.pins.get(op.name)
        if expected is None:
            return "no pin recorded for this op"
        diffs = [
            f"{key} pinned {expected.get(key)!r}, got {record['pin'][key]!r}"
            for key in PIN_FIELDS
            if expected.get(key) != record["pin"][key]
        ]
        return "pin mismatch: " + "; ".join(diffs) if diffs else None


def _pass_order(ops: list, index: int) -> list:
    """The ops of pass ``index``: integrity off/detect pairs swap order on odd passes."""
    if index % 2 == 0:
        return ops
    out = list(ops)
    for i in range(len(out) - 1):
        if out[i].pair == "off" and out[i + 1].pair == "detect":
            out[i], out[i + 1] = out[i + 1], out[i]
    return out


def _sum_counts(records: list[dict]) -> dict[str, int]:
    totals: dict[str, int] = {}
    for record in records:
        for key, value in record["counts"].items():
            if key in _COUNT_MAX:
                totals[key] = max(totals.get(key, 0), value)
            else:
                totals[key] = totals.get(key, 0) + value
    return totals


def _pair_overhead(records: list[dict], key: str) -> float | None:
    """detect ÷ off - 1 over the integrity pairs' ``key`` (wall or elapsed)."""
    off = sum(r[key] for r in records if r["pair"] == "off")
    detect = sum(r[key] for r in records if r["pair"] == "detect")
    return detect / off - 1.0 if off > 0 else None


def _median_pass(records: list[dict], calibrated: bool) -> list[dict]:
    """One record per op, with the op's median host times over the window.

    With ``calibrated`` the times are at the reference speed (see
    :func:`_calibrate`); ``raw_wall`` always is as measured.  The median
    over passes also drops an op's outliers.  The simulated fields are
    identical across passes (the pins hold them).
    """
    by_op: dict[str, list[dict]] = {}
    for record in records:
        by_op.setdefault(record["name"], []).append(record)
    typical = []
    for runs in by_op.values():
        scales = [r["scale"] if calibrated else 1.0 for r in runs]
        typical.append(runs[0] | {
            "raw_wall": statistics.median(r["wall"] for r in runs),
            "wall": statistics.median(r["wall"] * f for r, f in zip(runs, scales)),
            "call_s": statistics.median(r["call_s"] * f for r, f in zip(runs, scales)),
        })
    return typical


def _window(runner: Runner, ops: list, seconds: float | None, passes: int | None,
            calibrated: bool = False) -> dict:
    """Run whole passes until ``seconds`` elapsed (or exactly ``passes``).

    Host times are reported for the median pass (see :func:`_median_pass`).
    """
    api, rec = runner.api, runner.rec
    cache0 = api.plan_cache_stats()
    bytes0, garbage0 = rec.payload_bytes, runner.garbage
    since = rec.now()
    t_begin = time.perf_counter()
    records: list[dict] = []
    first_pass: list[dict] = []
    done = 0
    while True:
        for op in _pass_order(ops, done):
            record = runner.run(op)
            if record is not None:
                records.append(record)
        done += 1
        if done == 1:
            first_pass = list(records)
            first_garbage = runner.garbage - garbage0
        if (passes is not None and done >= passes) or (
            passes is None and time.perf_counter() - t_begin >= seconds
        ):
            break
    cache1 = api.plan_cache_stats()
    hits = cache1["hits"] - cache0["hits"]
    lookups = hits + cache1["misses"] - cache0["misses"]
    typical = _median_pass(records, calibrated)
    writes = [r for r in typical if r["kind"] == "write"]
    return {
        "passes": done,
        "ops_ok": len(records),
        "garbage_objects": first_garbage,
        "ops_per_pass": len(typical),
        "pass_s": sum(r["wall"] for r in typical),
        "raw_pass_s": sum(r["raw_wall"] for r in typical),
        "write_call_s": sum(r["call_s"] for r in writes),
        "read_call_s": sum(r["call_s"] for r in typical if r["kind"] == "read"),
        "events": sum(r["counts"]["events"] for r in writes),
        "sim_bytes": sum(r["bytes"] for r in typical),
        "payload_bytes": (rec.payload_bytes - bytes0) / done,
        "data_s": rec.total("data_factory", since) / done,
        "export_s": (rec.total("chrome_trace", since) + rec.total("overlap_report", since)) / done,
        "plan_cache_hit_ratio": hits / lookups if lookups else 0.0,
        "integrity_host_overhead_frac": _pair_overhead(typical, "wall"),
        "integrity_sim_overhead_frac": _pair_overhead(typical, "elapsed"),
        "mem_peak_per_file_byte": max(
            (r["mem_peak"] / r["bytes"] for r in records if r["bytes"]),
            default=0.0,
        ),
        "counts": _sum_counts(first_pass),
    }


def _load_pins(path: Path, seed: int) -> dict | None:
    if not path.exists():
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get("seeds", {}).get(str(seed))


def _store_pins(path: Path, seed: int, pins: dict) -> None:
    data = {"seeds": {}}
    if path.exists():
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    data["seeds"][str(seed)] = pins
    data["seeds"] = dict(sorted(data["seeds"].items(), key=lambda kv: int(kv[0])))
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _setup(api, workload: str, seed: int, runner: Runner) -> tuple[list, dict]:
    """Views, cold plans and one warm-up op; returns (ops, timings).

    ``setup_s`` is at the reference speed (see :func:`_calibrate`) and
    leaves out the between-op garbage collection, as op times do.
    """
    rec = runner.rec
    api.reset_plan_cache()
    since = rec.now()
    before = _calibrate()
    t0 = time.perf_counter()
    ops = api.build_ops(workload, seed, rec)
    api.prebuild_plans(ops, rec)
    prepare_s = (time.perf_counter() - t0) * CAL_REF_S / ((before + _calibrate()) / 2)
    warmup = runner.run(ops[0])
    return ops, {
        "setup_s": prepare_s + (warmup["wall"] * warmup["scale"] if warmup else 0.0),
        "views_s": rec.total("views", since),
        "plan_build_s": rec.total("build_plan", since),
    }


class _Api:
    """The functions the benchmark calls, imported once and timed as set-up."""

    def __init__(self) -> None:
        from ops import build_ops, prebuild_plans
        from repro.collio.api import run_collective_write
        from repro.collio.plan import plan_cache_stats, reset_plan_cache
        from repro.collio.read import run_collective_read
        from repro.obs import chrome_trace, overlap_report, validate_chrome_trace
        from spans import Recorder

        self.build_ops = build_ops
        self.prebuild_plans = prebuild_plans
        self.run_collective_write = run_collective_write
        self.run_collective_read = run_collective_read
        self.plan_cache_stats = plan_cache_stats
        self.reset_plan_cache = reset_plan_cache
        self.chrome_trace = chrome_trace
        self.overlap_report = overlap_report
        self.validate_chrome_trace = validate_chrome_trace
        self.Recorder = Recorder


def _import_probe() -> float:
    """Import time of the benchmark's modules in a fresh interpreter."""
    proc = subprocess.run([sys.executable, __file__, "--mode", "import"],
                          stdout=subprocess.PIPE, text=True, check=True, timeout=60)
    return json.loads(proc.stdout.strip().splitlines()[-1])["import_s"]


def _measure(api, args, runner: Runner, import_s: float) -> dict:
    imports = [import_s] + [_import_probe() for _ in range(SETUP_REPS - 1)]
    reps = [_setup(api, args.workload, args.seed, runner) for _ in range(SETUP_REPS)]
    out = {key: statistics.median(timing[key] for _, timing in reps)
           for key in ("setup_s", "views_s", "plan_build_s")}
    out["import_s"] = statistics.median(imports)
    out["setup_s"] += out["import_s"]
    out.update(_window(runner, reps[-1][0], args.seconds, None, calibrated=True))
    return out


def _trace(api, args, runner: Runner) -> dict:
    from layers import layer_self_times

    profiler = cProfile.Profile()
    tracemalloc.start()
    profiler.enable()
    ops, out = _setup(api, args.workload, args.seed, runner)
    out.update(_window(runner, ops, None, 1))
    profiler.disable()
    tracemalloc.stop()
    out["layers"] = layer_self_times(
        pstats.Stats(profiler).stats, str(SRC / "repro"), str(HERE)
    )
    if args.trace_out is not None:
        args.trace_out.parent.mkdir(parents=True, exist_ok=True)
        out["trace_events"] = runner.rec.write_chrome_trace(str(args.trace_out))
    return out


def _record(api, args, runner: Runner) -> dict:
    ops, _ = _setup(api, args.workload, args.seed, runner)
    _window(runner, ops, None, 1)
    first = dict(runner.observed)
    _window(runner, ops, None, 1)
    changed = sorted(k for k in first if runner.observed.get(k) != first[k])
    if changed:
        runner.failures.append(f"not deterministic across passes: {', '.join(changed)}")
    elif not runner.failures:
        _store_pins(args.pins, args.seed, first)
    return {}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("measure", "trace", "record", "import"),
                        default="measure")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--pins", type=Path)
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.mode != "import" and (args.workload is None or args.pins is None):
        parser.error("--workload and --pins are required")

    # Imported here so that the import is timed as part of set-up.
    t0 = time.perf_counter()
    api = _Api()
    import_s = (time.perf_counter() - t0) * CAL_REF_S / _calibrate()
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.mode == "import":
        print(json.dumps({"import_s": import_s}))
        return 0

    pins = None if args.mode == "record" else _load_pins(args.pins, args.seed)
    runner = Runner(api, api.Recorder(), pins, mem=args.mode == "trace")
    out = {"workload": args.workload, "seed": args.seed, "mode": args.mode}
    if args.mode == "measure":
        out.update(_measure(api, args, runner, import_s))
    elif args.mode == "trace":
        out.update(_trace(api, args, runner))
    else:
        out.update(_record(api, args, runner))
    out["pins"] = (
        "recorded" if args.mode == "record" and not runner.failures
        else "unchecked" if pins is None else "checked"
    )
    out["attempted"] = runner.attempted
    out["failed"] = len(runner.failures)
    out["failures"] = runner.failures
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    raise SystemExit(main())
