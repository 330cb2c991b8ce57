"""Host-cost benchmark of the collective-write simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep_sizeonly --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0            # every workload, serially
    python3 perfbench/run.py --workload resilient_staged --seed 0 --trace 1
    python3 perfbench/run.py --workload checkpoint_verified --seed 7 --record-pins

Each workload runs in its own fresh ``worker.py`` process, one at a time.
``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` reports the per-layer metrics: a short untraced run as the
reference, then one traced pass (cProfile + tracemalloc + benchmark-side
spans, written to ``perfbench/out/``); ``trace.overhead_frac`` is the
gap between the two.  Human-readable tables go first; the last line of
standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
when every op passed its checks, 1 when an op failed (the result is
still printed) and 2 when the benchmark could not run at all (nothing is
printed on standard output).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from layers import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep_sizeonly", "checkpoint_verified", "resilient_staged")
#: Where the traced run writes its Chrome trace.
TRACE_DIR = HERE / "out"
#: Each workload's runs, set-up included, are stopped after this many seconds.
DEADLINE_S = 170.0

#: End-to-end metrics (untraced run): name -> unit.
END_TO_END = {
    "ops_per_s": "1/s",
    "events_per_s": "1/s",
    "sim_gb_per_s": "GB/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Per-layer metrics (traced run): name -> unit.
PER_LAYER = {f"{layer}.self_s": "s" for layer in LAYERS} | {
    "sim.events": "count",
    "sim.max_heap_len": "count",
    "sim.host_us_per_event": "us",
    "comm.messages_inter_node": "count",
    "comm.messages_intra_node": "count",
    "send.rendezvous": "count",
    "progress.deferred": "count",
    "collio.plan_build_s": "s",
    "collio.plan_cache_hit_ratio": "ratio",
    "collio.write_call_s": "s",
    "collio.read_call_s": "s",
    "workloads.views_s": "s",
    "payload.data_s": "s",
    "payload.bytes": "B",
    "fs.bytes_written": "B",
    "bufpool.hit_ratio": "ratio",
    "bufpool.bytes_allocated": "B",
    "mem.peak_per_file_byte": "ratio",
    "mem.cyclic_garbage_objects": "count",
    "integrity.checksum_reuse_ratio": "ratio",
    "integrity.detected": "count",
    "integrity.repaired": "count",
    "integrity.repair_ratio": "ratio",
    "integrity.host_overhead_frac": "ratio",
    "integrity.sim_overhead_frac": "ratio",
    "staging.absorbed_bytes": "B",
    "staging.stalls": "count",
    "staging.occupancy_peak": "B",
    "intranode.gather_messages": "count",
    "recovery.attempts": "count",
    "recovery.useful_frac": "ratio",
    "obs.spans": "count",
    "obs.export_s": "s",
    "trace.overhead_frac": "ratio",
    "failed_frac": "ratio",
}
UNITS = END_TO_END | PER_LAYER


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to an op failing)."""


def _worker(workload: str, seed: int, seconds: float, mode: str, pins: Path,
            deadline: float, trace_out: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--pins", str(pins)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left to start the {mode} run of {workload}")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} run of {workload} exceeded {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} run of {workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(m: dict) -> dict[str, float]:
    """End-to-end metric values from an untraced worker result."""
    return {
        "ops_per_s": m["ops_per_pass"] / m["pass_s"],
        "events_per_s": _ratio(m["events"], m["write_call_s"]),
        "sim_gb_per_s": m["sim_bytes"] / m["pass_s"] / 1e9,
        "peak_rss_mb": m["peak_rss_mb"],
        "setup_s": m["setup_s"],
    }


def per_layer(m: dict, t: dict) -> dict[str, float]:
    """Per-layer metric values from an untraced (``m``) and a traced (``t``) result."""
    c = t["counts"]
    layers = t["layers"]
    out = {f"{layer}.self_s": layers[layer] for layer in LAYERS}
    checksums = c.get("checksum_computed", 0) + c.get("checksum_reused", 0)
    recovered = c.get("recovery_total_bytes", 0) + c.get("recovery_replayed_bytes", 0)
    takes = c.get("bufpool_takes", 0)
    out.update({
        "sim.events": c.get("events", 0),
        "sim.max_heap_len": c.get("max_heap_len", 0),
        "sim.host_us_per_event": _ratio(m["write_call_s"], m["events"]) * 1e6,
        "comm.messages_inter_node": c.get("messages_inter_node", 0),
        "comm.messages_intra_node": c.get("messages_intra_node", 0),
        "send.rendezvous": c.get("send_rendezvous", 0),
        "progress.deferred": c.get("progress_deferred", 0),
        "collio.plan_build_s": t["plan_build_s"],
        "collio.plan_cache_hit_ratio": t["plan_cache_hit_ratio"],
        "collio.write_call_s": t["write_call_s"],
        "collio.read_call_s": t["read_call_s"],
        "workloads.views_s": t["views_s"],
        "payload.data_s": t["data_s"],
        "payload.bytes": t["payload_bytes"],
        "fs.bytes_written": c.get("fs_bytes_written", 0),
        "bufpool.hit_ratio": _ratio(c.get("bufpool_hits", 0), takes),
        "bufpool.bytes_allocated": c.get("bufpool_bytes_allocated", 0),
        "mem.peak_per_file_byte": t["mem_peak_per_file_byte"],
        "mem.cyclic_garbage_objects": t["garbage_objects"],
        "integrity.checksum_reuse_ratio": _ratio(c.get("checksum_reused", 0), checksums),
        "integrity.detected": c.get("detected", 0),
        "integrity.repaired": c.get("repaired", 0),
        "integrity.repair_ratio": _ratio(c.get("repaired", 0), c.get("detected", 0)),
        "integrity.host_overhead_frac": m["integrity_host_overhead_frac"] or 0.0,
        "integrity.sim_overhead_frac": m["integrity_sim_overhead_frac"] or 0.0,
        "staging.absorbed_bytes": c.get("staging_absorbed_bytes", 0),
        "staging.stalls": c.get("staging_stalls", 0),
        "staging.occupancy_peak": c.get("staging_occupancy_peak", 0),
        "intranode.gather_messages": c.get("gather_messages", 0),
        "recovery.attempts": c.get("recovery_attempts", 0),
        "recovery.useful_frac": _ratio(c.get("recovery_total_bytes", 0), recovered),
        "obs.spans": c.get("spans", 0),
        "obs.export_s": t["export_s"],
        "trace.overhead_frac": t["raw_pass_s"] / m["raw_pass_s"] - 1.0,
        "failed_frac": _ratio(m["failed"] + t["failed"], m["attempted"] + t["attempted"]),
    })
    return {name: out[name] for name in PER_LAYER}


def _print_table(workload: str, metrics: dict[str, float], *runs: dict) -> None:
    print(f"== {workload} ==")
    for result in runs:
        print(f"  {result['mode']} run: {result['attempted']} ops attempted, "
              f"{result['failed']} failed, pins {result['pins']} (seed {result['seed']})")
        for failure in result["failures"]:
            print(f"    FAIL {failure}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:16.6g} {UNITS[name]}")


def _print_layers(layers: dict[str, float]) -> None:
    base = sum(layers.values())
    print(f"  self time by layer (traced run; base = {base:.3f} s profiled self time):")
    for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"    {layer:10s} {seconds:9.3f} s  {100 * seconds / base if base else 0:5.1f}%")


def run_workload(workload: str, args, deadline: float) -> tuple[dict, int, int]:
    """Run one workload; returns (metrics, attempted, failed)."""
    pins = args.pins / f"{workload}.json"
    if args.record_pins:
        rec = _worker(workload, args.seed, args.seconds, "record", pins, deadline)
        _print_table(workload, {}, rec)
        return {}, rec["attempted"], rec["failed"]
    if not args.trace:
        m = _worker(workload, args.seed, args.seconds, "measure", pins, deadline)
        metrics = end_to_end(m)
        _print_table(workload, metrics | {"failed_frac": _ratio(m["failed"], m["attempted"])}, m)
        return metrics, m["attempted"], m["failed"]
    m = _worker(workload, args.seed, max(1.0, args.seconds / 4), "measure", pins, deadline)
    out = TRACE_DIR / f"{workload}-seed{args.seed}.json"
    t = _worker(workload, args.seed, args.seconds, "trace", pins, deadline, trace_out=out)
    metrics = per_layer(m, t)
    _print_table(workload, metrics, m, t)
    _print_layers(t["layers"])
    print(f"  benchmark spans: {t['trace_events']} Chrome trace events in {out}")
    return metrics, m["attempted"] + t["attempted"], m["failed"] + t["failed"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Host-cost benchmark of the simulator.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pins", type=Path, default=HERE / "pins",
                        help="directory of per-workload pin files")
    parser.add_argument("--record-pins", action="store_true",
                        help="record this seed's simulated outputs as its pins")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    try:
        for workload in workloads:
            values, n, bad = run_workload(workload, args, time.monotonic() + DEADLINE_S)
            metrics[workload] = values
            attempted += n
            failed += bad
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    prefix = len(workloads) > 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            f"{w}.{name}" if prefix else name: {"value": value, "unit": UNITS[name]}
            for w, values in metrics.items()
            for name, value in values.items()
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
