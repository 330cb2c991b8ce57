"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from ops import WORKLOADS, build_ops, input_fingerprint  # noqa: E402
from spans import Recorder  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark_json() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_are_well_formed_and_declared():
    spec = _benchmark_json()
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared_e2e == run.END_TO_END
    assert declared_layer == run.PER_LAYER
    for name in list(run.UNITS) + [w["name"] for w in spec["workloads"]]:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_drives_the_inputs(workload):
    same = [input_fingerprint(build_ops(workload, 11, Recorder())) for _ in range(2)]
    other = input_fingerprint(build_ops(workload, 12, Recorder()))
    assert same[0] == same[1]
    assert other != same[0]
    assert [op[0] for op in other] == [op[0] for op in same[0]]  # same op mix


def _one_pass(workload: str, seed: int = 3) -> dict:
    api = worker._Api()
    runner = worker.Runner(api, Recorder(), pins=None)
    ops, _ = worker._setup(api, workload, seed, runner)
    result = worker._window(runner, ops, None, 1)
    assert runner.failures == []
    return result


def test_sweep_moves_no_payload_bytes():
    result = _one_pass("sweep_sizeonly")
    assert result["payload_bytes"] == 0
    assert result["data_s"] == 0
    assert result["counts"]["events"] > 0
    assert result["counts"]["messages_inter_node"] > 0  # the rank-ladder op spans nodes


def test_resilient_executes_recovery_staging_and_repair():
    counts = _one_pass("resilient_staged")["counts"]
    assert counts["recovery_attempts"] > counts["recovery_ops"] > 0  # at least one failover
    assert counts["staging_absorbed_bytes"] > 0
    assert counts["repaired"] > 0
    assert counts["gather_messages"] > 0
    assert counts["spans"] > 0


def test_perturbed_pin_fails_the_run(tmp_path):
    with open(BENCH / "pins" / "checkpoint_verified.json", encoding="utf-8") as fh:
        pins = json.load(fh)
    seed = next(iter(pins["seeds"]))
    op = "flash/write/detect"
    elapsed = float(pins["seeds"][seed][op]["elapsed"])
    pins["seeds"][seed][op]["elapsed"] = repr(elapsed * (1 + 1e-12))
    with open(tmp_path / "checkpoint_verified.json", "w", encoding="utf-8") as fh:
        json.dump(pins, fh)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "checkpoint_verified",
         "--seed", seed, "--seconds", "1", "--pins", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] > 0
    assert f"FAIL {op}: pin mismatch: elapsed" in proc.stdout


def test_recorded_seed_passes_its_pins():
    with open(BENCH / "pins" / "checkpoint_verified.json", encoding="utf-8") as fh:
        seed = next(iter(json.load(fh)["seeds"]))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "checkpoint_verified",
         "--seed", seed, "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout
    assert "pins checked" in proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0 and set(result["metrics"]) == set(run.END_TO_END)


def test_benchmark_spans_export_as_a_valid_chrome_trace(tmp_path):
    rec = Recorder()
    with rec.span("run_collective_write", "collio", op="x"):
        with rec.span("data_factory", "payload"):
            pass
        with rec.span("data_factory", "payload"):
            pass
    path = tmp_path / "trace.json"
    assert rec.write_chrome_trace(str(path)) > 0
    proc = subprocess.run(
        [sys.executable, "-m", "repro.obs", "validate", str(path)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr


def test_builtins_are_charged_to_their_callers():
    repro = "/x/src/repro"
    sim = (f"{repro}/sim/engine.py", 1, "run")
    fs = (f"{repro}/fs/file.py", 1, "write")
    crc = ("~", 0, "<built-in method zlib.crc32>")
    tile = ("~", 0, "<method 'repeat' of 'numpy.ndarray' objects>")
    stats = {
        sim: (1, 1, 2.0, 9.0, {}),
        fs: (1, 1, 1.0, 4.0, {sim: (1, 1, 1.0, 4.0)}),
        crc: (4, 4, 4.0, 4.0, {sim: (3, 3, 3.0, 3.0), fs: (1, 1, 1.0, 1.0)}),
        tile: (1, 1, 0.5, 0.5, {fs: (1, 1, 0.5, 0.5)}),
    }
    times = layers.layer_self_times(stats, repro, "/x/perfbench")
    assert times["sim"] == pytest.approx(5.0)
    assert times["fs"] == pytest.approx(2.0)
    assert times["payload"] == pytest.approx(0.5)
    assert sum(times.values()) == pytest.approx(7.5)
