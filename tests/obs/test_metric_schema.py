"""One metrics channel: the same key set on every run path, documented names.

``result.metrics`` is the only place a run's counters and gauges appear.
Whichever path a run takes — plain, crash-fault-armed (the recovery
loop), watermark-staged or integrity-checked — it must report the same
counter and gauge keys apart from the feature's own prefix, and a fault
spec that never fires must report exactly the plain run's values.  Every
name must fall under a prefix documented in DESIGN.md Appendix G.
"""

import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro.api import (
    CollectiveConfig,
    FaultSpec,
    IntegritySpec,
    RetryPolicy,
    RunSpec,
    StagingSpec,
    beegfs_crill,
    crill,
    make_workload,
    run_collective_write,
)
from repro.units import MS

NPROCS = 8
FEATURE_PREFIXES = ("recovery.", "staging.", "integrity.")
DESIGN = Path(__file__).resolve().parents[2] / "DESIGN.md"


def base_spec(**overrides) -> RunSpec:
    workload = make_workload("ior", NPROCS, block_size=64 * 1024, segment_count=4)
    spec = RunSpec(
        cluster=replace(crill(), cores_per_node=4), fs=beegfs_crill(),
        nprocs=NPROCS, views=workload.views(), algorithm="write_comm2",
        two_layer=True, seed=7, verify=True, config=CollectiveConfig.for_scale(64),
    )
    return spec.replace(**overrides)


def path_specs() -> dict[str, RunSpec]:
    base = base_spec()
    return {
        "plain": base,
        "never_firing_crash": base.replace(
            faults=FaultSpec(rank_crash_rate=1e-12, crash_window=1e-9)
        ),
        "watermark_staged": base.replace(
            staging=StagingSpec.for_scale(64, policy="watermark")
        ),
        "integrity_detect": base.replace(
            config=base.config.with_(integrity=IntegritySpec(mode="detect"))
        ),
    }


@pytest.fixture(scope="module")
def path_runs():
    return {name: run_collective_write(spec) for name, spec in path_specs().items()}


def core_keys(names) -> set[str]:
    return {n for n in names if not n.startswith(FEATURE_PREFIXES)}


def documented_prefixes() -> tuple[str, ...]:
    """The backticked prefixes of the DESIGN.md Appendix G table."""
    text = DESIGN.read_text()
    section = text[text.index("## Appendix G."):]
    prefixes = re.findall(r"^\| `([a-z_]+\.)` \|", section, flags=re.MULTILINE)
    assert prefixes, "DESIGN.md Appendix G has no metric prefix table"
    return tuple(prefixes)


class TestPathParity:
    @pytest.mark.parametrize("kind", ["counters", "gauges"])
    def test_key_sets_match_apart_from_feature_prefixes(self, path_runs, kind):
        plain = core_keys(path_runs["plain"].metrics[kind])
        for name, run in path_runs.items():
            assert core_keys(run.metrics[kind]) == plain, name

    @pytest.mark.parametrize("kind", ["counters", "gauges"])
    def test_never_firing_fault_spec_matches_plain_value_for_value(self, path_runs, kind):
        plain = path_runs["plain"].metrics[kind]
        armed = path_runs["never_firing_crash"].metrics[kind]
        shared = set(plain) & set(armed)
        assert shared == set(plain)
        assert {k: armed[k] for k in shared} == plain

    def test_never_firing_run_went_through_one_recovery_attempt(self, path_runs):
        armed = path_runs["never_firing_crash"]
        assert armed.recovery is not None and armed.recovery.attempts == 1
        assert armed.metrics["counters"]["recovery.attempts"] == 1
        assert armed.elapsed == path_runs["plain"].elapsed
        assert armed.file_sha256 == path_runs["plain"].file_sha256

    def test_feature_runs_report_their_feature(self, path_runs):
        assert "staging.capacity" in path_runs["watermark_staged"].metrics["gauges"]
        assert path_runs["integrity_detect"].integrity is not None

    def test_plain_runs_stay_plain(self, path_runs):
        for name in ("plain", "watermark_staged", "integrity_detect"):
            run = path_runs[name]
            assert run.recovery is None, name
            names = set(run.metrics["counters"]) | set(run.metrics["gauges"])
            assert not any(n.startswith("recovery.") for n in names), name

    def test_two_layer_message_counts_survive_every_path(self, path_runs):
        for name, run in path_runs.items():
            assert run.metrics["counters"]["intranode.gather_messages"] > 0, name


def schema_specs() -> dict[str, RunSpec]:
    """Runs that between them reach every metric producer."""
    specs = dict(path_specs())
    base = base_spec()
    specs["crash_recovered_staged_traced"] = base.replace(
        faults=FaultSpec(rank_crash_rate=0.9, ost_outage_rate=0.5, crash_window=2 * MS),
        staging=StagingSpec.for_scale(64, policy="watermark"),
        trace=True,
    )
    specs["transient_faults_retried"] = base.replace(
        faults=FaultSpec(write_fail_rate=0.2, aio_submit_fail_rate=0.2),
        retry=RetryPolicy(max_retries=10),
    )
    specs["integrity_repair_bitrot"] = base.replace(
        faults=FaultSpec(storage_corrupt_rate=0.2),
        config=base.config.with_(integrity=IntegritySpec(mode="repair")),
    )
    specs["auto"] = base.replace(algorithm="auto", verify=False, carry_data=False)
    return specs


@pytest.mark.parametrize("name", sorted(schema_specs()))
def test_every_emitted_name_has_a_documented_prefix(name):
    prefixes = documented_prefixes()
    metrics = run_collective_write(schema_specs()[name]).metrics
    names = [n for kind in ("counters", "gauges", "histograms") for n in metrics[kind]]
    assert names
    undocumented = sorted(n for n in names if not n.startswith(prefixes))
    assert undocumented == []


def test_design_table_covers_every_producer():
    assert set(documented_prefixes()) >= {
        "sim.", "run.", "fs.", "comm.", "bufpool.", "intranode.", "staging.",
        "integrity.", "recovery.", "tune.", "fault.", "retry.", "span.",
    }
