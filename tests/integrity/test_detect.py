"""Detection acceptance: every injected corruption is flagged, clean runs
never are.

Ground truth comes from the injector's schedule parity: the same
``(seed, faults)`` run with ``mode="off"`` either fails its byte-exact
verification (corruption reached the file) or passes (no corruption
fired this seed).  ``mode="detect"`` must raise CorruptDataError exactly
in the first case.
"""

import pytest

from repro.collio import CollectiveConfig, run_collective_write
from repro.collio.api import RunSpec
from repro.errors import CorruptDataError
from repro.faults import fault_preset
from repro.faults.spec import FaultSpec
from repro.integrity import IntegritySpec
from repro.staging.spec import StagingSpec

from tests.integrity.conftest import contiguous_views, small_cluster, small_fs

ALL_ALGORITHMS = ["no_overlap", "comm_overlap", "write_overlap", "write_comm", "write_comm2"]
SEEDS = (7, 8, 9)


def _spec(algorithm, seed, mode=None, faults=None, staged=False,
          shuffle="two_sided", **integrity_kw):
    return RunSpec(
        cluster=small_cluster(), fs=small_fs(), nprocs=8,
        views=contiguous_views(8, 40_000), algorithm=algorithm,
        shuffle=shuffle, verify=True, seed=seed, faults=faults,
        config=CollectiveConfig(
            cb_buffer_size=16 * 1024,
            staging=StagingSpec() if staged else None,
            integrity=IntegritySpec(mode=mode, **integrity_kw) if mode else None,
        ),
    )


def _ground_truth_corrupted(algorithm, seed, faults, staged=False, shuffle="two_sided"):
    try:
        run_collective_write(_spec(algorithm, seed, faults=faults,
                                   staged=staged, shuffle=shuffle))
    except AssertionError:
        return True
    return False


@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
def test_every_injected_corruption_detected(algorithm):
    """Acceptance: under the bitrot preset, detect mode flags every run
    whose mode="off" twin ends with a corrupt file — no false negatives,
    and no false positives on the corruption-free seeds."""
    faults = fault_preset("bitrot_cluster")
    corrupted_seeds = 0
    for seed in SEEDS:
        corrupted = _ground_truth_corrupted(algorithm, seed, faults)
        corrupted_seeds += corrupted
        if corrupted:
            with pytest.raises(CorruptDataError):
                run_collective_write(_spec(algorithm, seed, mode="detect",
                                           faults=faults))
        else:
            res = run_collective_write(_spec(algorithm, seed, mode="detect",
                                             faults=faults))
            assert res.verified
    assert corrupted_seeds > 0, "preset rates too low: no corruption fired"


def test_detection_through_staging_tier():
    faults = fault_preset("bitrot_cluster")
    hit = False
    for seed in SEEDS:
        if _ground_truth_corrupted("write_overlap", seed, faults, staged=True):
            hit = True
            with pytest.raises(CorruptDataError):
                run_collective_write(_spec("write_overlap", seed, mode="detect",
                                           faults=faults, staged=True))
    assert hit


@pytest.mark.parametrize("shuffle", ["one_sided_fence", "one_sided_lock"])
def test_detection_on_rma_shuffles(shuffle):
    faults = fault_preset("bitrot_cluster")
    hit = False
    for seed in SEEDS:
        if _ground_truth_corrupted("write_overlap", seed, faults, shuffle=shuffle):
            hit = True
            with pytest.raises(CorruptDataError):
                run_collective_write(_spec("write_overlap", seed, mode="detect",
                                           faults=faults, shuffle=shuffle))
    assert hit


@pytest.mark.parametrize("mode", ["detect", "repair"])
def test_no_false_positives_on_clean_runs(mode):
    """Fault-free runs complete and verify under every checking mode."""
    for algorithm in ALL_ALGORITHMS:
        res = run_collective_write(_spec(algorithm, 7, mode=mode))
        assert res.verified
        assert res.integrity["detected"] == 0
        for report in res.integrity["scrub_reports"]:
            assert report["mismatches"] == 0


def test_torn_write_detected_by_readback():
    """A torn PFS write (prefix only) fails the read-back verify."""
    faults = FaultSpec(torn_write_rate=0.25)
    hit = False
    for seed in range(7, 13):
        if _ground_truth_corrupted("no_overlap", seed, faults):
            hit = True
            with pytest.raises(CorruptDataError):
                run_collective_write(_spec("no_overlap", seed, mode="detect",
                                           faults=faults))
    assert hit, "torn writes never fired in 6 seeds"


def test_detect_counters_surface_in_result():
    faults = fault_preset("bitrot_cluster")
    res = run_collective_write(_spec("write_overlap", 8, mode="repair",
                                     faults=faults))
    snap = res.integrity
    assert snap["mode"] == "repair"
    assert snap["detected"] >= 1
    assert snap["detected"] == snap["repaired"]
    assert res.metrics["counters"].get("integrity.detected", 0) == snap["detected"]
