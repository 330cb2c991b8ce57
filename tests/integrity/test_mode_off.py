"""mode="off" is byte-identical to a world without the integrity package.

The golden 45-case fingerprint suite (tests/golden) pins the absolute
numbers; these tests pin the sharper claim that attaching a disabled
IntegritySpec changes *nothing* — timing, counters, file bytes.
"""

from repro.collio import CollectiveConfig, run_collective_write
from repro.collio.api import RunSpec
from repro.faults import fault_preset
from repro.integrity import IntegritySpec
from repro.staging.spec import StagingSpec

from tests.integrity.conftest import contiguous_views, small_cluster, small_fs


def _run(integrity=None, staged=False, faults=None, algorithm="write_overlap"):
    return run_collective_write(RunSpec(
        cluster=small_cluster(), fs=small_fs(), nprocs=8,
        views=contiguous_views(8, 40_000), algorithm=algorithm,
        verify=True, seed=11, faults=faults,
        config=CollectiveConfig(
            cb_buffer_size=16 * 1024,
            staging=StagingSpec() if staged else None,
            integrity=integrity,
        ),
    ))


def test_mode_off_bit_identical_to_no_spec():
    plain = _run()
    off = _run(integrity=IntegritySpec(mode="off"))
    assert off.elapsed == plain.elapsed
    assert off.file_sha256 == plain.file_sha256
    assert off.metrics["counters"] == plain.metrics["counters"]
    assert off.integrity is None


def test_mode_off_bit_identical_with_staging():
    plain = _run(staged=True)
    off = _run(integrity=IntegritySpec(mode="off"), staged=True)
    assert off.elapsed == plain.elapsed
    assert off.file_sha256 == plain.file_sha256
    assert off.metrics["counters"] == plain.metrics["counters"]


def test_mode_off_identical_corruption_schedule():
    """Schedule parity: the corruption *draws* burn the same RNG stream
    whether or not anyone checks, so the mode="off" twin run is a valid
    ground-truth oracle for the campaign."""
    faults = fault_preset("bitrot_cluster")

    def damage(res_fn):
        try:
            res_fn()
        except AssertionError as exc:
            return str(exc)
        return None

    a = damage(lambda: _run(faults=faults))
    b = damage(lambda: _run(faults=faults))
    assert a == b  # same seed -> same silent damage, byte for byte


def test_every_algorithm_unchanged_under_off():
    for algorithm in ("no_overlap", "comm_overlap", "write_overlap",
                      "write_comm", "write_comm2"):
        plain = _run(algorithm=algorithm)
        off = _run(integrity=IntegritySpec(mode="off"), algorithm=algorithm)
        assert off.elapsed == plain.elapsed
        assert off.file_sha256 == plain.file_sha256
