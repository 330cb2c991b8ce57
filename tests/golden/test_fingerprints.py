"""Same-seed golden regression: algorithms x shuffles x layerings x staging.

Each case re-runs the pinned scenario (tests/golden/scenario.py) and
compares its fingerprint — written-file hash, cycle count, span-count
summary, exact elapsed time and event count — against
tests/golden/fingerprints.json.  A mismatch means the simulator's
deterministic behaviour drifted; if the change is intentional,
regenerate with ``PYTHONPATH=src python tests/golden/refresh.py`` and
commit the diff.
"""

import json
import os

import pytest

from tests.golden.scenario import case_key, fingerprint, golden_cases

_FINGERPRINTS = os.path.join(os.path.dirname(__file__), "fingerprints.json")


def _load() -> dict:
    with open(_FINGERPRINTS) as fh:
        return json.load(fh)


def test_fingerprint_file_covers_all_cases():
    recorded = _load()
    expected = {case_key(*case) for case in golden_cases()}
    assert set(recorded) == expected


@pytest.mark.parametrize(
    "algorithm,shuffle,two_layer,staging",
    golden_cases(),
    ids=[case_key(*case) for case in golden_cases()],
)
def test_same_seed_fingerprint(algorithm, shuffle, two_layer, staging):
    key = case_key(algorithm, shuffle, two_layer, staging)
    recorded = _load()[key]
    actual = fingerprint(algorithm, shuffle, two_layer, staging)
    assert actual == recorded, (
        f"golden fingerprint drifted for {key}; "
        "if intentional: PYTHONPATH=src python tests/golden/refresh.py"
    )


def test_two_layer_file_hash_matches_single_layer():
    """Two-layer aggregation must not change the written bytes."""
    recorded = _load()
    for algorithm, shuffle, two_layer, staging in golden_cases():
        if not two_layer:
            continue
        single = recorded[case_key(algorithm, shuffle, False, staging)]
        double = recorded[case_key(algorithm, shuffle, True, staging)]
        assert single["file_sha256"] == double["file_sha256"]
        assert single["num_cycles"] == double["num_cycles"]


def test_staging_file_hash_matches_direct():
    """Routing writes through the burst buffer must not change the
    written bytes or the plan's cycle count — only the span timeline
    (which gains absorb/drain/flush staging spans)."""
    recorded = _load()
    staged_cases = [c for c in golden_cases() if c[3] is not None]
    assert staged_cases
    for algorithm, shuffle, two_layer, staging in staged_cases:
        direct = recorded[case_key(algorithm, shuffle, two_layer)]
        staged = recorded[case_key(algorithm, shuffle, two_layer, staging)]
        assert staged["file_sha256"] == direct["file_sha256"]
        assert staged["num_cycles"] == direct["num_cycles"]
        assert staged["spans"].get("staging", 0) > 0
