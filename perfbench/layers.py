"""Per-layer attribution of host self time from a cProfile run.

A layer is a ``repro.<pkg>`` package (``sim``, ``collio``, ``mpi``, ...),
plus two buckets of our own:

``payload``
    ``repro.collio.api.default_data`` and all of numpy (its Python
    functions and its C methods): the cost of producing, copying and
    comparing payload bytes.
``core``
    top-level ``repro`` modules (``specbase``, ``units``, ``api``, ...).
``other``
    the benchmark's own code and whatever no layer called.

Any other function without a layer of its own — a C built-in such as
``zlib.crc32`` or ``heapq.heappush``, or a standard-library Python
function — is charged to the layers of its callers, split by the self
time cProfile recorded per caller, recursively.
"""

from __future__ import annotations

import os

__all__ = ["LAYERS", "layer_self_times"]

LAYERS = (
    "sim", "hardware", "mpi", "collio", "fs", "integrity", "staging", "recovery",
    "faults", "obs", "workloads", "tune", "payload", "core", "other",
)

_Key = tuple  # (filename, line, function name), as in pstats


def _own_layer(key: _Key, repro_dir: str, bench_dir: str) -> str | None:
    filename, _line, func = key
    if filename == "~":  # C function
        return "payload" if "numpy" in func else None
    if f"{os.sep}numpy{os.sep}" in filename:
        return "payload"
    if filename.startswith(repro_dir):
        rel = os.path.relpath(filename, repro_dir)
        if func == "default_data" and rel == os.path.join("collio", "api.py"):
            return "payload"
        pkg, sep, _ = rel.partition(os.sep)
        if not sep:
            return "core"
        return pkg if pkg in LAYERS else "core"
    if filename.startswith(bench_dir):
        return "other"
    return None


def layer_self_times(stats: dict, repro_dir: str, bench_dir: str) -> dict[str, float]:
    """Self seconds per layer from a ``pstats.Stats(...).stats`` mapping."""
    memo: dict[_Key, dict[str, float]] = {}

    def shares(key: _Key, visiting: set) -> dict[str, float]:
        if key in memo:
            return memo[key]
        own = _own_layer(key, repro_dir, bench_dir)
        if own is not None:
            return {own: 1.0}
        callers = stats[key][4] if key in stats else {}
        # Split by per-caller self time; by call count when all are zero.
        column = 2 if any(entry[2] > 0 for entry in callers.values()) else 1
        total = sum(entry[column] for entry in callers.values())
        if total <= 0 or key in visiting:
            return {"other": 1.0}
        visiting.add(key)
        out: dict[str, float] = {}
        for caller, entry in callers.items():
            weight = entry[column] / total
            for layer, frac in shares(caller, visiting).items():
                out[layer] = out.get(layer, 0.0) + weight * frac
        visiting.discard(key)
        memo[key] = out
        return out

    totals = dict.fromkeys(LAYERS, 0.0)
    for key, (_cc, _nc, tottime, _ct, _callers) in stats.items():
        for layer, frac in shares(key, set()).items():
            totals[layer] += tottime * frac
    return totals
