"""Shared helpers: the result line, percentiles, memory, process hygiene."""

from __future__ import annotations

import json
import resource
import statistics
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

#: Checkout root (the parent of this package's directory).
ROOT = Path(__file__).resolve().parent.parent

#: Scratch space for worker trace files; listed in ``.gitignore``.
SCRATCH = ROOT / ".perfbench"

#: Process-pool size used by the batch workloads (the reference box has
#: two cores).
WORKERS = 2


class CheckFailed(RuntimeError):
    """An output did not match its reference; the run reports no result."""


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def peak_rss_mb() -> float:
    """Largest resident set so far among this process and its reaped
    children (Linux reports ``ru_maxrss`` in KiB)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return max(children, own) / 1024.0


def descendants(pid: int) -> List[int]:
    """Live descendants of ``pid`` (zombies included), from ``/proc``."""
    parents: Dict[int, int] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after ')'.
        fields = stat.rsplit(")", 1)[1].split()
        parents[int(entry.name)] = int(fields[1])
    found: List[int] = []
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        children = [child for child, ppid in parents.items()
                    if ppid == parent]
        found.extend(children)
        frontier.extend(children)
    return found


def declared_units(section: str) -> Dict[str, str]:
    """Metric name -> unit for one section of ``BENCHMARK.json``
    (``end_to_end`` or ``per_layer``), the one list of metric names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[section]}


def with_units(values: Mapping[str, float],
               units: Mapping[str, str]) -> Dict[str, Tuple[float, str]]:
    """Pair every metric in ``units`` with its value (0 when the layer
    did no work on this workload); unknown names are an error."""
    unknown = set(values) - set(units)
    if unknown:
        raise KeyError(f"metrics without a declared unit: {sorted(unknown)}")
    return {name: (float(values.get(name, 0.0)), unit)
            for name, unit in units.items()}


def emit(attempted: int, failed: int,
         metrics: Mapping[str, Tuple[float, str]]) -> None:
    """Print the result object as the last line of standard output."""
    print(json.dumps({
        "correct": True,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)


def print_mix(workload: str, mix: Mapping[str, object]) -> None:
    """The realized input mix, one line before the result."""
    print("mix " + json.dumps({"workload": workload, **mix},
                              sort_keys=True), flush=True)
