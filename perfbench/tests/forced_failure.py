"""Run one workload with an output check forced to fail mid-run.

Self-test helper: the benchmark must exit non-zero without a result and
leave no process behind. Usage (same arguments as ``perfbench/run.py``)::

    python3 perfbench/tests/forced_failure.py --workload fleet_batch \\
        --seed 1 --seconds 1 --trace 0
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import batch, run, serving  # noqa: E402
from perfbench.common import CheckFailed  # noqa: E402


def force_failures() -> None:
    # corpus_sweep: the first pass no longer meets the Figure 4 count.
    batch.CORPUS_DEACTIVATED = -1

    # fleet_batch: the first timed run comes back one event short.
    real_service = batch._fleet_service

    def short_service(seed, events, workers, shards):
        return real_service(seed, max(0, events - 1), workers, shards)

    batch._fleet_service = short_service

    # serve_mixed: a check fails while the server process is up.
    async def failing_drive(port, requests):
        raise CheckFailed("forced failure during the serving window")

    serving.drive = failing_drive


if __name__ == "__main__":
    force_failures()
    sys.exit(run.main())
