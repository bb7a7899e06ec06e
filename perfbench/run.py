"""Benchmark entry point: one workload per run, result as the last line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload corpus_sweep --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric (see ``perfbench/README.md``). Outputs are checked
against their references in the same run; a mismatch, an interrupt or a
missing program exits non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

WORKLOADS = ("corpus_sweep", "fleet_batch", "serve_mixed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2

    from perfbench import batch, serving
    from perfbench.common import (CheckFailed, declared_units, descendants,
                                  emit, with_units)

    workload = {"corpus_sweep": batch.corpus_sweep,
                "fleet_batch": batch.fleet_batch,
                "serve_mixed": serving.serve_mixed}[args.workload]
    try:
        attempted, failed, values = workload(args.seed, args.seconds,
                                             bool(args.trace))
    except CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        return 1
    leftover = descendants(os.getpid())
    if leftover:
        print(f"perfbench: processes still running: {leftover}",
              file=sys.stderr)
        return 1
    if args.trace:
        metrics = with_units(values, declared_units("per_layer"))
    else:
        end_to_end = declared_units("end_to_end")
        missing = set(end_to_end) - set(values)
        if missing:
            print(f"perfbench: metrics not measured: {sorted(missing)}",
                  file=sys.stderr)
            return 1
        metrics = with_units(values, end_to_end)
    emit(attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
