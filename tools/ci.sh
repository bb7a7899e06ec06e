#!/usr/bin/env bash
# CI gate: scarelint first (cheap, catches structural rot), then the
# tier-1 test suite, then the perfbench self-tests, then the lint
# wall-time budget, then the pool speed gates, then the fleet rollup
# byte-identity sweep, the dbops gate and the E8 overhead gates. Run
# from anywhere; mirrors what
# .github/workflows/ci.yml executes.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== scarelint (full tree, baseline-checked, dead entries fatal) =="
if ! lint_output=$(python -m repro lint src); then
    printf '%s\n' "$lint_output" >&2
    exit 1
fi
printf '%s\n' "$lint_output"
# A dead baseline entry only warns in interactive runs; CI treats it as
# rot that must be pruned with --write-baseline.
if grep -q "dead baseline entry" <<<"$lint_output"; then
    echo "ci: dead baseline entries found — prune with" \
         "'python -m repro lint src --write-baseline'" >&2
    exit 1
fi

echo "== tier-1 test suite =="
python -m pytest -x -q

# The traced benchmark patches program functions by module and name
# (perfbench/tracing.py SPANS); its tiny runs catch a renamed target.
echo "== perfbench self-tests (tiny traced runs) =="
python3 -m pytest perfbench/tests -q

echo "== staticcheck benchmark gate (full-tree lint < 10s) =="
python -m pytest benchmarks/bench_staticcheck.py --benchmark-only -q

# Wall-clock speed gates live here, not in tier-1: warm-up plus the
# median of alternated runs, each gate self-skipping below 2 cores.
echo "== parallel benchmark gate (pool vs fresh and templated serial) =="
python -m pytest benchmarks/bench_parallel.py --benchmark-only -q

# Byte-identity across shards ∈ {1,2,4} is asserted on every box; the
# sharded speedup assertion self-gates on os.cpu_count() >= 2, so this
# gate is honest on single-core runners too.
echo "== fleet benchmark gate (rollup byte-identity, sharded sweep) =="
python -m pytest benchmarks/bench_fleet.py --benchmark-only -q

echo "== dbops benchmark gate (publish latency, no-op rollout identity) =="
python -m pytest benchmarks/bench_dbops.py --benchmark-only -q

echo "== overhead benchmark gate (hook-chain ratio < 10x, launch < 10 ms) =="
python -m pytest benchmarks/bench_overhead.py --benchmark-only -q -k gate

echo "ci: all gates passed"
