"""E16 — scarelint full-tree wall time (the `repro lint src/` gate).

The lint gate runs inside the tier-1 suite, so its cost is paid on every
test invocation; this benchmark pins it down. It measures

* a cold serial full-tree run (empty parse cache, all eight rules
  including the whole-program call-graph passes, baseline applied),
* a warm re-run (parse cache hot — the re-lint-after-edit case), and
* a pooled run at two workers through the ``repro.parallel`` engine,

asserts the tree is lint-clean and the cold run stays inside an
interactive budget, and writes ``BENCH_staticcheck.json`` next to the
repo root.

Run: ``pytest benchmarks/bench_staticcheck.py --benchmark-only -s``
"""

import json
import os
import pathlib

from repro.staticcheck import PARSE_CACHE, load_or_empty, run_lint

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = ROOT / "BENCH_staticcheck.json"
ROUNDS = 3


def _lint_src(jobs=1):
    """One full-tree lint from the repo root (baseline keys are relative)."""
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        baseline = load_or_empty(".scarelint-baseline.json")
        return run_lint(["src"], jobs=jobs, baseline=baseline)
    finally:
        os.chdir(cwd)


def _best_of(fn, rounds=ROUNDS):
    best = None
    for _ in range(rounds):
        candidate = fn()
        if best is None or candidate.wall_time_s < best.wall_time_s:
            best = candidate
    return best


def test_bench_staticcheck_full_tree(benchmark):
    PARSE_CACHE.clear()
    cold = benchmark.pedantic(_lint_src, rounds=1, iterations=1)
    warm = _best_of(_lint_src, rounds=ROUNDS)
    pooled = _best_of(lambda: _lint_src(jobs=2), rounds=1)
    cold_s, warm_s, pooled_s = (cold.wall_time_s, warm.wall_time_s,
                                pooled.wall_time_s)

    # The gate itself: zero unbaselined findings, no stale suppressions.
    for report in (cold, warm, pooled):
        assert report.findings == [], [f.render() for f in report.findings]
        assert report.stale_suppressions == []
    assert cold.files_scanned == warm.files_scanned == pooled.files_scanned
    assert warm.suppressed == cold.suppressed

    # Interactive budget: the whole tree in well under ten seconds.
    assert cold_s < 10.0, f"cold full-tree lint took {cold_s:.2f}s"
    # The warm run skips every parse; it must not be slower than cold.
    assert warm_s <= cold_s * 1.5

    per_file_ms = 1000.0 * cold_s / max(1, cold.files_scanned)
    payload = {
        "benchmark": "staticcheck_full_tree",
        "cpu_cores": os.cpu_count(),
        "files_scanned": cold.files_scanned,
        "suppressed": len(cold.suppressed),
        "cold_wall_s": round(cold_s, 4),
        "warm_wall_s": round(warm_s, 4),
        "pooled2_wall_s": round(pooled_s, 4),
        "cold_per_file_ms": round(per_file_ms, 3),
        "rule_ns": {rule: ns for rule, ns in sorted(cold.rule_ns.items())},
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n",
                      encoding="utf-8")
    print(f"\nwrote {OUTPUT.name}: {cold.files_scanned} files "
          f"cold={cold_s * 1000:.0f}ms warm={warm_s * 1000:.0f}ms "
          f"pooled(2)={pooled_s * 1000:.0f}ms "
          f"({per_file_ms:.1f}ms/file cold)")
