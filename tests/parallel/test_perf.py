"""Performance guard: the pool must not lose to the serial path again.

PR 1 shipped a pool that was *slower* than serial (0.687× at 2 workers in
the committed ``BENCH_parallel.json``) because every run rebuilt its
machine from scratch. Machine templating plus chunked dispatch is the
fix; this guard pins it so a regression fails CI on multi-core machines
instead of silently re-appearing in the next benchmark run.

The reference measurement is the *fresh-factory serial* path
(``template=False``) — the historical cost the templated pool has to
beat. ``benchmarks/bench_parallel.py`` measures the same ratio with more
detail (per-phase timings, 4-worker scaling).
"""

import os
import pickle

import pytest

from repro.malware.corpus import build_malgene_corpus
from repro.malware.families import FamilySpec
from repro.parallel import ParallelSweep

#: 32 samples over the five headline archetypes (the benchmark corpus).
GUARD_SPEC = FamilySpec("PerfGuard", (("spawn_idp", 12), ("term_vm", 8),
                                      ("sleep_sbx", 6), ("fail_peb", 4),
                                      ("selfdel", 2)))


def _wall_time(samples, **kwargs):
    result = ParallelSweep(machine_factory="bare-metal-light",
                           **kwargs).run(samples)
    assert not result.errors, result.errors
    return result.wall_time_s, result


@pytest.mark.perf
@pytest.mark.slow
@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="parallel speedup needs >=2 CPU cores")
def test_pooled_sweep_beats_fresh_factory_serial():
    samples = build_malgene_corpus([GUARD_SPEC])
    assert len(samples) >= 32

    fresh_serial_s, fresh = _wall_time(samples, max_workers=1,
                                       template=False)
    pooled_s, pooled = _wall_time(samples, max_workers=2, template=True)
    assert pooled.used_process_pool
    # Same verdicts, or the speedup is meaningless.
    assert pooled.comparisons == fresh.comparisons

    speedup = fresh_serial_s / pooled_s
    assert speedup >= 1.0, (
        f"2-worker templated pool ran at {speedup:.3f}x the fresh-factory "
        f"serial path ({pooled_s:.4f}s vs {fresh_serial_s:.4f}s); "
        "templating + chunking should make the pool at least break even")


@pytest.mark.perf
@pytest.mark.slow
def test_zero_copy_pool_vs_templated_serial():
    """The zero-copy bar, keyed off the core count.

    On a multi-core box the fork-shared, delta-restoring pool must match
    or beat the *templated* serial path — the strictest reference, since
    templated serial pays no dispatch tax at all. On a single core that
    timing comparison is meaningless (workers time-slice one core), so
    byte-parity of the rollup is the guarantee that must hold.
    """
    samples = build_malgene_corpus([GUARD_SPEC])

    serial_s, serial = _wall_time(samples, max_workers=1, template=True)
    pooled_s, pooled = _wall_time(samples, max_workers=2, template=True,
                                  delta=True)
    assert pooled.used_process_pool

    # Parity is unconditional: every mode, every core count.
    assert [pickle.dumps(e) for e in pooled.canonical_entries()] == \
        [pickle.dumps(e) for e in serial.canonical_entries()]

    if (os.cpu_count() or 1) >= 2:
        speedup = serial_s / pooled_s
        assert speedup >= 1.0, (
            f"zero-copy 2-worker pool ran at {speedup:.3f}x the templated "
            f"serial path ({pooled_s:.4f}s vs {serial_s:.4f}s); "
            "fork-shared bring-up + delta-restore should at least break "
            "even against serial templating on >=2 cores")
