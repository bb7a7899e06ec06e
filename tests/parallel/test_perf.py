"""Pool-vs-serial parity on the perf-guard corpus.

The first pool was *slower* than serial because every run rebuilt its
machine from scratch; machine templating plus chunked dispatch is the
fix. The speed comparisons that pin it are wall-clock
measurements, so they live in ``benchmarks/bench_parallel.py`` as gates
(warm-up, median of alternated runs, recorded core count) that
``tools/ci.sh`` runs. What stays here holds on every box and every run:
the pooled sweep reproduces the serial references it is timed against.
"""

import pickle

import pytest

from repro.malware.corpus import build_malgene_corpus
from repro.malware.families import FamilySpec
from repro.parallel import ParallelSweep

#: 32 samples over the five headline archetypes (the benchmark corpus).
GUARD_SPEC = FamilySpec("PerfGuard", (("spawn_idp", 12), ("term_vm", 8),
                                      ("sleep_sbx", 6), ("fail_peb", 4),
                                      ("selfdel", 2)))


def _sweep(samples, **kwargs):
    result = ParallelSweep(machine_factory="bare-metal-light",
                           **kwargs).run(samples)
    assert not result.errors, result.errors
    return result


@pytest.mark.slow
def test_pooled_sweep_matches_fresh_factory_serial():
    samples = build_malgene_corpus([GUARD_SPEC])
    assert len(samples) >= 32

    fresh = _sweep(samples, max_workers=1, template=False)
    pooled = _sweep(samples, max_workers=2, template=True)
    assert pooled.used_process_pool
    assert pooled.comparisons == fresh.comparisons


@pytest.mark.slow
def test_zero_copy_pool_vs_templated_serial():
    """The fork-shared, delta-restoring pool reproduces templated serial."""
    samples = build_malgene_corpus([GUARD_SPEC])

    serial = _sweep(samples, max_workers=1, template=True)
    pooled = _sweep(samples, max_workers=2, template=True)
    assert pooled.used_process_pool
    assert [pickle.dumps(e) for e in pooled.canonical_entries()] == \
        [pickle.dumps(e) for e in serial.canonical_entries()]
