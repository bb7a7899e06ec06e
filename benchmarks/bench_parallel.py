"""E9 — parallel sweep engine: templating + chunked dispatch payoff.

Runs a 32-sample corpus through three execution modes on the *default*
(full ``bare-metal``) factory:

* ``serial-fresh`` — 1 worker, a fresh machine per run (the PR-1
  behaviour, and the **speedup reference**: the cost the engine has to
  beat);
* ``serial-templated`` — 1 worker, one machine rewound between runs;
* ``pooled-templated`` — 2- and 4-worker pools, each worker templating
  its own machine, jobs shipped in auto-sized chunks. These run the
  full zero-copy path: fork-shared database/template bring-up,
  dirty-set restore between jobs, framed binary chunk envelopes on the
  return pipe.

Every mode must produce byte-identical pickled outcomes; the measurements
(plus per-phase wall-clock timings from a telemetry-enabled pass) land in
``BENCH_parallel.json`` at the repo root. Templating is what makes the
pool pay off: even on a single-core container, 2 pooled workers beat the
fresh-factory serial path because 64 machine builds collapse into a
handful of builds plus cheap in-place restores.

Two speed gates pit the 2-worker pool against a serial reference on the
light factory: the fresh-factory serial path, and the stricter templated
serial path. Each gate discards one warm-up run per side, then times
:data:`GATE_PAIRS` back-to-back serial/pooled pairs (alternating which
side goes first) and takes the median of the per-pair speedups: pairing
neighbouring runs cancels slow drift in host load, and the median drops
the pairs a burst of foreign load landed on. The result lands under the
``"gates"`` key with the core count it ran on. Both need at least 2
cores: on one core the workers time-slice it.

Run: ``pytest benchmarks/bench_parallel.py --benchmark-only -s``
"""

import json
import os
import pathlib
import pickle
import statistics

import pytest

from repro.analysis.comparison import summarize
from repro.malware.corpus import build_malgene_corpus
from repro.malware.families import FamilySpec
from repro.parallel import ParallelSweep, fork_available
from repro.telemetry.metrics import TELEMETRY

#: 32 samples over the five headline archetypes.
BENCH_SPEC = FamilySpec("Bench", (("spawn_idp", 12), ("term_vm", 8),
                                  ("sleep_sbx", 6), ("fail_peb", 4),
                                  ("selfdel", 2)))
POOL_WORKER_COUNTS = (2, 4)
#: Timed serial/pooled pairs per speed gate, after one warm-up each. Five
#: runs per side read 0.62-1.56x on identical code on a shared 2-core box.
GATE_PAIRS = 21
OUTPUT = pathlib.Path(__file__).resolve().parent.parent / \
    "BENCH_parallel.json"

#: Host wall-clock phase histograms recorded by the worker layer.
PHASE_METRICS = ("wallclock.template_build_ns",
                 "wallclock.machine_setup_ns", "wallclock.job_ns",
                 "wallclock.delta_restore_ns")


def _run(samples, workers, template=True):
    result = ParallelSweep(max_workers=workers,
                           template=template).run(samples)
    assert not result.errors, result.errors
    return result


def _recorded():
    """The payload ``BENCH_parallel.json`` holds now (empty if absent)."""
    return json.loads(OUTPUT.read_text(encoding="utf-8")) \
        if OUTPUT.exists() else {}


def _write(section):
    """Merge ``section`` into ``BENCH_parallel.json``, keeping other keys."""
    payload = _recorded()
    payload.update(section)
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n",
                      encoding="utf-8")


def _phase_rows(samples):
    """Setup-vs-execute split from one telemetry-enabled templated pass."""
    before = TELEMETRY.snapshot()
    result = ParallelSweep(max_workers=1, template=True,
                           telemetry=True).run(samples)
    assert not result.errors, result.errors
    delta = TELEMETRY.snapshot().diff_from(before)
    rows = {}
    for name in PHASE_METRICS:
        state = delta.histograms.get(name)
        if state is None or not state.count:
            continue
        rows[name[len("wallclock."):]] = {
            "calls": state.count, "p50_ns": state.percentile(50),
            "mean_ms": round(state.mean / 1e6, 4)}
    return rows


def test_bench_parallel_scaling(benchmark):
    samples = build_malgene_corpus([BENCH_SPEC])
    assert len(samples) == 32

    # The reference: PR-1's fresh-machine-per-run serial path.
    reference = benchmark.pedantic(_run, args=(samples, 1),
                                   kwargs={"template": False},
                                   rounds=1, iterations=1)
    runs = [("serial-fresh", 1, reference),
            ("serial-templated", 1, _run(samples, 1))]
    for workers in POOL_WORKER_COUNTS:
        result = _run(samples, workers)
        assert result.used_process_pool
        runs.append(("pooled-templated", workers, result))

    # The engine's core guarantee: every mode, byte for byte.
    expected = pickle.dumps(reference.outcomes)
    for mode, workers, result in runs[1:]:
        assert pickle.dumps(result.outcomes) == expected, (mode, workers)
        assert pickle.dumps(result.canonical_entries()) == \
            pickle.dumps(reference.canonical_entries()), (mode, workers)

    summary = summarize(reference.comparisons)
    assert summary.total == 32
    assert summary.deactivated == BENCH_SPEC.expected_deactivated()

    measurements = [
        {"mode": mode, "workers": workers,
         "wall_time_s": round(result.wall_time_s, 4),
         "speedup": round(reference.wall_time_s / result.wall_time_s, 3),
         "used_process_pool": result.used_process_pool,
         "shared_state_used": result.shared_state_used,
         "delta_restores": result.delta_restores(),
         "full_restores": result.full_restores()}
        for mode, workers, result in runs]
    phases = _phase_rows(samples)
    payload = {
        "benchmark": "parallel_sweep_scaling",
        "corpus_size": len(samples),
        "machine_factory": "bare-metal",
        "cpu_cores": os.cpu_count(),
        "fork_available": fork_available(),
        "deactivated": summary.deactivated,
        "rollups_byte_identical": True,
        "delta_restore_mean_ms":
            phases.get("delta_restore_ns", {}).get("mean_ms"),
        "reference": "serial-fresh (1 worker, fresh machine per run)",
        "measurements": measurements,
        "phases": phases,
    }
    _write(payload)
    print(f"\nwrote {OUTPUT.name}: " +
          ", ".join(f"{m['mode']}/{m['workers']}w={m['wall_time_s']}s"
                    f" ({m['speedup']}x)" for m in measurements))

    # Templating must carry the pool past the fresh serial path even on a
    # single core (machine builds collapse into restores); with >=4 cores
    # real parallelism should compound on top of that.
    pooled2 = next(m for m in measurements
                   if m["mode"] == "pooled-templated" and m["workers"] == 2)
    assert pooled2["speedup"] >= 1.0, \
        "2-worker templated pool should beat the fresh-factory serial path"
    if (os.cpu_count() or 1) >= 4 and fork_available():
        pooled4 = next(m for m in measurements
                       if m["mode"] == "pooled-templated"
                       and m["workers"] == 4)
        assert pooled4["speedup"] >= 2.0, \
            "4-worker pool should be at least 2x faster than serial-fresh"


def _speed_gate(benchmark, name, reference_kwargs, pooled_kwargs):
    """Median per-pair speedup of alternated serial/pooled runs; records
    the gate.

    One untimed warm-up per side, then :data:`GATE_PAIRS` pairs, each a
    serial and a pooled run back to back, alternating which side goes
    first. Returns the first serial and pooled results for the caller's
    parity checks, plus the median of the pairs' serial/pooled ratios.
    """
    samples = build_malgene_corpus([BENCH_SPEC])

    def run(kwargs):
        result = ParallelSweep(machine_factory="bare-metal-light",
                               **kwargs).run(samples)
        assert not result.errors, result.errors
        return result

    def alternated():
        run(reference_kwargs)  # warm-up, untimed
        run(pooled_kwargs)
        pairs = []
        results = {}
        for index in range(GATE_PAIRS):
            order = ("serial", "pooled") if index % 2 == 0 else \
                ("pooled", "serial")
            walls = {}
            for side in order:
                result = run(reference_kwargs if side == "serial"
                             else pooled_kwargs)
                walls[side] = result.wall_time_s
                results.setdefault(side, result)
            pairs.append((walls["serial"], walls["pooled"]))
        return pairs, results

    pairs, results = benchmark.pedantic(alternated, rounds=1, iterations=1)
    ratios = [serial / pooled for serial, pooled in pairs]
    quartiles = statistics.quantiles(ratios, n=4)
    speedup = round(statistics.median(ratios), 3)
    serial_s = statistics.median(serial for serial, _ in pairs)
    pooled_s = statistics.median(pooled for _, pooled in pairs)
    gates = _recorded().get("gates", {})
    gates[name] = {
        "corpus_size": len(samples), "machine_factory": "bare-metal-light",
        "cpu_cores": os.cpu_count(), "pairs": GATE_PAIRS,
        "serial": reference_kwargs, "pooled": pooled_kwargs,
        "serial_median_s": round(serial_s, 4),
        "pooled_median_s": round(pooled_s, 4), "speedup": speedup,
        "speedup_quartiles": [round(quartiles[0], 3),
                              round(quartiles[2], 3)]}
    _write({"gates": gates})
    print(f"\n{name}: serial {serial_s:.4f}s, pooled {pooled_s:.4f}s, "
          f"median pair speedup {speedup}x (quartiles "
          f"{quartiles[0]:.3f}-{quartiles[2]:.3f}, {os.cpu_count()} cores)")
    return results["serial"], results["pooled"], speedup


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="parallel speedup needs >=2 CPU cores")
def test_gate_pool_beats_fresh_factory_serial(benchmark):
    serial, pooled, speedup = _speed_gate(
        benchmark, "pool_vs_fresh_serial",
        {"max_workers": 1, "template": False},
        {"max_workers": 2, "template": True})
    assert pooled.used_process_pool
    # Same verdicts, or the speedup is meaningless.
    assert pooled.comparisons == serial.comparisons
    assert speedup >= 1.0, (
        f"2-worker templated pool ran at {speedup:.3f}x the fresh-factory "
        "serial path; templating + chunking should make the pool at least "
        "break even")


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="parallel speedup needs >=2 CPU cores")
def test_gate_zero_copy_pool_vs_templated_serial(benchmark):
    serial, pooled, speedup = _speed_gate(
        benchmark, "pool_vs_templated_serial",
        {"max_workers": 1, "template": True},
        {"max_workers": 2, "template": True})
    assert pooled.used_process_pool
    assert [pickle.dumps(e) for e in pooled.canonical_entries()] == \
        [pickle.dumps(e) for e in serial.canonical_entries()]
    assert speedup >= 1.0, (
        f"zero-copy 2-worker pool ran at {speedup:.3f}x the templated "
        "serial path; fork-shared bring-up + dirty-set restore should at "
        "least break even against serial templating on >=2 cores")
