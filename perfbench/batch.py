"""The two batch workloads: ``corpus_sweep`` and ``fleet_batch``.

Both time whole calls of a public entry point, repeated until the run's
measuring time is used up. A batch call hands every verdict back at
once, so an operation's time from due to verdict is the wall time of its
call: ``latency_p50_ms`` is the median call wall, ``latency_p98_ms`` the
nearest-rank 98th percentile of the call walls (with a few calls per
run, the slowest), and ``bulk_p50_ms``, which has no second tenant here,
repeats the median call wall. ``throughput_per_s`` is the median over
calls of operations per call wall.
"""

from __future__ import annotations

import collections
import os
import random
import shutil
import time
from typing import Any, Callable, Dict, List, Tuple

from .common import (SCRATCH, WORKERS, CheckFailed, median, peak_rss_mb,
                     percentile, print_mix)
from .tracing import (BENCH_SPAN, Tracer, layer_counts, layer_rows, merge,
                      read_worker_files)

#: Figure 4 of the paper: 944 of the 1,054 MalGene samples deactivated.
CORPUS_PAIRS = 1054
CORPUS_DEACTIVATED = 944

#: ``fleet_batch`` shape: ``repro fleet --jobs 2 --shards 2 --factory
#: end-user`` with a queue limit that gives endpoint batches of tens of
#: events.
FLEET_ENDPOINTS = 32
FLEET_EVENTS = 2048
FLEET_QUEUE_LIMIT = 256
FLEET_SHARDS = 2

#: One-item calls timed for ``setup_s`` before each timed call of an
#: untraced run; the median over the run is reported. Spreading them over
#: the run keeps one slow stretch of the host from moving all of them.
SETUP_PER_CALL = 2

Call = Callable[[int], Tuple[int, int]]


class BatchRun:
    """Repeated timed calls of one workload, optionally traced.

    Untraced, each timed call is preceded by ``SETUP_PER_CALL`` timed
    one-item calls, the ``setup_s`` samples. With tracing on, untraced
    and traced calls alternate so that ``trace.overhead_share`` compares
    calls of the same run, and no set-up samples are taken.
    """

    def __init__(self, seconds: float, trace: bool) -> None:
        self.seconds = seconds
        self.trace = trace
        self.walls: Dict[bool, List[float]] = {False: [], True: []}
        self.ops: Dict[bool, int] = {False: 0, True: 0}
        self.attempted = 0
        self.failed = 0
        self.snapshots: List[Dict[str, Any]] = []
        self.setups: List[float] = []
        self.tracer = Tracer() if trace else None

    def run(self, call: Call, setup: Callable[[], Any]) -> None:
        start = time.perf_counter()
        index = 0
        while (not self.walls[False] or (self.trace and not self.walls[True])
               or time.perf_counter() - start < self.seconds):
            traced = self.trace and index % 2 == 1
            if not self.trace:
                for _ in range(SETUP_PER_CALL):
                    setup_start = time.perf_counter()
                    setup()
                    self.setups.append(time.perf_counter() - setup_start)
            wall, (ops, failed) = (self._traced(call, index) if traced
                                   else self._timed(call, index))
            self.walls[traced].append(wall)
            self.ops[traced] += ops
            self.attempted += ops
            self.failed += failed
            index += 1

    @staticmethod
    def _timed(call: Call, index: int) -> Tuple[float, Tuple[int, int]]:
        start = time.perf_counter()
        outcome = call(index)
        return time.perf_counter() - start, outcome

    def _traced(self, call: Call, index: int
                ) -> Tuple[float, Tuple[int, int]]:
        tracer = self.tracer
        assert tracer is not None
        flush_dir = SCRATCH / f"trace-{os.getpid()}-{index}"
        flush_dir.mkdir(parents=True, exist_ok=True)
        try:
            tracer.reset()
            tracer.flush_dir = flush_dir
            tracer.install()
            try:
                wall, outcome = self._timed(tracer.wrap(BENCH_SPAN, call),
                                            index)
            finally:
                tracer.remove()
            self.snapshots.append(merge([tracer.snapshot()] +
                                        read_worker_files(flush_dir)))
        finally:
            shutil.rmtree(flush_dir, ignore_errors=True)
        return wall, outcome

    def end_to_end(self) -> Dict[str, float]:
        walls = self.walls[False]
        ops_per_call = self.ops[False] / len(walls)
        wall = median(walls)
        return {
            "setup_s": median(self.setups),
            "ok_share": 1.0 - self.failed / self.attempted,
            "peak_rss_mb": peak_rss_mb(),
            "throughput_per_s": median(ops_per_call / w for w in walls),
            "latency_p50_ms": wall * 1e3,
            "latency_p98_ms": percentile(walls, 98) * 1e3,
            "bulk_p50_ms": wall * 1e3,
        }

    def per_layer(self) -> Dict[str, float]:
        totals = merge(self.snapshots)
        ops = self.ops[True]
        traced_wall_ns = sum(self.walls[True]) * 1e9
        incl = totals["incl_ns"]
        values = layer_rows(totals, ops)
        values.update(layer_counts(totals, ops))
        values.update({
            "parallel.worker.busy_share":
                incl.get("parallel.worker", 0) / (WORKERS * traced_wall_ns),
            "parallel.parent.wait_share":
                incl.get("parallel.parent.wait", 0) / traced_wall_ns,
            "parallel.worker_init_ms":
                incl.get("parallel.worker_init", 0) / 1e6
                / len(self.walls[True]),
            "trace.overhead_share":
                median(self.walls[True]) / median(self.walls[False]) - 1.0,
        })
        return values


# -- corpus_sweep -------------------------------------------------------------

def corpus_sweep(seed: int, seconds: float, trace: bool
                 ) -> Tuple[int, int, Dict[str, float]]:
    """Figure 4: the full MalGene corpus through the pooled sweep."""
    from repro.malware.corpus import build_malgene_corpus
    from repro.parallel import ParallelSweep

    corpus = build_malgene_corpus()
    if len(corpus) != CORPUS_PAIRS:
        raise CheckFailed(f"corpus has {len(corpus)} samples, "
                          f"expected {CORPUS_PAIRS}")
    rng = random.Random(seed)

    def sweep() -> Any:
        return ParallelSweep(max_workers=WORKERS,
                             machine_factory="bare-metal-light")

    families = collections.Counter(sample.family for sample in corpus)
    print_mix("corpus_sweep", {
        "pairs": len(corpus),
        "distinct_samples": len({sample.md5 for sample in corpus}),
        "families": len(families),
        "largest_family": max(families.values()),
        "workers": WORKERS,
    })

    def call(index: int) -> Tuple[int, int]:
        order = list(corpus)
        rng.shuffle(order)
        result = sweep().run(order)
        errors = len(result.errors)
        deactivated = sum(1 for comparison in result.comparisons
                          if comparison.deactivated)
        if errors or len(result.entries) != CORPUS_PAIRS or \
                deactivated != CORPUS_DEACTIVATED:
            raise CheckFailed(
                f"sweep pass {index}: {deactivated}/{len(result.entries)} "
                f"deactivated with {errors} error(s); expected "
                f"{CORPUS_DEACTIVATED}/{CORPUS_PAIRS} with none")
        return len(result.entries), errors

    runner = BatchRun(seconds, trace)
    runner.run(call, lambda: sweep().run(corpus[:1]))
    values = runner.per_layer() if trace else runner.end_to_end()
    return runner.attempted, runner.failed, values


# -- fleet_batch --------------------------------------------------------------

def _fleet_service(seed: int, events: int, workers: int, shards: int) -> Any:
    from repro.fleet import FleetService
    return FleetService(endpoints=FLEET_ENDPOINTS, events=events, seed=seed,
                        max_workers=workers, shards=shards,
                        machine_factory="end-user",
                        queue_limit=FLEET_QUEUE_LIMIT)


def _fleet_report(service: Any) -> Tuple[Any, str]:
    """One fleet run and its report, as ``repro fleet`` produces them.

    ``build_fleet_report`` is looked up at call time so the traced run's
    wrapper sees it.
    """
    import repro.fleet.report as report_module
    result = service.run()
    return result, report_module.build_fleet_report(result).to_json()


def fleet_batch(seed: int, seconds: float, trace: bool
                ) -> Tuple[int, int, Dict[str, float]]:
    """The offline fleet: generated stream, pooled sharded dispatch."""
    from repro.fleet.endpoint import FAILED_LABEL
    from repro.fleet.events import generate_events
    from repro.fleet.service import plan_rounds

    stream = generate_events(seed, FLEET_ENDPOINTS, FLEET_EVENTS)
    kinds = collections.Counter(event.kind for event in stream)
    print_mix("fleet_batch", {
        "events": len(stream),
        "distinct_endpoints": len({event.endpoint_id for event in stream}),
        "events_per_kind": dict(sorted(kinds.items())),
        "distinct_sample_refs": len({event.ref for event in stream
                                     if event.kind == "malware"}),
        "distinct_benign_refs": len({event.ref for event in stream
                                     if event.kind == "benign"}),
        "events_per_batch": len(stream) / plan_rounds(
            stream, FLEET_QUEUE_LIMIT).total_batches,
        "workers": WORKERS,
        "shards": FLEET_SHARDS,
    })
    reports: List[str] = []

    def call(index: int) -> Tuple[int, int]:
        result, report = _fleet_report(
            _fleet_service(seed, FLEET_EVENTS, WORKERS, FLEET_SHARDS))
        if len(result.records) != FLEET_EVENTS or not result.completed:
            raise CheckFailed(f"fleet run {index}: {len(result.records)} "
                              f"of {FLEET_EVENTS} events completed")
        reports.append(report)
        failed = sum(1 for record in result.records
                     if record.label == FAILED_LABEL)
        return len(result.records), failed

    runner = BatchRun(seconds, trace)
    runner.run(call, lambda: _fleet_report(
        _fleet_service(seed, 1, WORKERS, FLEET_SHARDS)))
    values = runner.per_layer() if trace else runner.end_to_end()

    # Outside the timed region: the serial single-shard reference.
    _, reference = _fleet_report(_fleet_service(seed, FLEET_EVENTS, 1, 1))
    mismatched = [index for index, report in enumerate(reports)
                  if report != reference]
    if mismatched:
        raise CheckFailed(f"fleet rollup of run(s) {mismatched} differs "
                          "from the serial single-shard reference")
    return runner.attempted, runner.failed, values
