"""E15 — telemetry layer overhead on the winapi dispatch hot path.

The telemetry layer's contract is that it is effectively free when
disabled: each instrumented site pays at most two ``TELEMETRY.enabled``
attribute reads per API call. This benchmark measures

* per-call dispatch cost with telemetry disabled (the tier-1 default),
* the raw cost of the enabled-flag guard itself (x2, the worst case a
  call can see), and
* per-call dispatch cost with telemetry enabled (counters + histogram),

asserts the guard stays under 10% of the disabled dispatch cost, and
writes ``BENCH_telemetry.json`` next to the repo root.

Run: ``pytest benchmarks/bench_telemetry.py --benchmark-only -s``
"""

import json
import os
import pathlib
import time

from repro import winapi
from repro.core import ScarecrowController
from repro.telemetry.metrics import TELEMETRY
from repro.winsim.machine import Machine

ITERATIONS = 20_000
ROUNDS = 3
OUTPUT = pathlib.Path(__file__).resolve().parent.parent / \
    "BENCH_telemetry.json"


def _bare_api():
    machine = Machine().boot()
    process = machine.spawn_process("bench.exe", parent=machine.explorer)
    api = winapi.bind(machine, process)
    api.quiet = True
    return api


def _hooked_api():
    machine = Machine().boot()
    target = ScarecrowController(machine).launch("C:\\dl\\bench.exe")
    api = winapi.bind(machine, target)
    api.quiet = True
    return api


def _dispatch_ns(api, iterations=ITERATIONS, rounds=ROUNDS):
    """Best-of-N per-call dispatch cost of IsDebuggerPresent, in ns."""
    best = None
    for _ in range(rounds):
        start = time.perf_counter_ns()
        for _ in range(iterations):
            api.IsDebuggerPresent()
        elapsed = (time.perf_counter_ns() - start) / iterations
        best = elapsed if best is None else min(best, elapsed)
        api.call_log.clear()
    return best


def _guard_ns(iterations=ITERATIONS * 10, rounds=ROUNDS):
    """Best-of-N cost of one disabled-path guard (attribute read + branch)."""
    registry = TELEMETRY
    best = None
    for _ in range(rounds):
        start = time.perf_counter_ns()
        for _ in range(iterations):
            if registry.enabled:
                raise AssertionError("registry must stay disabled here")
        elapsed = (time.perf_counter_ns() - start) / iterations
        best = elapsed if best is None else min(best, elapsed)
    return best


def test_bench_telemetry_overhead(benchmark):
    prior = TELEMETRY.enabled
    TELEMETRY.disable()
    try:
        bare = _bare_api()
        hooked = _hooked_api()

        disabled_ns = benchmark.pedantic(_dispatch_ns, args=(bare,),
                                         rounds=1, iterations=1)
        disabled_hooked_ns = _dispatch_ns(hooked)
        guard_ns = _guard_ns()

        TELEMETRY.reset()
        TELEMETRY.enable()
        enabled_ns = _dispatch_ns(bare)
        enabled_hooked_ns = _dispatch_ns(hooked)
        recorded = TELEMETRY.snapshot()
    finally:
        TELEMETRY.reset()
        TELEMETRY.enabled = prior

    # The enabled run actually recorded through the hot path.
    assert recorded.counters["api.calls"] > 0
    assert any(name.startswith("api.latency_ns.")
               for name in recorded.histograms)

    # Acceptance: disabled telemetry costs < 10% of dispatch. Each call
    # pays at most two guard reads (api dispatch + hook layer).
    guard_share = 2 * guard_ns / disabled_ns
    assert guard_share < 0.10, \
        f"disabled guard is {guard_share:.1%} of dispatch " \
        f"({guard_ns:.0f}ns guard vs {disabled_ns:.0f}ns call)"

    # Enabled-mode accounting stays the same order of magnitude.
    assert enabled_ns / disabled_ns < 5.0
    assert enabled_hooked_ns / disabled_hooked_ns < 5.0

    payload = {
        "benchmark": "telemetry_dispatch_overhead",
        "iterations": ITERATIONS,
        "cpu_cores": os.cpu_count(),
        "disabled_dispatch_ns": round(disabled_ns, 1),
        "disabled_hooked_dispatch_ns": round(disabled_hooked_ns, 1),
        "guard_ns": round(guard_ns, 2),
        "guard_share_of_dispatch": round(guard_share, 4),
        "enabled_dispatch_ns": round(enabled_ns, 1),
        "enabled_hooked_dispatch_ns": round(enabled_hooked_ns, 1),
        "enabled_over_disabled": round(enabled_ns / disabled_ns, 3),
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n",
                      encoding="utf-8")
    print(f"\nwrote {OUTPUT.name}: disabled={disabled_ns:.0f}ns "
          f"guard x2={2 * guard_ns:.0f}ns ({guard_share:.1%}) "
          f"enabled={enabled_ns:.0f}ns")
