"""Server process of the ``serve_mixed`` workload.

Runs :meth:`repro.serve.FleetServer.start_tcp` with the settings of
``repro serve --port 0`` (end-user factory, one shard, default tenant
limit and batch cap) and, with ``--trace``, the benchmark's span
wrappers installed first. The traced and untraced runs share this
launcher, so the only difference between them is the wrappers.

Protocol with the parent (one JSON object per stdout line):

* once listening: ``{"port": N}``;
* SIGUSR1: start the measured window: zero the busy-time count and the
  span totals (the warm-up and fixture set-up stay out of both);
* SIGINT or SIGTERM: stop, then print ``{"rss_mb": ..., "busy_ns": ...,
  "trace": ...}`` and exit 0. ``busy_ns`` is the window's wall time
  minus the time the event loop slept in its selector.

The process kills itself when the benchmark process named by
``--parent`` is gone (``PR_SET_PDEATHSIG`` where the C library offers
it, and a polling thread everywhere), so a killed benchmark leaves no
server behind. The pid comes from the benchmark rather than from
``getppid()`` here, because by the time this interpreter has started a
killed benchmark's server may already have been re-parented.

Usage: ``python3 perfbench/server.py --parent PID [--trace]``
"""

from __future__ import annotations

import argparse
import asyncio
import ctypes
import json
import os
import resource
import selectors
import signal
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

_PR_SET_PDEATHSIG = 1
_PARENT_POLL_S = 0.2


def guard_parent(parent: int) -> None:
    """Exit as soon as process ``parent``, which started this one, is
    no longer its parent."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        prctl = libc.prctl
        prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                          ctypes.c_ulong, ctypes.c_ulong]
        prctl.restype = ctypes.c_int
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # no prctl here: the polling thread below still guards

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(_PARENT_POLL_S)
        os._exit(1)

    if os.getppid() != parent:
        os._exit(1)
    threading.Thread(target=watch, name="parent-guard", daemon=True).start()


def count_idle(idle: dict) -> None:
    """Accumulate the time the event loop sleeps in its selector, so the
    server's busy time (window minus idle) is measured, not assumed."""
    selector = selectors.DefaultSelector
    original = selector.select

    def select(self, timeout=None):
        start = time.monotonic_ns()
        try:
            return original(self, timeout)
        finally:
            idle["ns"] += time.monotonic_ns() - start

    selector.select = select


async def serve(tracer, idle: dict) -> dict:
    from repro.serve import FleetServer, ServeConfig

    server = FleetServer(ServeConfig(machine_factory="end-user"))
    tcp = await server.start_tcp("127.0.0.1", 0)
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    loop.add_signal_handler(signal.SIGINT, stop.set)
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    window = {"init_ms": 0.0, "start_ns": time.monotonic_ns()}

    def mark() -> None:
        # Runs between tasks, so no request span is open here.
        window["start_ns"] = time.monotonic_ns()
        idle["ns"] = 0
        if tracer is not None:
            window["init_ms"] = \
                tracer.incl_ns.get("parallel.worker_init", 0) / 1e6
            tracer.reset()

    loop.add_signal_handler(signal.SIGUSR1, mark)
    port = tcp.sockets[0].getsockname()[1]
    print(json.dumps({"port": port}), flush=True)
    async with tcp:
        await stop.wait()
    report = {"busy_ns": time.monotonic_ns() - window["start_ns"]
              - idle["ns"], "trace": None}
    if tracer is not None:
        snapshot = tracer.snapshot()
        snapshot.update(requests=list(tracer.requests),
                        busy_ns=report["busy_ns"],
                        init_ms=window["init_ms"])
        report["trace"] = snapshot
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=int, required=True,
                        help="pid of the benchmark process")
    parser.add_argument("--trace", action="store_true",
                        help="install the span wrappers before serving")
    args = parser.parse_args()
    guard_parent(args.parent)
    tracer = None
    idle = {"ns": 0}
    count_idle(idle)
    if args.trace:
        from perfbench.tracing import Tracer
        tracer = Tracer()
        tracer.install(serve=True)
    report = asyncio.run(serve(tracer, idle))
    report["rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
