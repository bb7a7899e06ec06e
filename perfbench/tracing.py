"""Span aggregation for the traced benchmark run.

The traced run wraps public functions and methods of the program from the
benchmark's own files; nothing under ``src/`` changes. A wrapper keeps,
per span name, a call count, the inclusive time and the self time
(inclusive time minus the time of wrapped calls nested inside it). Hot
leaves such as ``HookManager.install`` (about 47 calls per injection) or
``ApiContext.call`` therefore cost one dictionary update per call, not
one span object.

Self times telescope: over any tree of nested spans, the self times add
up exactly to the outermost (root) span's duration. The benchmark's own
root span in the parent process, ``bench.call``, is the only span whose
self time is not a layer of the program; it is reported as
``bench.unattributed``.

Where a span name comes from: each :data:`SPANS` entry names a module,
an attribute path inside it and the layer row it counts towards.
From-imports bind early, so a function imported by name into a second
module (``serve/backend.py`` imports ``execute_fleet_batch``) is patched
in every module that calls it. Wrappers are installed before any pool
forks; forked workers reset their inherited totals and write their
cumulative totals to a file at the end of every chunk, because pool
workers exit through ``os._exit`` and ``atexit`` never runs there.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, attribute path, span name). Methods are patched on the class
#: that defines them, so subclasses inheriting them are covered once.
SPANS: Tuple[Tuple[str, str, str], ...] = (
    # serve: the asyncio front-end and its in-process backend.
    ("repro.serve.server", "FleetServer.handle_line", "serve.handle"),
    ("repro.serve.server", "parse_request", "serve.protocol"),
    ("repro.serve.server", "parse_events", "serve.protocol"),
    ("repro.serve.server", "encode_response", "serve.protocol"),
    ("repro.serve.server", "encode_error", "serve.protocol"),
    ("repro.serve.backend", "ShardedBackend.submit", "serve.backend"),
    ("repro.serve.backend", "execute_fleet_batch", "fleet.batch"),
    ("repro.serve.backend", "initialize_fleet_worker",
     "parallel.worker_init"),
    # fleet: admission planning, endpoint batches, endpoints, rollups.
    ("repro.fleet.service", "generate_events", "fleet.plan"),
    ("repro.fleet.service", "plan_rounds", "fleet.plan"),
    ("repro.fleet.service", "execute_fleet_batch", "fleet.batch"),
    ("repro.fleet.service", "execute_fleet_chunk", "parallel.worker"),
    ("repro.fleet.service", "FleetService._dispatch", "fleet.dispatch"),
    ("repro.fleet.service", "_wait_any", "parallel.parent.wait"),
    ("repro.fleet.service", "initialize_fleet_worker",
     "parallel.worker_init"),
    ("repro.fleet.service", "FleetService._publish_shared",
     "parallel.publish"),
    ("repro.fleet.service", "make_executor", "parallel.pool"),
    ("repro.fleet.service", "encode_chunk", "parallel.envelope"),
    ("repro.fleet.service", "decode_chunk", "parallel.envelope"),
    ("repro.fleet.endpoint", "ProtectedEndpoint.__init__",
     "fleet.endpoint_init"),
    ("repro.fleet.endpoint", "ProtectedEndpoint.reset",
     "fleet.endpoint_init"),
    ("repro.fleet.endpoint", "ProtectedEndpoint.handle_event",
     "fleet.event"),
    ("repro.fleet.report", "ShardRollup.from_records", "fleet.rollup"),
    ("repro.fleet.report", "merge_shard_rollups", "fleet.rollup"),
    ("repro.fleet.report", "build_fleet_report", "fleet.rollup"),
    # parallel: pool, fixtures, templates, envelopes, parent waits.
    ("repro.parallel.worker", "execute_pair_chunk", "parallel.worker"),
    ("repro.parallel.sweep", "initialize_worker", "parallel.worker_init"),
    ("repro.parallel.sweep", "ParallelSweep._publish_shared",
     "parallel.publish"),
    ("repro.parallel.sweep", "make_executor", "parallel.pool"),
    ("repro.parallel.sweep", "decode_chunk", "parallel.envelope"),
    ("repro.parallel.worker", "encode_chunk", "parallel.envelope"),
    ("repro.parallel.template", "MachineTemplate.build",
     "parallel.worker_init"),
    ("repro.parallel.template", "MachineTemplate.checkout",
     "parallel.checkout"),
    ("concurrent.futures", "ProcessPoolExecutor.submit", "parallel.pool"),
    ("concurrent.futures", "ProcessPoolExecutor.shutdown", "parallel.pool"),
    ("concurrent.futures", "Future.result", "parallel.parent.wait"),
    ("concurrent.futures", "wait", "parallel.parent.wait"),
    # core: controller lifecycle, DLL injection, deception database.
    ("repro.core.controller", "ScarecrowController.__init__",
     "core.controller"),
    ("repro.core.controller", "ScarecrowController.start",
     "core.controller"),
    ("repro.core.controller", "ScarecrowController.launch",
     "core.controller"),
    ("repro.core.controller", "ScarecrowController.shutdown",
     "core.controller"),
    ("repro.core.controller", "ScarecrowController.drain_reports",
     "core.controller"),
    ("repro.core.dll", "ScarecrowDll.on_inject", "core.inject"),
    ("repro.core.database", "DeceptionDatabase.lookup_file", "core.db"),
    ("repro.core.database", "DeceptionDatabase.lookup_process", "core.db"),
    ("repro.core.database", "DeceptionDatabase.lookup_library", "core.db"),
    ("repro.core.database", "DeceptionDatabase.lookup_window", "core.db"),
    ("repro.core.database", "DeceptionDatabase.lookup_registry_key",
     "core.db"),
    ("repro.core.database", "DeceptionDatabase.lookup_registry_value",
     "core.db"),
    ("repro.core.database", "DeceptionDatabase.lookup_device", "core.db"),
    ("repro.core.database", "DeceptionDatabase.lookup_mutex", "core.db"),
    ("repro.core.database", "FrozenDeceptionDatabase.lookup_registry_key",
     "core.db"),
    ("repro.core.database", "DeceptionDatabase.__init__", "core.db.build"),
    ("repro.core.database", "DeceptionDatabase.snapshot_bytes",
     "core.db.build"),
    ("repro.core.database", "FrozenDeceptionDatabase.from_snapshot",
     "core.db.build"),
    # hooking: inline hook installs, hooked-call dispatch, IPC reports.
    ("repro.hooking.inline", "HookManager.install", "hooking.install"),
    ("repro.hooking.inline", "HookManager.dispatch", "hooking.dispatch"),
    ("repro.hooking.ipc", "IpcEndpoint.send", "hooking.ipc"),
    # winapi / winsim: API dispatch, processes, Deep Freeze state.
    ("repro.winapi.calling", "ApiContext.call", "winapi.call"),
    ("repro.winsim.machine", "Machine.spawn_process", "winsim.spawn"),
    ("repro.winsim.machine", "Machine.snapshot", "winsim.snapshot"),
    ("repro.winsim.machine", "Machine.restore", "winsim.restore"),
    ("repro.winsim.machine", "Machine.restore_state", "winsim.restore"),
    # malware: sample and benign-installer bodies.
    ("repro.malware.sample", "EvasiveSample.run", "malware.run"),
    ("repro.malware.benign", "BenignProgram.run", "malware.run"),
    # analysis: the sweep's tracer and verdict comparison.
    ("repro.experiments.runner", "run_sample", "analysis.run_sample"),
    ("repro.experiments.runner", "compare_runs", "analysis.compare"),
    ("repro.analysis.tracer", "Tracer.start", "analysis.trace"),
    ("repro.analysis.tracer", "Tracer.stop", "analysis.trace"),
    ("repro.analysis.tracer", "Tracer._on_event", "analysis.trace"),
)

#: Layer rows in table order; every span name above is one of them.
ROWS: Tuple[str, ...] = (
    "serve.handle", "serve.protocol", "serve.backend",
    "fleet.plan", "fleet.dispatch", "fleet.batch", "fleet.event",
    "fleet.endpoint_init",
    "fleet.rollup",
    "parallel.pool", "parallel.publish", "parallel.worker_init",
    "parallel.worker", "parallel.parent.wait", "parallel.checkout",
    "parallel.envelope",
    "core.controller", "core.inject", "core.db", "core.db.build",
    "hooking.install", "hooking.dispatch", "hooking.ipc",
    "winapi.call", "winsim.spawn", "winsim.snapshot", "winsim.restore",
    "malware.run", "analysis.run_sample", "analysis.trace",
    "analysis.compare",
)

#: The benchmark's own root span in the parent process.
BENCH_SPAN = "bench.call"


class Tracer:
    """Per-process span totals plus the wrappers that feed them.

    ``flush_dir`` set: a forked worker writes its cumulative totals to
    ``flush_dir/<pid>.json`` after every chunk it runs.
    """

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = {}
        self.incl_ns: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        self.counters: Dict[str, int] = {}
        self.stack: List[int] = []
        self.root_ns = 0
        #: Per-request serve records (see :meth:`_serve_hooks`).
        self.requests: List[Dict[str, Any]] = []
        self.request: Optional[Dict[str, Any]] = None
        self.flush_dir: Optional[Path] = None
        self.owner_pid = os.getpid()
        self._saved: List[Tuple[Any, str, Any]] = []
        self._gc_started = 0
        os.register_at_fork(after_in_child=self.reset)

    # -- totals ---------------------------------------------------------------

    def reset(self) -> None:
        """Zero every total in place (wrappers hold these containers)."""
        self.self_ns.clear()
        self.incl_ns.clear()
        self.calls.clear()
        self.counters.clear()
        self.stack.clear()
        self.requests.clear()
        self.request = None
        self.root_ns = 0

    def count(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def snapshot(self) -> Dict[str, Any]:
        return {"self_ns": dict(self.self_ns), "incl_ns": dict(self.incl_ns),
                "calls": dict(self.calls), "counters": dict(self.counters),
                "root_ns": self.root_ns}

    def flush(self) -> None:
        """Worker side: persist cumulative totals (atomic replace)."""
        if self.flush_dir is None or os.getpid() == self.owner_pid:
            return
        path = self.flush_dir / f"{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()))
        os.replace(tmp, path)

    # -- wrappers -------------------------------------------------------------

    def wrap(self, name: str, fn: Callable[..., Any],
             before: Optional[Callable[[tuple], Any]] = None,
             after: Optional[Callable[..., None]] = None
             ) -> Callable[..., Any]:
        """``fn`` timed under span ``name``.

        ``before(args)`` runs ahead of the span and its return value is
        handed to ``after(args, result, token, elapsed_ns)``, which runs
        once the span has closed.
        """
        self_ns, incl_ns, calls, stack = (self.self_ns, self.incl_ns,
                                          self.calls, self.stack)
        clock = time.perf_counter_ns
        tracer = self

        def close(start: int) -> int:
            elapsed = clock() - start
            child = stack.pop()
            self_ns[name] = self_ns.get(name, 0) + elapsed - child
            incl_ns[name] = incl_ns.get(name, 0) + elapsed
            calls[name] = calls.get(name, 0) + 1
            if stack:
                stack[-1] += elapsed
            else:
                tracer.root_ns += elapsed
            return elapsed

        if inspect.iscoroutinefunction(fn):
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                token = before(args) if before is not None else None
                depth = len(stack)
                stack.append(0)
                start = clock()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    if len(stack) != depth + 1:
                        # Another task opened spans while this one was
                        # suspended; its totals are no longer exact.
                        tracer.count("trace.interleaved")
                        del stack[depth + 1:]
                    elapsed = close(start)
                if after is not None:
                    after(args, result, token, elapsed)
                return result
            wrapper: Callable[..., Any] = async_wrapper
        else:
            def sync_wrapper(*args: Any, **kwargs: Any) -> Any:
                token = before(args) if before is not None else None
                stack.append(0)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = close(start)
                if after is not None:
                    after(args, result, token, elapsed)
                return result
            wrapper = sync_wrapper
        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(wrapper, attr, getattr(fn, attr, None))
        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def install(self, serve: bool = False) -> None:
        """Patch every :data:`SPANS` target until :meth:`remove`.

        ``serve`` adds the per-request hooks the server launcher uses.
        """
        if self._saved:
            return
        hooks = self._hooks()
        if serve:
            hooks.update(self._serve_hooks())
        for module_name, path, name in SPANS:
            owner = importlib.import_module(module_name)
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            attr = parts[-1]
            raw = (owner.__dict__[attr] if isinstance(owner, type)
                   else getattr(owner, attr))
            before, after = hooks.get(path, (None, None))
            if isinstance(raw, classmethod):
                patched: Any = classmethod(
                    self.wrap(name, raw.__func__, before, after))
            else:
                patched = self.wrap(name, raw, before, after)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, patched)
        gc.callbacks.append(self._on_gc)
        # Pickle resolves a pool's task function by module and name and
        # insists on finding the very object it was given: the sweep and
        # its worker module must hold one shared wrapper.
        import repro.parallel.sweep as sweep_module
        import repro.parallel.worker as worker_module
        self._saved.append((sweep_module, "execute_pair_chunk",
                            sweep_module.execute_pair_chunk))
        sweep_module.execute_pair_chunk = worker_module.execute_pair_chunk

    def remove(self) -> None:
        """Restore every patched attribute (reverse order)."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        """Garbage-collector pauses, which land inside whatever span is
        open; counted again here so their share of the wall is visible."""
        if phase == "start":
            self._gc_started = time.perf_counter_ns()
        else:
            self.count("runtime.gc_ns",
                       time.perf_counter_ns() - self._gc_started)

    # -- counters taken around spans ------------------------------------------

    def _hooks(self) -> Dict[str, Tuple[Optional[Callable],
                                        Optional[Callable]]]:
        count = self.count

        def batch_events(args: tuple, result: Any, token: Any,
                         elapsed: int) -> None:
            count("fleet.batch_events", len(args[0].events))

        def encoded_bytes(args: tuple, result: Any, token: Any,
                          elapsed: int) -> None:
            count("parallel.envelope_bytes", len(result))

        def flush(args: tuple, result: Any, token: Any,
                  elapsed: int) -> None:
            self.flush()

        def restore_counts(args: tuple) -> Tuple[int, int, int]:
            template = args[0]
            return (template.delta_restore_count,
                    template.full_restore_count,
                    template.dirty_subsystem_total)

        def restore_delta(args: tuple, result: Any,
                          token: Tuple[int, int, int], elapsed: int) -> None:
            delta, full, dirty = restore_counts(args)
            count("parallel.delta_restores", delta - token[0])
            count("parallel.full_restores", full - token[1])
            count("parallel.dirty_subsystems", dirty - token[2])

        def peer_dropped(args: tuple) -> int:
            peer = args[0].peer
            return peer.dropped if peer is not None else 0

        def ipc_sent(args: tuple, result: Any, token: int,
                     elapsed: int) -> None:
            count("hooking.ipc_sent")
            count("hooking.ipc_dropped", peer_dropped(args) - token)

        return {
            "execute_fleet_batch": (None, batch_events),
            "encode_chunk": (None, encoded_bytes),
            "execute_pair_chunk": (None, flush),
            "execute_fleet_chunk": (None, flush),
            "MachineTemplate.checkout": (restore_counts, restore_delta),
            "IpcEndpoint.send": (peer_dropped, ipc_sent),
        }

    def _serve_hooks(self) -> Dict[str, Tuple[Optional[Callable],
                                              Optional[Callable]]]:
        """Per-request stamps: handle_line entry, protocol time spent
        before the backend, backend entry and exit (monotonic ns, which
        the load generator in another process shares on one host)."""
        clock = time.monotonic_ns

        def enter(args: tuple) -> None:
            self.request = {"id": None, "entry": clock(), "protocol": 0,
                            "submit": None, "submit_end": None}

        def leave(args: tuple, result: Any, token: Any,
                  elapsed: int) -> None:
            if self.request is not None:
                self.requests.append(self.request)
            self.request = None

        def parsed(args: tuple, result: Any, token: Any,
                   elapsed: int) -> None:
            request = self.request
            if request is None:
                return
            if request["id"] is None and hasattr(result, "id"):
                request["id"] = result.id
            if request["submit"] is None:
                request["protocol"] += elapsed

        def submit_start(args: tuple) -> None:
            if self.request is not None:
                self.request["submit"] = clock()

        def submit_end(args: tuple, result: Any, token: Any,
                       elapsed: int) -> None:
            if self.request is not None:
                self.request["submit_end"] = clock()

        return {
            "FleetServer.handle_line": (enter, leave),
            "parse_request": (None, parsed),
            "parse_events": (None, parsed),
            "ShardedBackend.submit": (submit_start, submit_end),
        }


def merge(snapshots: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum per-process totals."""
    merged: Dict[str, Any] = {"self_ns": {}, "incl_ns": {}, "calls": {},
                              "counters": {}, "root_ns": 0}
    for snap in snapshots:
        for key in ("self_ns", "incl_ns", "calls", "counters"):
            bucket = merged[key]
            for name, value in snap[key].items():
                bucket[name] = bucket.get(name, 0) + value
        merged["root_ns"] += snap["root_ns"]
    return merged


def read_worker_files(directory: Path) -> List[Dict[str, Any]]:
    return [json.loads(path.read_text())
            for path in sorted(directory.glob("*.json"))]


def layer_rows(totals: Dict[str, Any], ops: int,
               loop_ns: int = 0) -> Dict[str, float]:
    """Self-time rows in microseconds per operation.

    ``bench.unattributed`` is the benchmark root's own self time plus
    ``loop_ns`` (server time outside every request span); the rows
    together with it add up to ``trace.wall.us_per_op``.
    """
    ops = max(1, ops)
    self_ns = totals["self_ns"]
    rows = {f"{row}.us_per_op": self_ns.get(row, 0) / 1e3 / ops
            for row in ROWS}
    unattributed = self_ns.get(BENCH_SPAN, 0) + loop_ns
    rows["bench.unattributed.us_per_op"] = unattributed / 1e3 / ops
    wall = totals["root_ns"] + loop_ns
    rows["trace.wall.us_per_op"] = wall / 1e3 / ops
    rows["trace.coverage_share"] = ((wall - unattributed) / wall
                                    if wall else 0.0)
    rows["runtime.gc_share"] = (totals["counters"].get("runtime.gc_ns", 0)
                                / wall if wall else 0.0)
    return rows


def layer_counts(totals: Dict[str, Any], ops: int) -> Dict[str, float]:
    """Work counts per operation and the ratios taken at layer edges."""
    ops = max(1, ops)
    calls = totals["calls"]
    counters = totals["counters"]
    delta = counters.get("parallel.delta_restores", 0)
    restores = delta + counters.get("parallel.full_restores", 0)
    sent = counters.get("hooking.ipc_sent", 0)
    batches = calls.get("fleet.batch", 0)
    return {
        "fleet.events_per_batch": (counters.get("fleet.batch_events", 0)
                                   / batches if batches else 0.0),
        "parallel.checkout.delta_share": delta / restores if restores else 0.0,
        "parallel.restore.dirty_per_restore": (
            counters.get("parallel.dirty_subsystems", 0) / delta
            if delta else 0.0),
        "parallel.envelope.bytes_per_op":
            counters.get("parallel.envelope_bytes", 0) / ops,
        "core.inject.calls_per_op": calls.get("core.inject", 0) / ops,
        "core.db.lookups_per_op": calls.get("core.db", 0) / ops,
        "hooking.install.calls_per_op": calls.get("hooking.install", 0) / ops,
        "hooking.dispatch.calls_per_op":
            calls.get("hooking.dispatch", 0) / ops,
        "hooking.ipc.dropped_share": (counters.get("hooking.ipc_dropped", 0)
                                      / sent if sent else 0.0),
        "winapi.call.calls_per_op": calls.get("winapi.call", 0) / ops,
        "winsim.spawn.calls_per_op": calls.get("winsim.spawn", 0) / ops,
        "trace.interleaved_calls": float(counters.get("trace.interleaved", 0)),
    }
