"""The ``serve_mixed`` workload: two tenants against ``repro serve``.

An open-loop generator in the benchmark process drives a server process
(``perfbench/server.py``) over two TCP connections:

* ``interactive`` sends one-event submits at a fixed rate;
* ``bulk`` sends one multi-event submit on a fixed period.

Every request is timed from when it was due, so a stall also counts
against the requests queued behind it; how late the generator itself
ran is reported as ``loadgen.late_ms.p98``.

Inputs come from the benchmark's own seeded generator, not the fleet's
``generate_events``, whose low-bit LCG draws reach only some endpoints
and refs. Kinds, sample refs, benign refs and endpoints are dealt from
shuffled decks, so the realized mix matches the requested shares and
reaches every ref, every endpoint and resets on every seed.

Sample ref 0 (a Symmi sample with 474 self-spawns, 120-280 ms against
3-12 ms for an ordinary event) arrives as an interactive request on a
fixed cadence, every 2.5 s; every other one lands just before a bulk
submit, so that bulk batch and the interactive requests behind it queue
behind the heavy one. The tail then measures what the heavy request
costs and the stall it imposes, rather than how often heavy requests
happened to collide on a given seed. A heavy request takes about 60 ms
longer when a full garbage collection falls into it, which happens to
about half of them, so the tail rests on eleven heavy requests per
window rather than on a few. At about 2% of interactive requests the
heavy share is lower than a uniform draw over the 18 sample refs would
give (about 3.7%, which would push the server towards its queueing
knee on a slow host); it is a load choice, not taken from a recorded
mix. Bulk batches carry the ordinary refs.

The first ``WARMUP_S`` seconds of the schedule are sent before the
measured window opens: the server's first seconds of traffic run slower
(first runs of each sample, young garbage-collector generations), and
they would otherwise land in the window's first bulk batches.
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
import json
import math
import os
import random
import select
import signal
import socket
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .common import ROOT, CheckFailed, median, percentile, print_mix
from .tracing import layer_counts, layer_rows

#: Interactive submits per second (one event each). Over 28 s of
#: measuring time this gives 560 requests, so at least ten lie beyond
#: the 98th percentile, the tail that is reported. A rate giving ten
#: beyond the 99th (36/s) kept a slow host's server over 50% busy, where
#: the median itself stretched with the queue.
INTERACTIVE_RATE = 20.0
#: One bulk submit of ``BULK_EVENTS`` events every ``BULK_PERIOD_S``,
#: due at ``BULK_PHASE_S`` into each period: 28 submits over 28 s. Each
#: batch is exactly one kind deck, so all have the same mix and their
#: median does not sit between batches with and without a reset.
BULK_PERIOD_S = 1.0
BULK_PHASE_S = 0.5
BULK_EVENTS = 10
#: One interactive request for the heavy sample every
#: ``HEAVY_PERIOD_S``: eleven per 28 s window. Every other one is due
#: 50 ms before a bulk submit, which then waits behind it (six of the
#: window's 28 bulk batches); the others end before the next bulk.
HEAVY_PERIOD_S = 2.5
HEAVY_PHASE_S = BULK_PHASE_S - 0.05
HEAVY_REF = 0
#: Endpoints; a bulk batch takes a quarter of the endpoint deck, so all
#: its events land on distinct endpoints.
ENDPOINTS = 40

#: Requested event-kind shares per tenant, as decks. Bulk batches carry
#: the fleet's 6:3:1 malware/benign/reset mix (one batch is exactly one
#: deck). Interactive requests are program launches, malware and benign
#: 6:3; resets (reboot and Deep Freeze cycles) are maintenance and ride
#: in bulk.
KIND_DECKS = {
    "interactive": ("malware",) * 6 + ("benign",) * 3,
    "bulk": ("malware",) * 6 + ("benign",) * 3 + ("reset",),
}
SAMPLE_REFS = 18
#: Seconds of the schedule sent before the measured window (a whole
#: number of bulk periods and interactive slots, so the window keeps
#: the same phases).
WARMUP_S = 3.0
#: Ordinary sample refs (everything but the heavy one).
MALWARE_DECK = tuple(ref for ref in range(SAMPLE_REFS) if ref != HEAVY_REF)
BENIGN_REFS = 20

#: Server spawns timed for ``setup_s`` (the median is reported): before
#: the window (the last of these serves it) and after it, so one slow
#: stretch of the host does not move all of them. A traced run spawns
#: only the server it measures.
SETUP_SPAWNS_BEFORE = 4
SETUP_SPAWNS_AFTER = 4
#: Seconds allowed for a server to start, to answer, or to stop.
SPAWN_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0

WARMUP_EVENT = {"seq": 0, "at_ms": 0, "endpoint_id": 0, "kind": "benign",
                "ref": 0}


class Deck:
    """Seeded draws without replacement, reshuffled when exhausted."""

    def __init__(self, rng: random.Random, cards: Sequence[Any]) -> None:
        self._rng = rng
        self._cards = list(cards)
        self._pile: List[Any] = []

    def draw(self) -> Any:
        if not self._pile:
            self._pile = list(self._cards)
            self._rng.shuffle(self._pile)
        return self._pile.pop()


@dataclasses.dataclass
class Request:
    """One scheduled submit and what became of it."""

    id: int
    tenant: str
    due_s: float
    events: List[Dict[str, int]]
    due_ns: int = 0
    sent_ns: int = 0
    received_ns: int = 0
    #: None until answered; stays None for a refused or failed submit.
    verdicts: Optional[List[Dict[str, Any]]] = None

    def line(self) -> bytes:
        return (json.dumps({"id": self.id, "method": "submit",
                            "params": {"tenant": self.tenant,
                                       "events": self.events}})
                + "\n").encode()


def build_schedule(seed: int, seconds: float) -> List[Request]:
    """Both tenants' requests in due order; seqs follow that order."""
    rng = random.Random(seed)

    def decks(tenant: str) -> Dict[str, Deck]:
        return {"kind": Deck(rng, KIND_DECKS[tenant]),
                "malware": Deck(rng, MALWARE_DECK),
                "benign": Deck(rng, range(BENIGN_REFS)),
                "endpoint": Deck(rng, range(ENDPOINTS))}

    tenant_decks = {tenant: decks(tenant) for tenant in KIND_DECKS}
    due: List[Tuple[float, str, int]] = []
    interactive = int(seconds * INTERACTIVE_RATE)
    due.extend((index / INTERACTIVE_RATE, "interactive", 1)
               for index in range(interactive))
    due.extend((start, "bulk", BULK_EVENTS)
               for start in _periodic(seconds, BULK_PERIOD_S, BULK_PHASE_S))
    heavy = {_slot(start) for start in
             _periodic(seconds, HEAVY_PERIOD_S, HEAVY_PHASE_S)}
    due.sort()
    requests: List[Request] = []
    seq = 1
    for index, (due_s, tenant, count) in enumerate(due, start=1):
        deck = tenant_decks[tenant]
        events = []
        for _ in range(count):
            if tenant == "interactive" and _slot(due_s) in heavy:
                kind, ref = "malware", HEAVY_REF
            else:
                kind = deck["kind"].draw()
                ref = (deck["malware"].draw() if kind == "malware" else
                       deck["benign"].draw() if kind == "benign" else 0)
            events.append({"seq": seq, "at_ms": int(due_s * 1000),
                           "endpoint_id": deck["endpoint"].draw(),
                           "kind": kind, "ref": ref})
            seq += 1
        requests.append(Request(index, tenant, due_s, events))
    return requests


def split_warmup(requests: Sequence[Request], warmup_s: float
                 ) -> Tuple[List[Request], List[Request]]:
    """The requests due before ``warmup_s``, and the rest with their due
    times counted from ``warmup_s``."""
    warmup = [r for r in requests if r.due_s < warmup_s]
    window = [dataclasses.replace(r, due_s=r.due_s - warmup_s)
              for r in requests if r.due_s >= warmup_s]
    return warmup, window


def _periodic(seconds: float, period: float, phase: float) -> List[float]:
    count = max(1, int((seconds - phase) / period) + 1)
    return [index * period + phase for index in range(count)]


def _slot(due_s: float) -> int:
    """The interactive slot due at or right after ``due_s``."""
    return math.ceil(round(due_s * INTERACTIVE_RATE, 6))


def realized_mix(requests: Sequence[Request]) -> Dict[str, Any]:
    mix: Dict[str, Any] = {}
    for tenant in ("interactive", "bulk"):
        events = [event for request in requests if request.tenant == tenant
                  for event in request.events]
        kinds = collections.Counter(event["kind"] for event in events)
        mix[tenant] = {
            "requests": sum(1 for r in requests if r.tenant == tenant),
            "events_per_kind": dict(sorted(kinds.items())),
            "distinct_endpoints": len({e["endpoint_id"] for e in events}),
            "distinct_sample_refs": len({e["ref"] for e in events
                                         if e["kind"] == "malware"}),
            "distinct_benign_refs": len({e["ref"] for e in events
                                         if e["kind"] == "benign"}),
            "heavy_events": sum(1 for e in events
                                if e["kind"] == "malware"
                                and e["ref"] == HEAVY_REF),
            "events_per_batch": len(events) / max(1, sum(
                1 for r in requests if r.tenant == tenant)),
        }
    return mix


# -- server process -----------------------------------------------------------

class ServerProcess:
    """One launcher process; :meth:`stop` always reaps it. As a context
    manager it stops the server on exit and keeps the final report
    (``None`` if the server did not stop cleanly) in :attr:`report`."""

    def __init__(self, trace: bool) -> None:
        self.started = time.perf_counter()
        self.report: Optional[Dict[str, Any]] = None
        command = [sys.executable, str(ROOT / "perfbench" / "server.py"),
                   "--parent", str(os.getpid())]
        if trace:
            command.append("--trace")
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE,
                                        stdin=subprocess.DEVNULL, cwd=ROOT)
        try:
            self.port = int(self._read_line(SPAWN_TIMEOUT_S)["port"])
        except BaseException:
            self.process.kill()
            self.process.communicate()
            raise

    def _read_line(self, timeout: float) -> Dict[str, Any]:
        stdout = self.process.stdout
        assert stdout is not None
        ready, _, _ = select.select([stdout], [], [], timeout)
        line = stdout.readline() if ready else b""
        if not line:
            raise CheckFailed("server did not report its port")
        return json.loads(line)

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.report = self.stop()

    def mark_window(self) -> None:
        """Start the server's measured window (busy time, span totals);
        returns once the server has handled the signal."""
        self.process.send_signal(signal.SIGUSR1)
        # The server handles the signal on its event loop; a ping after
        # it returns only once the loop has run past it.
        time.sleep(0.2)
        ping(self.port)

    def stop(self) -> Optional[Dict[str, Any]]:
        """SIGINT, then kill after a timeout; returns the final report
        (``None`` when the server did not stop cleanly)."""
        process = self.process
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
        try:
            out, _ = process.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()
            return None
        lines = [line for line in out.splitlines() if line.strip()]
        if process.returncode != 0 or not lines:
            return None
        return json.loads(lines[-1])


def submit_once(port: int, request_id: int, events: List[Dict[str, int]]
                ) -> List[Dict[str, Any]]:
    """One blocking submit (the warm-up); returns its verdicts."""
    line = json.dumps({"id": request_id, "method": "submit",
                       "params": {"tenant": "warmup", "events": events}})
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=SPAWN_TIMEOUT_S) as sock:
        sock.sendall(line.encode() + b"\n")
        reply = sock.makefile("rb").readline()
    response = json.loads(reply)
    if "result" not in response:
        raise CheckFailed(f"warm-up submit failed: {response}")
    return response["result"]["verdicts"]


def warm_up(server: ServerProcess, setups: List[float]) -> None:
    """The first submit; records seconds from spawn to its verdict."""
    submit_once(server.port, 0, [WARMUP_EVENT])
    setups.append(time.perf_counter() - server.started)


def ping(port: int) -> None:
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=SPAWN_TIMEOUT_S) as sock:
        sock.sendall(b'{"id": 0, "method": "ping"}\n')
        sock.makefile("rb").readline()


# -- open-loop load -----------------------------------------------------------

async def drive(port: int, requests: Sequence[Request]) -> float:
    """Send every request when due; returns the window's wall seconds
    (first due time to last response)."""
    by_id = {request.id: request for request in requests}
    connections = {}
    for tenant in ("interactive", "bulk"):
        connections[tenant] = await asyncio.open_connection("127.0.0.1",
                                                            port)
    pending = {tenant: sum(1 for r in requests if r.tenant == tenant)
               for tenant in connections}

    async def read(tenant: str) -> None:
        reader = connections[tenant][0]
        while pending[tenant]:
            line = await reader.readline()
            if not line:
                return
            received = time.monotonic_ns()
            response = json.loads(line)
            request = by_id[response["id"]]
            request.received_ns = received
            if "result" in response:
                request.verdicts = response["result"]["verdicts"]
            pending[tenant] -= 1

    readers = [asyncio.ensure_future(read(tenant)) for tenant in connections]
    start_ns = time.monotonic_ns() + 50_000_000
    try:
        for request in requests:
            due_ns = start_ns + int(request.due_s * 1e9)
            delay = (due_ns - time.monotonic_ns()) / 1e9
            if delay > 0:
                await asyncio.sleep(delay)
            request.due_ns = due_ns
            request.sent_ns = time.monotonic_ns()
            # Due times are fixed in advance; the generator never waits
            # for the server (no drain), so a stall cannot slow it.
            connections[request.tenant][1].write(request.line())
        await asyncio.wait_for(asyncio.gather(*readers), DRAIN_TIMEOUT_S)
    except asyncio.TimeoutError:
        pass  # unanswered requests count as failed
    finally:
        for reader in readers:
            reader.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        for _, writer in connections.values():
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
    last = max((r.received_ns for r in requests), default=start_ns)
    return max(1, last - start_ns) / 1e9


# -- the workload -------------------------------------------------------------

def _replay(warmup: Sequence[Request], requests: Sequence[Request]
            ) -> Tuple[List[str], float]:
    """Verdicts of an in-process backend fed the same submits in the
    server's execution order (the warm-up submits first); returns the
    canonical verdict lines of all of them and the summed submit wall
    time of ``requests``."""
    from repro.fleet.events import FleetEvent
    from repro.serve.backend import ShardedBackend

    def events_of(raw: Sequence[Dict[str, int]]) -> List[Any]:
        return [FleetEvent(e["seq"], e["at_ms"], e["endpoint_id"],
                           e["kind"], e["ref"]) for e in raw]

    backend = ShardedBackend("end-user")
    backend.submit(events_of([WARMUP_EVENT]))
    lines: List[str] = []
    busy = 0.0
    for index, request in enumerate([*warmup, *requests]):
        events = events_of(request.events)
        start = time.perf_counter()
        records, _ = backend.submit(events)
        if index >= len(warmup):
            busy += time.perf_counter() - start
        lines.append(json.dumps([record.to_dict() for record in records],
                                sort_keys=True))
    return lines, busy


def answered(requests: Sequence[Request]) -> List[Request]:
    """The answered requests in the server's execution order: it runs one
    submit at a time on its event loop and answers each as it finishes,
    so arrival order is execution order."""
    done = [r for r in requests if r.received_ns and r.verdicts is not None]
    return sorted(done, key=lambda r: r.received_ns)


def serve_mixed(seed: int, seconds: float, trace: bool
                ) -> Tuple[int, int, Dict[str, float]]:
    warmup, requests = split_warmup(
        build_schedule(seed, WARMUP_S + seconds), WARMUP_S)
    print_mix("serve_mixed", realized_mix(requests))
    setups: List[float] = []
    for _ in range(1 if trace else SETUP_SPAWNS_BEFORE - 1):
        with ServerProcess(trace) as server:
            warm_up(server, setups)
    with ServerProcess(trace) as server:
        warm_up(server, setups)
        asyncio.run(drive(server.port, warmup))
        server.mark_window()
        port = server.port
        window_s = asyncio.run(drive(port, requests))
    report = server.report
    if report is None:
        raise CheckFailed("server did not shut down cleanly")

    warm_done = answered(warmup)
    if len(warm_done) != len(warmup):
        raise CheckFailed(f"{len(warmup) - len(warm_done)} warm-up submits "
                          "were not answered")
    done = answered(requests)
    failed = len(requests) - len(done)
    expected, replay_busy = _replay(warm_done, done)
    for request, reference in zip([*warm_done, *done], expected):
        if json.dumps(request.verdicts, sort_keys=True) != reference:
            raise CheckFailed(f"request {request.id}: served verdicts differ "
                              "from the in-process backend")
    for _ in range(0 if trace else SETUP_SPAWNS_AFTER):
        with ServerProcess(trace) as spare:
            warm_up(spare, setups)

    late_ms = [(r.sent_ns - r.due_ns) / 1e6 for r in requests if r.sent_ns]
    interactive = [r for r in requests if r.tenant == "interactive"]
    bulk = [r for r in requests if r.tenant == "bulk"]

    done_ids = {r.id for r in done}

    def latencies(group: Sequence[Request]) -> List[float]:
        # A refused or unanswered request misses every latency limit.
        return [(r.received_ns - r.due_ns) / 1e6 if r.id in done_ids
                else float("inf") for r in group]

    print("loadgen " + json.dumps({
        "late_ms_p50": percentile(late_ms, 50),
        "late_ms_p98": percentile(late_ms, 98),
        "window_s": window_s, "port": port}), flush=True)
    if not trace:
        verdicts = sum(len(r.verdicts or ()) for r in done)
        return len(requests), failed, {
            "setup_s": median(setups),
            "ok_share": 1.0 - failed / len(requests),
            "peak_rss_mb": float(report["rss_mb"]),
            # Capacity: verdicts per second the server was busy.
            "throughput_per_s": verdicts / (report["busy_ns"] / 1e9),
            "latency_p50_ms": percentile(latencies(interactive), 50),
            "latency_p98_ms": percentile(latencies(interactive), 98),
            "bulk_p50_ms": percentile(latencies(bulk), 50),
        }
    return len(requests), failed, _per_layer(report["trace"], requests,
                                             window_s, replay_busy, late_ms)


def _per_layer(totals: Dict[str, Any], requests: Sequence[Request],
               window_s: float, replay_busy: float,
               late_ms: List[float]) -> Dict[str, float]:
    ops = totals["counters"].get("fleet.batch_events", 0)
    # Server busy time outside every request span: the event loop's own
    # reads, writes and scheduling.
    loop_ns = max(0, totals["busy_ns"] - totals["root_ns"])
    values = layer_rows(totals, ops, loop_ns)
    values.update(layer_counts(totals, ops))
    sent = {r.id: r.sent_ns for r in requests}
    stamps = [s for s in totals["requests"]
              if s["submit"] is not None and s["id"] in sent]
    exec_wait = [(s["submit"] - s["entry"] - s["protocol"]) / 1e6
                 for s in stamps]
    admit_wait = [(s["entry"] - sent[s["id"]]) / 1e6 for s in stamps]
    busy_ns = sum(s["submit_end"] - s["submit"] for s in stamps
                  if s["submit_end"] is not None)
    values.update({
        "serve.exec_wait_ms.p50": percentile(exec_wait, 50),
        "serve.exec_wait_ms.p98": percentile(exec_wait, 98),
        "serve.admit_wait_ms.p50": percentile(admit_wait, 50),
        "serve.admit_wait_ms.p98": percentile(admit_wait, 98),
        "serve.backend.busy_share": busy_ns / 1e9 / window_s,
        "parallel.worker_init_ms": totals["init_ms"],
        "loadgen.late_ms.p98": percentile(late_ms, 98),
        "trace.overhead_share": busy_ns / 1e9 / replay_busy - 1.0,
    })
    return values
