"""Picklable result envelopes for the parallel sweep engine.

Workers cannot ship a live :class:`~repro.winsim.machine.Machine` (or its
attached controller) back to the parent — nor should they: the parent only
consumes traces, results and verdicts. A :class:`PairEnvelope` carries the
full :class:`~repro.experiments.runner.PairOutcome` with per-run machine
references stripped, plus a :class:`SweepStats` record; a
:class:`SweepError` is the structured failure report a sweep records
instead of aborting (the graceful-degradation story).

The second half of this module is the *binary* wire format those entries
cross the process boundary in. A chunk of results travels as one framed
blob: a magic/version preamble, a :class:`ChunkHeader` describing the
worker that produced it (pid, whether it ran on fork-shared state, its
delta-restore counters), then one self-delimiting record frame per entry.
Each frame names the record type it carries, stores a crc32 of its
payload, and compresses the payload when that is a win — and each entry
is pickled *separately* inside its frame, so decoded entries are free of
cross-entry object sharing and stay byte-identical to individually
submitted jobs. Compression stays because it was measured: a sweep
pair's frame is ~4.4 KB raw and ~1.6 KB compressed, and without it the
pooled full-corpus sweep's peak RSS rose from 54.5 to 58.0 MB while its
throughput won only 2 of 5 alternating pairs. Corruption anywhere (bad magic, wrong version, crc
mismatch, type-tag mismatch) raises :class:`EnvelopeError` at decode;
the sweep degrades the affected chunk to per-job errors instead of
aborting.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import struct
import zlib
from typing import List, Optional, Tuple, Union

from ..telemetry.snapshot import MetricsSnapshot


@dataclasses.dataclass(frozen=True)
class SweepStats:
    """Per-sample execution statistics attached to every outcome."""

    sample_md5: str
    index: int
    worker_pid: int
    retry_count: int
    wall_time_s: float
    #: Fingerprint attempts Scarecrow's engine logged during the with-run.
    fingerprint_events: int
    #: Evasion predicates the sample evaluated across both configurations.
    checks_evaluated: int
    #: Kernel events captured across both traces.
    trace_events: int


@dataclasses.dataclass(frozen=True)
class SweepError:
    """One sample that kept failing after its retry budget."""

    index: int
    sample_md5: str
    error_type: str
    message: str
    traceback: str
    worker_pid: int
    retry_count: int
    #: Telemetry delta recorded while the job failed (None when disabled).
    metrics: Optional[MetricsSnapshot] = None

    def __str__(self) -> str:
        return (f"sample {self.sample_md5} (#{self.index}): "
                f"{self.error_type}: {self.message} "
                f"[worker {self.worker_pid}, {self.retry_count} retries]")


@dataclasses.dataclass
class PairEnvelope:
    """One successful pair execution, ready to cross a process boundary."""

    index: int
    outcome: "PairOutcome"
    stats: SweepStats
    #: Telemetry delta recorded while this pair executed (None when the
    #: telemetry layer is disabled). Deltas from every envelope merge into
    #: pool-wide totals identical to a serial run.
    metrics: Optional[MetricsSnapshot] = None

    def detached(self) -> "PairEnvelope":
        """A copy with machine/controller references stripped.

        Everything the experiments consume — traces, run results, root
        pids, the comparison verdict — survives; only the live simulation
        objects are dropped.
        """
        return dataclasses.replace(self, outcome=detach_outcome(self.outcome))


SweepEntry = Union[PairEnvelope, SweepError]


def detach_outcome(outcome: "PairOutcome") -> "PairOutcome":
    """Copy of ``outcome`` with live machine/controller references stripped.

    The picklable core every comparison works on — also what the
    template-parity check hashes when proving a templated run matches its
    fresh-factory reference byte for byte.
    """
    return dataclasses.replace(
        outcome,
        without=dataclasses.replace(outcome.without,
                                    machine=None, controller=None),
        with_scarecrow=dataclasses.replace(outcome.with_scarecrow,
                                           machine=None, controller=None))


def canonical_entry(entry: SweepEntry) -> SweepEntry:
    """``entry`` with host-noise fields normalised for cross-path comparison.

    Worker pids, host wall-clock seconds and ``wallclock.*`` latency
    metrics legitimately differ between serial, templated-serial and
    pooled executions of the same corpus; nothing else may. The canonical
    form therefore pickles byte-identically across all three paths — the
    property the benchmark and the parity tests assert.
    """
    metrics = (entry.metrics.deterministic()
               if entry.metrics is not None else None)
    if isinstance(entry, SweepError):
        return dataclasses.replace(entry, worker_pid=0, metrics=metrics)
    stats = dataclasses.replace(entry.stats, worker_pid=0, wall_time_s=0.0)
    return dataclasses.replace(entry, stats=stats, metrics=metrics)


def build_envelope(index: int, outcome: "PairOutcome", retry_count: int,
                   wall_time_s: float,
                   metrics: Optional[MetricsSnapshot] = None
                   ) -> PairEnvelope:
    """Wrap a finished pair with its execution statistics."""
    controller = outcome.with_scarecrow.controller
    fingerprint_events = (len(controller.fingerprint_events())
                          if controller is not None else 0)
    checks = (len(outcome.without.result.checks_evaluated) +
              len(outcome.with_scarecrow.result.checks_evaluated))
    trace_events = (len(outcome.without.trace) +
                    len(outcome.with_scarecrow.trace))
    stats = SweepStats(
        sample_md5=outcome.sample.md5, index=index,
        worker_pid=os.getpid(), retry_count=retry_count,
        wall_time_s=wall_time_s, fingerprint_events=fingerprint_events,
        checks_evaluated=checks, trace_events=trace_events)
    return PairEnvelope(index=index, outcome=outcome, stats=stats,
                        metrics=metrics)


# -- binary wire format --------------------------------------------------------

class EnvelopeError(RuntimeError):
    """A framed record or chunk failed validation at decode time."""


#: Frame preamble: magic, version, flags, type-tag length.
_FRAME_MAGIC = b"RE"
_FRAME_VERSION = 1
_FRAME_HEAD = struct.Struct(">2sBBB")      # magic, version, flags, kind_len
_FRAME_BODY = struct.Struct(">II")         # payload_len, crc32

_CHUNK_MAGIC = b"RCK1"
_CHUNK_HEAD = struct.Struct(">4sH")        # magic, record count

#: Payload is zlib-compressed (set only when compression actually shrank it).
FLAG_COMPRESSED = 0x01


@dataclasses.dataclass(frozen=True)
class ChunkHeader:
    """Worker-side provenance attached to every result chunk.

    This is how "zero-copy" stays an observed fact: each chunk states
    whether its worker ran on the fork-inherited database/template or fell
    back to pickled transfer, and how many delta restores it performed
    while producing these entries.
    """

    worker_pid: int
    #: Worker resolved its database from the fork-shared registry.
    shared_database: bool = False
    #: Worker resolved its pre-built template from the fork-shared registry.
    shared_template: bool = False
    #: Delta (dirty-set) restores performed while this chunk executed.
    delta_restores: int = 0
    #: Full restores performed while this chunk executed.
    full_restores: int = 0
    #: Total dirty-subsystem count across this chunk's delta restores.
    dirty_subsystems: int = 0


def encode_record(record: object) -> bytes:
    """Frame one record: type-tagged, crc-protected, compressed when smaller.

    The record is pickled on its own — never batched with its chunk
    siblings — which is what keeps decoded entries byte-identical to
    entries that crossed the boundary one pickle at a time.
    """
    kind = type(record).__name__.encode("ascii")
    if len(kind) > 255:
        raise EnvelopeError(f"record type name too long: {len(kind)}")
    raw = pickle.dumps(record)
    compressed = zlib.compress(raw, 6)
    flags = 0
    payload = raw
    if len(compressed) < len(raw):
        flags |= FLAG_COMPRESSED
        payload = compressed
    return b"".join((
        _FRAME_HEAD.pack(_FRAME_MAGIC, _FRAME_VERSION, flags, len(kind)),
        kind,
        _FRAME_BODY.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF),
        payload,
    ))


def _decode_frame(data: bytes, offset: int) -> Tuple[object, int]:
    """Decode one frame at ``offset``; returns (record, next_offset)."""
    head_end = offset + _FRAME_HEAD.size
    if head_end > len(data):
        raise EnvelopeError("truncated frame head")
    magic, version, flags, kind_len = _FRAME_HEAD.unpack_from(data, offset)
    if magic != _FRAME_MAGIC:
        raise EnvelopeError(f"bad frame magic {magic!r}")
    if version != _FRAME_VERSION:
        raise EnvelopeError(f"unsupported frame version {version}")
    kind_end = head_end + kind_len
    body_end = kind_end + _FRAME_BODY.size
    if body_end > len(data):
        raise EnvelopeError("truncated frame body")
    kind = data[head_end:kind_end].decode("ascii")
    payload_len, crc = _FRAME_BODY.unpack_from(data, kind_end)
    payload_end = body_end + payload_len
    if payload_end > len(data):
        raise EnvelopeError("truncated frame payload")
    payload = data[body_end:payload_end]
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise EnvelopeError(f"crc mismatch in {kind} frame")
    if flags & FLAG_COMPRESSED:
        try:
            payload = zlib.decompress(payload)
        except zlib.error as exc:
            raise EnvelopeError(f"corrupt compressed payload: {exc}") from exc
    try:
        record = pickle.loads(payload)
    except Exception as exc:
        raise EnvelopeError(f"unpicklable {kind} payload: {exc}") from exc
    if type(record).__name__ != kind:
        raise EnvelopeError(
            f"frame tagged {kind} decoded to {type(record).__name__}")
    return record, payload_end


def decode_record(data: bytes) -> object:
    """Decode a single framed record; the whole buffer must be consumed."""
    record, end = _decode_frame(data, 0)
    if end != len(data):
        raise EnvelopeError(f"{len(data) - end} trailing bytes after frame")
    return record


def encode_chunk(entries: List[SweepEntry], header: ChunkHeader) -> bytes:
    """Frame a chunk: preamble, header frame, one frame per entry."""
    frames = [encode_record(header)]
    frames.extend(encode_record(entry) for entry in entries)
    return _CHUNK_HEAD.pack(_CHUNK_MAGIC, len(entries)) + b"".join(frames)


def decode_chunk(data: bytes) -> Tuple[List[SweepEntry], ChunkHeader]:
    """Decode a framed chunk back to its entries and provenance header."""
    if len(data) < _CHUNK_HEAD.size:
        raise EnvelopeError("truncated chunk head")
    magic, count = _CHUNK_HEAD.unpack_from(data, 0)
    if magic != _CHUNK_MAGIC:
        raise EnvelopeError(f"bad chunk magic {magic!r}")
    offset = _CHUNK_HEAD.size
    header, offset = _decode_frame(data, offset)
    if not isinstance(header, ChunkHeader):
        raise EnvelopeError(
            f"chunk header frame decoded to {type(header).__name__}")
    entries: List[SweepEntry] = []
    for _ in range(count):
        record, offset = _decode_frame(data, offset)
        entries.append(record)
    if offset != len(data):
        raise EnvelopeError(
            f"{len(data) - offset} trailing bytes after chunk")
    return entries, header
