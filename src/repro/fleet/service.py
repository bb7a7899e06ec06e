"""Fleet coordinator: global admission, sharded dispatch, checkpoint/resume.

:class:`FleetService` turns a generated event stream into rounds of
per-endpoint batches and pushes them through the same process-pool
machinery the corpus sweep uses (:func:`~repro.parallel.sweep.
make_executor` with a fleet-specific initializer). The moving parts:

* **Backpressure** — events admit into a bounded queue
  (:func:`plan_rounds`); when the queue is full the producer stalls and
  the queue drains as one *round* of per-endpoint batches. Queue
  high-water mark and stall counts surface in the run result. Admission
  is planned **globally, before routing** — a pure function of the
  stream — so the admission statistics are identical at any shard count.
* **Sharding** — each global round's batches route to N independent
  shards (:func:`~repro.fleet.shard.shard_of`:
  ``endpoint_id % shards``); shards pipeline concurrently over one
  shared executor (at most one in-flight round each, no global per-round
  barrier), each with its own checkpoint file and partial rollup. The
  global report merges per-shard :class:`~repro.fleet.report.
  ShardRollup` partials — byte-identical for any ``shards`` value.
* **Dispatch** — each shard round's batches ship in auto-sized chunks
  (:func:`~repro.parallel.sweep.auto_chunksize`); each worker stamps its
  endpoint machine from a :class:`~repro.parallel.template.
  MachineTemplate` instead of rebuilding it per batch.
* **Degradation** — a per-event retry budget inside the worker turns
  exhausted failures into structured :func:`~repro.fleet.endpoint.
  failed_event_record` entries; a chunk whose *submission* fails (poisoned
  pool, unpicklable payload) reruns in-process and the run reports
  ``used_process_pool=False`` honestly.
* **Checkpointing** — after every shard round the shard's completed
  batches are written to its JSON checkpoint (atomic ``os.replace``); a
  resumed run validates the configuration fingerprint (which includes
  the shard count), replays the stored batches, and continues —
  producing a rollup byte-identical to the uninterrupted run.

Determinism contract: same ``(seed, endpoints, events, profile)`` means
the same stream, the same rounds, and the same sorted record list —
serial or pooled, fresh or resumed, for ``shards ∈ {1, 2, 4, ...}``.
Nothing here reads the host clock or host entropy (scarelint
SC001/SC002); latency lives on the endpoints' virtual clocks and
wall-time belongs to callers (the CLI).
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import json
import pickle
import zlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.database import DeceptionDatabase, FrozenDeceptionDatabase
from ..core.profiles import ScarecrowConfig
from ..malware.benign import BenignProgram, build_cnet_corpus
from ..malware.sample import EvasiveSample
from ..parallel import shared
from ..parallel.envelope import ChunkHeader, decode_chunk, encode_chunk
from ..parallel.executor import pool_scope
from ..parallel.factories import FactorySpec
from ..parallel.sweep import auto_chunksize, make_executor
from ..parallel.worker import (TEMPLATE_MODES, TemplateMode,
                               WorkerFixtures, acquire_fixtures,
                               install_fixtures, installed_fixtures)
from ..telemetry.metrics import TELEMETRY
from ..telemetry.snapshot import MetricsSnapshot
from .endpoint import EventRecord, ProtectedEndpoint, failed_event_record
from .events import FleetEvent, WorkloadProfile, build_sample_pool, \
    generate_events
from .report import ShardRollup
from .shard import (BatchJob, BatchResult, FleetChunk, FleetCheckpointError,
                    FleetShard, ShardOutcome, build_shards, shard_of)

#: Factory fleet endpoints are stamped from by default: the end-user
#: machine is the expensive, realistic build where templating pays most.
DEFAULT_FLEET_FACTORY = "end-user"

#: Default admission-queue bound (events buffered before a drain round).
DEFAULT_QUEUE_LIMIT = 32

#: Checkpoint schema version (part of the fingerprint). v2: sharded
#: layout — the fingerprint carries the shard count and each shard file
#: carries its index.
CHECKPOINT_VERSION = 2


# -- admission planning -------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class AdmissionPlan:
    """Deterministic round structure plus the admission statistics.

    ``rounds`` is a tuple of rounds; each round is a tuple of
    ``(endpoint_id, events)`` batches in first-arrival order.
    """

    rounds: Tuple[Tuple[Tuple[int, Tuple[FleetEvent, ...]], ...], ...]
    queue_depth_hwm: int
    backpressure_stalls: int

    @property
    def total_batches(self) -> int:
        return sum(len(round_batches) for round_batches in self.rounds)


def group_round(queue: Sequence[FleetEvent]
                ) -> Tuple[Tuple[int, Tuple[FleetEvent, ...]], ...]:
    """Group one drained queue by endpoint, first-arrival order."""
    order: List[int] = []
    grouped: Dict[int, List[FleetEvent]] = {}
    for event in queue:
        if event.endpoint_id not in grouped:
            grouped[event.endpoint_id] = []
            order.append(event.endpoint_id)
        grouped[event.endpoint_id].append(event)
    return tuple((endpoint_id, tuple(grouped[endpoint_id]))
                 for endpoint_id in order)


def plan_rounds(events: Sequence[FleetEvent],
                queue_limit: int) -> AdmissionPlan:
    """Pure admission model: bounded queue, drain-on-full.

    The producer admits events until the queue holds ``queue_limit``; the
    next arrival *stalls* (counted) and forces a drain — the queued
    events become one round, grouped per endpoint so each endpoint's
    events stay in arrival order on one machine. Being a pure function of
    the stream, the plan is identical however the rounds later execute —
    and in particular identical at any shard count, which is why the
    admission statistics sit on the byte-identity surface.
    """
    if queue_limit < 1:
        raise ValueError("queue_limit must be >= 1")
    rounds: List[Tuple[Tuple[int, Tuple[FleetEvent, ...]], ...]] = []
    queue: List[FleetEvent] = []
    hwm = 0
    stalls = 0
    for event in events:
        if len(queue) >= queue_limit:
            stalls += 1
            rounds.append(group_round(queue))
            queue = []
        queue.append(event)
        hwm = max(hwm, len(queue))
    if queue:
        rounds.append(group_round(queue))
    return AdmissionPlan(tuple(rounds), hwm, stalls)


@dataclasses.dataclass
class FleetFixtures:
    """Worker fixtures plus the fleet extras: the pools ``FleetEvent.ref``
    indexes into, and the pre-pickled database snapshots a ``repro.dbops``
    rollout may stamp into :attr:`~repro.fleet.shard.BatchJob.db_version`.
    """

    worker: WorkerFixtures
    samples: List[EvasiveSample]
    benign: List[BenignProgram]
    version_blobs: Dict[int, bytes]
    version_dbs: Dict[int, FrozenDeceptionDatabase] = dataclasses.field(
        default_factory=dict)

    def database_for(self, version_id: int) -> FrozenDeceptionDatabase:
        """The frozen database for a stamped version id (lazily rehydrated).

        Ids without a side-loaded blob resolve to the base database — the
        serving backend re-initializes with the rolled-out version *as*
        the base, so its stamps carry no separate blob.
        """
        database = self.version_dbs.get(version_id)
        if database is None:
            blob = self.version_blobs.get(version_id)
            database = self.worker.database if blob is None else \
                FrozenDeceptionDatabase.from_snapshot(pickle.loads(blob))
            self.version_dbs[version_id] = database
        return database


def initialize_fleet_worker(factory_spec: FactorySpec,
                            db_snapshot: Any,
                            config: Optional[ScarecrowConfig],
                            telemetry: bool = False,
                            template: TemplateMode = True,
                            profile: Optional[WorkloadProfile] = None,
                            shared_keys: Optional[shared.SharedKeys] = None,
                            version_blobs: Optional[Dict[int, bytes]] = None
                            ) -> FleetFixtures:
    """Pool/serial initializer: install (and return) this worker's fleet
    fixtures — :func:`~repro.parallel.worker.acquire_fixtures`, exactly
    as for a sweep worker, plus the sample pool ``profile`` selects, the
    benign corpus and ``version_blobs`` (rehydrated lazily, on first use).
    """
    fixtures = FleetFixtures(
        worker=acquire_fixtures(factory_spec, db_snapshot, config, telemetry,
                                template, shared_keys),
        samples=build_sample_pool(profile), benign=build_cnet_corpus(),
        version_blobs=dict(version_blobs or {}))
    return install_fixtures(fixtures)


def _run_event(endpoint: ProtectedEndpoint, event: FleetEvent,
               max_retries: int, fixtures: FleetFixtures
               ) -> Tuple[EventRecord, int]:
    """One event with its retry budget; failures become structured records."""
    retries = 0
    while True:
        try:
            record = endpoint.handle_event(event, fixtures.samples,
                                           fixtures.benign)
        except Exception as exc:
            if retries < max_retries:
                retries += 1
                if TELEMETRY.enabled:
                    TELEMETRY.count("fleet.retries")
                continue
            if TELEMETRY.enabled:
                TELEMETRY.count("fleet.event_errors")
            return failed_event_record(
                event, endpoint.endpoint_id, retries,
                f"{type(exc).__name__}: {exc}"), retries
        if retries:
            record = dataclasses.replace(record, retries=retries)
        return record, retries


def execute_fleet_batch(job: BatchJob, fixtures: FleetFixtures
                        ) -> BatchResult:
    """Run one endpoint batch against ``fixtures``."""
    baseline = TELEMETRY.snapshot() if TELEMETRY.enabled else None
    worker = fixtures.worker
    machine = worker.machine_source()
    database = fixtures.database_for(job.db_version) if job.db_version \
        else worker.database
    endpoint = ProtectedEndpoint(
        job.endpoint_id, machine, database, worker.config)
    records: List[EventRecord] = []
    retries_total = 0
    try:
        for event in job.events:
            record, retries = _run_event(endpoint, event, job.max_retries,
                                         fixtures)
            retries_total += retries
            records.append(record)
    finally:
        endpoint.close()
    if job.db_version:
        records = [dataclasses.replace(record, db_version=job.db_version)
                   for record in records]
    metrics = TELEMETRY.snapshot().diff_from(baseline) \
        if baseline is not None else None
    return BatchResult(index=job.index, endpoint_id=job.endpoint_id,
                       records=tuple(records), retries=retries_total,
                       resets=endpoint.reset_count, metrics=metrics)


def execute_fleet_chunk(chunk: FleetChunk) -> bytes:
    """Pool entry point: one framed binary chunk envelope.

    Each batch result is pickled in its own frame (the sweep's per-entry
    pickling discipline — byte parity with the serial path).
    """
    fixtures = installed_fixtures()
    if not isinstance(fixtures, FleetFixtures):
        raise RuntimeError(
            "fleet worker not initialized (initialize_fleet_worker)")
    return encode_chunk(*fixtures.worker.run_chunk(
        chunk.jobs, lambda job: execute_fleet_batch(job, fixtures)))


# -- run result ---------------------------------------------------------------

@dataclasses.dataclass
class FleetRunResult:
    """Everything one :meth:`FleetService.run` produced.

    ``records`` is seq-sorted and identical across serial/pooled,
    fresh/resumed and any-shard-count executions; the execution-shape
    fields (``chunks``, ``degraded_chunks``, ``used_process_pool``,
    ``resumed_rounds``, ``shards``...) are honest observability and
    deliberately excluded from the byte-identity surface
    (:meth:`~repro.fleet.report.FleetReport.to_json`).
    """

    endpoints: int
    seed: int
    events_planned: int
    records: List[EventRecord]
    batches: List[BatchResult]
    queue_depth_hwm: int
    backpressure_stalls: int
    rounds_total: int
    rounds_done: int
    resumed_rounds: int
    #: Events replayed from the checkpoint rather than executed here
    #: (throughput accounting must not credit this run with them).
    events_resumed: int
    chunks: int
    degraded_chunks: int
    used_process_pool: bool
    completed: bool
    #: True only when every chunk's worker reported running on the
    #: fork-inherited database (and template) — observed provenance from
    #: :class:`~repro.parallel.envelope.ChunkHeader`, never an assumption.
    shared_state_used: bool = False
    #: Per-chunk worker provenance (execution shape, like ``chunks``).
    chunk_headers: List[ChunkHeader] = dataclasses.field(default_factory=list)
    #: Shard layout this run executed under (execution shape).
    shards: int = 1
    #: Shard-round units in the plan / done so far. For ``shards == 1``
    #: these equal ``rounds_total`` / ``rounds_done``; for more shards a
    #: global round splits into up to ``shards`` shard-rounds.
    shard_rounds_total: int = 0
    shard_rounds_done: int = 0
    #: Per-shard execution summaries (observability).
    shard_outcomes: List[ShardOutcome] = dataclasses.field(
        default_factory=list)
    #: Version-router summary (``repro.dbops`` rollout/experiment);
    #: ``None`` when the run had no router. Observability, not identity.
    dbops: Optional[Dict[str, Any]] = None
    #: Full deterministic A/B assignment (endpoint id → arm name) when
    #: the router carried an experiment; feeds the report's arm rollups.
    endpoint_arms: Dict[int, str] = dataclasses.field(default_factory=dict)
    #: Name of the experiment's control arm ("" without an experiment).
    control_arm: str = ""

    def delta_restores(self) -> int:
        """Dirty-set template restores performed across all chunks."""
        return sum(h.delta_restores for h in self.chunk_headers)

    def shard_rollups(self) -> List[ShardRollup]:
        """Per-shard partial rollups — the inputs to the global merge.

        Partitioned by the routing rule (``endpoint_id % shards``) over
        the seq-sorted records, so the partials are pure functions of the
        record set and the shard count — scheduling cannot move a byte.
        """
        groups: List[List[EventRecord]] = [[] for _ in range(self.shards)]
        for record in self.records:
            groups[shard_of(record.endpoint_id, self.shards)].append(record)
        return [ShardRollup.from_records(group) for group in groups]

    def merged_metrics(self) -> MetricsSnapshot:
        """Batch telemetry deltas folded together, plus service counters.

        Associative/commutative merge — pool and shard scheduling cannot
        change the totals. Batch deltas are empty when telemetry was
        disabled; the service-level admission and shard counters are
        always present.
        """
        merged = MetricsSnapshot.empty()
        for batch in self.batches:
            if batch.metrics is not None:
                merged = merged.merge(batch.metrics)
        service = MetricsSnapshot(
            counters={"fleet.rounds": self.rounds_done,
                      "fleet.chunks": self.chunks,
                      "fleet.degraded_chunks": self.degraded_chunks,
                      "fleet.backpressure_stalls": self.backpressure_stalls,
                      "shard.rounds": self.shard_rounds_done,
                      "shard.rounds_resumed": self.resumed_rounds},
            gauges={"fleet.queue_depth_hwm": float(self.queue_depth_hwm),
                    "fleet.endpoints": float(self.endpoints),
                    "shard.count": float(self.shards)})
        merged = merged.merge(service)
        if self.dbops is not None:
            merged = merged.merge(MetricsSnapshot(
                counters={"dbops.stamped_batches":
                          int(self.dbops.get("stamped_batches", 0)),
                          "dbops.rollbacks":
                          int(self.dbops.get("rolled_back", False))},
                gauges={"dbops.target_version":
                        float(self.dbops.get("target_version", 0))}))
        return merged


# -- the service --------------------------------------------------------------

class FleetService:
    """Long-lived multi-endpoint protection service (one run = one call).

    Construction is cheap and validation-only; :meth:`run` does the work.
    ``telemetry=None`` inherits the process-wide setting; ``shards``
    splits the fleet into independently-dispatched slices (see module
    docstring); ``stop_after_rounds`` (on :meth:`run`) is the kill
    switch the checkpoint/resume tests use to simulate an interrupted
    service.
    """

    def __init__(self, endpoints: int = 8, events: int = 64,
                 seed: int = 42, *,
                 profile: Optional[WorkloadProfile] = None,
                 machine_factory: FactorySpec = DEFAULT_FLEET_FACTORY,
                 database: Optional[DeceptionDatabase] = None,
                 config: Optional[ScarecrowConfig] = None,
                 max_workers: int = 1,
                 shards: int = 1,
                 queue_limit: int = DEFAULT_QUEUE_LIMIT,
                 chunksize: Optional[int] = None,
                 max_retries: int = 1,
                 telemetry: Optional[bool] = None,
                 template: TemplateMode = True,
                 checkpoint_path: Optional[str] = None,
                 resume: bool = False,
                 version_router: Optional[Any] = None) -> None:
        if endpoints < 1:
            raise ValueError("endpoints must be >= 1")
        if events < 0:
            raise ValueError("events must be >= 0")
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if chunksize is not None and chunksize < 1:
            raise ValueError("chunksize must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if resume and not checkpoint_path:
            raise ValueError("resume=True requires a checkpoint_path")
        if template not in TEMPLATE_MODES:
            raise ValueError(
                f"template must be one of {TEMPLATE_MODES}, got {template!r}")
        self.endpoints = endpoints
        self.events = events
        self.seed = seed
        self.profile = profile
        self.machine_factory = machine_factory
        self.database = database
        self.config = config
        self.max_workers = max_workers
        #: Shard count is part of the checkpoint fingerprint (a shard's
        #: file only makes sense under the layout that wrote it) but NOT
        #: part of the byte-identity surface — any value yields the same
        #: global rollup.
        self.shards = shards
        self.queue_limit = queue_limit
        self.chunksize = chunksize
        self.max_retries = max_retries
        self.telemetry = telemetry
        #: Machine-reuse mode, as for the sweep, except that "verify"
        #: means the dirty-set cross-check only (no fresh re-run).
        #: Execution shape, so not part of the checkpoint fingerprint.
        self.template = template
        self.checkpoint_path = checkpoint_path
        self.resume = resume
        #: Deception-DB version router (duck-typed — ``repro.dbops``
        #: supplies :class:`~repro.dbops.rollout.RolloutEngine` and
        #: :class:`~repro.dbops.assignment.ABExperiment`; the fleet layer
        #: never imports dbops). Must provide ``bind_base(blob)``,
        #: ``version_blobs()``, ``assign_round(jobs, global_round,
        #: shard_records, shard_index)``, ``fingerprint()`` and
        #: ``summary()``.
        self.version_router = version_router
        self._local_ready = False

    # -- configuration identity ----------------------------------------------

    def _fingerprint(self, db_blob: bytes) -> dict:
        """JSON-normalized identity a checkpoint must match to resume.

        Everything that changes the event stream, its outcomes or the
        checkpoint layout is in here; execution shape (workers,
        chunksize, templating) is not — those are free to differ between
        the interrupted run and the resume because the results are
        identical by construction. ``shards`` IS included: it determines
        which endpoints a shard's checkpoint file covers.
        """
        spec = self.machine_factory
        factory_name = spec if isinstance(spec, str) else \
            getattr(spec, "__qualname__", repr(spec))
        profile = self.profile or WorkloadProfile()
        raw = {
            "version": CHECKPOINT_VERSION,
            "seed": self.seed,
            "endpoints": self.endpoints,
            "events": self.events,
            "queue_limit": self.queue_limit,
            "shards": self.shards,
            "factory": factory_name,
            "db_crc": zlib.crc32(db_blob),
            "config": None if self.config is None
            else dataclasses.asdict(self.config),
            "profile": profile.fingerprint(),
        }
        if self.version_router is not None:
            # Version stamps land in checkpointed records, so a resume
            # must replay under the same rollout/experiment configuration
            # — routerless checkpoints keep their pre-dbops fingerprint.
            raw["dbops"] = self.version_router.fingerprint()
        return json.loads(json.dumps(raw, sort_keys=True))

    # -- execution -------------------------------------------------------------

    def run(self, stop_after_rounds: Optional[int] = None) -> FleetRunResult:
        """Execute (or resume) the fleet run.

        ``stop_after_rounds`` bounds how many *new* shard-rounds this
        call starts before returning a partial (``completed=False``)
        result — combined with ``checkpoint_path`` it simulates a
        service killed mid-run; a later ``resume=True`` run picks up
        where it stopped. (For ``shards == 1`` a shard-round is exactly
        a global admission round — the pre-shard semantics.)
        """
        stream = generate_events(self.seed, self.endpoints, self.events,
                                 self.profile)
        plan = plan_rounds(stream, self.queue_limit)
        jobs_per_round = self._build_jobs(plan)

        database = self.database if self.database is not None \
            else DeceptionDatabase()
        db_blob = database.snapshot_bytes()
        router = self.version_router
        if router is not None:
            # Binding resets per-run router statistics and lets it detect
            # a no-op rollout (target content == base content) so the run
            # stays byte-identical to a routerless one.
            router.bind_base(db_blob)
        fingerprint = self._fingerprint(db_blob)

        shards = build_shards(jobs_per_round, self.shards,
                              self.checkpoint_path, fingerprint)
        for shard in shards:
            shard.load(self.resume)

        telemetry_on = TELEMETRY.enabled if self.telemetry is None \
            else bool(self.telemetry)
        shared_keys = self._publish_shared(db_blob)
        version_blobs = dict(router.version_blobs()) \
            if router is not None else None
        initargs = (self.machine_factory, db_blob, self.config,
                    telemetry_on, self.template, self.profile,
                    shared_keys, version_blobs)

        degraded = 0
        chunks_run = 0
        headers: List[ChunkHeader] = []
        used_pool = False
        self._local_ready = False
        prior_enabled = TELEMETRY.enabled
        try:
            if any(shard.has_pending() for shard in shards):
                executor, used_pool = make_executor(
                    initargs, self.max_workers, initialize_fleet_worker)
                with pool_scope(executor):
                    chunks_run, degraded, headers = self._dispatch(
                        executor, shards, initargs, stop_after_rounds)
        finally:
            TELEMETRY.enabled = prior_enabled

        batches = sorted((batch for shard in shards
                          for batch in shard.completed),
                         key=lambda batch: batch.index)
        records = sorted(
            (record for batch in batches for record in batch.records),
            key=lambda record: record.seq)
        outcomes = [shard.outcome() for shard in shards]
        rounds_done = self._global_rounds_done(jobs_per_round, shards)
        resumed = sum(shard.resumed_rounds for shard in shards)
        new_rounds = sum(shard.rounds_done - shard.resumed_rounds
                         for shard in shards)
        return FleetRunResult(
            endpoints=self.endpoints, seed=self.seed,
            events_planned=len(stream), records=records,
            batches=batches,
            queue_depth_hwm=plan.queue_depth_hwm,
            backpressure_stalls=plan.backpressure_stalls,
            rounds_total=len(jobs_per_round), rounds_done=rounds_done,
            resumed_rounds=resumed,
            events_resumed=sum(shard.events_resumed for shard in shards),
            chunks=chunks_run,
            degraded_chunks=degraded,
            used_process_pool=used_pool and degraded == 0 and new_rounds > 0,
            completed=all(not shard.has_pending() for shard in shards),
            shared_state_used=bool(headers) and all(
                h.shared_database and (h.shared_template or not self.template)
                for h in headers),
            chunk_headers=headers,
            shards=self.shards,
            shard_rounds_total=sum(len(shard.rounds) for shard in shards),
            shard_rounds_done=sum(shard.rounds_done for shard in shards),
            shard_outcomes=outcomes,
            dbops=None if router is None else dict(router.summary()),
            endpoint_arms=self._endpoint_arms(router),
            control_arm=getattr(router, "control_arm", "") or "")

    def _endpoint_arms(self, router: Optional[Any]) -> Dict[int, str]:
        """The router's full A/B assignment (empty without an experiment)."""
        arm_map = getattr(router, "endpoint_arms", None)
        if arm_map is None:
            return {}
        return dict(arm_map(self.endpoints))

    def _build_jobs(self, plan: AdmissionPlan) -> List[List[BatchJob]]:
        """Rounds of batch jobs with globally-unique submission indices."""
        jobs_per_round: List[List[BatchJob]] = []
        index = 0
        for round_batches in plan.rounds:
            round_jobs: List[BatchJob] = []
            for endpoint_id, batch_events in round_batches:
                round_jobs.append(BatchJob(index, endpoint_id, batch_events,
                                           self.max_retries))
                index += 1
            jobs_per_round.append(round_jobs)
        return jobs_per_round

    @staticmethod
    def _global_rounds_done(jobs_per_round: Sequence[Sequence[BatchJob]],
                            shards: Sequence[FleetShard]) -> int:
        """Global admission rounds fully covered by every owning shard."""
        done_sets = [set(shard.done_global_rounds()) for shard in shards]
        owners: Dict[int, List[int]] = {}
        for shard in shards:
            for global_index, _ in shard.rounds:
                owners.setdefault(global_index, []).append(shard.index)
        count = 0
        for global_index in range(len(jobs_per_round)):
            owning = owners.get(global_index, [])
            if all(global_index in done_sets[index] for index in owning):
                count += 1
        return count

    def _publish_shared(self, db_blob: bytes) -> shared.SharedKeys:
        """Pre-fork publish (:func:`repro.parallel.shared.publish_fixtures`)."""
        return shared.publish_fixtures(self.machine_factory, db_blob,
                                       self.template)

    # -- sharded dispatch ------------------------------------------------------

    def _dispatch(self, executor: Any, shards: Sequence[FleetShard],
                  initargs: tuple, stop_after_rounds: Optional[int]
                  ) -> Tuple[int, int, List[ChunkHeader]]:
        """Pipelined shard dispatch over one shared executor.

        Each shard keeps at most one round in flight; a shard's next
        round submits the moment its previous round lands, independent
        of the other shards' progress — the global per-round barrier the
        monolithic service had is gone. Between landings the parent
        sleeps in :func:`_wait_any` until a whole round is done, so it
        leaves the cores to the pool workers. ``stop_after_rounds`` caps
        how many shard-rounds *start*; in-flight rounds always finish (and
        checkpoint) before returning.
        """
        started = 0
        chunks_run = 0
        degraded = 0
        headers: List[ChunkHeader] = []
        inflight: Dict[int, Tuple[List[FleetChunk], List[Any]]] = {}
        while True:
            for shard in shards:
                if shard.index in inflight or not shard.has_pending():
                    continue
                if stop_after_rounds is not None and \
                        started >= stop_after_rounds:
                    continue
                round_jobs: Sequence[BatchJob] = shard.peek_round()
                if self.version_router is not None:
                    # Stamped at dispatch time, from state that is a pure
                    # function of the shard's *completed* records: each
                    # shard keeps one round in flight and its rounds land
                    # in order, so serial/pooled and fresh/resumed runs
                    # see identical histories here.
                    round_jobs = self.version_router.assign_round(
                        round_jobs, shard.peek_global_index(),
                        shard.records(), shard.index)
                chunks = self._make_chunks(round_jobs)
                futures = [executor.submit(execute_fleet_chunk, chunk)
                           for chunk in chunks]
                inflight[shard.index] = (chunks, futures)
                started += 1
            if not inflight:
                break
            _wait_any([futures for _, futures in inflight.values()])
            for index in sorted(inflight):
                chunks, futures = inflight[index]
                if not all(_future_done(future) for future in futures):
                    continue
                del inflight[index]
                results, round_degraded, round_headers = \
                    self._collect_round(chunks, futures, initargs)
                chunks_run += len(chunks)
                degraded += round_degraded
                headers.extend(round_headers)
                shards[index].finish_round(results, len(chunks),
                                           round_degraded)
        return chunks_run, degraded, headers

    def _make_chunks(self, round_jobs: Sequence[BatchJob]
                     ) -> List[FleetChunk]:
        size = self.chunksize or auto_chunksize(len(round_jobs),
                                                self.max_workers)
        return [FleetChunk(tuple(round_jobs[i:i + size]))
                for i in range(0, len(round_jobs), size)]

    def _collect_round(self, chunks: Sequence[FleetChunk],
                       futures: Sequence[Any], initargs: tuple
                       ) -> Tuple[List[BatchResult], int, List[ChunkHeader]]:
        """Decode one shard round's finished chunks, degrading on failure."""
        results: List[BatchResult] = []
        degraded = 0
        headers: List[ChunkHeader] = []
        for chunk, future in zip(chunks, futures):
            try:
                blob = future.result()
                batches, header = decode_chunk(blob)
            except Exception:
                # Graceful degradation: a poisoned worker, an unpicklable
                # surprise *or a corrupt chunk envelope* costs us the pool
                # for this chunk, not the run.
                batches, header = decode_chunk(
                    self._run_chunk_in_process(chunk, initargs))
                degraded += 1
            results.extend(batches)
            headers.append(header)
        return results, degraded, headers

    def _run_chunk_in_process(self, chunk: FleetChunk,
                              initargs: tuple) -> bytes:
        """Rerun a failed chunk in the parent, via the same code path.

        The chunk round-trips through pickle first — exactly what the
        pool submission would have done — so degraded results stay
        byte-identical to what a healthy worker would have returned.
        """
        if not self._local_ready:
            initialize_fleet_worker(*initargs)
            self._local_ready = True
        return execute_fleet_chunk(pickle.loads(pickle.dumps(chunk)))


def _future_done(future: Any) -> bool:
    """``future.done()``, treating futures without ``done`` as done.

    Fault-injected or degenerate executors may hand back bare objects
    whose only contract is ``result()``; counting them done routes them
    straight to collection, where ``result()`` raising triggers the
    in-process degradation path.
    """
    probe = getattr(future, "done", None)
    return True if probe is None else bool(probe())


def _wait_any(rounds: Sequence[Sequence[Any]]) -> None:
    """Block until at least one in-flight round has fully landed.

    ``rounds`` holds each in-flight shard round's futures. Returns at once
    when some round is already done, which is always the case for serial
    :class:`~repro.parallel.executor.ImmediateFuture` rounds. Otherwise
    the parent sleeps in ``concurrent.futures.wait(FIRST_COMPLETED)`` on
    only the futures not yet done, waking once per chunk completion
    until a whole round has landed. Each future's ``done()`` is probed
    once per call; later completions come from ``wait``'s done set, so
    the parent never spins on a half-landed round. Futures that are not
    done yet must be :class:`concurrent.futures.Future` objects, as pool
    futures are.
    """
    pending = [[future for future in futures if not _future_done(future)]
               for futures in rounds]
    while pending and all(pending):
        done, _ = concurrent.futures.wait(
            [future for group in pending for future in group],
            return_when=concurrent.futures.FIRST_COMPLETED)
        pending = [[future for future in group if future not in done]
                   for group in pending]
