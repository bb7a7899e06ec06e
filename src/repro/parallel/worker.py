"""Worker-side execution of sweep jobs.

Each pool worker holds its own machine source — a
:class:`~repro.parallel.template.MachineTemplate` built once at
initialisation (the default), or a plain per-run factory — plus a
read-only :class:`~repro.core.database.FrozenDeceptionDatabase` rehydrated
from the snapshot the parent shipped through the pool initializer and the
shared :class:`~repro.core.profiles.ScarecrowConfig`. Jobs arrive in
:class:`PairChunk` batches (one pool round-trip amortised over the chunk)
and retry in place (same worker, same deserialized sample) up to their
retry budget before turning into a
:class:`~repro.parallel.envelope.SweepError`.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import time
import traceback
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from ..core.database import (DatabaseSnapshot, DeceptionDatabase,
                             FrozenDeceptionDatabase)
from ..core.profiles import ScarecrowConfig
from ..malware.sample import EvasiveSample
from ..telemetry.metrics import TELEMETRY
from ..telemetry.snapshot import MetricsSnapshot
from . import shared
from .envelope import (ChunkHeader, PairEnvelope, SweepEntry, SweepError,
                       build_envelope, detach_outcome, encode_chunk)
from .factories import FactorySpec, MachineFactory, resolve_machine_factory
from .template import TEMPLATE_PARITY_ERROR, MachineTemplate

#: Per-process worker state: the ``"fixtures"`` a pool initializer installed.
_STATE: Dict[str, Any] = {}

#: ``template`` argument values accepted by :func:`initialize_worker`,
#: :class:`~repro.parallel.sweep.ParallelSweep` and
#: :class:`~repro.fleet.service.FleetService`.
TemplateMode = Union[bool, str]
TEMPLATE_MODES = (True, False, "verify")


@dataclasses.dataclass
class PairJob:
    """One (sample, submission index) unit of sweep work."""

    index: int
    sample: EvasiveSample
    max_retries: int = 1


@dataclasses.dataclass
class PairChunk:
    """A batch of :class:`PairJob` submitted as one pool round-trip."""

    jobs: List[PairJob]


def _timed_factory(build: MachineFactory) -> MachineFactory:
    """Wrap a machine source so acquisition cost lands in telemetry.

    Covers both flavours — full factory builds and template restores —
    under the one ``wallclock.machine_setup_ns`` histogram, so the
    setup-vs-execute split (against ``wallclock.job_ns``) is measured, not
    inferred. The ``wallclock.`` prefix keeps it out of deterministic
    serial-vs-pool comparisons, like every other host-time metric.
    """
    def timed() -> Any:
        if not TELEMETRY.enabled:
            return build()
        start = time.perf_counter_ns()
        machine = build()
        TELEMETRY.observe("wallclock.machine_setup_ns",
                          time.perf_counter_ns() - start)
        return machine
    return timed


@dataclasses.dataclass
class WorkerFixtures:
    """One worker's private fixtures and where they came from — for the
    sweep, the fleet and the serving backend alike (:func:`acquire_fixtures`).
    """

    database: FrozenDeceptionDatabase
    config: Optional[ScarecrowConfig]
    #: Timed machine source: a template checkout, or the bare factory.
    machine_source: MachineFactory
    fresh_factory: MachineFactory
    template: Optional[MachineTemplate]
    verify: bool
    shared_database: bool
    shared_template: bool

    def run_chunk(self, jobs: Sequence[Any], execute: Callable[[Any], Any]
                  ) -> Tuple[List[Any], ChunkHeader]:
        """Run ``jobs`` through ``execute``; returns (results, the
        :class:`ChunkHeader`: provenance plus the chunk's restore work)."""
        before = self._restore_counters()
        results = [execute(job) for job in jobs]
        after = self._restore_counters()
        return results, ChunkHeader(
            worker_pid=os.getpid(),
            shared_database=self.shared_database,
            shared_template=self.shared_template,
            delta_restores=after[0] - before[0],
            full_restores=after[1] - before[1],
            dirty_subsystems=after[2] - before[2])

    def _restore_counters(self) -> Tuple[int, int, int]:
        """(delta restores, full restores, dirty subsystems) so far."""
        template = self.template
        return (0, 0, 0) if template is None else (
            template.delta_restore_count, template.full_restore_count,
            template.dirty_subsystem_total)


def acquire_fixtures(factory_spec: FactorySpec,
                     db_snapshot: Union[DatabaseSnapshot, bytes],
                     config: Optional[ScarecrowConfig],
                     telemetry: bool, template: TemplateMode,
                     shared_keys: Optional[shared.SharedKeys]
                     ) -> WorkerFixtures:
    """Build one worker's fixtures: database, machine source, provenance.

    ``db_snapshot`` is either a live :class:`DatabaseSnapshot` or its
    pre-pickled bytes (what the sweep and the fleet ship, so serial and
    pooled workers deserialize the exact same blob).

    ``template`` selects the machine source: ``False`` rebuilds from the
    factory on every run, ``True`` builds a :class:`MachineTemplate` once
    here and rewinds it between runs, and ``"verify"`` templates *and*
    checks every checkout (:meth:`MachineTemplate.verify_clean`); the
    sweep also re-runs every sample on a fresh machine
    (:attr:`WorkerFixtures.verify`). Either check flags a divergence as
    a ``TemplateParityError``.

    ``shared_keys`` names payloads the parent published to the
    fork-shared registry (:func:`repro.parallel.shared.publish_fixtures`)
    before creating the pool. Every lookup validates and falls back to
    the pickled / rebuild path on a miss — spawn platforms, corrupted
    registries and stale keys all degrade to exactly the pre-shared
    behaviour, and the ``shared_*`` flags report which path this worker
    actually took.
    """
    TELEMETRY.enabled = bool(telemetry)
    keys = shared_keys or shared.SharedKeys()
    blob = (db_snapshot if isinstance(db_snapshot, bytes)
            else pickle.dumps(db_snapshot))
    database = shared.lookup_database(keys.database, blob)
    shared_database = database is not None
    if database is None:
        database = FrozenDeceptionDatabase.from_snapshot(pickle.loads(blob))
    factory = resolve_machine_factory(factory_spec)
    machine_template: Optional[MachineTemplate] = None
    shared_template = False
    source = factory
    if template:
        machine_template = shared.lookup_template(keys.template)
        shared_template = machine_template is not None
        if machine_template is None:
            machine_template = MachineTemplate(factory)
            _build_template(machine_template)
        source = machine_template.checkout
        if template == "verify":
            source = _verified_checkout(machine_template)
    return WorkerFixtures(
        database=database, config=config,
        machine_source=_timed_factory(source), fresh_factory=factory,
        template=machine_template, verify=template == "verify",
        shared_database=shared_database, shared_template=shared_template)


def initialize_worker(factory_spec: FactorySpec,
                      db_snapshot: Union[DatabaseSnapshot, bytes],
                      config: Optional[ScarecrowConfig],
                      telemetry: bool = False,
                      template: TemplateMode = False,
                      shared_keys: Optional[shared.SharedKeys] = None
                      ) -> WorkerFixtures:
    """Pool/serial initializer: install (and return) the sweep fixtures
    :func:`acquire_fixtures` builds."""
    return install_fixtures(acquire_fixtures(
        factory_spec, db_snapshot, config, telemetry, template,
        shared_keys))


def install_fixtures(fixtures: Any) -> Any:
    """Make ``fixtures`` this process's pool-worker fixtures."""
    _STATE["fixtures"] = fixtures
    return fixtures


def installed_fixtures() -> Any:
    """This process's pool-worker fixtures (None before any initializer)."""
    return _STATE.get("fixtures")


def _verified_checkout(machine_template: MachineTemplate) -> MachineFactory:
    """A checkout that cross-checks the skipped subsystems before use."""
    def checkout() -> Any:
        machine = machine_template.checkout()
        machine_template.verify_clean()
        return machine
    return checkout


def _build_template(machine_template: MachineTemplate) -> None:
    """Eager template build, timed separately from per-job restores."""
    if not TELEMETRY.enabled:
        machine_template.build()
        return
    start = time.perf_counter_ns()
    machine_template.build()
    TELEMETRY.observe("wallclock.template_build_ns",
                      time.perf_counter_ns() - start)


def reset_worker() -> None:
    """Drop initializer state (test hook)."""
    _STATE.clear()


def execute_pair_job(job: PairJob) -> SweepEntry:
    """Entry point the executors submit; relies on initializer state."""
    fixtures: WorkerFixtures = installed_fixtures()
    entry = run_pair_job(job, fixtures.machine_source, fixtures.database,
                         fixtures.config)
    if fixtures.verify and isinstance(entry, PairEnvelope):
        parity_error = _check_template_parity(job, entry, fixtures)
        if parity_error is not None:
            return parity_error
    return entry


def execute_pair_chunk(chunk: PairChunk) -> bytes:
    """Run a chunk of jobs; returns one framed binary chunk envelope.

    Entries are pickled one frame at a time inside the envelope (see
    :func:`~repro.parallel.envelope.encode_record`), which keeps the
    parent's decoded entries free of cross-entry object sharing — chunked
    results stay byte-identical to individually-submitted jobs.
    """
    fixtures: WorkerFixtures = installed_fixtures()
    return encode_chunk(*fixtures.run_chunk(chunk.jobs, execute_pair_job))


def _check_template_parity(job: PairJob, entry: PairEnvelope,
                           fixtures: WorkerFixtures) -> Optional[SweepError]:
    """Re-run ``job`` on a fresh-factory machine; compare pickled outcomes.

    The reference run executes with telemetry disabled so it cannot
    pollute the job's recorded metrics delta.
    """
    prior_enabled = TELEMETRY.enabled
    TELEMETRY.enabled = False
    try:
        from ..experiments.runner import run_pair
        reference = run_pair(job.sample, fixtures.fresh_factory,
                             fixtures.database, fixtures.config)
    except Exception as exc:
        return SweepError(
            index=job.index, sample_md5=job.sample.md5,
            error_type=TEMPLATE_PARITY_ERROR,
            message=("fresh-factory reference run failed: "
                     f"{type(exc).__name__}: {exc}"),
            traceback=traceback.format_exc(), worker_pid=os.getpid(),
            retry_count=entry.stats.retry_count)
    finally:
        TELEMETRY.enabled = prior_enabled
    expected = pickle.dumps(detach_outcome(reference))
    actual = pickle.dumps(entry.outcome)
    if actual == expected:
        return None
    return SweepError(
        index=job.index, sample_md5=job.sample.md5,
        error_type=TEMPLATE_PARITY_ERROR,
        message=("templated outcome diverged from fresh-factory reference "
                 f"({len(actual)} vs {len(expected)} pickled bytes)"),
        traceback="", worker_pid=os.getpid(),
        retry_count=entry.stats.retry_count)


def _job_metrics_baseline() -> Optional[MetricsSnapshot]:
    """Pre-job snapshot, or None when the telemetry layer is disabled.

    Job metrics are captured as a *delta* against this baseline rather
    than by resetting the registry, so an enclosing measurement (a CLI
    ``--telemetry`` run, a long-lived serial process) keeps accumulating —
    and the delta is identical whether the registry started empty (a
    fresh pool worker) or carried history (the serial path).
    """
    return TELEMETRY.snapshot() if TELEMETRY.enabled else None


def _finish_job_metrics(baseline: Optional[MetricsSnapshot], kind: str,
                        retries: int, wall_time_s: float,
                        failed: bool = False) -> Optional[MetricsSnapshot]:
    if baseline is None:
        return None
    TELEMETRY.count(f"worker.{kind}s")
    if failed:
        TELEMETRY.count(f"worker.{kind}s_failed")
    if retries:
        TELEMETRY.count("worker.retries", retries)
    TELEMETRY.observe(f"wallclock.{kind}_ns", int(wall_time_s * 1e9))
    return TELEMETRY.snapshot().diff_from(baseline)


def run_pair_job(job: PairJob, factory: MachineFactory,
                 database: DeceptionDatabase,
                 config: Optional[ScarecrowConfig]) -> SweepEntry:
    """Run one pair with in-worker retry; never raises."""
    from ..experiments.runner import run_pair
    start = time.perf_counter()
    baseline = _job_metrics_baseline()
    retries = 0
    while True:
        try:
            outcome = run_pair(job.sample, factory, database, config)
            break
        except Exception as exc:
            if retries >= job.max_retries:
                metrics = _finish_job_metrics(
                    baseline, "job", retries, time.perf_counter() - start,
                    failed=True)
                return SweepError(
                    index=job.index, sample_md5=job.sample.md5,
                    error_type=type(exc).__name__, message=str(exc),
                    traceback=traceback.format_exc(),
                    worker_pid=os.getpid(), retry_count=retries,
                    metrics=metrics)
            retries += 1
    wall_time_s = time.perf_counter() - start
    metrics = _finish_job_metrics(baseline, "job", retries, wall_time_s)
    envelope = build_envelope(job.index, outcome, retries, wall_time_s,
                              metrics=metrics)
    return envelope.detached()


# -- generic task workers (table2/table3-style independent cells) -------------

@dataclasses.dataclass
class TaskJob:
    """One independent callable: module-level ``fn(*args)``."""

    index: int
    label: str
    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    max_retries: int = 1


@dataclasses.dataclass(frozen=True)
class TaskResult:
    """Ordered result of one task; ``error`` is set instead of raising."""

    index: int
    label: str
    value: Any = None
    error: Optional[SweepError] = None
    worker_pid: int = -1
    retry_count: int = 0
    wall_time_s: float = 0.0
    #: Telemetry delta recorded while the task ran (None when disabled).
    metrics: Optional[MetricsSnapshot] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def execute_task_job(job: TaskJob) -> TaskResult:
    """Run one independent task with in-worker retry; never raises."""
    start = time.perf_counter()
    baseline = _job_metrics_baseline()
    retries = 0
    while True:
        try:
            value = job.fn(*job.args)
            break
        except Exception as exc:
            if retries >= job.max_retries:
                wall_time_s = time.perf_counter() - start
                return TaskResult(
                    index=job.index, label=job.label,
                    error=SweepError(
                        index=job.index, sample_md5=job.label,
                        error_type=type(exc).__name__, message=str(exc),
                        traceback=traceback.format_exc(),
                        worker_pid=os.getpid(), retry_count=retries),
                    worker_pid=os.getpid(), retry_count=retries,
                    wall_time_s=wall_time_s,
                    metrics=_finish_job_metrics(baseline, "task", retries,
                                                wall_time_s, failed=True))
            retries += 1
    wall_time_s = time.perf_counter() - start
    return TaskResult(index=job.index, label=job.label, value=value,
                      worker_pid=os.getpid(), retry_count=retries,
                      wall_time_s=wall_time_s,
                      metrics=_finish_job_metrics(baseline, "task", retries,
                                                  wall_time_s))
