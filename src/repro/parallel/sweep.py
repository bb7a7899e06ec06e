"""`ParallelSweep` — the corpus execution engine.

Shards ``(sample, config)`` pairs across a process pool (or the in-process
fallback), reassembles results in submission order, and degrades
gracefully: a sample whose execution keeps failing becomes a structured
:class:`~repro.parallel.envelope.SweepError` entry instead of aborting the
sweep. With one shared read-only deception database snapshot per pool and
one templated (or fresh) machine per run, parallel output is
byte-identical to the serial path.

Two cost levers make the pool actually beat the serial path:

* **Machine templating** (default on): each worker builds its factory
  machine once and rewinds it between jobs via
  :class:`~repro.parallel.template.MachineTemplate`, instead of paying a
  full environment build twice per sample.
* **Chunked dispatch**: jobs ship to the pool in auto-sized chunks
  (:func:`auto_chunksize`, the ``ProcessPoolExecutor.map`` heuristic) so
  submission pickling and IPC amortise across the chunk — results still
  come back submission-ordered with per-job error isolation.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import math
import pickle
import time
import traceback
import warnings
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

from ..core.database import DeceptionDatabase
from ..core.profiles import ScarecrowConfig
from ..malware.sample import EvasiveSample
from ..telemetry.metrics import TELEMETRY
from ..telemetry.snapshot import MetricsSnapshot
from . import shared
from .envelope import (ChunkHeader, PairEnvelope, SweepEntry, SweepError,
                       SweepStats, canonical_entry, decode_chunk)
from .executor import (SerialExecutor, pool_context, pool_scope,
                       should_use_process_pool)
from .factories import FactorySpec, resolve_machine_factory
from .worker import (TEMPLATE_MODES, PairChunk, PairJob, TaskJob,
                     TaskResult, TemplateMode, execute_pair_chunk,
                     execute_pair_job, execute_task_job, initialize_worker)

#: Default machine factory — matches ``run_pair``'s historical default
#: (:func:`repro.analysis.environments.build_bare_metal_sandbox`).
DEFAULT_FACTORY = "bare-metal"


class SweepExecutionError(RuntimeError):
    """Raised by :meth:`SweepResult.outcomes_or_raise` when entries failed."""

    def __init__(self, errors: List[SweepError]) -> None:
        super().__init__(
            f"{len(errors)} sample(s) failed: " +
            "; ".join(str(error) for error in errors[:3]) +
            ("..." if len(errors) > 3 else ""))
        self.errors = errors


@dataclasses.dataclass
class SweepResult:
    """Entries in submission order, plus sweep-level metadata."""

    entries: List[SweepEntry]
    max_workers: int
    used_process_pool: bool
    wall_time_s: float
    #: True only when *every* result chunk reported that its worker ran on
    #: the fork-inherited database (and template, when templating was on)
    #: — an observed fact from :class:`ChunkHeader` provenance, never an
    #: assumption. Spawn platforms and corrupted registries report False.
    shared_state_used: bool = False
    #: Per-chunk worker provenance, in completion-collection order.
    chunk_headers: List[ChunkHeader] = dataclasses.field(default_factory=list)

    def delta_restores(self) -> int:
        """Dirty-set restores performed across all workers' chunks."""
        return sum(h.delta_restores for h in self.chunk_headers)

    def full_restores(self) -> int:
        return sum(h.full_restores for h in self.chunk_headers)

    def dirty_subsystems(self) -> int:
        """Total dirty-subsystem count across all delta restores."""
        return sum(h.dirty_subsystems for h in self.chunk_headers)

    @property
    def outcomes(self) -> List["PairOutcome"]:
        """Successful outcomes, submission-ordered."""
        return [entry.outcome for entry in self.entries
                if isinstance(entry, PairEnvelope)]

    @property
    def errors(self) -> List[SweepError]:
        return [entry for entry in self.entries
                if isinstance(entry, SweepError)]

    @property
    def stats(self) -> List[SweepStats]:
        return [entry.stats for entry in self.entries
                if isinstance(entry, PairEnvelope)]

    @property
    def comparisons(self) -> List["ComparisonResult"]:
        return [outcome.comparison for outcome in self.outcomes]

    def outcomes_or_raise(self) -> List["PairOutcome"]:
        errors = self.errors
        if errors:
            raise SweepExecutionError(errors)
        return self.outcomes

    def total_retries(self) -> int:
        return sum(s.retry_count for s in self.stats) + \
            sum(e.retry_count for e in self.errors)

    def merged_metrics(self) -> Optional[MetricsSnapshot]:
        """Pool-wide telemetry totals folded from every entry's delta.

        Merging is associative and commutative, so the result is the same
        regardless of which worker ran which job — and (modulo the
        ``wallclock.*`` host-time metrics, see
        :meth:`~repro.telemetry.snapshot.MetricsSnapshot.deterministic`)
        identical between serial and pooled runs. ``None`` when the sweep
        ran with telemetry disabled.
        """
        merged: Optional[MetricsSnapshot] = None
        for entry in self.entries:
            if entry.metrics is not None:
                merged = (entry.metrics if merged is None
                          else merged.merge(entry.metrics))
        return merged

    def canonical_entries(self) -> List[SweepEntry]:
        """Entries with host-noise normalised (see
        :func:`~repro.parallel.envelope.canonical_entry`) — the form that
        pickles byte-identically across serial, templated-serial and
        pooled executions of the same corpus."""
        return [canonical_entry(entry) for entry in self.entries]


class ParallelSweep:
    """Worker-pool corpus executor with deterministic, ordered output.

    ``machine_factory`` is a registered factory name (see
    :mod:`repro.parallel.factories`) or a picklable module-level callable;
    closures only work on the in-process path and are rejected up front
    when a process pool would be used.
    """

    def __init__(self, max_workers: int = 1,
                 machine_factory: Optional[FactorySpec] = None,
                 database: Optional[DeceptionDatabase] = None,
                 config: Optional[ScarecrowConfig] = None,
                 max_retries: int = 1,
                 telemetry: Optional[bool] = None,
                 template: TemplateMode = True,
                 chunksize: Optional[int] = None) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if chunksize is not None and chunksize < 1:
            raise ValueError("chunksize must be >= 1")
        if template not in TEMPLATE_MODES:
            raise ValueError(
                f"template must be one of {TEMPLATE_MODES}, got {template!r}")
        self.max_workers = max_workers
        self.machine_factory = machine_factory or DEFAULT_FACTORY
        self.database = database
        self.config = config
        self.max_retries = max_retries
        #: None = inherit the process-wide ``TELEMETRY.enabled`` flag at
        #: :meth:`run` time; True/False force it for this sweep's workers.
        self.telemetry = telemetry
        #: Machine-reuse mode: True (default) templates each worker's
        #: machine, False rebuilds per run (the parity oracle), "verify"
        #: templates, cross-checks every checkout's dirty set and proves
        #: byte-parity against a fresh-factory reference run per job.
        self.template = template
        #: Jobs per pool submission; None = auto (see :func:`auto_chunksize`).
        self.chunksize = chunksize

    def run(self, samples: Sequence[EvasiveSample]) -> SweepResult:
        """Execute every sample pair; results come back submission-ordered."""
        start = time.perf_counter()
        jobs = [PairJob(index, sample, self.max_retries)
                for index, sample in enumerate(samples)]
        database = self.database or DeceptionDatabase()
        # Pre-pickled (and memoized) snapshot bytes ship to serial and
        # pooled initializers alike, so both deserialize the same blob and
        # repeated sweeps over one database skip re-serialization.
        snapshot_blob = database.snapshot_bytes()
        config = self.config
        use_pool = should_use_process_pool(self.max_workers)
        if use_pool:
            self._require_picklable_factory()
        else:
            # Replicate the pool's *submission* pipe: pool workers receive
            # deserialized jobs and initializer state, whose strings are
            # distinct objects from the module literals the run produces.
            # Round-tripping here keeps serial output byte-identical to the
            # pool path. (The factory spec is exempt so in-process sweeps
            # can still use closures.)
            config, jobs = pickle.loads(pickle.dumps((config, jobs)))
        telemetry_on = (TELEMETRY.enabled if self.telemetry is None
                        else bool(self.telemetry))
        shared_keys = self._publish_shared(snapshot_blob)
        initargs = (self.machine_factory, snapshot_blob, config,
                    telemetry_on, self.template, shared_keys)
        workers = self.max_workers if use_pool else 1
        chunksize = self.chunksize or auto_chunksize(len(jobs), workers)
        chunks = [PairChunk(jobs[i:i + chunksize])
                  for i in range(0, len(jobs), chunksize)]
        headers: List[ChunkHeader] = []

        def unwrap_chunk(blob: bytes) -> List[SweepEntry]:
            chunk_entries, header = decode_chunk(blob)
            headers.append(header)
            return chunk_entries

        # On the serial path the initializer runs in *this* process and
        # flips the shared registry flag; restore it once the sweep ends.
        prior_enabled = TELEMETRY.enabled
        try:
            entries, used_pool = run_submissions(chunks, execute_pair_chunk,
                                           initargs, workers,
                                           unwrap=unwrap_chunk)
        finally:
            TELEMETRY.enabled = prior_enabled
        shared_used = bool(headers) and all(
            h.shared_database and (h.shared_template or not self.template)
            for h in headers)
        return SweepResult(entries=entries, max_workers=self.max_workers,
                           used_process_pool=used_pool,
                           wall_time_s=time.perf_counter() - start,
                           shared_state_used=shared_used,
                           chunk_headers=headers)

    def _publish_shared(self, snapshot_blob: bytes) -> shared.SharedKeys:
        """Pre-fork publish (:func:`repro.parallel.shared.publish_fixtures`)."""
        return shared.publish_fixtures(self.machine_factory, snapshot_blob,
                                       self.template)

    def _require_picklable_factory(self) -> None:
        resolve_machine_factory(self.machine_factory)  # fail fast on names
        try:
            pickle.dumps(self.machine_factory)
        except Exception as exc:
            raise ValueError(
                "machine_factory is not picklable for the process pool; "
                "register it via repro.parallel.register_machine_factory "
                "and pass its name instead") from exc


def auto_chunksize(n_jobs: int, workers: int) -> int:
    """`ProcessPoolExecutor.map`'s heuristic: ~4 chunks per worker.

    Large enough to amortise submission pickling and IPC, small enough
    that stragglers still rebalance across the pool.
    """
    return max(1, math.ceil(n_jobs / (workers * 4)))


def make_executor(initargs: Optional[tuple], workers: int,
                  initializer: Optional[Callable[..., None]] = None
                  ) -> Tuple[Any, bool]:
    """Build the process pool, or the serial stand-in; returns (executor,
    used_process_pool).

    The pool runs on ``fork`` where available and the platform default
    context otherwise (:func:`~repro.parallel.executor.pool_context`); if
    pool construction itself fails the sweep degrades to in-process
    execution with a warning instead of aborting — ``used_process_pool``
    reflects what actually ran. ``initializer`` defaults to the sweep's
    :func:`~repro.parallel.worker.initialize_worker`; other subsystems
    (``repro.fleet``) pass their own.
    """
    if initializer is None:
        initializer = initialize_worker if initargs else None
    if workers > 1:
        try:
            executor: Any = concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, mp_context=pool_context(),
                initializer=initializer, initargs=initargs or ())
            return executor, True
        except Exception as exc:
            warnings.warn(
                f"process pool unavailable ({type(exc).__name__}: {exc}); "
                "running in-process", RuntimeWarning, stacklevel=3)
    return SerialExecutor(initializer=initializer,
                          initargs=initargs or ()), False


def run_submissions(jobs: Sequence[Any], worker_fn: Callable[[Any], Any],
                    initargs: Optional[tuple], workers: int,
                    unwrap: Optional[Callable[[Any], List[Any]]] = None
                    ) -> Tuple[List[Any], bool]:
    """Submit jobs to the chosen executor; collect in submission order.

    Returns ``(entries, used_process_pool)``. A submission may be a
    :class:`PairChunk`, whose result ``unwrap`` flattens back into
    individual entries. Executor-level failures (broken pool, unpicklable
    payloads) *and* unwrap failures (a corrupt binary chunk envelope
    raising :class:`~repro.parallel.envelope.EnvelopeError`) degrade to
    per-job :class:`SweepError`/:class:`TaskResult` entries so one bad
    job — or one bad chunk — cannot sink the sweep.
    """
    executor, used_pool = make_executor(initargs, workers)
    entries: List[Any] = []
    with pool_scope(executor):
        futures = [executor.submit(worker_fn, job) for job in jobs]
        for job, future in zip(jobs, futures):
            try:
                result = future.result()
                unwrapped = (unwrap(result) if unwrap is not None
                             else [result])
            except Exception as exc:
                entries.extend(_submission_failures(job, exc))
                continue
            entries.extend(unwrapped)
    return entries, used_pool


def _submission_failures(job: Any, exc: Exception) -> List[Any]:
    """Executor-level failure entries: one per job inside the submission."""
    if isinstance(job, PairChunk):
        return [_executor_failure(chunk_job, exc) for chunk_job in job.jobs]
    return [_executor_failure(job, exc)]


def _executor_failure(job: Any, exc: Exception) -> Any:
    """Wrap an executor-level failure for one job."""
    error = SweepError(
        index=job.index,
        sample_md5=getattr(getattr(job, "sample", None), "md5",
                           getattr(job, "label", "?")),
        error_type=type(exc).__name__, message=str(exc),
        traceback=traceback.format_exc(), worker_pid=-1, retry_count=0)
    if isinstance(job, TaskJob):
        return TaskResult(index=job.index, label=job.label, error=error)
    return error


# -- generic independent-task engine ------------------------------------------

TaskSpec = Tuple[str, Callable[..., Any], Tuple[Any, ...]]


def run_tasks(tasks: Sequence[TaskSpec], max_workers: int = 1,
              max_retries: int = 1) -> List[TaskResult]:
    """Run independent ``(label, fn, args)`` tasks, ordered like ``tasks``.

    The generic sibling of :class:`ParallelSweep` for experiment cells that
    are not sample pairs (Table II's environment×config matrix, Table III's
    per-machine measurements). ``fn`` must be a module-level callable when
    more than one worker is requested.
    """
    jobs = [TaskJob(index, label, fn, tuple(args), max_retries)
            for index, (label, fn, args) in enumerate(tasks)]
    workers = max_workers if should_use_process_pool(max_workers) else 1
    results, _ = run_submissions(jobs, execute_task_job, None, workers)
    return results


def run_tasks_or_raise(tasks: Sequence[TaskSpec], max_workers: int = 1,
                       max_retries: int = 1) -> List[Any]:
    """Like :func:`run_tasks` but unwraps values, raising on any failure."""
    results = run_tasks(tasks, max_workers=max_workers,
                        max_retries=max_retries)
    errors = [r.error for r in results if r.error is not None]
    if errors:
        raise SweepExecutionError(errors)
    return [r.value for r in results]
