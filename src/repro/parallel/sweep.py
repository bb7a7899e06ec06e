"""`ParallelSweep` — the corpus execution engine.

Shards ``(sample, config)`` pairs across a process pool (or the in-process
fallback), reassembles results in submission order, and degrades
gracefully: a sample whose execution keeps failing becomes a structured
:class:`~repro.parallel.envelope.SweepError` entry, and a chunk the pool
loses reruns in-process, as a fleet chunk does. With one shared read-only
deception database snapshot per pool and one templated (or fresh) machine
per run, parallel output is byte-identical to the serial path.

Two cost levers make the pool actually beat the serial path:

* **Machine templating** (default on): each worker builds its factory
  machine once and rewinds it between jobs via
  :class:`~repro.parallel.template.MachineTemplate`, instead of paying a
  full environment build twice per sample.
* **Chunked dispatch**: jobs ship to the pool in auto-sized chunks
  (:func:`auto_chunksize`, the ``ProcessPoolExecutor.map`` heuristic) so
  submission pickling and IPC amortise across the chunk; each chunk is
  one :func:`~repro.parallel.executor.dispatch` lane.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import math
import pickle
import time
import warnings
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.database import DeceptionDatabase
from ..core.profiles import ScarecrowConfig
from ..malware.sample import EvasiveSample
from ..telemetry.metrics import TELEMETRY
from ..telemetry.snapshot import MetricsSnapshot
from . import shared
from .envelope import (ChunkHeader, PairEnvelope, SweepEntry, SweepError,
                       SweepStats, canonical_entry, decode_chunk,
                       zero_copy_used)
from .executor import (SerialExecutor, dispatch, pool_context, pool_scope,
                       rerun_in_process)
from .factories import FactorySpec, resolve_machine_factory
from .worker import (TEMPLATE_MODES, PairChunk, PairJob, TaskJob,
                     TaskResult, TemplateMode, execute_pair_chunk,
                     execute_task_job, initialize_worker)

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
    #: True only when a real process pool ran every chunk: a chunk that
    #: reran in-process makes it False, as for the fleet.
    used_process_pool: bool
    wall_time_s: float
    #: True only when *every* result chunk reported that its worker ran on
    #: the fork-inherited database (and template, when templating was on)
    #: — an observed fact from :class:`ChunkHeader` provenance, never an
    #: assumption. Spawn platforms and corrupted registries report False.
    shared_state_used: bool = False
    #: Per-chunk worker provenance, in submission order.
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
                 template: TemplateMode = True) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
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
        if self.max_workers > 1:
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
        chunksize = auto_chunksize(len(jobs), self.max_workers)
        chunks = [PairChunk(jobs[i:i + chunksize])
                  for i in range(0, len(jobs), chunksize)]
        # On the serial path the initializer runs in *this* process and
        # flips the shared registry flag; restore it once the sweep ends.
        prior_enabled = TELEMETRY.enabled
        try:
            decoded, degraded, used_pool = run_submissions(
                chunks, execute_pair_chunk, initargs, self.max_workers,
                decode=decode_chunk)
        finally:
            TELEMETRY.enabled = prior_enabled
        headers = [header for _, header in decoded]
        return SweepResult(entries=[entry for chunk_entries, _ in decoded
                                    for entry in chunk_entries],
                           max_workers=self.max_workers,
                           used_process_pool=used_pool and degraded == 0,
                           wall_time_s=time.perf_counter() - start,
                           shared_state_used=zero_copy_used(
                               headers, self.template),
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


def run_submissions(submissions: Sequence[Any],
                    worker_fn: Callable[[Any], Any],
                    initargs: Optional[tuple], workers: int,
                    decode: Callable[[Any], Any] = lambda result: result
                    ) -> Tuple[List[Any], int, bool]:
    """Run each submission (a :class:`PairChunk` or a :class:`TaskJob`) as
    one :func:`~repro.parallel.executor.dispatch` lane; returns ``(decoded
    results in submission order, degraded submissions, used_process_pool)``.

    A lost submission reruns in-process, through the sweep's own
    initializer when there are ``initargs``.
    """
    initializer = initialize_worker if initargs else None
    executor, used_pool = make_executor(initargs, workers)
    landed: Dict[int, Any] = {}

    def next_round(lane: int) -> Optional[Tuple[Any]]:
        return None if lane in landed else (submissions[lane],)

    def finish_round(lane: int, results: List[Any], _degraded: int) -> None:
        landed[lane] = results[0]

    with pool_scope(executor):
        _, degraded = dispatch(
            executor, next_round, finish_round, len(submissions), worker_fn,
            decode, rerun_in_process(worker_fn, initializer, initargs or ()))
    return [landed[lane] for lane in range(len(submissions))], degraded, \
        used_pool


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
    return run_submissions(jobs, execute_task_job, None, max_workers)[0]


def run_tasks_or_raise(tasks: Sequence[TaskSpec], max_workers: int = 1,
                       max_retries: int = 1) -> List[Any]:
    """Like :func:`run_tasks` but unwraps values, raising on any failure."""
    results = run_tasks(tasks, max_workers=max_workers,
                        max_retries=max_retries)
    errors = [r.error for r in results if r.error is not None]
    if errors:
        raise SweepExecutionError(errors)
    return [r.value for r in results]
