"""Parallel corpus execution engine.

Every experiment funnels its sample pairs through this package:
:class:`ParallelSweep` shards a corpus across a process pool (with an
in-process fallback), each worker building its machine **once** from a
named factory — a :class:`MachineTemplate` rewinds it between jobs — plus
a read-only snapshot of the shared deception database, and the results
are reassembled in submission order — parallel output is byte-identical
to the serial path (``template="verify"`` proves it per job). Jobs ship
in auto-sized chunks to amortise pickle/IPC cost, through
:func:`~repro.parallel.executor.dispatch`, the completion-driven loop the
fleet runs on too. A job that keeps failing becomes a structured
:class:`SweepError` entry; a chunk whose future raises or whose envelope
fails to decode reruns in-process. Every outcome carries a
:class:`SweepStats` record.
"""

from .envelope import (ChunkHeader, EnvelopeError, PairEnvelope, SweepEntry,
                       SweepError, SweepStats, build_envelope,
                       canonical_entry, decode_chunk, decode_record,
                       detach_outcome, encode_chunk, encode_record)
from .executor import (ImmediateFuture, SerialExecutor, fork_available,
                       pool_context)
from .factories import (available_factories, register_machine_factory,
                        resolve_machine_factory)
from .sweep import (DEFAULT_FACTORY, ParallelSweep, SweepExecutionError,
                    SweepResult, auto_chunksize,
                    make_executor, run_submissions, run_tasks,
                    run_tasks_or_raise)
from .shared import SharedKeys, database_fingerprint
from .template import (TEMPLATE_PARITY_ERROR, MachineTemplate,
                       TemplateParityError)
from .worker import (PairChunk, PairJob, TaskJob, TaskResult,
                     execute_pair_chunk, execute_pair_job, execute_task_job,
                     initialize_worker, run_pair_job)

__all__ = [
    "ChunkHeader", "DEFAULT_FACTORY", "EnvelopeError", "ImmediateFuture",
    "MachineTemplate", "PairChunk",
    "PairEnvelope", "PairJob", "ParallelSweep", "SerialExecutor",
    "SharedKeys", "SweepEntry", "SweepError", "SweepExecutionError",
    "SweepResult", "SweepStats", "TEMPLATE_PARITY_ERROR",
    "TemplateParityError", "TaskJob", "TaskResult",
    "auto_chunksize", "available_factories", "build_envelope",
    "canonical_entry", "database_fingerprint", "decode_chunk",
    "decode_record", "detach_outcome", "encode_chunk", "encode_record",
    "execute_pair_chunk",
    "execute_pair_job", "execute_task_job", "fork_available",
    "initialize_worker", "make_executor", "pool_context",
    "register_machine_factory", "resolve_machine_factory", "run_pair_job",
    "run_submissions", "run_tasks", "run_tasks_or_raise",
]
