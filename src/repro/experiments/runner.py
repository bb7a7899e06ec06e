"""Shared run-sample-in-environment plumbing for the experiment modules."""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional

from ..analysis.agent import RunRecord, run_sample
from ..analysis.comparison import ComparisonResult, compare_runs
from ..analysis.environments import build_bare_metal_sandbox
from ..core.database import DeceptionDatabase
from ..core.profiles import ScarecrowConfig
from ..malware.sample import EvasiveSample
from ..winsim.machine import Machine

MachineFactory = Callable[[], Machine]


@dataclasses.dataclass
class PairOutcome:
    """One sample executed in both configurations, plus the verdict."""

    sample: EvasiveSample
    without: RunRecord
    with_scarecrow: RunRecord
    comparison: ComparisonResult


def run_pair(sample: EvasiveSample,
             machine_factory: Optional[MachineFactory] = None,
             database: Optional[DeceptionDatabase] = None,
             config: Optional[ScarecrowConfig] = None) -> PairOutcome:
    """Run ``sample`` with and without Scarecrow on fresh machines."""
    factory = machine_factory or build_bare_metal_sandbox
    record_without = run_sample(factory(), sample, with_scarecrow=False)
    record_with = run_sample(factory(), sample, with_scarecrow=True,
                             database=database, config=config)
    comparison = compare_runs(
        sample, record_without.trace, record_without.result,
        record_with.trace, record_with.result,
        record_without.root_pid, record_with.root_pid)
    return PairOutcome(sample, record_without, record_with, comparison)


def run_pairs(samples: List[EvasiveSample],
              machine_factory: Optional[MachineFactory] = None,
              database: Optional[DeceptionDatabase] = None,
              config: Optional[ScarecrowConfig] = None,
              max_workers: int = 1) -> List[PairOutcome]:
    """Corpus-scale sweep with one shared (read-only) deception database.

    Delegates to :class:`repro.parallel.ParallelSweep`; ``max_workers=1``
    (the default) runs in-process, larger values shard the corpus across a
    worker pool with identical ordered output; each worker reuses one
    templated machine via snapshot/restore instead of rebuilding per run
    (byte-identical results, much cheaper). Failures raise, as the
    historical serial path did — use :class:`~repro.parallel.ParallelSweep`
    directly for the graceful-degradation surface (per-sample errors,
    retry counts, execution stats).
    """
    from ..parallel import ParallelSweep
    sweep = ParallelSweep(max_workers=max_workers,
                          machine_factory=machine_factory,
                          database=database, config=config)
    return sweep.run(samples).outcomes_or_raise()
