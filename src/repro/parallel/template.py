"""Machine templating: build a worker's machine once, rewind between jobs.

The PR-1 pool rebuilt a full winsim machine from scratch for *every run of
every sample* — registry hive, filesystem tree, wear-and-tear artifacts,
process table — which is why `BENCH_parallel.json` recorded the pooled
sweep losing to the serial path. Cuckoo-style sandbox farms avoid exactly
this by taking one VM snapshot and restoring it between detonations
(PAPERS.md: Cuckoo; MalGene); :class:`MachineTemplate` is that
snapshot/restore loop for the simulated substrate. A worker builds its
factory machine once, captures a deep
:meth:`~repro.winsim.machine.Machine.snapshot_state` (registry,
filesystem, process table, handles, DNS cache, event log, clock), and each
:meth:`MachineTemplate.checkout` rewinds the same machine in place instead
of reconstructing it.

Dirty-set delta-restore goes one step further. Every tracked winsim
subsystem carries a ``mutations`` generation counter; by comparing the
counters at the previous checkout against the counters now, the template
knows exactly which subsystems a job touched and rewinds only those
(:data:`~repro.winsim.machine.TRACKED_SUBSYSTEMS`). The registry and the
event log — the two most expensive restores by an order of magnitude —
are untouched by most probe workloads, so skipping their rewind is where
the dispatch tax dies. Cheap untracked state (identity, OS version,
clock, hardware, processes, handles) is restored unconditionally.

Parity is a feature, not a hope: a restored machine produces pickled
outcomes byte-identical to a fresh factory build, and
``ParallelSweep(template="verify")`` proves it per job by re-running every
sample on a fresh machine and comparing the pickled, detached outcomes
(divergence surfaces as a ``TemplateParityError`` sweep entry). The same
mode cross-checks the dirty set itself: after each checkout,
:meth:`MachineTemplate.verify_clean` compares every subsystem the restore
skipped against the captured template state and raises
:class:`TemplateParityError` on divergence.
"""

from __future__ import annotations

import time
from typing import Optional, Set

from ..telemetry.metrics import TELEMETRY
from ..winsim.machine import TRACKED_SUBSYSTEMS, Machine
from .factories import FactorySpec, resolve_machine_factory

#: ``SweepError.error_type`` recorded when a templated run diverges from
#: its fresh-factory reference in ``template="verify"`` mode — and the
#: ``__name__`` of :class:`TemplateParityError`, so dirty-set cross-check
#: failures land under the same type label.
TEMPLATE_PARITY_ERROR = "TemplateParityError"

#: Every key :meth:`~repro.winsim.machine.Machine.snapshot_state` may
#: produce on a stock machine. A subclass that snapshots extra state the
#: generation counters do not cover makes delta-restore unsound; the
#: template detects this at build time and falls back to full restores.
_KNOWN_STATE_KEYS = frozenset(TRACKED_SUBSYSTEMS) | {
    "identity", "os_version", "clock", "hardware",
    "processes", "handles", "explorer_pid",
}


class TemplateParityError(RuntimeError):
    """A subsystem the delta-restore claimed clean diverged from the
    captured template state (:meth:`MachineTemplate.verify_clean`)."""


class MachineTemplate:
    """One machine, built once, rewound to its captured state on demand.

    Checkouts alias the *same* :class:`~repro.winsim.machine.Machine`
    object: callers must be done with one checkout before taking the next
    — exactly the sweep worker's run-one-job-at-a-time discipline. Not
    thread-safe for the same reason.

    Every checkout after the first restores only the subsystems whose
    generation counters moved since the previous one (dirty-set restore).
    A machine that snapshots state the counters do not cover gets full
    restores instead (:attr:`delta_capable`).
    """

    def __init__(self, factory: FactorySpec) -> None:
        self._build_machine = resolve_machine_factory(factory)
        self._machine: Optional[Machine] = None
        self._state: Optional[dict] = None
        self._versions: Optional[dict] = None
        self._pristine = False
        #: False when the machine snapshots state the generation counters
        #: do not cover (unknown snapshot key) — every checkout then falls
        #: back to a full restore, honestly counted in
        #: ``parallel.delta_fallbacks``.
        self.delta_capable = True
        #: Restores performed so far (observability / test hook).
        self.restore_count = 0
        #: Of those, how many went through the delta path / the full path.
        self.delta_restore_count = 0
        self.full_restore_count = 0
        #: Dirty set of the most recent delta checkout (test hook).
        self.last_dirty: Set[str] = set()
        #: Cumulative dirty-subsystem count across all delta checkouts
        #: (chunk headers report the per-chunk delta of this).
        self.dirty_subsystem_total = 0

    @property
    def built(self) -> bool:
        return self._machine is not None

    def build(self) -> Machine:
        """Build the machine and capture its template state (idempotent)."""
        if self._machine is None:
            self._machine = self._build_machine()
            self._state = self._machine.snapshot_state()
            self.delta_capable = set(self._state) <= _KNOWN_STATE_KEYS
            self._versions = self._machine.subsystem_versions()
            self._pristine = True
        return self._machine

    def checkout(self) -> Machine:
        """The template machine, rewound to its captured state.

        The first checkout after :meth:`build` returns the machine as-is
        (it is already in the captured state); every later checkout
        rewinds in place by dirty set, which is what makes templated jobs
        cheaper than factory reconstruction.
        """
        machine = self.build()
        if self._pristine:
            self._pristine = False
            return machine
        assert self._state is not None and self._versions is not None
        if not self.delta_capable:
            machine.restore_state(self._state)
            self.restore_count += 1
            self.full_restore_count += 1
            self.last_dirty = set(TRACKED_SUBSYSTEMS)
            TELEMETRY.count("parallel.delta_fallbacks")
            return machine

        current = machine.subsystem_versions()
        dirty = {name for name in TRACKED_SUBSYSTEMS
                 if current[name] != self._versions[name]}
        started = time.perf_counter_ns() if TELEMETRY.enabled else 0
        machine.restore_state(self._state, subsystems=dirty)
        if TELEMETRY.enabled:
            TELEMETRY.observe("wallclock.delta_restore_ns",
                              time.perf_counter_ns() - started)
            TELEMETRY.count("parallel.dirty_subsystems", len(dirty))
        self._versions = machine.subsystem_versions()
        self.restore_count += 1
        self.delta_restore_count += 1
        self.last_dirty = dirty
        self.dirty_subsystem_total += len(dirty)
        return machine

    def verify_clean(self) -> None:
        """Prove that the subsystems the last checkout skipped match the
        template (the ``template="verify"`` cross-check).

        Compares live subsystem snapshots against the captured state with
        ``==`` (not pickled bytes: process/handle snapshots hold live
        objects whose byte form is not stable, but tracked subsystem
        snapshots are plain value containers). A mutation that bypassed
        its ``mutations`` counter is exactly what this catches.
        """
        machine = self.build()
        assert self._state is not None
        diverged = [name for name in TRACKED_SUBSYSTEMS
                    if name not in self.last_dirty
                    and getattr(machine, name).snapshot() != self._state[name]]
        if diverged:
            raise TemplateParityError(
                "delta-restore claimed these subsystems clean but they "
                f"diverged from the template: {', '.join(sorted(diverged))}")
