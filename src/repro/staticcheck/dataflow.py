"""Whole-program state-integrity rules (SC006–SC008) and taint upgrades.

These are the scarelint v2 rules, all project-scope, all built on the
:mod:`repro.staticcheck.callgraph` summaries. They audit the three
invariants the PR-6 execution modes (dirty-set delta-restore, fork-shared
zero-copy templates, binary chunk envelopes) quietly depend on:

* **SC006 mutation-tracking soundness** — every public method of a
  :data:`repro.winsim.machine.TRACKED_SUBSYSTEMS` class that writes
  instance state, directly or through any chain of helpers, must also
  (transitively) bump a ``mutations`` generation counter or write
  through a notify-on-write tagged container (TagDict-style). A missed
  bump makes delta-restore silently skip a dirty subsystem.
* **SC007 worker-boundary fork/pickle safety** — ``repro.parallel`` and
  ``repro.fleet`` objects cross the worker boundary (chunk envelopes,
  shared-state registry). Locks, open files, generators, frames, and
  module references stored in instance state do not survive that
  crossing; module-level mutable globals silently diverge between
  parent and forked workers unless registered in
  :data:`FORK_SAFE_GLOBALS` (each entry documents its fork story).
* **SC008 snapshot completeness** — a class offering
  ``snapshot``/``restore`` (or ``snapshot_state``/``restore_state``)
  must have every attribute it ever assigns either reachable from that
  pair's same-class call closure or listed in an in-code
  ``_SNAPSHOT_EXEMPT`` class tuple explaining itself.

On top of the same graph, SC001/SC002 gain project-scope taint variants:
a deterministic-zone function calling an *out-of-zone* helper whose call
closure reaches a host-clock/host-entropy primitive is a finding at the
call site — the laundering pattern file-scope import matching misses.
In-zone primitive use stays the file-scope checkers' job (and keeps its
existing baseline entries).

Like SC004, the machine-anchored rule disarms when its anchor module
(``repro.winsim.machine``) is not part of the scan, so linting a single
unrelated file stays cheap and quiet.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from .callgraph import CallGraph, FunctionSummary
from .cache import FileContext
from .finding import Finding, SEVERITY_ERROR
from .registry import DETERMINISTIC_ZONES, ProjectContext, project_checker

#: Anchor for SC006: the module declaring the tracked-subsystem contract.
MACHINE_MODULE = "repro.winsim.machine"
TRACKED_CONSTANT = "TRACKED_SUBSYSTEMS"

#: Dirty-journal bookkeeping attributes: writing these *is* the tracking
#: machinery, not tracked state (SC006), and they are deliberately
#: rebuilt rather than snapshotted (SC008).
JOURNAL_ATTRS = frozenset({"_dirty_paths", "_dirty_pids",
                           "_last_restored_state"})

#: Class-level marker tuple naming attributes deliberately excluded from
#: snapshot/restore coverage; each use must carry a comment saying why.
SNAPSHOT_EXEMPT_MARKER = "_SNAPSHOT_EXEMPT"

#: Module-level mutable globals in the worker zones with a known fork
#: story. Everything else is an SC007 finding.
#:
#: * ``repro.parallel.shared._REGISTRY`` — the sanctioned pre-fork
#:   publication channel itself (fingerprint-validated lookups).
#: * ``repro.parallel.factories._REGISTRY`` / ``_BUILTINS`` — machine
#:   factory catalogues, registered at import time in every process.
#: * ``repro.parallel.worker._STATE`` — the one worker runtime's
#:   per-process fixtures, installed by the sweep's or the fleet's pool
#:   initializer in every process (serial and pooled) before any job.
FORK_SAFE_GLOBALS: FrozenSet[Tuple[str, str]] = frozenset({
    ("repro.parallel.shared", "_REGISTRY"),
    ("repro.parallel.factories", "_REGISTRY"),
    ("repro.parallel.factories", "_BUILTINS"),
    ("repro.parallel.worker", "_STATE"),
})

#: Modules whose objects cross the fork/pickle worker boundary.
#: ``repro.serve`` is audited too: the server shares the fleet's worker
#: runtime, so any module-level state it grows must be fork-safe (or
#: registered) before a pooled backend ever becomes an option.
WORKER_ZONES = ("repro.parallel", "repro.fleet", "repro.serve")

#: snapshot/restore method-name pairs SC008 audits.
SNAPSHOT_PAIRS = (("snapshot", "restore"),
                  ("snapshot_state", "restore_state"))

_RESOURCE_LABELS = {
    "lock": "a synchronization primitive (lock/event/semaphore)",
    "open-file": "an open file object",
    "generator": "a generator",
    "frame": "a frame reference",
    "module-ref": "a module object reference",
}


def graph_for(ctx: ProjectContext) -> CallGraph:
    """The project call graph, built once and shared by every v2 rule."""
    graph = getattr(ctx, "_scarelint_graph", None)
    if graph is None:
        graph = CallGraph(ctx.files)
        ctx._scarelint_graph = graph
    return graph


def _in_zone(module: str) -> bool:
    return any(module == zone or module.startswith(zone + ".")
               for zone in DETERMINISTIC_ZONES)


def _finding(by_module: Dict[str, FileContext], module: str, rule: str,
             line: int, message: str) -> Optional[Finding]:
    fc = by_module.get(module)
    if fc is None:
        return None
    return fc.finding(rule, line, message, severity=SEVERITY_ERROR)


def _resolve_class(graph: CallGraph, module: str,
                   name: str) -> Tuple[Optional[str], Optional[str]]:
    """``(defining module, class name)`` for a constructor name."""
    mod = graph.modules.get(module)
    if mod is None:
        return (None, None)
    if name in mod.classes:
        return (module, name)
    target = mod.imports.get(name)
    if target is not None and target[1] is not None:
        target_mod = graph.modules.get(target[0])
        if target_mod is not None and target[1] in target_mod.classes:
            return (target[0], target[1])
    return (None, None)


# ---------------------------------------------------------------------------
# SC006 — mutation-tracking soundness
# ---------------------------------------------------------------------------

def tracked_subsystem_classes(graph: CallGraph
                              ) -> Dict[str, Tuple[str, str]]:
    """``subsystem attr → (module, class)`` from the machine anchor.

    Derived statically: the ``TRACKED_SUBSYSTEMS`` string tuple names the
    attributes, and ``Machine.__init__``'s ``self.<attr> = Class()``
    assignments (resolved through the machine module's imports) name the
    classes. A new tracked subsystem is audited the moment it is wired
    into the machine, with no checker-side list to update.
    """
    mod = graph.modules.get(MACHINE_MODULE)
    if mod is None:
        return {}
    tracked = mod.constants.get(TRACKED_CONSTANT)
    init = mod.functions.get("Machine.__init__")
    if not tracked or init is None:
        return {}
    out: Dict[str, Tuple[str, str]] = {}
    for write in init.self_writes:
        if write.attr not in tracked or not write.value_ctor:
            continue
        target_mod, target_cls = _resolve_class(graph, MACHINE_MODULE,
                                                write.value_ctor)
        if target_mod is not None and target_cls is not None:
            out[write.attr] = (target_mod, target_cls)
    return out


def _tagged_attrs(graph: CallGraph) -> Dict[Tuple[str, str],
                                            FrozenSet[str]]:
    """Per-class attrs backed by notify-on-write (TagDict-style) containers.

    An attribute counts as tagged when ``__init__`` assigns it a
    constructor whose class defines ``__setitem__`` with transitive
    ``mutations``-bump evidence — writing *into* such a container is
    itself bump evidence.
    """
    out: Dict[Tuple[str, str], FrozenSet[str]] = {}
    for fn in graph.functions():
        if fn.cls is None or fn.name != "__init__":
            continue
        tagged = set()
        for write in fn.self_writes:
            if not write.value_ctor:
                continue
            ctor_mod, ctor_cls = _resolve_class(graph, fn.module,
                                                write.value_ctor)
            if ctor_mod is None:
                continue
            setitem = graph.function(ctor_mod, f"{ctor_cls}.__setitem__")
            if setitem is None:
                continue
            if any(reached.bumps_mutations
                   for reached in graph.closure(setitem)):
                tagged.add(write.attr)
        if tagged:
            out[(fn.module, fn.cls)] = frozenset(tagged)
    return out


def _is_state_write(write) -> bool:
    return write.attr not in JOURNAL_ATTRS and write.attr != "mutations"


@project_checker(
    "SC006", "mutation-tracking",
    "tracked-subsystem methods must bump `mutations` when they write "
    "instance state (directly or through helpers)")
def check_mutation_tracking(ctx: ProjectContext) -> List[Finding]:
    graph = graph_for(ctx)
    tracked = tracked_subsystem_classes(graph)
    if not tracked:
        return []                       # anchor module not in this scan
    by_module = ctx.by_module()
    tagged = _tagged_attrs(graph)

    write_seeds: Dict[Tuple[str, str], str] = {}
    bump_seeds: Dict[Tuple[str, str], str] = {}
    for fn in graph.functions():
        # Constructors write fresh objects, not tracked subsystem state.
        state_writes = ([] if fn.name == "__init__" else
                        sorted((w.line, w.attr) for w in fn.self_writes
                               if _is_state_write(w)))
        if state_writes:
            line, attr = state_writes[0]
            write_seeds[fn.key] = \
                f"'{attr}' in {fn.module}.{fn.qualname} (line {line})"
        if fn.bumps_mutations:
            bump_seeds[fn.key] = f"{fn.module}.{fn.qualname}"
        elif fn.cls is not None:
            cls_tagged = tagged.get((fn.module, fn.cls), frozenset())
            if any(w.attr in cls_tagged and w.via in ("item", "mutcall")
                   for w in fn.self_writes):
                bump_seeds[fn.key] = \
                    f"{fn.module}.{fn.qualname} (tagged container)"
    writes = graph.propagate(write_seeds)
    bumps = graph.propagate(bump_seeds)

    findings: List[Finding] = []
    for subsystem in sorted(tracked):
        module, cls = tracked[subsystem]
        info = graph.class_info(module, cls)
        if info is None:
            continue
        for name in sorted(info.methods):
            if name.startswith("_"):
                continue
            fn = graph.function(module, f"{cls}.{name}")
            if fn is None or fn.key not in writes or fn.key in bumps:
                continue
            finding = _finding(
                by_module, module, "SC006", fn.line,
                f"{cls}.{name}() (subsystem '{subsystem}') writes "
                f"instance state ({writes[fn.key]}) without bumping a "
                f"`mutations` generation counter; dirty-set delta-restore "
                f"will miss this mutation")
            if finding is not None:
                findings.append(finding)
    return findings


# ---------------------------------------------------------------------------
# SC007 — worker-boundary fork/pickle safety
# ---------------------------------------------------------------------------

def _returned_resource_map(graph: CallGraph
                           ) -> Dict[Tuple[str, str], Tuple[str, str]]:
    """``function key → (resource kind, witness)`` for resource returns.

    Propagates only through ``return f(...)`` call chains — a helper
    that merely *uses* a lock internally does not mark its callers.
    """
    out: Dict[Tuple[str, str], Tuple[str, str]] = {}
    for fn in graph.functions():
        if fn.returned_resources:
            line, kind = sorted(fn.returned_resources)[0]
            out[fn.key] = (kind,
                           f"{fn.module}.{fn.qualname} (line {line})")
    changed = True
    while changed:
        changed = False
        for fn in graph.functions():
            if fn.key in out:
                continue
            for call in fn.return_calls:
                hit: Optional[Tuple[str, str]] = None
                for callee in graph.resolve(fn, call):
                    if callee.is_generator:
                        hit = ("generator",
                               f"{callee.module}.{callee.qualname}")
                        break
                    if callee.key in out:
                        hit = out[callee.key]
                        break
                if hit is not None:
                    out[fn.key] = hit
                    changed = True
                    break
    return out


def _call_resource(graph: CallGraph, fn: FunctionSummary, call,
                   returned: Dict[Tuple[str, str], Tuple[str, str]]
                   ) -> Optional[Tuple[str, str]]:
    for callee in graph.resolve(fn, call):
        if callee.is_generator:
            return ("generator", f"{callee.module}.{callee.qualname}")
        if callee.key in returned:
            return returned[callee.key]
    return None


@project_checker(
    "SC007", "worker-boundary",
    "repro.parallel/repro.fleet state must be fork/pickle-safe: no "
    "locks, open files, generators, frames, or unregistered module-level "
    "mutable globals")
def check_worker_boundary(ctx: ProjectContext) -> List[Finding]:
    graph = graph_for(ctx)
    by_module = ctx.by_module()
    returned = _returned_resource_map(graph)
    findings: List[Finding] = []
    for module in sorted(graph.modules):
        if not any(module == zone or module.startswith(zone + ".")
                   for zone in WORKER_ZONES):
            continue
        mod = graph.modules[module]
        for assign in mod.global_assigns:
            if assign.name.startswith("__"):
                continue                     # __all__ and friends
            kind = assign.resource
            witness = None
            if kind is None and assign.value_call is not None:
                # Module-level ``X = make_lock()`` laundering.
                pseudo = FunctionSummary(module=module,
                                         qualname=assign.name, cls=None,
                                         name=assign.name,
                                         line=assign.line)
                hit = _call_resource(graph, pseudo, assign.value_call,
                                     returned)
                if hit is not None:
                    kind, witness = hit
            if kind is not None:
                detail = f" (via {witness})" if witness else ""
                finding = _finding(
                    by_module, module, "SC007", assign.line,
                    f"module-level '{assign.name}' holds "
                    f"{_RESOURCE_LABELS[kind]}{detail}; it cannot cross "
                    f"the fork/pickle worker boundary")
                if finding is not None:
                    findings.append(finding)
                continue
            if assign.mutable_kind is not None and \
                    (module, assign.name) not in FORK_SAFE_GLOBALS:
                finding = _finding(
                    by_module, module, "SC007", assign.line,
                    f"module-level mutable global '{assign.name}' "
                    f"({assign.mutable_kind}) is not registered in "
                    f"FORK_SAFE_GLOBALS; forked workers inherit a "
                    f"diverging copy — publish it through "
                    f"repro.parallel.shared or document its fork story")
                if finding is not None:
                    findings.append(finding)
        for qualname in sorted(mod.functions):
            fn = mod.functions[qualname]
            for write in fn.self_writes:
                kind = write.value_resource
                witness = None
                if kind is None and write.value_call is not None:
                    hit = _call_resource(graph, fn, write.value_call,
                                         returned)
                    if hit is not None:
                        kind, witness = hit
                if kind is None:
                    continue
                detail = f" (via {witness})" if witness else ""
                finding = _finding(
                    by_module, module, "SC007", write.line,
                    f"{fn.qualname} stores {_RESOURCE_LABELS[kind]} in "
                    f"instance attribute '{write.attr}'{detail}; the "
                    f"object will not survive the fork/pickle worker "
                    f"boundary")
                if finding is not None:
                    findings.append(finding)
    return findings


# ---------------------------------------------------------------------------
# SC008 — snapshot completeness
# ---------------------------------------------------------------------------

@project_checker(
    "SC008", "snapshot-completeness",
    "every attribute a snapshot-bearing class assigns must be covered by "
    "its snapshot/restore closure or listed in _SNAPSHOT_EXEMPT")
def check_snapshot_completeness(ctx: ProjectContext) -> List[Finding]:
    graph = graph_for(ctx)
    by_module = ctx.by_module()
    findings: List[Finding] = []
    for module in sorted(graph.modules):
        if not _in_zone(module):
            continue
        mod = graph.modules[module]
        for cls_name in sorted(mod.classes):
            info = mod.classes[cls_name]
            pairs = [pair for pair in SNAPSHOT_PAIRS
                     if set(pair) <= info.methods]
            if not pairs:
                continue
            assigned: Dict[str, int] = {}
            for method in sorted(info.methods):
                fn = mod.functions.get(f"{cls_name}.{method}")
                if fn is None:
                    continue
                for write in fn.self_writes:
                    if write.via in ("assign", "ann", "aug"):
                        line = assigned.get(write.attr, write.line)
                        assigned[write.attr] = min(line, write.line)
            covered = set()
            for pair in pairs:
                for method in pair:
                    fn = mod.functions.get(f"{cls_name}.{method}")
                    if fn is None:
                        continue
                    for reached in graph.closure(fn,
                                                 same_class_only=True):
                        covered |= reached.self_reads
                        covered |= {w.attr for w in reached.self_writes}
            exempt = set(info.constants.get(SNAPSHOT_EXEMPT_MARKER, ()))
            exempt |= JOURNAL_ATTRS
            for attr in sorted(assigned):
                if attr in covered or attr in exempt:
                    continue
                finding = _finding(
                    by_module, module, "SC008", assigned[attr],
                    f"{cls_name} assigns attribute '{attr}' but its "
                    f"snapshot/restore closure never touches it; a "
                    f"restore leaves stale state behind (cover it or "
                    f"list it in {SNAPSHOT_EXEMPT_MARKER} with a reason)")
                if finding is not None:
                    findings.append(finding)
    return findings


# ---------------------------------------------------------------------------
# SC001/SC002 — interprocedural taint upgrades
# ---------------------------------------------------------------------------

def _taint_findings(ctx: ProjectContext, rule: str, primitive_attr: str,
                    noun: str, remedy: str) -> List[Finding]:
    graph = graph_for(ctx)
    by_module = ctx.by_module()
    seeds: Dict[Tuple[str, str], str] = {}
    for fn in graph.functions():
        primitives = getattr(fn, primitive_attr)
        if primitives:
            line, desc = sorted(primitives)[0]
            seeds[fn.key] = \
                f"{desc} in {fn.module}.{fn.qualname} (line {line})"
    tainted = graph.propagate(seeds)

    # One finding per call line; smallest witness wins ties so serial
    # and pooled runs render identically.
    per_line: Dict[Tuple[str, int], str] = {}
    for fn in graph.functions():
        if not _in_zone(fn.module):
            continue
        for callee_key, call in graph.resolved_calls(fn):
            if callee_key not in tainted or _in_zone(callee_key[0]):
                continue
            message = (f"call into {callee_key[0]}.{callee_key[1]}() "
                       f"reaches {noun} ({tainted[callee_key]}); {remedy}")
            key = (fn.module, call.line)
            if key not in per_line or message < per_line[key]:
                per_line[key] = message
    findings: List[Finding] = []
    for (module, line) in sorted(per_line):
        finding = _finding(by_module, module, rule, line, per_line[(module,
                                                                    line)])
        if finding is not None:
            findings.append(finding)
    return findings


@project_checker(
    "SC001", "wallclock-taint",
    "deterministic zones must not reach the host clock through "
    "out-of-zone helpers")
def check_clock_taint(ctx: ProjectContext) -> List[Finding]:
    return _taint_findings(
        ctx, "SC001", "clock_primitives", "the host clock",
        "derive timing from machine.clock instead")


@project_checker(
    "SC002", "entropy-taint",
    "deterministic zones must not reach host entropy through "
    "out-of-zone helpers")
def check_entropy_taint(ctx: ProjectContext) -> List[Finding]:
    return _taint_findings(
        ctx, "SC002", "entropy_primitives", "host entropy",
        "derive values from the seeded deception database instead")
