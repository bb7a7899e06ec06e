"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``table1 | table2 | table3 | figure4 | cases | all`` — regenerate the
  paper's tables/figures and print them;
* ``demo <sample>`` — run one named sample with and without Scarecrow on a
  fresh machine and report the verdict
  (samples: wannacry, wannacry-original, locky, cerber, kasidet);
* ``pafish [--env ENV] [--scarecrow]`` — run the Pafish reimplementation
  in one environment and print the triggered checks;
* ``overhead`` — measure the hook-chain overhead (E8);
* ``inventory`` — print the deception database inventory;
* ``sweep [--workers N] [--families F ...] [--limit N] [--factory NAME]``
  — run a corpus sweep on the parallel execution engine and print the
  summary plus per-worker statistics (see docs/PARALLEL.md);
* ``fleet [--endpoints N] [--events N] [--seed S] [--jobs N]
  [--shards N] [--checkpoint FILE] [--resume]`` — run the long-lived
  multi-endpoint protection service over a seeded event stream and
  print the fleet report (see docs/FLEET.md);
* ``serve [--shards N] [--tenant-limit N] [--max-batch N] [--port P]``
  — the asyncio admission front-end over the sharded fleet:
  line-delimited JSON-RPC on stdio (default) or TCP
  (see docs/FLEET.md);
* ``stats FILE`` — summarise a JSONL telemetry trace written by
  ``--telemetry`` (see docs/OBSERVABILITY.md);
* ``lint [PATH ...]`` — run the scarelint static-analysis checkers
  (SC001–SC008, file- and whole-program-scope) and report unbaselined
  findings
  (see docs/STATIC_ANALYSIS.md).

Experiment commands (and ``sweep``) accept ``--telemetry PATH`` to record
counters and latency histograms while they run and export them as JSONL.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional

DEMO_SAMPLES: Dict[str, str] = {
    "wannacry": "build_wannacry_variant",
    "wannacry-original": "build_wannacry_original",
    "locky": "build_locky",
    "cerber": "build_cerber_variant",
    "kasidet": "build_kasidet",
}

PAFISH_ENVIRONMENTS = ("bare-metal", "vm", "end-user")


def _cmd_table1(_args: argparse.Namespace) -> int:
    from .experiments import render_table1, run_table1
    print(render_table1(run_table1()))
    return 0


def _cmd_table2(_args: argparse.Namespace) -> int:
    from .experiments import render_table2, run_table2
    print(render_table2(run_table2()))
    return 0


def _cmd_table3(_args: argparse.Namespace) -> int:
    from .experiments import render_table3, run_table3
    print(render_table3(run_table3()))
    return 0


def _cmd_figure4(_args: argparse.Namespace) -> int:
    from .experiments import render_figure4, run_figure4
    print(render_figure4(run_figure4()))
    return 0


def _cmd_cases(_args: argparse.Namespace) -> int:
    from .experiments import (render_case1, render_case2, run_case1,
                              run_case2)
    print(render_case1(run_case1()))
    print()
    print(render_case2(run_case2()))
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    for command in (_cmd_table1, _cmd_figure4, _cmd_table2, _cmd_table3,
                    _cmd_cases):
        command(args)
        print()
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from . import malware
    from .analysis.environments import build_end_user_machine
    from .experiments.runner import run_pair
    builder = getattr(malware, DEMO_SAMPLES[args.sample])
    sample = builder()

    def factory():
        machine = build_end_user_machine()
        machine.filesystem.write_file(
            "C:\\Users\\john\\Documents\\valuable.docx", b"data")
        return machine

    outcome = run_pair(sample, machine_factory=factory)
    without = outcome.without.result
    with_sc = outcome.with_scarecrow.result
    print(f"sample {sample.md5} ({sample.family})")
    print(f"  without Scarecrow: payload ran = {without.executed_payload}")
    if without.payload_outcome:
        print(f"    behaviour: {without.payload_outcome.description}")
    print(f"  with Scarecrow:    payload ran = {with_sc.executed_payload}"
          f" (trigger: {with_sc.trigger})")
    print(f"  verdict: {outcome.comparison.verdict.value}")
    return 0 if outcome.comparison.deactivated or not sample.check_names \
        else 1


def _cmd_pafish(args: argparse.Namespace) -> int:
    from . import winapi
    from .analysis.environments import (build_bare_metal_sandbox,
                                        build_cuckoo_vm_sandbox,
                                        build_end_user_machine)
    from .core import ScarecrowConfig, ScarecrowController
    from .fingerprint.pafish import run_pafish
    builders = {"bare-metal": build_bare_metal_sandbox,
                "vm": lambda: build_cuckoo_vm_sandbox(
                    transparent=args.scarecrow),
                "end-user": build_end_user_machine}
    machine = builders[args.env]()
    if args.scarecrow:
        config = ScarecrowConfig(
            enable_username=(args.env != "end-user"))
        controller = ScarecrowController(machine, config=config)
        process = controller.launch("C:\\analysis\\pafish.exe")
    else:
        process = machine.spawn_process("pafish.exe",
                                        "C:\\analysis\\pafish.exe",
                                        parent=machine.explorer)
    report = run_pafish(winapi.bind(machine, process))
    print(f"environment: {args.env}  scarecrow: {args.scarecrow}")
    print(f"triggered {report.total_triggered()}/56 checks:")
    for name in report.triggered():
        print(f"  [traced] {name}")
    for category, count in report.category_counts().items():
        print(f"  {category}: {count}")
    return 0


def _cmd_overhead(_args: argparse.Namespace) -> int:
    from .experiments import render_overhead, run_overhead
    print(render_overhead(run_overhead()))
    return 0


def _cmd_inventory(_args: argparse.Namespace) -> int:
    from .core import DeceptionDatabase
    from .core.handlers import CORE_29_APIS, DECOY_APIS
    db = DeceptionDatabase()
    print("deception database inventory (curated):")
    for kind, count in sorted(db.counts().items()):
        print(f"  {kind}: {count}")
    print(f"hooked resource APIs: {len(CORE_29_APIS)}")
    print(f"decoy hooks: {len(DECOY_APIS)}")
    print(f"fake hardware: disk={db.hardware.disk_total_bytes >> 30}GB "
          f"ram={db.hardware.ram_total_bytes >> 20}MB "
          f"cores={db.hardware.cpu_cores}")
    print(f"NX-domain sinkhole: {db.network.sinkhole_ip}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .analysis.comparison import summarize
    from .malware.corpus import build_malgene_corpus
    from .malware.families import all_family_specs
    from .parallel import ParallelSweep, resolve_machine_factory

    if args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    if args.limit < 0:
        print("--limit must be >= 0", file=sys.stderr)
        return 2
    try:
        resolve_machine_factory(args.factory)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2

    specs = all_family_specs()
    if args.families:
        wanted = {name.lower() for name in args.families}
        specs = [s for s in specs if s.name.lower() in wanted]
        missing = wanted - {s.name.lower() for s in specs}
        if missing:
            print(f"unknown families: {', '.join(sorted(missing))}",
                  file=sys.stderr)
            return 2
    samples = build_malgene_corpus(specs)
    if args.limit:
        samples = samples[:args.limit]

    template = "verify" if args.verify_template else True
    sweep = ParallelSweep(max_workers=args.workers,
                          machine_factory=args.factory,
                          template=template)
    result = sweep.run(samples)
    summary = summarize(result.comparisons)

    mode = "process pool" if result.used_process_pool else "in-process"
    template_label = "on" if template is True else template
    shared_label = "yes" if result.shared_state_used else "no"
    print(f"sweep: {len(samples)} samples, {args.workers} worker(s) "
          f"({mode}), factory={args.factory}, template={template_label}, "
          f"shared-state={shared_label}")
    print(f"  wall time: {result.wall_time_s:.2f}s"
          f"  retries: {result.total_retries()}")
    print(f"  deactivated: {summary.deactivated}/{summary.total} "
          f"({summary.deactivation_rate:.1%})")
    print(f"  self-spawning: {summary.self_spawning} "
          f"(IsDebuggerPresent: {summary.self_spawning_using_idp})")
    print(f"  inconclusive: {summary.inconclusive}"
          f"  not deactivated: {summary.not_deactivated}")
    workers_used = sorted({s.worker_pid for s in result.stats})
    print(f"  worker pids: {len(workers_used)} distinct")
    for error in result.errors:
        print(f"  ERROR {error.sample_md5}: {error.error_type}: "
              f"{error.message} (after {error.retry_count} retries)",
              file=sys.stderr)
    _stash_sweep_telemetry(args, result)
    return 1 if result.errors else 0


def _stash_sweep_telemetry(args: argparse.Namespace, result) -> None:
    """Queue sweep-level records for :func:`main`'s ``--telemetry`` writer.

    The merged envelope metrics already contain every job's activity, so
    the writer skips its own registry-delta record when it finds a
    ``metrics`` record here (avoiding double counting on the serial path,
    where workers share the parent registry).
    """
    records = getattr(args, "_telemetry_records", None)
    if records is None:
        return
    from .parallel import PairEnvelope
    from .telemetry import export
    merged = result.merged_metrics()
    if merged is not None:
        records.append(export.metrics_record(merged, scope="sweep"))
    for entry in result.entries:
        if isinstance(entry, PairEnvelope):
            records.append(export.sample_record(
                entry.stats,
                verdict=entry.outcome.comparison.verdict.value))
        else:
            records.append(export.error_record(entry))


def _cmd_fleet(args: argparse.Namespace) -> int:
    # Wall-time lives out here in the CLI: repro.fleet itself is a
    # scarelint deterministic zone and never reads the host clock.
    import time

    from .fleet import (FleetCheckpointError, FleetService,
                        build_fleet_report, render_fleet_report)
    from .parallel import resolve_machine_factory

    if args.resume and not args.checkpoint:
        print("--resume requires --checkpoint FILE", file=sys.stderr)
        return 2
    try:
        resolve_machine_factory(args.factory)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    try:
        service = FleetService(
            endpoints=args.endpoints, events=args.events, seed=args.seed,
            machine_factory=args.factory, max_workers=args.jobs,
            shards=args.shards,
            queue_limit=args.queue_limit,
            template="verify" if args.verify_template else True,
            checkpoint_path=args.checkpoint,
            resume=args.resume)
    except ValueError as exc:
        print(f"fleet: {exc}", file=sys.stderr)
        return 2
    start_ns = time.perf_counter_ns()
    try:
        result = service.run(stop_after_rounds=args.stop_after)
    except FleetCheckpointError as exc:
        print(f"fleet: {exc}", file=sys.stderr)
        return 2
    elapsed_ns = max(1, time.perf_counter_ns() - start_ns)
    report = build_fleet_report(result)
    print(render_fleet_report(report, result))
    executed = len(result.records) - result.events_resumed
    print(f"wall time: {elapsed_ns / 1e9:.2f}s  "
          f"events/sec: {executed / (elapsed_ns / 1e9):.1f}")
    if not result.completed:
        print(f"stopped after {result.rounds_done}/{result.rounds_total} "
              f"rounds (checkpoint: {args.checkpoint or 'none'})")
    _stash_fleet_telemetry(args, result, elapsed_ns)
    return 0 if result.completed else 1


def _stash_fleet_telemetry(args: argparse.Namespace, result,
                           elapsed_ns: int) -> None:
    """Queue the fleet run's merged metrics for the ``--telemetry`` writer.

    Adds the one host-clock number the deterministic service cannot
    record itself — run wall time, under ``wallclock.fleet.run_ns`` — so
    ``repro stats`` can derive events/sec.
    """
    records = getattr(args, "_telemetry_records", None)
    if records is None:
        return
    from .telemetry import export
    from .telemetry.metrics import MetricsRegistry
    scratch = MetricsRegistry(enabled=True)
    scratch.observe(export.FLEET_RUN_WALLCLOCK, elapsed_ns)
    merged = result.merged_metrics().merge(scratch.snapshot())
    records.append(export.metrics_record(merged, scope="fleet"))


def _cmd_serve(args: argparse.Namespace) -> int:
    """Asyncio admission front-end over stdio or TCP (docs/FLEET.md)."""
    import asyncio

    from .parallel import resolve_machine_factory
    from .serve import FleetServer, ServeConfig
    try:
        resolve_machine_factory(args.factory)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    try:
        config = ServeConfig(machine_factory=args.factory,
                             shards=args.shards,
                             tenant_limit=args.tenant_limit,
                             max_batch=args.max_batch)
    except ValueError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    server = FleetServer(config)
    if args.port is None:
        # stdio transport: request lines on stdin, responses on stdout.
        lines = sys.stdin.read().splitlines()
        for response in asyncio.run(server.process_lines(lines)):
            print(response)
        summary = server.counters
        print(f"serve: {summary['requests']} request(s), "
              f"{summary['verdicts']} verdict(s), "
              f"{summary['rejections']} rejection(s)", file=sys.stderr)
        return 0

    async def _serve_tcp() -> None:
        tcp = await server.start_tcp(args.host, args.port)
        address = tcp.sockets[0].getsockname()
        print(f"serve: listening on {address[0]}:{address[1]} "
              f"({config.shards} shard(s), tenant limit "
              f"{config.tenant_limit})", file=sys.stderr)
        async with tcp:
            await tcp.serve_forever()

    try:
        asyncio.run(_serve_tcp())
    except KeyboardInterrupt:
        print("serve: interrupted", file=sys.stderr)
    return 0


def _parse_ramp_stages(raw_stages):
    """``--stage ROUND:PERCENT`` pairs → RampStage tuple (or None)."""
    from .dbops import RampStage
    if not raw_stages:
        return None
    stages = []
    for raw in raw_stages:
        try:
            at_round, _, percent = raw.partition(":")
            stages.append(RampStage(at_round=int(at_round),
                                    percent=int(percent)))
        except ValueError as exc:
            raise ValueError(f"bad --stage {raw!r} (want ROUND:PERCENT): "
                             f"{exc}") from exc
    return tuple(stages)


def _cmd_dbops(args: argparse.Namespace) -> int:
    from .dbops import VersionStore, VersionStoreError
    try:
        if args.dbops_command == "collect":
            return _dbops_collect(args)
        if args.dbops_command == "versions":
            store = VersionStore(args.store)
            versions = store.versions()
            if not versions:
                print(f"store {args.store}: no published versions")
                return 0
            print(f"store {args.store}: {len(versions)} version(s)")
            for version in versions:
                changelog = " ".join(
                    f"{kind}+{count}" for kind, count in version.changelog
                    if count) or "(no changelog)"
                print(f"  v{version.version_id} <- v{version.parent_id}  "
                      f"{version.fingerprint}  {version.label or '-'}  "
                      f"t+{version.created_at_ms}ms  {changelog}")
            return 0
        return _dbops_rollout(args)
    except VersionStoreError as exc:
        print(f"dbops: {exc}", file=sys.stderr)
        return 2


def _dbops_collect(args: argparse.Namespace) -> int:
    from .dbops import CollectorPipeline, VersionStore
    if args.cycles < 1:
        print("--cycles must be >= 1", file=sys.stderr)
        return 2
    store = VersionStore(args.store)
    try:
        pipeline = CollectorPipeline(
            store, seed=args.seed, machines=args.machines,
            cycle_ms=args.cycle_ms)
    except (ValueError, KeyError) as exc:
        print(f"dbops: {exc}", file=sys.stderr)
        return 2
    published = 0
    for result in pipeline.run(args.cycles):
        if result.published is None:
            print(f"cycle {result.cycle}: skipped ({result.skipped_reason})")
            continue
        published += 1
        counts = dict(result.counts)
        print(f"cycle {result.cycle}: published v"
              f"{result.published.version_id} "
              f"(+{counts.get('files', 0)} files, "
              f"+{counts.get('processes', 0)} processes, "
              f"+{counts.get('registry_entries', 0)} registry entries)")
    latest = store.latest()
    print(f"published {published}/{args.cycles} cycle(s); store "
          f"{args.store} now at "
          f"{'v' + str(latest.version_id) if latest else 'base'}")
    return 0


def _dbops_rollout(args: argparse.Namespace) -> int:
    # Offline rollout rehearsal: run the fleet with the version router
    # active. The serving path (live hot-swap) is the `dbops.rollout`
    # RPC against `repro serve`.
    import time

    from .dbops import HealthGate, RolloutEngine, VersionStore
    from .fleet import (FleetCheckpointError, FleetService,
                        build_fleet_report, render_fleet_report)

    store = VersionStore(args.store)
    try:
        stages = _parse_ramp_stages(args.stage)
        health = None if args.no_health else HealthGate(
            min_samples=args.min_samples,
            max_regression=args.max_regression)
        if stages is None:
            engine = RolloutEngine.from_store(store, args.version,
                                              health=health)
        else:
            engine = RolloutEngine.from_store(store, args.version,
                                              stages=stages, health=health)
        service = FleetService(
            endpoints=args.endpoints, events=args.events, seed=args.seed,
            machine_factory=args.factory, max_workers=args.jobs,
            shards=args.shards, version_router=engine)
    except ValueError as exc:
        print(f"dbops: {exc}", file=sys.stderr)
        return 2
    start_ns = time.perf_counter_ns()
    try:
        result = service.run()
    except FleetCheckpointError as exc:
        print(f"dbops: {exc}", file=sys.stderr)
        return 2
    elapsed_ns = max(1, time.perf_counter_ns() - start_ns)
    report = build_fleet_report(result)
    print(render_fleet_report(report, result))
    summary = result.dbops or {}
    state = "no-op (target == base)" if summary.get("noop") else (
        "ROLLED BACK on shard(s) " + ", ".join(
            str(shard) for shard, _ in summary.get("rolled_back_shards",
                                                   ()))
        if summary.get("rolled_back") else "healthy")
    print(f"rollout v{args.version}: {state}  "
          f"stamped batches: {summary.get('stamped_batches', 0)}")
    print(f"wall time: {elapsed_ns / 1e9:.2f}s")
    _stash_fleet_telemetry(args, result, elapsed_ns)
    return 0


def _render_latency_rows(title: str, rows) -> List[str]:
    lines = [f"{title}:"]
    if not rows:
        lines.append("  (none)")
        return lines
    width = max(len(row[0]) for row in rows)
    lines.append(f"  {'export'.ljust(width)}  {'calls':>8} {'p50_ns':>10} "
                 f"{'p99_ns':>10} {'mean_ns':>12}")
    for name, calls, p50, p99, mean in rows:
        lines.append(f"  {name.ljust(width)}  {calls:>8} {p50:>10} "
                     f"{p99:>10} {mean:>12.1f}")
    return lines


def _cmd_stats(args: argparse.Namespace) -> int:
    from .telemetry.export import (TelemetryFormatError, read_records,
                                   summarize_records)
    try:
        records = read_records(args.path)
    except OSError as exc:
        print(f"stats: cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    except TelemetryFormatError as exc:
        print(f"stats: {exc}", file=sys.stderr)
        return 2
    summary = summarize_records(records)
    print(f"telemetry file: {args.path}")
    counts = " ".join(f"{kind}={count}" for kind, count
                      in sorted(summary.record_counts.items()))
    print(f"records: {counts or '(empty)'}")
    if summary.snapshot.counters:
        print("counters:")
        for name, value in sorted(summary.snapshot.counters.items()):
            print(f"  {name}: {value}")
    if summary.snapshot.gauges:
        print("gauges:")
        for name, value in sorted(summary.snapshot.gauges.items()):
            print(f"  {name}: {value}")
    for line in _render_latency_rows("api latency (virtual ns)",
                                     summary.api_rows):
        print(line)
    for line in _render_latency_rows("hook handlers (virtual ns)",
                                     summary.hook_rows):
        print(line)
    if summary.wallclock_rows:
        # Host-time phase split: machine_setup_ns vs job_ns shows what
        # machine templating saves per job (docs/PARALLEL.md).
        for line in _render_latency_rows("wallclock phases (host ns)",
                                         summary.wallclock_rows):
            print(line)
    if summary.event_categories:
        print("events by category: " + " ".join(
            f"{category}={count}" for category, count
            in sorted(summary.event_categories.items())))
    if summary.fleet is not None:
        _print_fleet_health(summary.fleet)
    if summary.serve is not None:
        _print_serve_health(summary.serve)
    if summary.dbops is not None:
        _print_dbops_health(summary.dbops)
    print(f"samples: {summary.samples}  errors: {summary.errors}")
    return 0


def _print_fleet_health(fleet) -> None:
    """The fleet-service section of ``repro stats`` (docs/FLEET.md)."""
    print("fleet health:")
    rate = f"{fleet.events_per_sec:.1f}/s" \
        if fleet.events_per_sec is not None else "n/a"
    print(f"  events: {fleet.events}  throughput: {rate}  "
          f"errors: {fleet.event_errors}  retries: {fleet.retries}")
    print(f"  deactivated: {fleet.deactivated}  benign ok: "
          f"{fleet.benign_ok}  resets: {fleet.resets}")
    print(f"  queue depth hwm: {fleet.queue_depth_hwm}  stalls: "
          f"{fleet.backpressure_stalls}  degraded chunks: "
          f"{fleet.degraded_chunks}")
    print(f"  event latency (virtual): p50 {fleet.latency_p50_ns} ns  "
          f"p99 {fleet.latency_p99_ns} ns  (n={fleet.latency_count})")
    for family, arrivals, deactivated, family_rate in fleet.family_rows:
        print(f"  family {family}: {deactivated}/{arrivals} deactivated "
              f"({family_rate:.1%})")
    if fleet.shards:
        print(f"  shards: {fleet.shards}  shard rounds: "
              f"{fleet.shard_rounds}  resumed: {fleet.shard_rounds_resumed}")


def _print_serve_health(serve) -> None:
    """The admission front-end section of ``repro stats``."""
    print("serve health:")
    print(f"  requests: {serve.requests}  submits: {serve.submits}  "
          f"errors: {serve.errors}")
    print(f"  events admitted: {serve.events}  verdicts: {serve.verdicts}  "
          f"overload rejections: {serve.rejections}")


def _print_dbops_health(dbops) -> None:
    """The deception-DB operations section of ``repro stats``."""
    print("dbops health:")
    if dbops.cycles:
        print(f"  collection cycles: {dbops.cycles}  published: "
              f"{dbops.published}  skipped: {dbops.skipped_cycles}  "
              f"resources added: {dbops.resources_added}")
    if dbops.target_version or dbops.stamped_batches or dbops.rollbacks:
        print(f"  rollout target: v{dbops.target_version}  stamped "
              f"batches: {dbops.stamped_batches}  rollbacks: "
              f"{dbops.rollbacks}")


def _parse_rules(raw: str) -> tuple:
    return tuple(sorted({part.strip().upper()
                         for part in raw.split(",") if part.strip()}))


def _cmd_lint(args: argparse.Namespace) -> int:
    from .staticcheck import (load_or_empty, render_human, render_json,
                              run_lint, write_baseline)
    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2
    select = _parse_rules(args.select)
    ignore = _parse_rules(args.ignore)
    baseline = load_or_empty(args.baseline) if not args.no_baseline \
        else None
    report = run_lint(args.paths, jobs=args.jobs, baseline=baseline,
                      select=select, ignore=ignore,
                      changed_base=args.changed)
    if args.write_baseline:
        if select or ignore or args.changed is not None:
            print("lint: --write-baseline needs a full scan "
                  "(no --select/--ignore/--changed)", file=sys.stderr)
            return 2
        written = write_baseline(report.findings, args.baseline,
                                 suppressed=report.suppressed,
                                 reason=args.reason)
        pruned = len(report.stale_suppressions)
        print(f"lint: wrote {len(written)} suppression(s) to "
              f"{args.baseline} (pruned {pruned} dead "
              f"entr{'y' if pruned == 1 else 'ies'})", file=sys.stderr)
        return 0
    if args.format == "json":
        print(render_json(report))
    else:
        print(render_human(report))
    return report.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Scarecrow (DSN 2020) reproduction toolkit")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("table1", "Table I: 13 Joe Security samples"),
            ("table2", "Table II: Pafish across environments"),
            ("table3", "Table III: wear-and-tear artifacts"),
            ("figure4", "Figure 4: the 1,054-sample corpus (slow)"),
            ("cases", "Section V case studies"),
            ("all", "everything above"),
            ("overhead", "hook-chain overhead measurement"),
            ("inventory", "deception database inventory")):
        sub = subparsers.add_parser(name, help=help_text)
        if name != "inventory":
            _add_telemetry_option(sub)
    demo = subparsers.add_parser("demo",
                                 help="run one sample w/ and w/o Scarecrow")
    demo.add_argument("sample", choices=sorted(DEMO_SAMPLES))
    pafish = subparsers.add_parser("pafish", help="run Pafish")
    pafish.add_argument("--env", choices=PAFISH_ENVIRONMENTS,
                        default="end-user")
    pafish.add_argument("--scarecrow", action="store_true")
    sweep = subparsers.add_parser(
        "sweep", help="parallel corpus sweep (docs/PARALLEL.md)")
    sweep.add_argument("--workers", type=int, default=1,
                       help="worker processes (1 = in-process)")
    sweep.add_argument("--families", nargs="+", metavar="FAMILY",
                       help="restrict the corpus to these families")
    sweep.add_argument("--limit", type=int, default=0,
                       help="cap the number of samples (0 = no cap)")
    sweep.add_argument("--factory", default="bare-metal-light",
                       help="machine factory name "
                            "(see repro.parallel.available_factories)")
    sweep.add_argument("--verify-template", action="store_true",
                       help="re-run every sample on a fresh machine and "
                            "prove every template restore skipped only "
                            "clean subsystems; fail on any divergence")
    _add_telemetry_option(sweep)
    fleet = subparsers.add_parser(
        "fleet", help="multi-endpoint protection service (docs/FLEET.md)")
    fleet.add_argument("--endpoints", type=int, default=8,
                       help="protected endpoints in the fleet")
    fleet.add_argument("--events", type=int, default=64,
                       help="events in the generated stream")
    fleet.add_argument("--seed", type=int, default=42,
                       help="workload seed (same seed = same stream)")
    fleet.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1 = in-process)")
    fleet.add_argument("--shards", type=int, default=1,
                       help="independent fleet shards dispatched "
                            "concurrently (endpoint_id %% shards routing; "
                            "same rollup bytes at any count)")
    fleet.add_argument("--factory", default="end-user",
                       help="machine factory endpoints are stamped from")
    fleet.add_argument("--queue-limit", type=int, default=32,
                       help="admission-queue bound (backpressure)")
    fleet.add_argument("--verify-template", action="store_true",
                       help="prove every template restore skipped only "
                            "clean subsystems; fail on any divergence")
    fleet.add_argument("--checkpoint", metavar="FILE", default=None,
                       help="write a resumable checkpoint after each round")
    fleet.add_argument("--resume", action="store_true",
                       help="resume from --checkpoint FILE if it exists")
    fleet.add_argument("--stop-after", type=int, default=None,
                       metavar="ROUNDS",
                       help="stop after this many new rounds (simulates a "
                            "killed service; exit code 1)")
    _add_telemetry_option(fleet)
    serve = subparsers.add_parser(
        "serve", help="asyncio admission front-end for the sharded fleet "
                      "(line-delimited JSON-RPC; docs/FLEET.md)")
    serve.add_argument("--factory", default="end-user",
                       help="machine factory endpoints are stamped from")
    serve.add_argument("--shards", type=int, default=1,
                       help="shard count for endpoint routing")
    serve.add_argument("--tenant-limit", type=int, default=256,
                       help="max pending events per tenant (overload "
                            "beyond this is rejected, not queued)")
    serve.add_argument("--max-batch", type=int, default=128,
                       help="max events per submit request")
    serve.add_argument("--port", type=int, default=None, metavar="PORT",
                       help="listen on TCP PORT (0 = ephemeral); "
                            "default: stdio one-shot mode")
    serve.add_argument("--host", default="127.0.0.1",
                       help="TCP bind address (with --port)")
    _add_telemetry_option(serve)
    dbops = subparsers.add_parser(
        "dbops", help="deception-DB versioning: collect, inspect, roll "
                      "out (docs/DBOPS.md)")
    dbops_sub = dbops.add_subparsers(dest="dbops_command", required=True)
    collect = dbops_sub.add_parser(
        "collect", help="run collection cycles against simulated "
                        "sandboxes, publishing a version per fresh diff")
    collect.add_argument("--store", required=True, metavar="DIR",
                         help="version-store directory (created if absent)")
    collect.add_argument("--cycles", type=int, default=4,
                         help="collection cycles to run")
    collect.add_argument("--seed", type=int, default=2026,
                         help="sandbox-drift seed (same seed = same "
                              "versions)")
    collect.add_argument("--machines", type=int, default=2,
                         help="simulated public sandboxes to crawl")
    collect.add_argument("--cycle-ms", type=int, default=60_000,
                         help="virtual milliseconds per cycle")
    _add_telemetry_option(collect)
    versions = dbops_sub.add_parser(
        "versions", help="list the published versions in a store")
    versions.add_argument("--store", required=True, metavar="DIR",
                          help="version-store directory")
    rollout = dbops_sub.add_parser(
        "rollout", help="fleet run with a staged, health-gated version "
                        "rollout (offline rehearsal; live serving uses "
                        "the dbops.rollout RPC)")
    rollout.add_argument("--store", required=True, metavar="DIR",
                         help="version-store directory")
    rollout.add_argument("--version", type=int, required=True,
                         help="published version id to roll out")
    rollout.add_argument("--endpoints", type=int, default=8,
                         help="protected endpoints in the fleet")
    rollout.add_argument("--events", type=int, default=64,
                         help="events in the generated stream")
    rollout.add_argument("--seed", type=int, default=42,
                         help="workload seed")
    rollout.add_argument("--jobs", type=int, default=1,
                         help="worker processes (1 = in-process)")
    rollout.add_argument("--shards", type=int, default=1,
                         help="fleet shards (rollback is evaluated "
                              "per shard)")
    rollout.add_argument("--factory", default="end-user",
                         help="machine factory endpoints are stamped from")
    rollout.add_argument("--stage", action="append", default=None,
                         metavar="ROUND:PERCENT",
                         help="ramp stage (repeatable; default 0:100)")
    rollout.add_argument("--min-samples", type=int, default=8,
                         help="malware arrivals per cohort before the "
                              "health gate may trigger")
    rollout.add_argument("--max-regression", type=float, default=0.15,
                         help="deactivation-rate drop that triggers "
                              "auto-rollback")
    rollout.add_argument("--no-health", action="store_true",
                         help="disable the auto-rollback health gate")
    _add_telemetry_option(rollout)
    stats = subparsers.add_parser(
        "stats", help="summarise a --telemetry JSONL trace")
    stats.add_argument("path", metavar="PATH",
                       help="telemetry file written by --telemetry")
    lint = subparsers.add_parser(
        "lint", help="scarelint static analysis (docs/STATIC_ANALYSIS.md)")
    lint.add_argument("paths", nargs="*", metavar="PATH", default=["src"],
                      help="files/directories to lint (default: src)")
    lint.add_argument("--format", choices=("human", "json"),
                      default="human", help="output format")
    lint.add_argument("--baseline", default=".scarelint-baseline.json",
                      metavar="FILE",
                      help="baseline of grandfathered findings")
    lint.add_argument("--no-baseline", action="store_true",
                      help="report every finding, ignoring the baseline")
    lint.add_argument("--write-baseline", action="store_true",
                      help="regenerate the baseline from current findings")
    lint.add_argument("--reason", default="",
                      help="reason recorded with --write-baseline entries")
    lint.add_argument("--jobs", type=int, default=1,
                      help="parallel lint workers (1 = in-process)")
    lint.add_argument("--select", default="", metavar="RULE,RULE",
                      help="run only these rule ids (e.g. SC006,SC008)")
    lint.add_argument("--ignore", default="", metavar="RULE,RULE",
                      help="skip these rule ids")
    lint.add_argument("--changed", nargs="?", const="main", default=None,
                      metavar="REF",
                      help="lint only files differing from "
                           "`git merge-base HEAD REF` (default REF: main) "
                           "plus untracked files")
    _add_telemetry_option(lint)
    return parser


def _add_telemetry_option(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--telemetry", metavar="PATH", default=None,
                     help="record metrics while the command runs and "
                          "write them to PATH as JSONL (summarise with "
                          "'repro stats PATH'; docs/OBSERVABILITY.md)")


_COMMANDS: Dict[str, Callable[[argparse.Namespace], int]] = {
    "table1": _cmd_table1, "table2": _cmd_table2, "table3": _cmd_table3,
    "figure4": _cmd_figure4, "cases": _cmd_cases, "all": _cmd_all,
    "demo": _cmd_demo, "pafish": _cmd_pafish, "inventory": _cmd_inventory,
    "overhead": _cmd_overhead, "sweep": _cmd_sweep, "fleet": _cmd_fleet,
    "serve": _cmd_serve, "stats": _cmd_stats, "lint": _cmd_lint,
    "dbops": _cmd_dbops,
}


def _run_with_telemetry(args: argparse.Namespace, path: str) -> int:
    """Run a command with the telemetry layer enabled; export to JSONL."""
    from .telemetry import export
    from .telemetry.metrics import TELEMETRY
    args._telemetry_records = []
    prior_enabled = TELEMETRY.enabled
    TELEMETRY.enabled = True
    before = TELEMETRY.snapshot()
    try:
        code = _COMMANDS[args.command](args)
    finally:
        TELEMETRY.enabled = prior_enabled
    stashed = list(args._telemetry_records)
    records = [export.meta_record(command=args.command, exit_code=code)]
    if not any(record.get("type") == "metrics" for record in stashed):
        delta = TELEMETRY.snapshot().diff_from(before)
        records.append(export.metrics_record(delta, scope="process"))
    records.extend(stashed)
    written = export.write_records(path, records)
    print(f"telemetry: wrote {written} record(s) to {path}",
          file=sys.stderr)
    return code


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    telemetry_path = getattr(args, "telemetry", None)
    if telemetry_path:
        return _run_with_telemetry(args, telemetry_path)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
