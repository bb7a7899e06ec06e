"""CLI smoke + behaviour tests (``python -m repro``)."""

import io
import json

import pytest

from repro.cli import DEMO_SAMPLES, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_demo_sample_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "not-a-sample"])
        args = build_parser().parse_args(["demo", "wannacry"])
        assert args.sample == "wannacry"

    def test_pafish_defaults(self):
        args = build_parser().parse_args(["pafish"])
        assert args.env == "end-user" and not args.scarecrow


class TestCommands:
    def test_inventory(self, capsys):
        assert main(["inventory"]) == 0
        out = capsys.readouterr().out
        assert "processes: 24" in out
        assert "hooked resource APIs: 29" in out
        assert "192.0.2.66" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "12/13" in out

    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        assert "sandbox" in capsys.readouterr().out

    def test_cases(self, capsys):
        assert main(["cases"]) == 0
        out = capsys.readouterr().out
        assert "Kasidet" in out and "WannaCry" in out

    @pytest.mark.parametrize("sample", sorted(DEMO_SAMPLES))
    def test_demo_each_sample(self, sample, capsys):
        code = main(["demo", sample])
        out = capsys.readouterr().out
        assert "verdict:" in out
        assert code == 0

    def test_pafish_end_user_bare(self, capsys):
        assert main(["pafish", "--env", "end-user"]) == 0
        out = capsys.readouterr().out
        assert "triggered 3/56" in out

    def test_pafish_vm_with_scarecrow(self, capsys):
        assert main(["pafish", "--env", "vm", "--scarecrow"]) == 0
        out = capsys.readouterr().out
        # Table II's VM w/-Scarecrow column: 1+0+9+2+1+2+14+4+1+1+0 = 35.
        assert "triggered 35/56" in out


class TestSweepCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.workers == 1
        assert args.limit == 0
        assert args.factory == "bare-metal-light"
        assert args.families is None

    def test_sweep_prints_summary(self, capsys):
        assert main(["sweep", "--families", "Bifrose", "--limit", "8"]) == 0
        out = capsys.readouterr().out
        assert "sweep: 8 samples, 1 worker(s) (in-process)" in out
        assert "factory=bare-metal-light" in out
        assert "deactivated:" in out
        assert "worker pids: 1 distinct" in out

    def test_sweep_family_filter_is_case_insensitive(self, capsys):
        assert main(["sweep", "--families", "selfdel",
                     "--limit", "2"]) == 0
        assert "sweep: 2 samples" in capsys.readouterr().out

    def test_sweep_unknown_family_fails(self, capsys):
        assert main(["sweep", "--families", "NoSuchFamily"]) == 2
        assert "unknown families: nosuchfamily" in capsys.readouterr().err

    def test_sweep_unknown_factory_fails_cleanly(self, capsys):
        assert main(["sweep", "--families", "Selfdel", "--limit", "1",
                     "--factory", "no-such-env"]) == 2
        err = capsys.readouterr().err
        assert "unknown machine factory 'no-such-env'" in err
        assert "bare-metal" in err  # lists the alternatives

    @pytest.mark.parametrize("argv", [["--workers", "0"],
                                      ["--limit", "-3"]])
    def test_sweep_rejects_bad_numbers(self, argv, capsys):
        assert main(["sweep", "--families", "Selfdel"] + argv) == 2
        assert "must be >=" in capsys.readouterr().err

    def test_sweep_verify_template_runs_both_checks(self, capsys):
        assert main(["sweep", "--families", "Selfdel", "--limit", "2",
                     "--verify-template"]) == 0
        assert "template=verify" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["sweep", "fleet"])
    @pytest.mark.parametrize("flag", ["--no-template", "--no-delta",
                                      "--verify-delta"])
    def test_removed_execution_flags_are_rejected(self, command, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, flag])


class TestSweepErrorExit:
    def _result_with_error(self):
        from repro.parallel.envelope import SweepError
        from repro.parallel.sweep import SweepResult
        error = SweepError(index=0, sample_md5="deadbeef",
                           error_type="RuntimeError", message="boom",
                           traceback="", worker_pid=123, retry_count=1)
        return SweepResult(entries=[error], max_workers=1,
                           used_process_pool=False, wall_time_s=0.01)

    def test_sweep_exits_nonzero_on_sweep_errors(self, monkeypatch, capsys):
        from repro.parallel.sweep import ParallelSweep
        result = self._result_with_error()
        monkeypatch.setattr(ParallelSweep, "run",
                            lambda self, samples: result)
        code = main(["sweep", "--families", "Selfdel", "--limit", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert "ERROR deadbeef: RuntimeError: boom" in err

    def test_sweep_exits_zero_without_errors(self, capsys):
        assert main(["sweep", "--families", "Selfdel", "--limit", "1"]) == 0
        assert "ERROR" not in capsys.readouterr().err


class TestTelemetryOption:
    def test_sweep_telemetry_writes_jsonl_stats_reads_it(self, tmp_path,
                                                         capsys):
        from repro.telemetry import export
        path = str(tmp_path / "telemetry.jsonl")
        assert main(["sweep", "--families", "Selfdel", "--limit", "2",
                     "--telemetry", path]) == 0
        assert f"telemetry: wrote" in capsys.readouterr().err
        records = export.read_records(path)
        kinds = [record["type"] for record in records]
        assert kinds.count("meta") == 1
        assert kinds.count("metrics") == 1  # merged sweep scope, no dupes
        assert kinds.count("sample") == 2
        metrics = next(r for r in records if r["type"] == "metrics")
        assert metrics["scope"] == "sweep"
        assert metrics["snapshot"]["counters"]["worker.jobs"] == 2

        assert main(["stats", path]) == 0
        out = capsys.readouterr().out
        assert "records: meta=1 metrics=1 sample=2" in out
        assert "worker.jobs: 2" in out
        assert "api latency (virtual ns):" in out
        assert "p50_ns" in out and "p99_ns" in out

    def test_experiment_telemetry_records_process_delta(self, tmp_path,
                                                        capsys):
        from repro.telemetry import export
        path = str(tmp_path / "telemetry.jsonl")
        assert main(["table1", "--telemetry", path]) == 0
        capsys.readouterr()
        records = export.read_records(path)
        metrics = next(r for r in records if r["type"] == "metrics")
        assert metrics["scope"] == "process"
        assert metrics["snapshot"]["counters"]["api.calls"] > 0

    def test_telemetry_flag_restored_after_run(self, tmp_path):
        from repro.telemetry.metrics import TELEMETRY
        path = str(tmp_path / "telemetry.jsonl")
        assert not TELEMETRY.enabled
        main(["sweep", "--families", "Selfdel", "--limit", "1",
              "--telemetry", path])
        assert not TELEMETRY.enabled


class TestStatsCommand:
    def test_stats_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["stats", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_stats_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("this is not json\n")
        assert main(["stats", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_stats_schema_violation_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type":"metrics","scope":"run"}\n')
        assert main(["stats", str(path)]) == 2
        assert "missing field" in capsys.readouterr().err

    def test_stats_empty_file_summarises(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "records: (empty)" in out
        assert "samples: 0  errors: 0" in out

    def test_telemetry_parser_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.telemetry is None
        args = build_parser().parse_args(["overhead"])
        assert args.telemetry is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(["inventory", "--telemetry", "x"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats"])  # PATH is required


class TestFleetCommand:
    ARGS = ["fleet", "--endpoints", "2", "--events", "12", "--seed", "7",
            "--factory", "bare-metal-light", "--queue-limit", "6"]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.endpoints == 8
        assert args.events == 64
        assert args.seed == 42
        assert args.jobs == 1
        assert args.shards == 1
        assert args.factory == "end-user"
        assert args.queue_limit == 32
        assert args.checkpoint is None
        assert not args.resume

    def test_fleet_sharded_report_matches_unsharded(self, capsys):
        assert main(self.ARGS) == 0
        reference = capsys.readouterr().out
        assert main(self.ARGS + ["--shards", "2"]) == 0
        sharded = capsys.readouterr().out
        assert "2 shards" in sharded
        # Same verdict lines; only the execution-shape line may differ.
        report = lambda text: text.split("execution:")[0]  # noqa: E731
        assert report(sharded) == report(reference)

    def test_fleet_rejects_bad_shard_count(self, capsys):
        assert main(["fleet", "--shards", "0"]) == 2
        assert "must be >=" in capsys.readouterr().err

    def test_fleet_prints_report(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "Fleet protection report" in out
        assert "endpoints: 2   seed: 7   events: 12/12" in out
        assert "admission: queue hwm" in out
        assert "events/sec:" in out

    def test_fleet_is_deterministic_across_invocations(self, capsys):
        assert main(self.ARGS) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS) == 0
        second = capsys.readouterr().out
        # Everything above the host-wall-time footer must be identical.
        report = lambda text: text.split("wall time:")[0]  # noqa: E731
        assert report(first) == report(second)

    def test_fleet_resume_requires_checkpoint(self, capsys):
        assert main(["fleet", "--resume"]) == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    def test_fleet_unknown_factory_fails_cleanly(self, capsys):
        assert main(["fleet", "--factory", "no-such-env"]) == 2
        assert "unknown machine factory" in capsys.readouterr().err

    def test_fleet_rejects_bad_numbers(self, capsys):
        assert main(["fleet", "--endpoints", "0"]) == 2
        assert "must be >=" in capsys.readouterr().err

    def test_fleet_verify_template_matches_plain_run(self, capsys):
        assert main(self.ARGS) == 0
        reference = capsys.readouterr().out
        assert main(self.ARGS + ["--verify-template"]) == 0
        verified = capsys.readouterr().out
        report = lambda text: text.split("wall time:")[0]  # noqa: E731
        assert report(verified) == report(reference)

    def test_fleet_interrupt_then_resume(self, tmp_path, capsys):
        checkpoint = str(tmp_path / "fleet.ckpt")
        argv = self.ARGS + ["--events", "24", "--checkpoint", checkpoint]
        assert main(argv + ["--stop-after", "1"]) == 1
        out = capsys.readouterr().out
        assert "(PARTIAL)" in out
        assert "stopped after 1/" in out
        assert main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "(PARTIAL)" not in out
        assert "resumed 1/" in out

    def test_fleet_mismatched_checkpoint_exits_2(self, tmp_path, capsys):
        checkpoint = str(tmp_path / "fleet.ckpt")
        argv = self.ARGS + ["--checkpoint", checkpoint]
        assert main(argv + ["--stop-after", "1"]) == 1
        capsys.readouterr()
        assert main(argv + ["--seed", "8", "--resume"]) == 2
        assert "refusing to resume" in capsys.readouterr().err

    def test_fleet_telemetry_feeds_stats_fleet_health(self, tmp_path,
                                                      capsys):
        path = str(tmp_path / "fleet.jsonl")
        assert main(self.ARGS + ["--telemetry", path]) == 0
        capsys.readouterr()
        assert main(["stats", path]) == 0
        out = capsys.readouterr().out
        assert "fleet health:" in out
        assert "events: 12" in out
        assert "throughput:" in out
        assert "queue depth hwm:" in out
        assert "event latency (virtual): p50" in out
        assert "family " in out


class TestServeCommand:
    """`repro serve` on the stdio transport (stdin monkeypatched)."""

    ARGS = ["serve", "--factory", "bare-metal-light", "--shards", "2"]

    @staticmethod
    def _feed(monkeypatch, lines):
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines)))

    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.factory == "end-user"
        assert args.shards == 1
        assert args.tenant_limit == 256
        assert args.max_batch == 128
        assert args.port is None
        assert args.host == "127.0.0.1"

    def test_stdio_round_trip(self, monkeypatch, capsys):
        from repro.fleet import generate_events
        from repro.serve import event_to_dict
        events = generate_events(7, 2, 6)
        submit = json.dumps({
            "id": 2, "method": "submit",
            "params": {"events": [event_to_dict(e) for e in events]}})
        self._feed(monkeypatch, ['{"id": 1, "method": "ping"}', submit])
        assert main(self.ARGS) == 0
        captured = capsys.readouterr()
        ping, verdicts = (json.loads(line)
                          for line in captured.out.splitlines())
        assert ping["result"] == {"ok": True, "v": 1, "shards": 2}
        assert len(verdicts["result"]["verdicts"]) == len(events)
        assert "2 request(s), 6 verdict(s), 0 rejection(s)" \
            in captured.err

    def test_malformed_line_reports_an_error_response(self, monkeypatch,
                                                      capsys):
        self._feed(monkeypatch, ["not json{"])
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["error"]["code"] == -32700

    def test_unknown_factory_fails_cleanly(self, capsys):
        assert main(["serve", "--factory", "no-such-env"]) == 2
        assert "unknown machine factory" in capsys.readouterr().err

    def test_bad_config_exits_2(self, capsys):
        assert main(["serve", "--shards", "0"]) == 2
        assert "serve:" in capsys.readouterr().err
