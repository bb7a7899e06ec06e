"""End-to-end runner + ``repro lint`` CLI tests over scratch trees."""

import json
import subprocess
import sys

import pytest

from repro.staticcheck import (Baseline, DEFAULT_BASELINE_PATH,
                               collect_files, render_human, render_json,
                               run_lint, write_baseline)
from repro.telemetry.metrics import TELEMETRY

pytestmark = pytest.mark.staticcheck

DIRTY_ZONE_FILE = ("src/repro/winsim/dirty.py",
                   "import time\nvalue = hash('x')\n")
CLEAN_ZONE_FILE = ("src/repro/winsim/clean.py",
                   "def now(machine):\n    return machine.clock.now_ns\n")
OUT_OF_ZONE_FILE = ("src/repro/analysis/report.py",
                    "import time\n")     # analysis is not a zone


def make_tree(root, *files):
    for relpath, source in files:
        target = root / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)


class TestRunLint:
    def test_zone_gating(self, tmp_path, monkeypatch):
        make_tree(tmp_path, DIRTY_ZONE_FILE, CLEAN_ZONE_FILE,
                  OUT_OF_ZONE_FILE)
        monkeypatch.chdir(tmp_path)
        report = run_lint(["src"])
        rules = sorted({f.rule for f in report.findings})
        assert rules == ["SC001", "SC002"]
        paths = {f.path for f in report.findings}
        assert paths == {"src/repro/winsim/dirty.py"}
        assert report.exit_code == 1
        assert report.files_scanned == 3

    def test_clean_tree_exits_zero(self, tmp_path, monkeypatch):
        make_tree(tmp_path, CLEAN_ZONE_FILE)
        monkeypatch.chdir(tmp_path)
        report = run_lint(["src"])
        assert report.findings == []
        assert report.exit_code == 0

    def test_syntax_error_becomes_sc000(self, tmp_path, monkeypatch):
        make_tree(tmp_path, ("src/broken.py", "def f(:\n"))
        monkeypatch.chdir(tmp_path)
        report = run_lint(["src"])
        assert [f.rule for f in report.findings] == ["SC000"]

    def test_baseline_suppresses_and_stale_reported(self, tmp_path,
                                                    monkeypatch):
        make_tree(tmp_path, DIRTY_ZONE_FILE)
        monkeypatch.chdir(tmp_path)
        first = run_lint(["src"])
        baseline_path = str(tmp_path / "baseline.json")
        write_baseline(first.findings, baseline_path, reason="test")

        second = run_lint(["src"], baseline_path=baseline_path)
        assert second.findings == []
        assert len(second.suppressed) == len(first.findings)
        assert second.stale_suppressions == []

        # Fix one violation: its baseline entry goes stale.
        (tmp_path / DIRTY_ZONE_FILE[0]).write_text("value = hash('x')\n")
        third = run_lint(["src"], baseline_path=baseline_path)
        assert third.findings == []
        assert len(third.stale_suppressions) == 1

    def test_pooled_run_matches_serial(self, tmp_path, monkeypatch):
        make_tree(tmp_path, DIRTY_ZONE_FILE, CLEAN_ZONE_FILE,
                  OUT_OF_ZONE_FILE)
        monkeypatch.chdir(tmp_path)
        serial = run_lint(["src"], jobs=1)
        pooled = run_lint(["src"], jobs=2)
        assert pooled.findings == serial.findings

    def test_telemetry_records_lint_metrics(self, tmp_path, monkeypatch):
        make_tree(tmp_path, DIRTY_ZONE_FILE)
        monkeypatch.chdir(tmp_path)
        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            run_lint(["src"])
            snapshot = TELEMETRY.snapshot()
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        assert snapshot.counters["staticcheck.files"] == 1
        assert snapshot.counters["staticcheck.findings"] >= 1
        assert any(name.startswith("wallclock.staticcheck.SC")
                   for name in snapshot.histograms)

    def test_collect_files_deduplicates_and_sorts(self, tmp_path):
        make_tree(tmp_path, ("a.py", ""), ("sub/b.py", ""))
        files = collect_files([str(tmp_path), str(tmp_path / "a.py")])
        assert files == sorted(files)
        assert len(files) == 2

    def test_renderers(self, tmp_path, monkeypatch):
        make_tree(tmp_path, DIRTY_ZONE_FILE)
        monkeypatch.chdir(tmp_path)
        report = run_lint(["src"])
        human = render_human(report)
        assert "SC001" in human and "1 file(s) scanned" in human
        payload = json.loads(render_json(report))
        assert payload["version"] == 1
        assert payload["files_scanned"] == 1
        assert {f["rule"] for f in payload["findings"]} == \
            {"SC001", "SC002"}
        assert "SC003" in payload["rules"]


class TestLintCli:
    def run_cli(self, cwd, *args):
        # Absolute PYTHONPATH: the subprocess runs from a tmp cwd, where
        # the inherited relative ``src`` entry would not resolve.
        import os
        import pathlib
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + env.get("PYTHONPATH", "").split(os.pathsep))
        return subprocess.run(
            [sys.executable, "-m", "repro", "lint", *args],
            capture_output=True, text=True, cwd=str(cwd), env=env)

    def test_dirty_tree_exits_one(self, tmp_path):
        make_tree(tmp_path, DIRTY_ZONE_FILE)
        result = self.run_cli(tmp_path, "src")
        assert result.returncode == 1
        assert "SC001" in result.stdout

    def test_clean_tree_exits_zero(self, tmp_path):
        make_tree(tmp_path, CLEAN_ZONE_FILE)
        result = self.run_cli(tmp_path, "src")
        assert result.returncode == 0
        assert "0 finding(s)" in result.stdout

    def test_json_format(self, tmp_path):
        make_tree(tmp_path, DIRTY_ZONE_FILE)
        result = self.run_cli(tmp_path, "src", "--format", "json")
        payload = json.loads(result.stdout)
        assert payload["version"] == 1
        assert result.returncode == 1

    def test_write_baseline_then_clean(self, tmp_path):
        make_tree(tmp_path, DIRTY_ZONE_FILE)
        minted = self.run_cli(tmp_path, "src", "--write-baseline",
                              "--reason", "fixture")
        assert minted.returncode == 0, minted.stderr
        assert (tmp_path / DEFAULT_BASELINE_PATH).exists()
        relint = self.run_cli(tmp_path, "src")
        assert relint.returncode == 0, relint.stdout

    def test_no_baseline_flag_ignores_it(self, tmp_path):
        make_tree(tmp_path, DIRTY_ZONE_FILE)
        self.run_cli(tmp_path, "src", "--write-baseline")
        result = self.run_cli(tmp_path, "src", "--no-baseline")
        assert result.returncode == 1

    def test_invalid_jobs_exits_two(self, tmp_path):
        make_tree(tmp_path, CLEAN_ZONE_FILE)
        result = self.run_cli(tmp_path, "src", "--jobs", "0")
        assert result.returncode == 2

    def test_jobs_flag_parallel_run(self, tmp_path):
        make_tree(tmp_path, DIRTY_ZONE_FILE, CLEAN_ZONE_FILE)
        result = self.run_cli(tmp_path, "src", "--jobs", "2")
        assert result.returncode == 1
        assert "SC001" in result.stdout

