"""Resource-hygiene audits: handle leaks, event-bus detachment, determinism."""

import pytest

from repro import winapi
from repro.analysis.environments import build_end_user_machine
from repro.core import ScarecrowController
from repro.fingerprint.pafish import run_pafish
from repro.fingerprint.weartear import measure_artifacts


class TestHandleHygiene:
    def test_pafish_closes_what_it_opens(self, machine, api):
        before = machine.handles.live_count()
        run_pafish(api)
        leaked = machine.handles.live_count() - before
        assert leaked == 0, f"pafish leaked {leaked} handles"

    def test_weartear_tool_bounded_leakage(self, machine, api):
        before = machine.handles.live_count()
        measure_artifacts(api)
        leaked = machine.handles.live_count() - before
        assert leaked == 0, f"wear-and-tear tool leaked {leaked} handles"

    def test_protected_pafish_closes_fake_handles_too(self, machine,
                                                      controller,
                                                      protected_api):
        before = machine.handles.live_count()
        run_pafish(protected_api)
        leaked = machine.handles.live_count() - before
        assert leaked == 0, f"leaked {leaked} (materialized key?) handles"

    def test_evasion_checks_close_handles(self, machine, protected_api):
        from repro.malware.techniques import all_check_names, get_check
        before = machine.handles.live_count()
        for name in all_check_names():
            get_check(name).run(protected_api)
        leaked = machine.handles.live_count() - before
        assert leaked == 0, f"techniques leaked {leaked} handles"


class TestBusHygiene:
    def test_controller_shutdown_detaches(self, machine):
        before = machine.bus.subscriber_count
        controller = ScarecrowController(machine)
        assert machine.bus.subscriber_count == before + 1
        controller.shutdown()
        assert machine.bus.subscriber_count == before

    def test_tracer_stop_detaches(self, machine):
        from repro.analysis import Tracer
        before = machine.bus.subscriber_count
        tracer = Tracer(machine).start()
        tracer.stop()
        assert machine.bus.subscriber_count == before


class TestDeterminism:
    def test_environment_builders_deterministic(self):
        first = build_end_user_machine()
        second = build_end_user_machine()
        assert first.snapshot() == second.snapshot()

    def test_pafish_run_deterministic(self):
        results = []
        for _ in range(2):
            machine = build_end_user_machine()
            process = machine.spawn_process("p.exe", "C:\\p.exe",
                                            parent=machine.explorer)
            results.append(run_pafish(winapi.bind(machine, process)).results)
        assert results[0] == results[1]

    def test_table1_run_deterministic(self):
        from repro.experiments import run_table1
        first = [(r.md5_prefix, r.effective, r.trigger) for r in run_table1()]
        second = [(r.md5_prefix, r.effective, r.trigger)
                  for r in run_table1()]
        assert first == second


@pytest.mark.staticcheck
class TestStaticCheck:
    """`repro lint src/` must report zero unbaselined findings.

    The scarelint gate (docs/STATIC_ANALYSIS.md): SC001/SC002 keep host
    time and entropy out of the deterministic zones, SC003 enforces the
    layer order, SC004 proves the 29-API hook contract against the live
    export table, SC005 rejects swallowed exceptions. Anything
    deliberately host-clock lives in .scarelint-baseline.json.
    """

    REPO_ROOT = __import__("pathlib").Path(__file__).resolve().parents[1]

    def test_src_tree_is_lint_clean(self):
        import subprocess
        import sys
        result = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "src"],
            capture_output=True, text=True, cwd=str(self.REPO_ROOT))
        assert result.returncode == 0, \
            f"unbaselined scarelint findings:\n{result.stdout}"

    def test_no_stale_baseline_entries(self):
        from repro.staticcheck import load_or_empty, run_lint
        import os
        cwd = os.getcwd()
        os.chdir(self.REPO_ROOT)
        try:
            baseline = load_or_empty(".scarelint-baseline.json")
            report = run_lint(["src"], baseline=baseline)
        finally:
            os.chdir(cwd)
        assert report.findings == []
        stale = [entry.key for entry in report.stale_suppressions]
        assert stale == [], \
            f"baseline entries for fixed violations: {stale}"

    def test_sc004_proves_the_29_api_contract(self):
        """All 29 contract APIs resolve to prologue-bearing exports with
        registered handlers — the machine-checked Section III-A claim."""
        from repro.staticcheck.contract import (default_prologue_ok,
                                                live_contract_inputs)
        core, aliases, decoys, handler_names, exports = \
            live_contract_inputs()
        assert len(core) == 29
        export_index = {name.lower() for name in exports}
        handler_set = set(handler_names)
        for name in (*core, *aliases, *aliases.values(), *decoys):
            assert name.lower() in export_index, name
            assert default_prologue_ok(name), name
        for name in core:
            assert name in handler_set, f"{name} lacks a handler"


class TestMarkerHygiene:
    """Every pytest marker in use is declared in pyproject, and the
    marker-named suites actually carry their marker (so `-m fleet` etc.
    select what the docs promise)."""

    REPO_ROOT = __import__("pathlib").Path(__file__).resolve().parents[1]

    #: Suite directories whose files must all carry the matching marker.
    MARKED_SUITES = ("telemetry", "staticcheck", "fleet", "serve", "dbops")

    #: Files outside a marker-named directory that still owe a marker.
    DELTA_SUITE = ("parallel/test_delta_properties.py",
                   "parallel/test_envelope.py")

    def _declared_markers(self):
        import re
        text = (self.REPO_ROOT / "pyproject.toml").read_text(
            encoding="utf-8")
        block = text.split("markers = [", 1)[1].split("]", 1)[0]
        return set(re.findall(r'"(\w+):', block))

    def _used_markers(self):
        import re
        used = set()
        for path in (self.REPO_ROOT / "tests").rglob("test_*.py"):
            used.update(re.findall(r"pytest\.mark\.(\w+)",
                                   path.read_text(encoding="utf-8")))
        return used - {"parametrize", "skipif", "xfail", "usefixtures"}

    def test_every_used_marker_is_declared(self):
        undeclared = self._used_markers() - self._declared_markers()
        assert undeclared == set(), \
            f"markers used but not declared in pyproject: {undeclared}"

    def test_every_declared_marker_is_used(self):
        """A declared marker nobody applies is documentation rot —
        `-m <marker>` would silently select nothing."""
        stale = self._declared_markers() - self._used_markers()
        assert stale == set(), \
            f"markers declared in pyproject but never applied: {stale}"

    def test_unregistered_markers_fail_collection(self):
        """--strict-markers turns a typo'd marker into a hard error
        instead of a silently-never-selected test."""
        text = (self.REPO_ROOT / "pyproject.toml").read_text(
            encoding="utf-8")
        addopts = text.split("addopts = ", 1)[1].splitlines()[0]
        assert "--strict-markers" in addopts, \
            "pyproject addopts must enforce --strict-markers"

    def test_delta_suites_carry_the_delta_marker(self):
        assert "delta" in self._declared_markers()
        for rel in self.DELTA_SUITE:
            text = (self.REPO_ROOT / "tests" / rel).read_text(
                encoding="utf-8")
            assert "pytestmark = pytest.mark.delta" in text, \
                f"{rel} lacks the delta marker"

    def test_subsystem_suites_carry_their_marker(self):
        for suite in self.MARKED_SUITES:
            assert suite in self._declared_markers(), suite
            for path in (self.REPO_ROOT / "tests" / suite).glob(
                    "test_*.py"):
                text = path.read_text(encoding="utf-8")
                assert f"pytestmark = pytest.mark.{suite}" in text, \
                    f"{path.name} lacks the {suite} marker"

    def test_fleet_marker_selects_the_fleet_suite(self, pytestconfig):
        assert "fleet" in self._declared_markers()
        marker_lines = [line for line in
                        pytestconfig.getini("markers")
                        if line.startswith("fleet:")]
        assert marker_lines, "fleet marker not registered with pytest"
