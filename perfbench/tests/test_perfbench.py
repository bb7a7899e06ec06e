"""Self-tests of the benchmark (not part of the repository's tier-1 run).

Run from the repository root::

    python3 -m pytest perfbench/tests -q

The process tests run every workload for one second, so the whole file
takes about a minute on two cores.
"""

from __future__ import annotations

import collections
import json
import math
import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import serving  # noqa: E402
from perfbench.common import declared_units  # noqa: E402
from perfbench.run import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]
FORCED = [sys.executable, str(ROOT / "perfbench" / "tests" /
                              "forced_failure.py")]
RUN_TIMEOUT_S = 300


# -- names --------------------------------------------------------------------

def test_metric_and_workload_names_are_well_formed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = (list(declared_units("end_to_end")) +
             list(declared_units("per_layer")) + list(WORKLOADS))
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name


# -- serve generator ----------------------------------------------------------

@pytest.mark.parametrize("seed", [1, 7, 42, 1337, 2024])
def test_serve_mix_matches_requested_shares(seed):
    requests = serving.build_schedule(seed, 30)
    for tenant, deck in serving.KIND_DECKS.items():
        requested = collections.Counter(deck)
        events = [event for request in requests if request.tenant == tenant
                  for event in request.events]
        kinds = collections.Counter(event["kind"] for event in events)
        assert set(kinds) == set(requested), tenant
        for kind, cards in requested.items():
            share = kinds[kind] / len(events)
            assert abs(share - cards / len(deck)) <= 0.03, \
                (tenant, kind, share)
        assert {e["endpoint_id"] for e in events} == \
            set(range(serving.ENDPOINTS))
        assert {e["ref"] for e in events if e["kind"] == "benign"} == \
            set(range(serving.BENIGN_REFS))
    events = [event for request in requests for event in request.events]
    assert {e["ref"] for e in events if e["kind"] == "malware"} == \
        set(range(serving.SAMPLE_REFS))
    assert sum(1 for e in events if e["kind"] == "reset") > 0


def test_serve_schedule_is_a_function_of_the_seed():
    first = serving.build_schedule(5, 10)
    assert first == serving.build_schedule(5, 10)
    assert first != serving.build_schedule(6, 10)


def test_serve_window_shape():
    # The window of a 28 s run, after the warm-up prefix.
    warmup, window = serving.split_warmup(
        serving.build_schedule(5, serving.WARMUP_S + 28), serving.WARMUP_S)
    assert warmup and max(r.due_s for r in warmup) < serving.WARMUP_S
    assert min(r.due_s for r in window) == 0
    interactive = [r for r in window if r.tenant == "interactive"]
    # Ten or more beyond the reported 98th percentile (nearest rank).
    assert len(interactive) - math.ceil(len(interactive) * 0.98) >= 10
    bulk = [r.due_s for r in window if r.tenant == "bulk"]
    assert len(bulk) == 28
    heavy = [r for r in interactive
             if r.events[0]["kind"] == "malware"
             and r.events[0]["ref"] == serving.HEAVY_REF]
    # Every 2.5 s; every other one just before a bulk submit.
    assert len(heavy) == 11
    collided = [r for r in heavy
                if any(0 < due - r.due_s < 0.1 for due in bulk)]
    assert len(collided) == 6


# -- processes ----------------------------------------------------------------

def _session_members(session: int):
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == session:
            members.append(int(entry.name))
    return members


def _start(command):
    return subprocess.Popen(command, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, cwd=ROOT,
                            start_new_session=True, text=True)


def _assert_clean(process, out):
    assert _session_members(process.pid) == [], out
    for line in out.splitlines():
        if line.startswith("loadgen "):
            port = json.loads(line[len("loadgen "):])["port"]
            with pytest.raises(OSError):
                socket.create_connection(("127.0.0.1", port),
                                         timeout=2).close()


def _args(workload, trace):
    return ["--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_rows_add_up_and_leave_nothing(workload):
    process = _start(RUN + _args(workload, 1))
    out, err = process.communicate(timeout=RUN_TIMEOUT_S)
    assert process.returncode == 0, err
    _assert_clean(process, out)
    result = json.loads(out.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    values = {name: entry["value"]
              for name, entry in result["metrics"].items()}
    assert set(values) == set(declared_units("per_layer"))
    rows = sum(value for name, value in values.items()
               if name.endswith(".us_per_op")
               and name != "trace.wall.us_per_op")
    assert rows == pytest.approx(values["trace.wall.us_per_op"], rel=1e-6)
    assert values["trace.coverage_share"] >= 0.95
    assert values["trace.interleaved_calls"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_failed_check_exits_without_result_and_leaves_nothing(workload):
    process = _start(FORCED + _args(workload, 0))
    out, err = process.communicate(timeout=RUN_TIMEOUT_S)
    assert process.returncode != 0
    assert "check failed" in err
    assert '"correct"' not in out
    _assert_clean(process, out)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_interrupt_leaves_nothing(workload):
    process = _start(RUN + _args(workload, 0))
    # Interrupt mid-run: once the workload has printed its mix (the
    # serve workload prints it before starting its servers), give it a
    # moment to start pools or servers, then send ^C to the whole group.
    assert process.stdout is not None
    first = process.stdout.readline()
    assert first.startswith("mix "), first
    time.sleep(1.0)
    os.killpg(process.pid, signal.SIGINT)
    out, err = process.communicate(timeout=RUN_TIMEOUT_S)
    assert process.returncode != 0
    assert '"correct"' not in out
    _assert_clean(process, first + out)
