"""^C must not hang a pooled run.

A pooled sweep or fleet run that is interrupted while a worker is stuck
in a job has to give up on that worker: cancel what is queued, terminate
the pool's processes and re-raise ``KeyboardInterrupt`` — never wait in
``shutdown(wait=True)`` for a job that will not finish. Each case runs
the scenario in its own process session under a timeout: a worker
interrupts the parent with SIGINT and then blocks forever, exactly like
a worker wedged on a lock when ^C arrives. The run must return
promptly, and no process of the session may outlive it.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.parallel import fork_available

SRC = Path(__file__).resolve().parents[2] / "src"

#: Seconds a case may take. A fixed run returns in about one second; a
#: hanging one never does, so this only bounds how long a failure costs.
TIMEOUT_S = 30

SCENARIO = r"""
import multiprocessing
import os
import signal
import sys
import time

runtime, flag = sys.argv[1], sys.argv[2]


def running(pid):
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def stuck_job(*_args, **_kwargs):
    # The first worker to start a job sends ^C to the parent; every
    # worker then hangs, so only cancelling the pool can end the run.
    try:
        os.close(os.open(flag, os.O_CREAT | os.O_EXCL))
        os.kill(os.getppid(), signal.SIGINT)
    except FileExistsError:
        pass
    while True:
        time.sleep(60)


if runtime == "sweep":
    from repro.malware.corpus import build_malgene_corpus
    from repro.malware.families import FamilySpec
    from repro.parallel import ParallelSweep, worker
    worker.execute_pair_job = stuck_job
    samples = build_malgene_corpus([FamilySpec("Stuck", (("selfdel", 8),))])
    run = ParallelSweep(max_workers=2,
                        machine_factory="bare-metal-light").run
    args = (samples,)
else:
    from repro.fleet import FleetService, service
    service.execute_fleet_batch = stuck_job
    run = FleetService(endpoints=4, events=16, seed=1, max_workers=2,
                       machine_factory="bare-metal-light").run
    args = ()
try:
    run(*args)
except KeyboardInterrupt:
    # A terminated worker can stay listed until the pool's manager
    # thread has reaped it, and is_alive() races that thread; ask the
    # kernel instead whether any child still runs.
    print("interrupted", sum(running(child.pid)
                             for child in multiprocessing.active_children()))
else:
    print("finished")
"""


def _session_members(session: int) -> list:
    """Pids of live processes in session ``session`` (Linux /proc)."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        # fields[0] is the state, fields[3] the session id.
        if fields[0] != "Z" and int(fields[3]) == session:
            members.append(int(entry.name))
    return members


@pytest.mark.slow
@pytest.mark.skipif(not fork_available() or not Path("/proc").is_dir(),
                    reason="needs fork and /proc")
@pytest.mark.parametrize("runtime", ["sweep", "fleet"])
def test_interrupt_cancels_a_stuck_pool(runtime, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    process = subprocess.Popen(
        [sys.executable, "-c", SCENARIO, runtime, str(tmp_path / "flag")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True)
    try:
        out, err = process.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        pytest.fail(f"interrupted {runtime} run still running after "
                    f"{TIMEOUT_S} s")
    leftovers = _session_members(process.pid)
    for pid in leftovers:
        os.kill(pid, signal.SIGKILL)
    assert out.split() == ["interrupted", "0"], (out, err)
    assert leftovers == [], f"processes outlived the run: {leftovers}"
