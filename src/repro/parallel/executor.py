"""Executor selection: process pool when possible, in-process otherwise.

The sweep engine runs on a real :class:`concurrent.futures.ProcessPoolExecutor`
when more than one worker is requested. It prefers the ``fork`` start
method (copy-on-write semantics make worker bring-up cheap and
deterministic); where ``fork`` is unavailable the platform-default context
is used instead, with a one-line warning — worker bring-up is slower
there, but the pool still works because everything that crosses the
boundary (factory names, pre-pickled database snapshots, job chunks) is
picklable by construction. ``max_workers=1`` gets :class:`SerialExecutor`,
an in-process stand-in with the same ``submit``/``shutdown`` surface, so
callers never branch. Both the sweep and the fleet hold their executor
in :func:`pool_scope`, so an interrupted run cancels its pool instead of
waiting for it, and drive it with :func:`dispatch`, the one dispatch
loop: a *lane* (a fleet shard, or one sweep chunk) keeps one round in
flight, and a lost submission reruns in-process.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import multiprocessing
import pickle
import warnings
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

#: Seconds :func:`pool_scope` waits for a terminated worker to exit
#: before killing it.
_TERMINATE_GRACE_S = 5.0


class ImmediateFuture:
    """Future-alike whose work ran eagerly at submit time.

    With ``roundtrip`` the result is passed through ``pickle`` exactly as a
    process-pool result pipe would — the in-process fallback then emits
    byte-identical payloads to the pool path (object-identity sharing inside
    results is broken the same way on both).
    """

    def __init__(self, fn: Callable[..., Any], args: tuple,
                 roundtrip: bool = False) -> None:
        self._exception: Optional[BaseException] = None
        self._result: Any = None
        try:
            result = fn(*args)
            if roundtrip:
                result = pickle.loads(pickle.dumps(result))
            self._result = result
        except BaseException as exc:  # parity with Future.result()
            self._exception = exc

    def result(self, timeout: Optional[float] = None) -> Any:
        if self._exception is not None:
            raise self._exception
        return self._result

    def exception(self, timeout: Optional[float] = None
                  ) -> Optional[BaseException]:
        return self._exception

    def done(self) -> bool:
        return True


class SerialExecutor:
    """In-process fallback with the executor surface the sweep uses.

    An optional ``initializer`` runs once at construction, mirroring the
    process-pool initializer protocol, so the worker module's state setup
    is identical on both paths.
    """

    def __init__(self, initializer: Optional[Callable[..., None]] = None,
                 initargs: tuple = (), roundtrip: bool = True) -> None:
        self._roundtrip = roundtrip
        if initializer is not None:
            initializer(*initargs)

    def submit(self, fn: Callable[..., Any], *args: Any) -> ImmediateFuture:
        return ImmediateFuture(fn, args, roundtrip=self._roundtrip)

    def shutdown(self, wait: bool = True, **_kwargs: Any) -> None:
        pass

    def __enter__(self) -> "SerialExecutor":
        return self

    def __exit__(self, *_exc_info: Any) -> None:
        self.shutdown()


def fork_available() -> bool:
    """True when the deterministic ``fork`` start method exists."""
    return "fork" in multiprocessing.get_all_start_methods()


def pool_context() -> "multiprocessing.context.BaseContext":
    """The multiprocessing context the sweep pool should run on.

    ``fork`` when the platform has it; otherwise the platform default
    (``spawn`` on Windows/macOS-default builds), announced with a one-line
    warning because worker bring-up re-imports the package instead of
    inheriting the parent image.
    """
    if fork_available():
        return multiprocessing.get_context("fork")
    context = multiprocessing.get_context()
    warnings.warn(
        f"'fork' start method unavailable; process pool falling back to "
        f"{context.get_start_method()!r} (slower worker bring-up)",
        RuntimeWarning, stacklevel=2)
    return context


@contextlib.contextmanager
def pool_scope(executor: Any) -> Iterator[Any]:
    """Hold ``executor`` for one run; shut it down however the run ends.

    A normal exit waits for the workers (``with executor:``). Any other
    exit — ``KeyboardInterrupt`` above all — must not: a worker stuck in
    a job, or wedged on a queue lock by the same ^C, would hang
    ``shutdown(wait=True)`` forever. So queued submissions are cancelled,
    the pool's processes terminated (killed after
    :data:`_TERMINATE_GRACE_S`) and joined, and the exception propagates.
    """
    with executor:
        try:
            yield executor
        except BaseException:
            # ProcessPoolExecutor has no public handle on its processes;
            # take them before shutdown() drops the mapping.
            processes = list(
                (getattr(executor, "_processes", None) or {}).values())
            executor.shutdown(wait=False, cancel_futures=True)
            for process in processes:
                process.terminate()
            for process in processes:
                process.join(_TERMINATE_GRACE_S)
                if process.is_alive():
                    process.kill()
                    process.join()
            raise


def future_done(future: Any) -> bool:
    """``future.done()``; a bare future-alike with only ``result()`` (a
    fault-injected executor's) counts as done, so collection reruns it."""
    probe = getattr(future, "done", None)
    return True if probe is None else bool(probe())


def wait_any(rounds: Sequence[Sequence[Any]]) -> None:
    """Block until at least one in-flight round has fully landed.

    Returns at once when some round is already done (always, for serial
    :class:`ImmediateFuture` rounds). Otherwise the parent sleeps in
    ``concurrent.futures.wait(FIRST_COMPLETED)`` on the futures not yet
    done, waking once per completion. Each ``done()`` is probed once per
    call, so the parent never spins on a half-landed round.
    """
    pending = [[future for future in futures if not future_done(future)]
               for futures in rounds]
    while pending and all(pending):
        done, _ = concurrent.futures.wait(
            [future for group in pending for future in group],
            return_when=concurrent.futures.FIRST_COMPLETED)
        pending = [[future for future in group if future not in done]
                   for group in pending]


def rerun_in_process(worker_fn: Callable[[Any], Any],
                     initializer: Optional[Callable[..., Any]],
                     initargs: tuple) -> Callable[[Any], Any]:
    """A rerun for :func:`dispatch`: ``initializer(*initargs)`` once, then
    ``worker_fn`` on the submission. Submission and result round-trip
    through pickle as the pool's pipes would, so the result is
    byte-identical to a healthy worker's."""
    ready: List[bool] = []

    def rerun(submission: Any) -> Any:
        if not ready:
            if initializer is not None:
                initializer(*initargs)
            ready.append(True)
        result = worker_fn(pickle.loads(pickle.dumps(submission)))
        return pickle.loads(pickle.dumps(result))
    return rerun


def dispatch(executor: Any,
             next_round: Callable[[int], Optional[Sequence[Any]]],
             finish_round: Callable[[int, List[Any], int], None],
             lanes: int, worker_fn: Callable[[Any], Any],
             decode: Callable[[Any], Any],
             rerun: Callable[[Any], Any]) -> Tuple[int, int]:
    """Completion-driven dispatch; returns (submissions run, degraded).

    Each lane keeps at most one round in flight. ``next_round(lane)``
    gives the lane's next round of submissions, or ``None``, which
    retires the lane; lanes are asked in index order. When a round has
    fully landed, each result is ``decode``d and ``finish_round(lane,
    decoded, degraded)`` runs. A submission whose future raises or whose
    result fails to decode reruns in-process, ``decode(rerun(submission))``,
    and counts as degraded: a lost chunk costs the pool, not the run.
    """
    active = list(range(lanes))
    inflight: Dict[int, Tuple[Sequence[Any], List[Any]]] = {}
    submitted = 0
    degraded = 0
    while True:
        for lane in list(active):
            if lane in inflight:
                continue
            submissions = next_round(lane)
            if submissions is None:
                active.remove(lane)
                continue
            inflight[lane] = (submissions, [
                executor.submit(worker_fn, submission)
                for submission in submissions])
        if not inflight:
            return submitted, degraded
        wait_any([futures for _, futures in inflight.values()])
        for lane in sorted(inflight):
            submissions, futures = inflight[lane]
            if not all(future_done(future) for future in futures):
                continue
            del inflight[lane]
            results: List[Any] = []
            round_degraded = 0
            for submission, future in zip(submissions, futures):
                try:
                    result = decode(future.result())
                except Exception:
                    result = decode(rerun(submission))
                    round_degraded += 1
                results.append(result)
            submitted += len(submissions)
            degraded += round_degraded
            finish_round(lane, results, round_degraded)
