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
waiting for it.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import pickle
import warnings
from typing import Any, Callable, Iterator, Optional

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


def should_use_process_pool(max_workers: int) -> bool:
    """True when a real process pool should serve this worker count.

    Platforms without ``fork`` no longer force the serial path — they get
    the default start method via :func:`pool_context` instead.
    """
    return max_workers > 1


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
