"""Unit tests for the sweep engine's building blocks."""

import os
import pickle

import pytest

from repro.core import (DeceptionDatabase, FrozenDatabaseError,
                        FrozenDeceptionDatabase)
from repro.malware.corpus import build_malgene_corpus
from repro.malware.families import FamilySpec
from repro.parallel import (ImmediateFuture, ParallelSweep, SerialExecutor,
                            SweepExecutionError, available_factories,
                            register_machine_factory,
                            resolve_machine_factory, run_tasks,
                            run_tasks_or_raise)

SPEC = FamilySpec("Mixed", (("term_vm", 2), ("selfdel", 1)))


class TestSerialExecutor:
    def test_submit_returns_completed_future(self):
        future = SerialExecutor().submit(divmod, 7, 3)
        assert future.done()
        assert future.result() == (2, 1)
        assert future.exception() is None

    def test_submit_captures_exceptions_like_a_future(self):
        future = SerialExecutor(roundtrip=False).submit(divmod, 7, 0)
        assert isinstance(future.exception(), ZeroDivisionError)
        with pytest.raises(ZeroDivisionError):
            future.result()

    def test_initializer_runs_once_at_construction(self):
        calls = []
        with SerialExecutor(initializer=calls.append, initargs=(1,)):
            pass
        assert calls == [1]

    def test_roundtrip_breaks_object_identity(self):
        payload = {"shared": ["x"]}
        future = SerialExecutor().submit(lambda p: (p, p), payload)
        first, second = future.result()
        assert first == payload and first is not payload
        assert first is second  # sharing *inside* one payload survives

    def test_immediate_future_roundtrip_matches_pickle(self):
        value = {"k": ("a", 1)}
        assert ImmediateFuture(lambda: value, (),
                               roundtrip=True).result() == value


class TestFactoryRegistry:
    def test_builtins_cover_every_experiment_environment(self):
        names = available_factories()
        for required in ("bare-metal", "bare-metal-light", "cuckoo-vm",
                         "cuckoo-vm-transparent", "end-user",
                         "end-user-documents"):
            assert required in names

    def test_resolve_name_builds_a_machine(self):
        machine = resolve_machine_factory("bare-metal-light")()
        assert machine.processes.find_by_name("explorer.exe")

    def test_resolve_passes_callables_through(self):
        sentinel = lambda: None  # noqa: E731
        assert resolve_machine_factory(sentinel) is sentinel

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(KeyError, match="bare-metal"):
            resolve_machine_factory("no-such-env")

    def test_duplicate_registration_rejected(self):
        register_machine_factory("test-dup-factory", _dummy_factory)
        with pytest.raises(ValueError):
            register_machine_factory("test-dup-factory",
                                     lambda: _dummy_factory())
        register_machine_factory("test-dup-factory", _dummy_factory)  # same

    def test_unpicklable_factory_rejected_before_pool_start(self):
        corpus = build_malgene_corpus([SPEC])
        sweep = ParallelSweep(max_workers=2,
                              machine_factory=lambda: _dummy_factory())
        with pytest.raises(ValueError, match="not picklable"):
            sweep.run(corpus)


def _dummy_factory():
    from repro.winsim import Machine
    return Machine().boot()


class TestSweepStats:
    def test_every_outcome_carries_stats(self):
        corpus = build_malgene_corpus([SPEC])
        result = ParallelSweep(max_workers=1).run(corpus)
        assert len(result.stats) == len(corpus)
        for stats in result.stats:
            assert stats.wall_time_s > 0
            assert stats.worker_pid == os.getpid()  # in-process fallback
            assert stats.retry_count == 0
            assert stats.trace_events > 0
        # With-Scarecrow runs of evasive samples log fingerprint attempts.
        assert any(s.fingerprint_events > 0 for s in result.stats)
        assert all(s.checks_evaluated > 0 for s in result.stats)

    def test_outcomes_are_detached_from_simulation_objects(self):
        corpus = build_malgene_corpus([SPEC])
        outcome = ParallelSweep(max_workers=1).run(corpus).outcomes[0]
        assert outcome.without.machine is None
        assert outcome.with_scarecrow.machine is None
        assert outcome.with_scarecrow.controller is None
        pickle.dumps(outcome)  # the envelope contract

    def test_worker_database_is_frozen(self):
        """A worker's rehydrated database refuses mutation."""
        from repro.parallel.worker import initialize_worker
        database = initialize_worker(
            "bare-metal", DeceptionDatabase().snapshot(), None).database
        assert isinstance(database, FrozenDeceptionDatabase)
        with pytest.raises(FrozenDatabaseError):
            database.add_file("C:\\evil.sys", "vmware")


class TestRunTasks:
    def test_results_ordered_and_labelled(self):
        results = run_tasks([("a", divmod, (7, 3)), ("b", divmod, (9, 2))])
        assert [(r.label, r.value) for r in results] == \
            [("a", (2, 1)), ("b", (4, 1))]
        assert all(r.ok for r in results)

    def test_task_failure_is_contained(self):
        results = run_tasks([("good", divmod, (4, 2)),
                             ("bad", divmod, (4, 0))])
        assert results[0].ok and results[0].value == (2, 0)
        assert not results[1].ok
        assert results[1].error.error_type == "ZeroDivisionError"
        assert "divmod" not in results[1].error.message  # msg, not repr

    def test_run_tasks_or_raise_unwraps_values(self):
        assert run_tasks_or_raise([("x", divmod, (5, 2))]) == [(2, 1)]
        with pytest.raises(SweepExecutionError):
            run_tasks_or_raise([("x", divmod, (5, 0))])

    @pytest.mark.slow
    def test_tasks_shard_across_processes(self):
        results = run_tasks([("p1", os.getpid, ()), ("p2", os.getpid, ()),
                             ("p3", os.getpid, ()), ("p4", os.getpid, ())],
                            max_workers=2)
        assert all(r.ok for r in results)
        assert all(r.value != os.getpid() for r in results)
