"""Fleet scheduler: admission, dispatch, degradation, checkpoint/resume.

The contract under test is byte-identity: same ``(seed, endpoints,
events, queue_limit, profile)`` must yield the same canonical report
serial or pooled, fresh or resumed, healthy or degraded.
"""

import concurrent.futures
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import (FleetCheckpointError, FleetService, build_fleet_report,
                         generate_events, plan_rounds)
from repro.parallel import fork_available

pytestmark = pytest.mark.fleet

FACTORY = "bare-metal-light"


def _service(tmp_path=None, **kwargs):
    kwargs.setdefault("endpoints", 4)
    kwargs.setdefault("events", 24)
    kwargs.setdefault("seed", 42)
    kwargs.setdefault("queue_limit", 8)
    kwargs.setdefault("machine_factory", FACTORY)
    if tmp_path is not None:
        kwargs.setdefault("checkpoint_path", str(tmp_path / "fleet.ckpt"))
    return FleetService(**kwargs)


def _rollup(result):
    return build_fleet_report(result).to_json()


class TestPlanRounds:
    def test_total_events_and_order_preserved(self):
        events = generate_events(7, 4, 50)
        plan = plan_rounds(events, queue_limit=8)
        flattened = [event for round_batches in plan.rounds
                     for _, batch in round_batches for event in batch]
        assert sorted(flattened, key=lambda e: e.seq) == events

    def test_rounds_respect_the_queue_bound(self):
        events = generate_events(3, 4, 50)
        plan = plan_rounds(events, queue_limit=8)
        for round_batches in plan.rounds:
            assert sum(len(batch) for _, batch in round_batches) <= 8
        assert plan.queue_depth_hwm <= 8

    def test_stalls_count_the_forced_drains(self):
        events = generate_events(5, 2, 33)
        plan = plan_rounds(events, queue_limit=8)
        assert plan.backpressure_stalls == 4  # 33 events / 8-slot queue
        assert len(plan.rounds) == 5

    def test_endpoint_events_stay_in_arrival_order(self):
        events = generate_events(11, 3, 64)
        plan = plan_rounds(events, queue_limit=16)
        for round_batches in plan.rounds:
            for _, batch in round_batches:
                seqs = [event.seq for event in batch]
                assert seqs == sorted(seqs)

    def test_small_stream_fits_one_round(self):
        events = generate_events(1, 2, 5)
        plan = plan_rounds(events, queue_limit=8)
        assert len(plan.rounds) == 1
        assert plan.backpressure_stalls == 0
        assert plan.queue_depth_hwm == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_rounds([], queue_limit=0)


class TestServiceValidation:
    @pytest.mark.parametrize("kwargs", [
        {"endpoints": 0}, {"events": -1}, {"max_workers": 0},
        {"queue_limit": 0}, {"chunksize": 0}, {"max_retries": -1},
        {"resume": True}, {"template": "sometimes"},
    ])
    def test_bad_configuration_rejected(self, kwargs):
        with pytest.raises(ValueError):
            _service(**kwargs)


class TestSerialDeterminism:
    def test_same_seed_same_rollup(self):
        first = _service().run()
        second = _service().run()
        assert _rollup(first) == _rollup(second)

    def test_seed_changes_the_rollup(self):
        assert _rollup(_service(seed=1).run()) != \
            _rollup(_service(seed=2).run())

    def test_template_off_matches_template_on(self):
        templated = _service(template=True).run()
        fresh = _service(template=False).run()
        assert _rollup(templated) == _rollup(fresh)

    def test_zero_events_completes_empty(self):
        result = _service(events=0).run()
        assert result.completed
        assert result.records == []
        assert result.rounds_total == 0


@pytest.mark.slow
class TestPoolParity:
    def test_pool_rollup_matches_serial(self):
        serial = _service().run()
        pooled = _service(max_workers=2).run()
        assert pooled.used_process_pool
        # Workers inherit the published database and template on fork.
        assert pooled.shared_state_used or not fork_available()
        assert _rollup(pooled) == _rollup(serial)
        assert [r.to_dict() for r in pooled.records] == \
            [r.to_dict() for r in serial.records]


class TestDegradation:
    """A poisoned pool costs the pool, never the run or its rollup."""

    def test_poisoned_pool_degrades_in_process(self, monkeypatch):
        baseline = _service().run()

        class PoisonedFuture:
            def result(self):
                raise RuntimeError("injected pool poisoning")

        class PoisonedExecutor:
            def submit(self, fn, *args):
                return PoisonedFuture()

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

        monkeypatch.setattr("repro.fleet.service.make_executor",
                            lambda *args: (PoisonedExecutor(), True))
        degraded = _service(max_workers=2).run()
        assert not degraded.used_process_pool  # honest, despite the pool
        assert degraded.degraded_chunks == degraded.chunks > 0
        assert degraded.completed
        assert _rollup(degraded) == _rollup(baseline)


class TestCompletionDrivenDispatch:
    """The parent sleeps on unfinished chunks; it never spins on done().

    A pool's round lands chunk by chunk. Here every other submitted chunk
    is held back and lands only once the parent blocks in
    ``concurrent.futures.wait``, so each round is half-landed first. A
    parent that polls ``done()`` instead would spin until the escape cap
    lands the held chunks for it, and the probe count gives it away.
    """

    ESCAPE_PROBES = 10_000

    def test_probes_stay_linear_in_chunks(self, monkeypatch):
        probes = [0]
        held = {}  # future -> its chunk blob, landed on release
        real_wait = concurrent.futures.wait

        class CountingFuture(concurrent.futures.Future):
            def done(self):
                probes[0] += 1
                if probes[0] >= TestCompletionDrivenDispatch.ESCAPE_PROBES:
                    release(list(held))
                return super().done()

        def release(futures):
            for future in futures:
                if future in held:
                    future.set_result(held.pop(future))

        def waiting(futures, **kwargs):
            release(futures)
            return real_wait(futures, **kwargs)

        class HoldingExecutor:
            """Runs chunks in-process; every other chunk lands late."""

            def __init__(self, initializer, initargs):
                initializer(*initargs)
                self.submitted = 0

            def submit(self, fn, chunk):
                future = CountingFuture()
                blob = pickle.loads(pickle.dumps(fn(chunk)))
                if self.submitted % 2 == 0:
                    held[future] = blob
                else:
                    future.set_result(blob)
                self.submitted += 1
                return future

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

        shape = dict(endpoints=8, events=64, queue_limit=16, shards=2)
        serial = _service(**shape).run()
        monkeypatch.setattr(concurrent.futures, "wait", waiting)
        monkeypatch.setattr(
            "repro.fleet.service.make_executor",
            lambda initargs, workers, initializer:
                (HoldingExecutor(initializer, initargs), True))
        pooled = _service(max_workers=2, chunksize=1, **shape).run()
        assert not held
        assert pooled.chunks > 0 and pooled.degraded_chunks == 0
        assert probes[0] <= 4 * pooled.chunks, (probes[0], pooled.chunks)
        assert _rollup(pooled) == _rollup(serial)


class TestCheckpointResume:
    def test_interrupt_and_resume_reproduces_uninterrupted_rollup(
            self, tmp_path):
        uninterrupted = _service(events=48).run()
        partial = _service(tmp_path, events=48).run(stop_after_rounds=2)
        assert not partial.completed
        assert 0 < partial.rounds_done < partial.rounds_total
        resumed = _service(tmp_path, events=48, resume=True).run()
        assert resumed.completed
        assert resumed.resumed_rounds == partial.rounds_done
        assert resumed.events_resumed == len(partial.records)
        assert _rollup(resumed) == _rollup(uninterrupted)

    def test_resume_may_change_execution_shape(self, tmp_path):
        """Workers/chunksize are free to differ across the interruption."""
        uninterrupted = _service(events=48).run()
        _service(tmp_path, events=48, chunksize=1).run(stop_after_rounds=1)
        resumed = _service(tmp_path, events=48, resume=True,
                           chunksize=3).run()
        assert _rollup(resumed) == _rollup(uninterrupted)

    def test_resume_of_a_finished_run_executes_nothing(self, tmp_path):
        done = _service(tmp_path).run()
        assert done.completed
        again = _service(tmp_path, resume=True).run()
        assert again.completed
        assert again.events_resumed == len(done.records)
        assert again.chunks == 0
        assert not again.used_process_pool
        assert _rollup(again) == _rollup(done)

    def test_checkpoint_written_after_every_round(self, tmp_path):
        service = _service(tmp_path, events=48)
        service.run(stop_after_rounds=1)
        payload = json.loads((tmp_path / "fleet.ckpt").read_text())
        assert payload["rounds_done"] == 1
        assert payload["batches"]

    def test_fingerprint_mismatch_refuses_to_resume(self, tmp_path):
        _service(tmp_path, seed=1).run(stop_after_rounds=1)
        with pytest.raises(FleetCheckpointError):
            _service(tmp_path, seed=2, resume=True).run()

    def test_unreadable_checkpoint_is_an_error(self, tmp_path):
        (tmp_path / "fleet.ckpt").write_text("not json{")
        with pytest.raises(FleetCheckpointError):
            _service(tmp_path, resume=True).run()

    def test_missing_checkpoint_resumes_from_scratch(self, tmp_path):
        result = _service(tmp_path, resume=True).run()
        assert result.completed
        assert result.resumed_rounds == 0
        assert _rollup(result) == _rollup(_service().run())


class TestDeterminismProperties:
    """The ISSUE's property: any triple rolls up identically across modes."""

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**16), endpoints=st.integers(1, 3),
           events=st.integers(0, 16), queue_limit=st.integers(1, 8))
    def test_fresh_equals_interrupt_plus_resume(self, tmp_path_factory,
                                                seed, endpoints, events,
                                                queue_limit):
        tmp_path = tmp_path_factory.mktemp("fleet-prop")
        config = dict(endpoints=endpoints, events=events, seed=seed,
                      queue_limit=queue_limit, machine_factory=FACTORY)
        fresh = FleetService(**config).run()
        checkpoint = str(tmp_path / "fleet.ckpt")
        FleetService(**config, checkpoint_path=checkpoint).run(
            stop_after_rounds=1)
        resumed = FleetService(**config, checkpoint_path=checkpoint,
                               resume=True).run()
        assert resumed.completed
        assert _rollup(resumed) == _rollup(fresh)

    @pytest.mark.slow
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 2**16), endpoints=st.integers(1, 3),
           events=st.integers(1, 16))
    def test_serial_equals_pool(self, seed, endpoints, events):
        config = dict(endpoints=endpoints, events=events, seed=seed,
                      queue_limit=8, machine_factory=FACTORY)
        serial = FleetService(**config).run()
        pooled = FleetService(**config, max_workers=2).run()
        assert _rollup(serial) == _rollup(pooled)
