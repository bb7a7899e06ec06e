"""Fault injection: the sweep degrades gracefully instead of aborting.

A sample whose ``run()`` raises becomes a structured
:class:`~repro.parallel.SweepError` (sample id + traceback) while the rest
of the corpus completes; a transient failure that succeeds on retry is
recorded with ``retry_count == 1``.
"""

import dataclasses

import pytest

from repro.malware.corpus import build_malgene_corpus
from repro.malware.families import FamilySpec
from repro.malware.sample import EvasiveSample
from repro.parallel import ParallelSweep, SweepError, SweepExecutionError

SPEC = FamilySpec("Mixed", (("term_vm", 2), ("sleep_sbx", 1)))


class AlwaysFailingSample(EvasiveSample):
    """`run()` raises every time — the permanent-failure case."""

    def run(self, machine, process):
        raise RuntimeError("injected permanent failure")


class FlakyOnceSample(EvasiveSample):
    """`run()` raises on the first call only — the transient case.

    The failure flag lives on the instance, so the in-worker retry (which
    re-runs the same deserialized sample in the same worker) sees it.
    """

    def run(self, machine, process):
        if not self.__dict__.get("_already_failed"):
            self.__dict__["_already_failed"] = True
            raise OSError("injected transient failure")
        return super().run(machine, process)


def _recast(sample, cls):
    fields = {f.name: getattr(sample, f.name)
              for f in dataclasses.fields(EvasiveSample)}
    return cls(**fields)


def _corpus_with_fault(cls, position=1):
    samples = build_malgene_corpus([SPEC])
    samples[position] = _recast(samples[position], cls)
    return samples


class TestPermanentFailure:
    def test_failure_becomes_sweep_error_and_rest_completes(self):
        samples = _corpus_with_fault(AlwaysFailingSample)
        result = ParallelSweep(max_workers=1).run(samples)
        assert len(result.errors) == 1
        error = result.errors[0]
        assert isinstance(error, SweepError)
        assert error.sample_md5 == samples[1].md5
        assert error.error_type == "RuntimeError"
        assert "injected permanent failure" in error.traceback
        assert error.retry_count == 1  # retried once, then gave up
        # The two healthy samples still completed, in submission order.
        assert [o.sample.md5 for o in result.outcomes] == \
            [samples[0].md5, samples[2].md5]

    def test_outcomes_or_raise_reports_failures(self):
        samples = _corpus_with_fault(AlwaysFailingSample)
        result = ParallelSweep(max_workers=1).run(samples)
        with pytest.raises(SweepExecutionError) as excinfo:
            result.outcomes_or_raise()
        assert samples[1].md5 in str(excinfo.value)
        assert excinfo.value.errors == result.errors

    @pytest.mark.slow
    def test_failure_in_process_pool_does_not_sink_sweep(self):
        samples = _corpus_with_fault(AlwaysFailingSample)
        result = ParallelSweep(max_workers=2).run(samples)
        assert result.used_process_pool
        assert [e.sample_md5 for e in result.errors] == [samples[1].md5]
        assert "injected permanent failure" in result.errors[0].traceback
        assert len(result.outcomes) == 2

    def test_run_pairs_raises_like_the_historical_serial_path(self):
        from repro.experiments.runner import run_pairs
        with pytest.raises(SweepExecutionError):
            run_pairs(_corpus_with_fault(AlwaysFailingSample))


class TestRetry:
    def test_transient_failure_recovers_with_retry_count_one(self):
        samples = _corpus_with_fault(FlakyOnceSample)
        result = ParallelSweep(max_workers=1).run(samples)
        assert not result.errors
        by_md5 = {s.sample_md5: s for s in result.stats}
        assert by_md5[samples[1].md5].retry_count == 1
        assert by_md5[samples[0].md5].retry_count == 0
        assert by_md5[samples[2].md5].retry_count == 0
        assert result.total_retries() == 1

    def test_flaky_verdict_matches_healthy_run(self):
        """A retried sample's verdict equals the never-failing baseline."""
        healthy = build_malgene_corpus([SPEC])
        baseline = ParallelSweep(max_workers=1).run(healthy)
        flaky = ParallelSweep(max_workers=1).run(
            _corpus_with_fault(FlakyOnceSample))
        assert flaky.comparisons == baseline.comparisons

    @pytest.mark.slow
    def test_transient_failure_recovers_in_process_pool(self):
        samples = _corpus_with_fault(FlakyOnceSample)
        result = ParallelSweep(max_workers=2).run(samples)
        assert result.used_process_pool
        assert not result.errors
        by_md5 = {s.sample_md5: s for s in result.stats}
        assert by_md5[samples[1].md5].retry_count == 1

    def test_zero_retries_budget_fails_fast(self):
        samples = _corpus_with_fault(FlakyOnceSample)
        result = ParallelSweep(max_workers=1, max_retries=0).run(samples)
        assert [e.sample_md5 for e in result.errors] == [samples[1].md5]
        assert result.errors[0].retry_count == 0


# -- zero-copy faults: every shared-state shortcut must fail safe -------------

@pytest.mark.delta
class TestSpawnFallback:
    """A spawn-start-method pool cannot inherit the fork-shared registry;
    the sweep must fall back to pickled transfer and say so."""

    @pytest.mark.slow
    def test_spawn_pool_degrades_to_pickled_transfer(self, monkeypatch):
        import multiprocessing

        from repro.parallel import sweep as sweep_module
        monkeypatch.setattr(sweep_module, "pool_context",
                            lambda: multiprocessing.get_context("spawn"))
        samples = build_malgene_corpus([SPEC])
        result = ParallelSweep(max_workers=2).run(samples)
        assert result.used_process_pool
        assert not result.errors
        # Honest provenance: every chunk reports the fallback path.
        assert result.chunk_headers
        assert not result.shared_state_used
        assert all(not h.shared_database and not h.shared_template
                   for h in result.chunk_headers)
        # And the rollup is still byte-identical to the serial run.
        import pickle as _pickle
        reference = ParallelSweep(max_workers=1).run(samples)
        assert [_pickle.dumps(e) for e in result.canonical_entries()] == \
            [_pickle.dumps(e) for e in reference.canonical_entries()]


@pytest.mark.delta
class TestCorruptedSharedRegistry:
    """Bogus keys and poisoned registry entries must read as misses —
    through the sweep's initializer and the fleet's alike."""

    RUNTIMES = ("sweep", "fleet")

    def _run_jobs(self, keys, runtime):
        """One chunk through ``runtime``'s initializer: (flags, entries)."""
        import pickle as _pickle

        from repro.core.database import DeceptionDatabase
        from repro.fleet import (BatchJob, FleetChunk, execute_fleet_chunk,
                                 generate_events, group_round,
                                 initialize_fleet_worker)
        from repro.parallel import canonical_entry, decode_chunk
        from repro.parallel.worker import (PairChunk, PairJob,
                                           execute_pair_chunk,
                                           initialize_worker, reset_worker)
        blob = DeceptionDatabase().snapshot_bytes()
        initializer = (initialize_worker if runtime == "sweep"
                       else initialize_fleet_worker)
        initializer("bare-metal-light", blob, None, telemetry=False,
                    template=True, shared_keys=keys)
        try:
            if runtime == "sweep":
                samples = build_malgene_corpus([SPEC])
                entries, header = decode_chunk(execute_pair_chunk(PairChunk(
                    [PairJob(i, s) for i, s in enumerate(samples)])))
                entries = [canonical_entry(e) for e in entries]
            else:
                batches = group_round(generate_events(7, 2, 8))
                entries, header = decode_chunk(execute_fleet_chunk(FleetChunk(
                    tuple(BatchJob(i, endpoint_id, events)
                          for i, (endpoint_id, events)
                          in enumerate(batches)))))
        finally:
            reset_worker()
        return ((header.shared_database, header.shared_template),
                [_pickle.dumps(e) for e in entries])

    def test_bogus_fingerprint_falls_back_honestly(self):
        from repro.parallel.shared import SharedKeys
        for runtime in self.RUNTIMES:
            baseline_flags, baseline = self._run_jobs(SharedKeys(), runtime)
            assert baseline_flags == (False, False)
            flags, entries = self._run_jobs(
                SharedKeys(database="deadbeef:123", template="no-such-key"),
                runtime)
            assert flags == (False, False)
            assert entries == baseline

    def test_poisoned_registry_value_is_refused(self):
        """Right fingerprint, wrong object: type validation turns the hit
        into a miss instead of handing a job a corrupted database."""
        from repro.core.database import DeceptionDatabase
        from repro.parallel import shared as shared_registry
        from repro.parallel.shared import SharedKeys
        blob = DeceptionDatabase().snapshot_bytes()
        key = shared_registry.database_fingerprint(blob)
        for runtime in self.RUNTIMES:
            shared_registry.clear()
            try:
                shared_registry._REGISTRY[("database", key)] = {"not": "a db"}
                shared_registry._REGISTRY[("template", "k")] = object()
                flags, entries = self._run_jobs(
                    SharedKeys(database=key, template="k"), runtime)
            finally:
                shared_registry.clear()
            assert flags == (False, False)
            _, baseline = self._run_jobs(SharedKeys(), runtime)
            assert entries == baseline


@pytest.mark.delta
class TestUntrackedSubsystemFallback:
    """A machine that snapshots state the generation counters do not
    cover makes dirty-set restores unsound — the template must detect it
    and fall back to full restores, with honest telemetry."""

    def test_unknown_snapshot_key_forces_full_restores(self):
        from repro.parallel import MachineTemplate
        from repro.parallel.factories import resolve_machine_factory
        from repro.telemetry.metrics import TELEMETRY

        base = resolve_machine_factory("bare-metal-light")

        def weird_factory():
            machine = base()
            original = machine.snapshot_state

            def snapshot_state():
                state = original()
                state["sidecar"] = {"untracked": True}
                return state
            machine.snapshot_state = snapshot_state
            return machine

        template = MachineTemplate(weird_factory)
        template.build()
        assert not template.delta_capable
        machine = template.checkout()
        machine.mutexes.create("Global\\x")
        prior = TELEMETRY.enabled
        TELEMETRY.enabled = True
        try:
            baseline = TELEMETRY.snapshot()
            template.checkout()
            delta = TELEMETRY.snapshot().diff_from(baseline)
        finally:
            TELEMETRY.enabled = prior
        assert template.full_restore_count == 1
        assert template.delta_restore_count == 0
        assert delta.counters.get("parallel.delta_fallbacks") == 1
        # The fallback restore is still a *correct* restore.
        assert not machine.mutexes.exists("Global\\x")
