"""Machine templating parity — rewound machines equal fresh builds, in bytes.

The templating tentpole only holds if a worker's rewound machine is
indistinguishable — to the sample, to the tracer, to pickle — from the
fresh-factory machine the serial path would have built. These tests pin
that guarantee three ways: a hypothesis property over every registered
factory, whole-sweep byte comparisons across template modes, and a
deliberately drifting factory that ``template="verify"`` must catch.
"""

import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.database import DeceptionDatabase
from repro.malware.corpus import build_malgene_corpus
from repro.malware.families import FamilySpec
from repro.parallel import (TEMPLATE_PARITY_ERROR, MachineTemplate,
                            ParallelSweep, available_factories,
                            canonical_entry)
from repro.parallel.worker import (PairJob, execute_pair_job,
                                   initialize_worker, reset_worker)

#: 4 samples spanning deactivatable, sleeper and failing archetypes.
SPEC = FamilySpec("Mixed", (("spawn_idp", 1), ("term_vm", 1),
                            ("sleep_sbx", 1), ("fail_peb", 1)))

#: Every factory registered at import time (the built-in testbeds).
FACTORIES = tuple(sorted(available_factories()))

_DB_SNAPSHOT = DeceptionDatabase().snapshot()

#: ``factory name -> [pickled canonical fresh-factory entry, ...]`` cache,
#: so the hypothesis property pays each reference sweep only once.
_FRESH_CACHE = {}


@pytest.fixture(scope="module")
def corpus():
    samples = build_malgene_corpus([SPEC])
    assert len(samples) == 4
    return samples


def _worker_entries(corpus, factory, template, indices=None):
    """Run jobs through the worker entry point under one init mode."""
    initialize_worker(factory, _DB_SNAPSHOT, None, telemetry=False,
                      template=template)
    try:
        picked = range(len(corpus)) if indices is None else indices
        return [execute_pair_job(PairJob(i, corpus[i])) for i in picked]
    finally:
        reset_worker()


def _fresh_pickles(corpus, factory):
    if factory not in _FRESH_CACHE:
        entries = _worker_entries(corpus, factory, template=False)
        _FRESH_CACHE[factory] = [
            pickle.dumps(canonical_entry(e)) for e in entries]
    return _FRESH_CACHE[factory]


class TestTemplateParityProperty:
    @settings(max_examples=10, deadline=None)
    @given(factory=st.sampled_from(FACTORIES),
           indices=st.lists(st.integers(min_value=0, max_value=3),
                            min_size=1, max_size=4))
    def test_templated_entries_match_fresh_factory(self, corpus, factory,
                                                   indices):
        """Any job order, any factory: templated == fresh, in bytes.

        Repeated indices matter — re-running a sample on a rewound machine
        (second, third checkout) must still match the fresh reference.
        """
        fresh = _fresh_pickles(corpus, factory)
        entries = _worker_entries(corpus, factory, template=True,
                                  indices=indices)
        for index, entry in zip(indices, entries):
            assert pickle.dumps(canonical_entry(entry)) == fresh[index]


class TestSweepModesAgree:
    def test_all_template_modes_produce_identical_sweeps(self, corpus):
        results = {mode: ParallelSweep(max_workers=1, template=mode)
                   .run(corpus) for mode in (False, True, "verify")}
        for mode, result in results.items():
            assert not result.errors, (mode, result.errors)
        baseline = results[False]
        for mode in (True, "verify"):
            assert pickle.dumps(results[mode].outcomes) == \
                pickle.dumps(baseline.outcomes), mode
            assert pickle.dumps(results[mode].canonical_entries()) == \
                pickle.dumps(baseline.canonical_entries()), mode

    def test_invalid_template_mode_rejected(self):
        with pytest.raises(ValueError, match="template"):
            ParallelSweep(template="sometimes")


_DRIFT = itertools.count()


def _drifting_factory():
    """A factory whose every build boots at a different tick — the exact
    nondeterminism ``template="verify"`` exists to catch."""
    from repro.winsim import Machine
    return Machine(boot_tick_ms=19_237_512 + next(_DRIFT) * 1_000).boot()


class TestVerifyMode:
    def test_verify_flags_divergent_factory(self, corpus):
        result = ParallelSweep(max_workers=1,
                               machine_factory=_drifting_factory,
                               template="verify").run(corpus)
        assert result.errors, "drifting factory must fail parity"
        assert all(e.error_type == TEMPLATE_PARITY_ERROR
                   for e in result.errors)


class TestMachineTemplate:
    def test_build_is_idempotent(self):
        template = MachineTemplate("bare-metal-light")
        assert not template.built
        machine = template.build()
        assert template.built
        assert template.build() is machine

    def test_first_checkout_is_pristine_then_rewinds(self):
        template = MachineTemplate("bare-metal-light")
        machine = template.checkout()
        assert template.restore_count == 0  # fresh build needs no rewind
        machine.spawn_process("mal.exe")
        machine.filesystem.write_file("C:\\Windows\\Temp\\drop.bin", b"x")
        again = template.checkout()
        assert again is machine  # checkouts alias one machine
        assert template.restore_count == 1
        assert not machine.processes.name_exists("mal.exe")
        assert not machine.filesystem.exists("C:\\Windows\\Temp\\drop.bin")
