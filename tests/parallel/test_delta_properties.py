"""Dirty-set delta-restore parity — proven as properties, not examples.

Two guarantees carry the zero-copy dispatch tentpole:

* **Delta == full.** Whatever sequence of subsystem mutations a job
  performs, a template's dirty-set restore must rewind the machine to a
  state byte-identical (pickled ``snapshot_state``) to what a full
  ``Machine.restore_state(captured_state)`` produces — and to the
  captured template state itself.
* **Shared == pickled.** A worker that inherited its database and
  template through the fork-shared registry must produce canonical sweep
  entries byte-identical to a worker that rebuilt everything from the
  pickled blob.

Hypothesis drives both over random mutation sequences / job orders.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.database import DeceptionDatabase, FrozenDeceptionDatabase
from repro.malware.corpus import build_malgene_corpus
from repro.malware.families import FamilySpec
from repro.parallel import MachineTemplate, canonical_entry
from repro.parallel import shared as shared_registry
from repro.parallel.factories import resolve_machine_factory
from repro.parallel.template import TemplateParityError
from repro.parallel.worker import (PairJob, execute_pair_job,
                                   initialize_worker, reset_worker)
from repro.winsim.machine import TRACKED_SUBSYSTEMS

pytestmark = pytest.mark.delta

FACTORY = "bare-metal-light"

_DB_BLOB = DeceptionDatabase().snapshot_bytes()

#: One mutating operation per tracked subsystem, parameterised by a small
#: integer so repeated picks stay distinct.
MUTATORS = {
    "registry": lambda m, n: m.registry.set_value(
        "HKEY_CURRENT_USER\\Software\\DeltaTest", f"v{n}", n),
    "filesystem": lambda m, n: m.filesystem.write_file(
        f"C:\\Windows\\Temp\\delta_{n}.bin", b"x" * (n + 1)),
    "gui": lambda m, n: m.gui.create_window(f"DeltaClass{n}", f"delta {n}"),
    "devices": lambda m, n: m.devices.register(f"\\\\.\\DeltaDev{n}"),
    "mutexes": lambda m, n: m.mutexes.create(f"Global\\delta-{n}"),
    "services": lambda m, n: m.services.install(f"deltasvc{n}"),
    "eventlog": lambda m, n: m.eventlog.append("DeltaTest", 7000 + n),
    "dnscache": lambda m, n: m.dnscache.add(f"delta{n}.example.com"),
    "network": lambda m, n: m.network.resolve(f"nx-{n}.example.invalid"),
}

assert set(MUTATORS) == set(TRACKED_SUBSYSTEMS)

op_sequences = st.lists(
    st.sampled_from(sorted(MUTATORS)), min_size=0, max_size=12)


def _apply(machine, ops):
    for n, name in enumerate(ops):
        MUTATORS[name](machine, n)


def _full_restore_reference():
    """A fresh factory machine and its captured state: the reference a
    dirty-set restore is held to is ``machine.restore_state(state)``."""
    machine = resolve_machine_factory(FACTORY)()
    return machine, machine.snapshot_state()


class TestDeltaEqualsFull:
    @settings(max_examples=25, deadline=None)
    @given(rounds=st.lists(op_sequences, min_size=1, max_size=3))
    def test_delta_restore_matches_full_restore(self, rounds):
        """Any mutation mix, over several checkout rounds: the
        delta-restored machine and the full-restored machine end up
        byte-identical — to each other and to the captured template."""
        delta_t = MachineTemplate(FACTORY)
        full_m, captured = _full_restore_reference()
        delta_m = delta_t.checkout()
        reference = pickle.dumps(delta_m.snapshot_state())
        assert pickle.dumps(full_m.snapshot_state()) == reference
        for ops in rounds:
            _apply(delta_m, ops)
            _apply(full_m, ops)
            assert delta_t.checkout() is delta_m
            full_m.restore_state(captured)
            assert pickle.dumps(delta_m.snapshot_state()) == reference
            assert pickle.dumps(full_m.snapshot_state()) == reference

    @settings(max_examples=25, deadline=None)
    @given(ops=op_sequences)
    def test_dirty_set_is_exactly_what_was_touched(self, ops):
        template = MachineTemplate(FACTORY)
        machine = template.checkout()
        # Settle the pristine fast-path so last_dirty reflects `ops` only.
        template.checkout()
        _apply(machine, ops)
        template.checkout()
        assert template.last_dirty == set(ops)

    @settings(max_examples=10, deadline=None)
    @given(ops=op_sequences)
    def test_verify_mode_accepts_honest_deltas(self, ops):
        """verify_clean re-proves every skipped subsystem; tracked
        mutations never trip it because the counters never lie."""
        template = MachineTemplate(FACTORY)
        machine = template.checkout()
        _apply(machine, ops)
        template.checkout()
        template.verify_clean()  # must not raise TemplateParityError

    def test_verify_mode_catches_counterless_mutation(self):
        """A mutation that bypasses the generation counters is exactly
        the lie template="verify" exists to catch."""
        fixtures = initialize_worker(FACTORY, _DB_BLOB, None,
                                     template="verify")
        try:
            machine = fixtures.machine_source()
            assert fixtures.machine_source() is machine
            # Sneak past the counter: mutate internals directly.
            machine.mutexes._mutexes["sneaky"] = "sneaky"
            with pytest.raises(TemplateParityError, match="mutexes"):
                fixtures.machine_source()
        finally:
            reset_worker()

    @pytest.mark.fleet
    def test_fleet_verify_mode_surfaces_counterless_mutation(
            self, monkeypatch):
        """The fleet's template="verify" runs the same cross-check on
        every endpoint checkout; plain templating does not notice."""
        from repro.fleet import FleetService
        from repro.fleet.endpoint import ProtectedEndpoint
        close = ProtectedEndpoint.close

        def sneaky_close(endpoint):
            close(endpoint)
            endpoint.machine.mutexes._mutexes["sneaky"] = "sneaky"
        monkeypatch.setattr(ProtectedEndpoint, "close", sneaky_close)

        def service(template):
            # One-event batches: the first batch dirties only the
            # filesystem, so the sneaked-in mutex survives its rewind.
            return FleetService(endpoints=2, events=8, seed=7,
                                queue_limit=1, machine_factory=FACTORY,
                                template=template)
        assert len(service(True).run().records) == 8
        with pytest.raises(TemplateParityError, match="mutexes"):
            service("verify").run()


#: Registry operations for the path-granular journal: creates, value
#: writes on fresh *and* template keys, deletes of template subtrees,
#: create-then-delete churn — everything the subtree splicer handles.
REG_OPS = {
    "new_deep_value": lambda r, n: r.set_value(
        f"HKEY_CURRENT_USER\\Software\\PathDelta\\A{n}\\B", f"v{n}", n),
    "template_value": lambda r, n: r.set_value(
        "HKEY_LOCAL_MACHINE\\SOFTWARE\\Microsoft\\Windows\\CurrentVersion"
        "\\Run", f"evil{n}", f"C:\\{n}.exe"),
    "delete_template_subtree": lambda r, n: r.delete_key(
        "HKEY_LOCAL_MACHINE\\SOFTWARE\\Microsoft\\Windows NT"
        "\\CurrentVersion"),
    # Guarded: delete_template_subtree may already have removed the key.
    "delete_template_value": lambda r, n: (
        lambda key: key and key.delete_value("ProductName"))(r.open_key(
            "HKEY_LOCAL_MACHINE\\SOFTWARE\\Microsoft\\Windows NT"
            "\\CurrentVersion")),
    "churn": lambda r, n: (r.create_key(
        f"HKEY_LOCAL_MACHINE\\SOFTWARE\\Churn{n}"),
        r.delete_key(f"HKEY_LOCAL_MACHINE\\SOFTWARE\\Churn{n}")),
}

#: Filesystem operations for the same journal mechanism: deep creates,
#: overwrites, deletes of template subtrees, renames, churn.
FS_OPS = {
    "new_deep_file": lambda f, n: f.write_file(
        f"C:\\Users\\analyst\\AppData\\Local\\X{n}\\payload.bin",
        b"x" * (n + 1)),
    "overwrite": lambda f, n: f.write_file(
        "C:\\Windows\\Temp\\shared.tmp", bytes([n % 251])),
    "delete_template_dir": lambda f, n: f.delete(
        "C:\\Users\\analyst\\Documents"),
    "mkdir_churn": lambda f, n: (f.makedirs(f"C:\\Churn{n}\\deep"),
                                 f.delete(f"C:\\Churn{n}")),
    "rename": lambda f, n: (f.write_file(f"C:\\Windows\\Temp\\a{n}.tmp",
                                         b"r"),
                            f.rename(f"C:\\Windows\\Temp\\a{n}.tmp",
                                     f"C:\\Windows\\Temp\\b{n}.exe")),
}


class TestPathGranularDelta:
    """The dirty-path journals (registry and filesystem) must splice the
    trees back to exactly what a full rebuild produces — same bytes,
    same child insertion order."""

    @settings(max_examples=20, deadline=None)
    @given(ops=st.lists(st.sampled_from(sorted(REG_OPS)),
                        min_size=1, max_size=10))
    def test_registry_splice_matches_full_rebuild(self, ops):
        delta_t = MachineTemplate(FACTORY)
        full_m, captured = _full_restore_reference()
        delta_m = delta_t.checkout()
        reference = pickle.dumps(delta_m.snapshot_state())
        for rounds in range(2):
            for n, name in enumerate(ops):
                REG_OPS[name](delta_m.registry, n)
                REG_OPS[name](full_m.registry, n)
            delta_t.checkout()
            full_m.restore_state(captured)
            assert pickle.dumps(delta_m.snapshot_state()) == reference
            assert pickle.dumps(full_m.snapshot_state()) == reference

    @settings(max_examples=20, deadline=None)
    @given(ops=st.lists(st.sampled_from(sorted(FS_OPS)),
                        min_size=1, max_size=10))
    def test_filesystem_splice_matches_full_rebuild(self, ops):
        delta_t = MachineTemplate(FACTORY)
        full_m, captured = _full_restore_reference()
        delta_m = delta_t.checkout()
        reference = pickle.dumps(delta_m.snapshot_state())
        for rounds in range(2):
            for n, name in enumerate(ops):
                FS_OPS[name](delta_m.filesystem, n)
                FS_OPS[name](full_m.filesystem, n)
            delta_t.checkout()
            full_m.restore_state(captured)
            assert pickle.dumps(delta_m.snapshot_state()) == reference
            assert pickle.dumps(full_m.snapshot_state()) == reference

    def test_journal_overflow_degrades_to_full_rebuild(self):
        template = MachineTemplate(FACTORY)
        machine = template.checkout()
        template.checkout()  # settle; journal now tracks from here
        reference = pickle.dumps(machine.snapshot_state())
        for n in range(200):  # well past _JOURNAL_CAP
            machine.registry.set_value(
                f"HKEY_CURRENT_USER\\Software\\Flood\\K{n}", "v", n)
        assert machine.registry._dirty_paths is None
        template.checkout()
        assert pickle.dumps(machine.snapshot_state()) == reference
        # The journal re-arms after the (full) rebuild.
        assert machine.registry._dirty_paths == set()

    def test_foreign_state_dict_forces_full_rebuild(self):
        """Splicing is only sound against the state the journal diverged
        from; restoring to a structurally-equal but different dict must
        take the full path."""
        machine = MachineTemplate(FACTORY).checkout()
        foreign = machine.snapshot_state()
        machine.registry.set_value(
            "HKEY_CURRENT_USER\\Software\\Foreign", "v", 1)
        machine.restore_state(foreign)
        assert machine.registry._last_restored_state \
            is foreign["registry"]
        assert machine.registry.get_value(
            "HKEY_CURRENT_USER\\Software\\Foreign", "v") is None


#: Process-table operations for the dirty-pid journal: spawns (with and
#: without lineage), kills of fresh *and* template processes, tag writes
#: (the notify-on-write TagDict surface), suspend/resume, module loads,
#: thread churn.
PROC_OPS = {
    "spawn": lambda m, n: m.spawn_process(f"proc{n}.exe"),
    "spawn_child": lambda m, n: m.spawn_process(
        f"child{n}.exe", parent=m.explorer),
    "spawn_and_kill": lambda m, n: m.processes.terminate(
        m.spawn_process(f"victim{n}.exe").pid),
    # Guarded: find_by_name only returns live processes, so a second kill
    # in the same op sequence is a no-op.
    "kill_template_process": lambda m, n: [
        m.processes.terminate(p.pid)
        for p in m.processes.find_by_name("dwm.exe")],
    "tag_explorer": lambda m, n: m.explorer.tags.__setitem__(f"t{n}", n),
    "untag": lambda m, n: (m.explorer.tags.__setitem__("gone", n),
                           m.explorer.tags.pop("gone")),
    "suspend_resume": lambda m, n: (m.explorer.suspend(),
                                    m.explorer.resume()),
    "module_load": lambda m, n: m.explorer.modules.load(f"delta{n}.dll"),
    "thread": lambda m, n: m.explorer.spawn_thread(),
}


class TestProcessTableDelta:
    """The dirty-pid journal must splice the process table back to
    exactly what a full rebuild produces — same bytes, and the same
    parent-link *identity* (``descendants`` compares with ``is``)."""

    @settings(max_examples=20, deadline=None)
    @given(ops=st.lists(st.sampled_from(sorted(PROC_OPS)),
                        min_size=1, max_size=10))
    def test_pid_splice_matches_full_rebuild(self, ops):
        delta_t = MachineTemplate(FACTORY)
        full_m, captured = _full_restore_reference()
        delta_m = delta_t.checkout()
        reference = pickle.dumps(delta_m.snapshot_state())
        for _ in range(2):
            for n, name in enumerate(ops):
                PROC_OPS[name](delta_m, n)
                PROC_OPS[name](full_m, n)
            delta_t.checkout()
            full_m.restore_state(captured)
            assert pickle.dumps(delta_m.snapshot_state()) == reference
            assert pickle.dumps(full_m.snapshot_state()) == reference

    def test_splice_heals_parent_identity(self):
        """A clean child whose parent pid was reloaded must point at the
        *new* parent object, or ancestor walks silently go stale."""
        template = MachineTemplate(FACTORY)
        machine = template.checkout()
        template.checkout()  # settle; journal now tracks from here
        explorer = machine.explorer
        explorer.tags["dirty"] = True  # journals only explorer's pid
        machine.spawn_process("leaf.exe", parent=explorer)
        template.checkout()
        restored = machine.processes.get(explorer.pid)
        assert restored is not explorer  # reloaded from its blob
        assert "dirty" not in restored.tags
        for process in machine.processes.all():
            if process.parent_pid:
                assert process.parent \
                    is machine.processes.get(process.parent_pid)
        assert not machine.processes.find_by_name("leaf.exe")

    def test_pid_journal_overflow_degrades_to_full_rebuild(self):
        template = MachineTemplate(FACTORY)
        machine = template.checkout()
        template.checkout()  # settle; journal now tracks from here
        reference = pickle.dumps(machine.snapshot_state())
        for n in range(100):  # well past the journal cap
            machine.spawn_process(f"flood{n}.exe")
        assert machine.processes._dirty_pids is None
        template.checkout()
        assert pickle.dumps(machine.snapshot_state()) == reference
        # The journal re-arms after the (full) rebuild.
        assert machine.processes._dirty_pids == set()


SPEC = FamilySpec("Mixed", (("spawn_idp", 1), ("term_vm", 1),
                            ("sleep_sbx", 1), ("fail_peb", 1)))


@pytest.fixture(scope="module")
def corpus():
    samples = build_malgene_corpus([SPEC])
    assert len(samples) == 4
    return samples


def _entries_with_keys(corpus, indices, keys):
    initialize_worker(FACTORY, _DB_BLOB, None, telemetry=False,
                      template=True, shared_keys=keys)
    try:
        return [pickle.dumps(canonical_entry(
            execute_pair_job(PairJob(i, corpus[i])))) for i in indices]
    finally:
        reset_worker()


class TestSharedEqualsPickled:
    @settings(max_examples=8, deadline=None)
    @given(indices=st.lists(st.integers(min_value=0, max_value=3),
                            min_size=1, max_size=5))
    def test_shared_registry_rollups_match_pickled_transfer(self, corpus,
                                                            indices):
        """Same jobs, same order: a worker on fork-inherited state and a
        worker on the pickled path produce byte-identical canonical
        entries."""
        shared_registry.clear()
        try:
            db_key = shared_registry.publish_database(
                _DB_BLOB, FrozenDeceptionDatabase.from_snapshot(
                    pickle.loads(_DB_BLOB)))
            factory = resolve_machine_factory(FACTORY)
            t_key = shared_registry.template_key(FACTORY, id(factory))
            prebuilt = MachineTemplate(factory)
            prebuilt.build()
            shared_registry.publish_template(t_key, prebuilt)
            keys = shared_registry.SharedKeys(database=db_key,
                                              template=t_key)
            via_shared = _entries_with_keys(corpus, indices, keys)
        finally:
            shared_registry.clear()
        via_pickle = _entries_with_keys(corpus, indices,
                                        shared_registry.SharedKeys())
        assert via_shared == via_pickle
