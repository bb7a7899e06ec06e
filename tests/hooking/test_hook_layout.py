"""Prebuilt hook layouts: integrity at build, one-copy attach, and parity
with export-by-export installs over random prior-hook sets."""

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import ScarecrowController
from repro.core.dll import HOOK_OWNER
from repro.hooking import hook_manager_of
from repro.hooking.inline import (HookIntegrityError, HookManager,
                                  hook_layout)
from repro.hooking.prologue import PATCH_LEN, STANDARD_PROLOGUE, encode_jmp
from repro.winapi import EXPORTS
from repro.winsim.machine import Machine

ALL_EXPORTS = tuple(EXPORTS)
LAYOUT_EXPORTS = ALL_EXPORTS[:6]


def _noop(call, *args, **kwargs):
    return call.original(*args, **kwargs)


def _installed(exports):
    manager = HookManager()
    for export in exports:
        manager.install(export, _noop, owner="x")
    return manager


class TestLayoutIntegrity:
    def test_layout_is_cached_per_export_tuple(self):
        assert hook_layout(LAYOUT_EXPORTS) is hook_layout(LAYOUT_EXPORTS)
        assert hook_layout(LAYOUT_EXPORTS[:3]) is not \
            hook_layout(LAYOUT_EXPORTS)

    def test_layout_matches_installed_manager(self):
        layout = hook_layout(LAYOUT_EXPORTS)
        reference = _installed(LAYOUT_EXPORTS)
        assert layout.code == reference.code.entries()
        assert layout.hook_addresses == tuple(
            hook.hook_address for hook in reference.hooks())
        assert layout.next_hook_address == reference._next_hook_address

    def test_corrupted_patch_rejected(self):
        layout = hook_layout(LAYOUT_EXPORTS)
        key, address, code = layout.code[2]
        wrong = encode_jmp(address, layout.hook_addresses[3]) + \
            code[PATCH_LEN:]
        code = layout.code[:2] + ((key, address, wrong),) + layout.code[3:]
        with pytest.raises(HookIntegrityError, match=key):
            dataclasses.replace(layout, code=code)

    def test_unpatched_hook_rejected(self):
        layout = hook_layout(LAYOUT_EXPORTS)
        key, address, _ = layout.code[0]
        code = ((key, address, STANDARD_PROLOGUE),) + layout.code[1:]
        with pytest.raises(HookIntegrityError, match=key):
            dataclasses.replace(layout, code=code)

    def test_hook_without_code_rejected(self):
        layout = hook_layout(LAYOUT_EXPORTS)
        with pytest.raises(HookIntegrityError, match="without patched"):
            dataclasses.replace(layout, code=layout.code[:-1])

    def test_corrupted_saved_prologue_rejected(self):
        layout = hook_layout(LAYOUT_EXPORTS)
        saved = (b"\xe9\x00\x00\x00\x00",) + layout.saved[1:]
        with pytest.raises(HookIntegrityError, match=layout.keys[0]):
            dataclasses.replace(layout, saved=saved)


class TestAttach:
    def test_attach_equals_install(self):
        layout = hook_layout(LAYOUT_EXPORTS)
        handlers = [_noop] * len(LAYOUT_EXPORTS)
        manager = HookManager()
        assert manager.attach(layout, handlers, owner="x")
        reference = _installed(LAYOUT_EXPORTS)
        assert manager.code.entries() == reference.code.entries()
        assert [dataclasses.astuple(h) for h in manager.hooks()] == \
            [dataclasses.astuple(h) for h in reference.hooks()]
        assert manager._next_hook_address == reference._next_hook_address

    def test_attach_copies_are_independent(self):
        layout = hook_layout(LAYOUT_EXPORTS)
        handlers = [_noop] * len(LAYOUT_EXPORTS)
        first, second = HookManager(), HookManager()
        first.attach(layout, handlers)
        second.attach(layout, handlers)
        first.hooks()[0].enabled = False
        first.remove(LAYOUT_EXPORTS[1])
        assert second.hooks()[0].enabled
        assert second.read_prologue(LAYOUT_EXPORTS[1]) != \
            STANDARD_PROLOGUE[:PATCH_LEN]
        assert hook_layout(LAYOUT_EXPORTS) is layout

    @pytest.mark.parametrize("touch", ["hook", "read"])
    def test_attach_refuses_touched_manager(self, touch):
        manager = HookManager()
        if touch == "hook":
            manager.install(ALL_EXPORTS[-1], _noop)
        else:
            manager.read_prologue(ALL_EXPORTS[-1])
        before = manager.code.entries()
        assert not manager.attach(hook_layout(LAYOUT_EXPORTS),
                                  [_noop] * len(LAYOUT_EXPORTS))
        assert manager.code.entries() == before

    def test_attach_rejects_handler_count_mismatch(self):
        with pytest.raises(ValueError):
            HookManager().attach(hook_layout(LAYOUT_EXPORTS), [_noop])


# -- parity: the DLL's attach path vs. the per-export install loop ---------

_MACHINE = None


def _controller():
    """One controller on one booted machine, shared across examples."""
    global _MACHINE
    if _MACHINE is None:
        machine = Machine().boot()
        _MACHINE = (machine, ScarecrowController(machine))
    return _MACHINE


def _per_export_install(manager, handlers):
    """The reference: install every handler the process does not hook yet."""
    installed = 0
    for export, handler in handlers.items():
        if manager.is_hooked(export):
            continue
        manager.install(export, handler, owner=HOOK_OWNER)
        installed += 1
    return installed


def _apply(manager, priors):
    for kind, export, owner in priors:
        if kind == "read":
            manager.read_prologue(export)
        elif not manager.is_hooked(export):
            manager.install(export, _noop, owner=owner)


def _view(manager):
    return ([(h.export, h.hook_address, h.saved_prologue, h.owner, h.handler)
             for h in manager.hooks()], manager.code.patched_exports())


_prior = st.one_of(
    st.tuples(st.just("read"), st.sampled_from(ALL_EXPORTS), st.just("")),
    st.tuples(st.just("hook"), st.sampled_from(ALL_EXPORTS),
              st.sampled_from(["cuckoo-monitor", "decoy"])))


@given(priors=st.lists(_prior, max_size=12))
@example(priors=[])
@example(priors=[("hook", "shell32.dll!ShellExecuteExW", "cuckoo-monitor")])
@settings(max_examples=60, deadline=None)
def test_attach_parity_with_per_export_install(priors):
    machine, controller = _controller()
    dll = controller.dll
    process = machine.spawn_process("probe.exe", parent=machine.explorer)
    _apply(hook_manager_of(process, create=True), priors)
    reference = HookManager()
    _apply(reference, priors)

    dll.on_inject(machine, process)
    expected_installed = _per_export_install(reference, dll._handlers)

    attached = hook_manager_of(process)
    assert _view(attached) == _view(reference)
    assert process.tags["scarecrow_hooks_installed"] == expected_installed
    # Reads allocate addresses, so compare them after everything else and
    # in the same order on both sides.
    for export in ALL_EXPORTS:
        assert attached.read_prologue(export, len(STANDARD_PROLOGUE)) == \
            reference.read_prologue(export, len(STANDARD_PROLOGUE)), export
    assert attached.code.entries() == reference.code.entries()
