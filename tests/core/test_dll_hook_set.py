"""scarecrow.dll attaches one prebuilt hook set per process.

Counts, not wall clock: a self-spawning sample's whole process tree is
protected for at most one layout build's worth of ``HookManager.install``
calls, and a child spawned after a config push is bound to the refreshed
handlers.
"""

import pytest

from repro import winapi
from repro.core import ScarecrowController
from repro.core.dll import HOOK_OWNER
from repro.hooking import hook_manager_of
from repro.hooking.inline import HookManager, hook_layout
from repro.malware.corpus import build_malgene_corpus
from repro.malware.families import FamilySpec


@pytest.fixture
def install_calls(monkeypatch):
    """Count every ``HookManager.install``, starting from an empty cache."""
    calls = []
    real = HookManager.install

    def counting(self, export, handler, owner=""):
        calls.append(export)
        return real(self, export, handler, owner)

    hook_layout.cache_clear()
    monkeypatch.setattr(HookManager, "install", counting)
    return calls


def _assert_bound(process, handlers):
    manager = hook_manager_of(process)
    assert process.tags["scarecrow_protected"] is True
    assert process.tags["scarecrow_hooks_installed"] == len(handlers)
    hooks = manager.hooks()
    assert [hook.export for hook in hooks] == list(handlers)
    assert all(hook.owner == HOOK_OWNER for hook in hooks)
    assert all(hook.handler is handlers[hook.export] for hook in hooks)


def test_self_spawning_tree_costs_one_layout_build(machine, install_calls):
    sample = build_malgene_corpus(
        [FamilySpec("Spawn", (("spawn_idp", 1),))])[0]
    machine.filesystem.write_file(sample.image_path, b"MZ")
    controller = ScarecrowController(machine)
    result = sample.run(machine, controller.launch(sample.image_path))

    assert result.self_spawn_count > 1
    tracked = [machine.processes.get(pid) for pid in controller.tracked_pids]
    assert len(tracked) == result.self_spawn_count + 1
    handlers = controller.dll._handlers
    assert 0 < len(install_calls) <= len(handlers)
    for process in tracked:
        _assert_bound(process, handlers)


def test_child_after_config_push_gets_refreshed_handlers(machine,
                                                        install_calls):
    controller = ScarecrowController(machine)
    parent = controller.launch("C:\\dl\\stage1.exe")
    stale = dict(controller.dll._handlers)
    controller.push_config_update(enable_debugger=False)
    fresh = controller.dll._handlers
    assert fresh is not stale

    child = winapi.bind(machine, parent).CreateProcessA("C:\\dl\\stage2.exe")
    _assert_bound(parent, fresh)
    _assert_bound(child, fresh)
    assert not any(hook.handler is stale[hook.export]
                   for hook in hook_manager_of(child).hooks())
    # The layout build plus the parent's per-export refresh; the child
    # attached the cached layout.
    assert len(install_calls) == 2 * len(fresh)
