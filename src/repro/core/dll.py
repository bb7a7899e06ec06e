"""scarecrow.dll — the injected payload that installs the deception hooks."""

from __future__ import annotations

from typing import Optional, Tuple

from ..hooking.injection import hook_manager_of
from ..hooking.inline import HookHandler, HookLayout, HookManager, hook_layout
from ..winsim.machine import Machine
from ..winsim.process import Process
from .engine import DeceptionEngine
from .handlers import build_handlers

HOOK_OWNER = "scarecrow"


class ScarecrowDll:
    """Injectable DLL model (satisfies the InjectableDll protocol).

    On injection it installs every handler from
    :func:`repro.core.handlers.build_handlers` as an inline hook in the
    target process. A fresh process gets the whole hook set in one copy:
    the shared :func:`~repro.hooking.inline.hook_layout` of the handler
    exports, bound to this DLL's handlers. A process that already holds
    hooks or has had its code read falls back to export-by-export
    installs, and exports already hooked by someone else (e.g. Cuckoo's
    monitor hooking ``ShellExecuteExW``) are left alone — their existing
    patched prologue already serves Scarecrow's purpose of *looking*
    monitored.
    """

    name = "scarecrow.dll"

    def __init__(self, engine: DeceptionEngine) -> None:
        self.engine = engine
        self._handlers = build_handlers(engine)
        self._binding: Optional[
            Tuple[HookLayout, Tuple[HookHandler, ...]]] = None

    def _hook_set(self) -> Tuple[HookLayout, Tuple[HookHandler, ...]]:
        """The shared layout plus this DLL's handlers in layout order."""
        if self._binding is None:
            self._binding = (hook_layout(tuple(self._handlers)),
                             tuple(self._handlers.values()))
        return self._binding

    def _install_missing(self, manager: HookManager) -> int:
        installed = 0
        for export, handler in self._handlers.items():
            if manager.is_hooked(export):
                continue
            manager.install(export, handler, owner=HOOK_OWNER)
            installed += 1
        return installed

    def on_inject(self, machine: Machine, process: Process) -> None:
        manager = hook_manager_of(process, create=True)
        assert manager is not None
        layout, handlers = self._hook_set()
        if manager.attach(layout, handlers, owner=HOOK_OWNER):
            installed = len(handlers)
        else:
            installed = self._install_missing(manager)
        self.engine.attach_process(machine, process.pid)
        process.tags["scarecrow_protected"] = True
        process.tags["scarecrow_hooks_installed"] = installed

    def refresh_hooks(self, process: Process) -> int:
        """Re-sync hooks after a config update pushed over IPC."""
        manager = hook_manager_of(process)
        if manager is None:
            return 0
        manager.remove_all(owner=HOOK_OWNER)
        self._handlers = build_handlers(self.engine)
        self._binding = None
        installed = self._install_missing(manager)
        process.tags["scarecrow_hooks_installed"] = installed
        return installed
