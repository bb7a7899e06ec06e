"""Inline hook management for one process.

A :class:`HookManager` lives inside a target process (planted there by DLL
injection). Installing a hook patches the export's prologue bytes — making
the hook *detectable*, which for Scarecrow is a feature — and registers a
handler the API dispatcher routes calls through.

Handlers receive ``(call, *args, **kwargs)`` where ``call`` is a
:class:`HookCall` giving access to the calling context and an
``original(*args, **kwargs)`` trampoline invoking the unhooked
implementation. Returning from the handler returns to the caller.

A DLL that hooks the same exports in every process it is injected into
builds a :class:`HookLayout` once (:func:`hook_layout`) and hands it to
:meth:`HookManager.attach`, which copies it into a fresh process instead
of patching export by export.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..telemetry.metrics import TELEMETRY
from .prologue import (CodeImage, PATCH_LEN, STANDARD_PROLOGUE,
                       decode_jmp_target)

HookHandler = Callable[..., Any]

#: Where hook thunks live in the synthetic address space (inside the
#: injected DLL's image, far from the patched exports).
_HOOK_CODE_BASE = 0x10000000


@dataclasses.dataclass
class HookCall:
    """Context handed to a hook handler for one intercepted call."""

    export: str
    context: Any                     # the winapi ApiContext of the caller
    original: Callable[..., Any]     # trampoline to the real implementation

    @property
    def machine(self):
        return self.context.machine

    @property
    def process(self):
        return self.context.process


@dataclasses.dataclass
class InlineHook:
    export: str
    handler: HookHandler
    saved_prologue: bytes
    hook_address: int
    enabled: bool = True
    #: Free-form label ("scarecrow", "cuckoo-monitor", "decoy") so traces
    #: and tests can tell whose hook fired.
    owner: str = ""


class HookIntegrityError(ValueError):
    """A :class:`HookLayout` whose bytes do not say what its hooks say."""


@dataclasses.dataclass(frozen=True)
class HookLayout:
    """What installing ``exports`` in order leaves in a pristine manager.

    It depends on the ordered export tuple only — never on the handlers —
    so one layout serves every process and every DLL instance.
    Construction checks its integrity: every patched prologue must decode
    (``JMP rel32`` from the export's address) to that export's hook
    address, and every saved prologue must be the unhooked
    :data:`~repro.hooking.prologue.STANDARD_PROLOGUE`.
    """

    exports: Tuple[str, ...]
    keys: Tuple[str, ...]                  # lower-cased, install order
    code: Tuple[Tuple[str, int, bytes], ...]  # CodeImage.entries()
    saved: Tuple[bytes, ...]               # per key
    hook_addresses: Tuple[int, ...]        # per key
    next_hook_address: int

    def __post_init__(self) -> None:
        targets = dict(zip(self.keys, self.hook_addresses))
        for key, address, code in self.code:
            if decode_jmp_target(code, address) != targets.pop(key, None):
                raise HookIntegrityError(
                    f"{key}: patched prologue {code.hex()} does not jump "
                    f"to its hook address")
        if targets:
            raise HookIntegrityError(
                f"hooks without patched prologues: {sorted(targets)}")
        for key, saved in zip(self.keys, self.saved):
            if saved != STANDARD_PROLOGUE[:PATCH_LEN]:
                raise HookIntegrityError(
                    f"{key}: saved prologue {saved.hex()} is not the "
                    "standard prologue")


def _unbound_handler(call: HookCall, *args: Any, **kwargs: Any) -> Any:
    return call.original(*args, **kwargs)


@functools.lru_cache(maxsize=None)
def hook_layout(exports: Tuple[str, ...]) -> HookLayout:
    """The (cached) layout for hooking ``exports`` in this order.

    Built by really installing every export into a scratch manager, so it
    holds exactly the bytes and addresses :meth:`HookManager.install`
    would produce.
    """
    manager = HookManager()
    for export in exports:
        manager.install(export, _unbound_handler)
    hooks = manager.hooks()
    return HookLayout(
        exports=exports, keys=tuple(manager._hooks),
        code=manager.code.entries(),
        saved=tuple(hook.saved_prologue for hook in hooks),
        hook_addresses=tuple(hook.hook_address for hook in hooks),
        next_hook_address=manager._next_hook_address)


class HookManager:
    """All inline hooks installed inside one process."""

    def __init__(self) -> None:
        self.code = CodeImage()
        self._hooks: Dict[str, InlineHook] = {}
        self._next_hook_address = _HOOK_CODE_BASE

    # -- install / remove ------------------------------------------------------

    def install(self, export: str, handler: HookHandler,
                owner: str = "") -> InlineHook:
        """Install an inline hook on ``export``.

        Raises ``ValueError`` when the export is already hooked — layered
        hooking of the same export is out of scope for the reproduction
        (the paper never stacks Scarecrow on top of another monitor's hook
        for the same API inside the same process).
        """
        key = export.lower()
        if key in self._hooks:
            raise ValueError(f"{export} is already hooked")
        hook_address = self._next_hook_address
        self._next_hook_address += 0x40
        saved = self.code.patch_jmp(export, hook_address)
        hook = InlineHook(export, handler, saved, hook_address, owner=owner)
        self._hooks[key] = hook
        return hook

    def attach(self, layout: HookLayout, handlers: Sequence[HookHandler],
               owner: str = "") -> bool:
        """Install ``layout`` with one copy; ``handlers`` in layout order.

        Same end state as ``install(export, handler, owner)`` per export,
        but only for a *pristine* manager — no hooks, and no export read
        yet (the code image hands out addresses on first touch). Returns
        ``False`` and changes nothing otherwise; the caller then installs
        export by export.
        """
        if self._hooks or len(self.code):
            return False
        if len(handlers) != len(layout.keys):
            raise ValueError(f"{len(handlers)} handlers for "
                             f"{len(layout.keys)} layout exports")
        self.code.load(layout.code)
        self._hooks = {
            key: InlineHook(export, handler, saved, address, owner=owner)
            for key, export, handler, saved, address in zip(
                layout.keys, layout.exports, handlers, layout.saved,
                layout.hook_addresses)}
        self._next_hook_address = layout.next_hook_address
        return True

    def remove(self, export: str) -> bool:
        hook = self._hooks.pop(export.lower(), None)
        if hook is None:
            return False
        self.code.unpatch(export, hook.saved_prologue)
        return True

    def remove_all(self, owner: Optional[str] = None) -> int:
        removed = 0
        for export in list(self._hooks):
            if owner is None or self._hooks[export].owner == owner:
                self.remove(export)
                removed += 1
        return removed

    # -- dispatch ---------------------------------------------------------------

    def active_hook(self, export: str) -> Optional[InlineHook]:
        hook = self._hooks.get(export.lower())
        return hook if hook is not None and hook.enabled else None

    def dispatch(self, export: str, context: Any,
                 implementation: Callable[..., Any],
                 args: tuple, kwargs: dict) -> Any:
        """Route one API call through its hook (if any)."""
        hook = self.active_hook(export)
        if hook is None:
            if TELEMETRY.enabled:
                TELEMETRY.count("hook.passthrough")
            return implementation(context, *args, **kwargs)

        telemetry_on = TELEMETRY.enabled
        if telemetry_on:
            TELEMETRY.count("hook.calls")
            entered_ns = context.machine.clock.now_ns

        def original(*o_args: Any, **o_kwargs: Any) -> Any:
            if TELEMETRY.enabled:
                TELEMETRY.count("hook.trampoline")
            return implementation(context, *o_args, **o_kwargs)

        call = HookCall(export=export, context=context, original=original)
        result = hook.handler(call, *args, **kwargs)
        if telemetry_on:
            TELEMETRY.observe("hook.handler_ns." + export,
                              context.machine.clock.now_ns - entered_ns)
        return result

    # -- inspection (what anti-hook code does) -------------------------------

    def read_prologue(self, export: str, length: int = PATCH_LEN) -> bytes:
        return self.code.read(export, length)

    def is_hooked(self, export: str) -> bool:
        return export.lower() in self._hooks

    def hooks(self) -> List[InlineHook]:
        return list(self._hooks.values())

    def hooked_exports(self) -> List[str]:
        return [hook.export for hook in self._hooks.values()]

    def __len__(self) -> int:
        return len(self._hooks)
