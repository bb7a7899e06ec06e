"""Inline hooking, DLL injection and IPC — the EasyHook substitute."""

from .injection import (HOOK_MANAGER_TAG, INJECTED_DLLS_TAG, hook_manager_of,
                        inject_dll, inject_into_suspended_child, is_injected)
from .inline import (HookCall, HookIntegrityError, HookLayout, HookManager,
                     InlineHook, hook_layout)
from .ipc import IpcChannel, IpcEndpoint, IpcMessage
from .prologue import (JMP_REL32, PATCH_LEN, STANDARD_PROLOGUE, CodeImage,
                       decode_jmp_target, encode_jmp, looks_hooked)

__all__ = [
    "CodeImage", "HOOK_MANAGER_TAG", "HookCall", "HookIntegrityError",
    "HookLayout", "HookManager", "INJECTED_DLLS_TAG", "InlineHook",
    "IpcChannel", "IpcEndpoint", "IpcMessage", "JMP_REL32", "PATCH_LEN",
    "STANDARD_PROLOGUE", "decode_jmp_target", "encode_jmp", "hook_layout",
    "hook_manager_of", "inject_dll", "inject_into_suspended_child",
    "is_injected", "looks_hooked",
]
