"""Byte-level function prologues — the substrate for inline hooking.

Real inline hooking (Fig. 1 of the paper) overwrites the first five bytes
of an API's prologue with ``JMP rel32``; anti-hook checks read those bytes
back and compare against the expected ``mov edi, edi`` (``8B FF``) hotpatch
prologue. We model each process's view of every API's first eight code
bytes, so hooks are installed, detected, and removed with the same byte
arithmetic the paper shows.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

#: The Microsoft hotpatch prologue: ``mov edi,edi; push ebp; mov ebp,esp;
#: sub esp, 0x10`` — what an *unhooked* export starts with.
STANDARD_PROLOGUE = bytes([0x8B, 0xFF, 0x55, 0x8B, 0xEC, 0x83, 0xEC, 0x10])

#: ``JMP rel32`` opcode used by inline hooks.
JMP_REL32 = 0xE9

#: How many bytes an inline hook clobbers.
PATCH_LEN = 5


def encode_jmp(from_address: int, to_address: int) -> bytes:
    """Encode ``JMP rel32`` at ``from_address`` targeting ``to_address``."""
    rel = (to_address - (from_address + PATCH_LEN)) & 0xFFFFFFFF
    return bytes([JMP_REL32]) + rel.to_bytes(4, "little")


def decode_jmp_target(code: bytes, at_address: int) -> Optional[int]:
    """Return the JMP target when ``code`` starts with a rel32 jump."""
    if len(code) < PATCH_LEN or code[0] != JMP_REL32:
        return None
    rel = int.from_bytes(code[1:PATCH_LEN], "little")
    return (at_address + PATCH_LEN + rel) & 0xFFFFFFFF


def looks_hooked(code: bytes) -> bool:
    """The paper's ``check_hook``: first two bytes not ``mov edi, edi``.

    ``return (*add == 0x8b) && (*(add+1) == 0xff) ? FALSE : TRUE;``
    """
    return not (len(code) >= 2 and code[0] == 0x8B and code[1] == 0xFF)


class CodeImage:
    """One process's view of API code bytes.

    Each export ("kernel32.dll!IsDebuggerPresent") owns a synthetic virtual
    address and an 8-byte prologue that starts out as
    :data:`STANDARD_PROLOGUE` and gets patched by hook installation.
    """

    _BASE_ADDRESS = 0x76F00000
    _STRIDE = 0x100

    def __init__(self) -> None:
        self._bytes: Dict[str, bytearray] = {}
        self._addresses: Dict[str, int] = {}

    def _ensure(self, export: str) -> bytearray:
        key = export.lower()
        if key not in self._bytes:
            self._bytes[key] = bytearray(STANDARD_PROLOGUE)
            self._addresses[key] = self._BASE_ADDRESS + \
                len(self._addresses) * self._STRIDE
        return self._bytes[key]

    def address_of(self, export: str) -> int:
        self._ensure(export)
        return self._addresses[export.lower()]

    def read(self, export: str, length: int = len(STANDARD_PROLOGUE)) -> bytes:
        """Read the first ``length`` prologue bytes (what anti-hook code sees)."""
        return bytes(self._ensure(export)[:length])

    def write(self, export: str, data: bytes) -> None:
        code = self._ensure(export)
        if len(data) > len(code):
            raise ValueError("patch longer than modelled prologue window")
        code[:len(data)] = data

    def patch_jmp(self, export: str, hook_address: int) -> bytes:
        """Install a JMP patch; returns the original bytes for the trampoline."""
        original = self.read(export, PATCH_LEN)
        self.write(export, encode_jmp(self.address_of(export), hook_address))
        return original

    def unpatch(self, export: str, original: bytes) -> None:
        self.write(export, original)

    def is_patched(self, export: str) -> bool:
        return looks_hooked(self.read(export, 2))

    def patched_exports(self) -> List[str]:
        return [name for name in self._bytes if self.is_patched(name)]

    def __len__(self) -> int:
        """How many exports have been touched (read, written or addressed)."""
        return len(self._addresses)

    def entries(self) -> Tuple[Tuple[str, int, bytes], ...]:
        """``(key, address, prologue)`` for every touched export, in
        first-touch (= address) order."""
        return tuple((key, self._addresses[key], bytes(code))
                     for key, code in self._bytes.items())

    def load(self, entries: Iterable[Tuple[str, int, bytes]]) -> None:
        """Fill an untouched image from :meth:`entries` of another one."""
        for key, address, code in entries:
            self._bytes[key] = bytearray(code)
            self._addresses[key] = address
