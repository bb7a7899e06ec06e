"""Fork-inherited shared worker state: build once, inherit for free.

On fork-capable platforms a pool worker is a copy-on-write clone of the
parent at fork time. Anything the parent placed in this module's registry
*before* creating the pool is therefore already present in every worker —
no pickling, no transfer, no per-worker rebuild. The parent publishes the
frozen deception database and a pre-built
:class:`~repro.parallel.template.MachineTemplate` here, and workers look
them up by key in their initializer.

The registry is advisory, never load-bearing: every lookup validates what
it finds (content fingerprint for the database blob, type and build
state for the template) and a miss simply falls back to the pickled-transfer
path that spawn-start-method platforms always use. The sweep reports
which path each worker actually took (``shared_state_used`` /
``ChunkHeader.shared_database``), so "zero-copy" is an observed fact, not
an assumption.

Keys are content-derived: the database key is a crc32:length fingerprint
of the exact snapshot blob being shipped, so a worker that inherited a
*different* database (stale module state, corrupted registry) cannot
silently use it — the fingerprint check recomputes the crc inline and
refuses the hit.
"""

from __future__ import annotations

import pickle
import zlib
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..core.database import FrozenDeceptionDatabase
from ..telemetry.metrics import TELEMETRY
from .factories import FactorySpec, resolve_machine_factory
from .template import MachineTemplate

#: Module-level registry inherited through fork. Keyed by
#: ``(kind, fingerprint)``.
_REGISTRY: Dict[Tuple[str, str], Any] = {}


@dataclass(frozen=True)
class SharedKeys:
    """Registry keys a sweep passes to its workers through initargs.

    Only the *keys* travel through the pool (a few dozen bytes); the
    payloads they name ride the fork. ``None`` means the parent did not
    publish that payload (no template without templating; nothing for
    the serving backend or a test driving an initializer directly).
    """

    database: Optional[str] = None
    template: Optional[str] = None


def database_fingerprint(blob: bytes) -> str:
    """Content fingerprint of a pickled database snapshot."""
    return f"{zlib.crc32(blob) & 0xFFFFFFFF:08x}:{len(blob)}"


def template_key(factory_name: str, factory_id: int) -> str:
    """Registry key for a pre-built template.

    Includes the resolved callable's ``id()``: a forked child sees the
    same object at the same address, while a spawn child (fresh import)
    almost certainly does not — a cheap way to make stale hits unlikely
    on top of the type validation at lookup.
    """
    return f"{factory_name}:{factory_id:#x}"


def publish_database(blob: bytes, database: Any) -> str:
    """Publish a rehydrated frozen database under its blob fingerprint."""
    key = database_fingerprint(blob)
    _REGISTRY[("database", key)] = database
    return key


def publish_template(key: str, template: MachineTemplate) -> str:
    """Publish a pre-built machine template under ``key``."""
    _REGISTRY[("template", key)] = template
    return key


def publish_fixtures(factory_spec: FactorySpec, snapshot_blob: bytes,
                     template: object) -> SharedKeys:
    """Pre-fork, for the sweep and the fleet alike: rehydrate the database
    and (when ``template``) build the template once, so every forked
    worker inherits both. Workers validate each key and fall back on a
    miss, so this is pure optimisation — never correctness-bearing."""
    db_key = publish_database(
        snapshot_blob,
        FrozenDeceptionDatabase.from_snapshot(pickle.loads(snapshot_blob)))
    if not template:
        return SharedKeys(database=db_key)
    factory = resolve_machine_factory(factory_spec)
    factory_name = (factory_spec if isinstance(factory_spec, str)
                    else getattr(factory, "__qualname__", "factory"))
    key = template_key(factory_name, id(factory))
    prebuilt = MachineTemplate(factory)
    prebuilt.build()
    return SharedKeys(database=db_key,
                      template=publish_template(key, prebuilt))


def lookup_database(key: Optional[str], blob: bytes) -> Optional[Any]:
    """The inherited database for ``key`` — or None, falling back to
    pickled transfer.

    Validates by recomputing the crc32:length fingerprint of ``blob``
    inline (not through :func:`database_fingerprint`, so a monkeypatched
    helper cannot vouch for a corrupted registry): a key that does not
    match the blob the sweep actually shipped is refused, as is a
    registry value that is not a :class:`FrozenDeceptionDatabase`.
    """
    if key is None:
        return None
    expected = f"{zlib.crc32(blob) & 0xFFFFFFFF:08x}:{len(blob)}"
    if key != expected:
        TELEMETRY.count("parallel.shared_db_misses")
        return None
    found = _REGISTRY.get(("database", key))
    if not isinstance(found, FrozenDeceptionDatabase):
        TELEMETRY.count("parallel.shared_db_misses")
        return None
    TELEMETRY.count("parallel.shared_db_hits")
    return found


def lookup_template(key: Optional[str]) -> Optional[MachineTemplate]:
    """The inherited pre-built template for ``key`` — or None.

    Refuses entries that are not a built :class:`MachineTemplate`
    (corruption, or a registry cleared and refilled between publish and
    fork).
    """
    if key is None:
        return None
    found = _REGISTRY.get(("template", key))
    if not isinstance(found, MachineTemplate) or not found.built:
        TELEMETRY.count("parallel.shared_template_misses")
        return None
    TELEMETRY.count("parallel.shared_template_hits")
    return found


def clear() -> None:
    """Drop everything published (test hook)."""
    _REGISTRY.clear()
