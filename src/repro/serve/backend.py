"""In-process execution backend: routed, deterministic verdict batches.

:class:`ShardedBackend` is the serving twin of the offline
:class:`~repro.fleet.service.FleetService` round executor. It reuses the
exact same worker runtime — :func:`~repro.fleet.service.
initialize_fleet_worker` fixtures, :func:`~repro.fleet.service.
execute_fleet_batch` per endpoint batch — so a verdict served online is
byte-for-byte the record the offline fleet would have produced for the
same events (proven in ``tests/serve/test_server.py``). Submitted
batches group per endpoint in first-arrival order (the admission
grouping rule) and route to shards with :func:`~repro.fleet.shard.
shard_of`; per-shard batch counts come back with every submission so
the server's ``shard.*`` telemetry reflects real routing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.database import DeceptionDatabase
from ..parallel.factories import FactorySpec
from ..parallel.shared import database_fingerprint
from ..telemetry.metrics import TELEMETRY
from ..fleet.endpoint import EventRecord
from ..fleet.events import FleetEvent
from ..fleet.service import (DEFAULT_FLEET_FACTORY, FleetFixtures,
                             execute_fleet_batch, group_round,
                             initialize_fleet_worker)
from ..fleet.shard import BatchJob, shard_of


class ShardedBackend:
    """Executes admitted event batches against per-endpoint machines.

    Fixture setup (database snapshot, machine template) is lazy and
    happens once, on the first submission — the resident-service shape.
    The backend holds its fixtures itself, so an offline run or a sweep
    in the same process cannot swap them out.
    Execution is synchronous and single-threaded; concurrency control
    (one submission at a time) belongs to the server's event loop.
    """

    def __init__(self, machine_factory: FactorySpec = DEFAULT_FLEET_FACTORY,
                 *, shards: int = 1,
                 database: Optional[DeceptionDatabase] = None,
                 max_retries: int = 1) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.machine_factory = machine_factory
        self.shards = shards
        self.database = database
        self.max_retries = max_retries
        self.batches_executed = 0
        self.events_executed = 0
        #: Batches executed per shard index (routing observability).
        self.shard_batches: Dict[int, int] = {}
        #: Published version currently served (0 = the unversioned base
        #: the backend was constructed with; hot rollouts bump this).
        self.database_version = 0
        #: Hot rollouts adopted over this backend's lifetime.
        self.rollouts = 0
        #: Content fingerprint of the serving snapshot (set on first use).
        self.database_fingerprint = ""
        self._fixtures: Optional[FleetFixtures] = None
        self._next_index = 0

    def _ensure_ready(self) -> FleetFixtures:
        if self._fixtures is None:
            database = self.database if self.database is not None \
                else DeceptionDatabase()
            blob = database.snapshot_bytes()
            self.database_fingerprint = database_fingerprint(blob)
            self._fixtures = initialize_fleet_worker(
                self.machine_factory, blob, None,
                telemetry=TELEMETRY.enabled)
        return self._fixtures

    def adopt_version(self, version_id: int,
                      database: DeceptionDatabase) -> None:
        """Hot-swap the serving database to a published version.

        The next submission lazily re-initializes the worker fixtures
        with the adopted snapshot as the *base* database — no restart,
        no in-flight work (the server serializes submissions). Jobs are
        stamped with the version id, so every verdict served afterwards
        carries it; the worker resolves the id to its base database
        (no side-loaded blob needed — the base IS the version).
        """
        if version_id < 0:
            raise ValueError("version_id must be >= 0")
        self.database = database
        self.database_version = version_id
        self.rollouts += 1
        self._fixtures = None

    def submit(self, events: Sequence[FleetEvent]
               ) -> Tuple[List[EventRecord], Dict[int, int]]:
        """Execute one admitted batch; returns (records, shard→batches).

        Events group per endpoint in first-arrival order — each
        endpoint's slice runs on one freshly-stamped machine, exactly
        like one offline admission round — and records come back
        seq-sorted.
        """
        fixtures = self._ensure_ready()
        routed: Dict[int, int] = {}
        records: List[EventRecord] = []
        for endpoint_id, batch_events in group_round(list(events)):
            shard = shard_of(endpoint_id, self.shards)
            routed[shard] = routed.get(shard, 0) + 1
            job = BatchJob(self._next_index, endpoint_id, batch_events,
                           self.max_retries,
                           db_version=self.database_version)
            self._next_index += 1
            result = execute_fleet_batch(job, fixtures)
            records.extend(result.records)
            self.batches_executed += 1
            self.events_executed += len(result.records)
        for shard, count in routed.items():
            self.shard_batches[shard] = \
                self.shard_batches.get(shard, 0) + count
        records.sort(key=lambda record: record.seq)
        return records, routed
