"""The serving backend owns its fixtures.

A resident :class:`~repro.serve.backend.ShardedBackend` readies its
database, template and config once. An in-process offline fleet run in
the same process must not swap them out from under it: the backend keeps
serving the verdicts it served before the run.
"""

import dataclasses

import pytest

from repro.core.profiles import ScarecrowConfig
from repro.fleet import FleetService, generate_events
from repro.serve.backend import ShardedBackend

pytestmark = pytest.mark.serve


def _all_disabled() -> ScarecrowConfig:
    return ScarecrowConfig(**{field.name: False
                              for field in dataclasses.fields(ScarecrowConfig)
                              if field.name.startswith("enable_")})


def test_in_process_fleet_run_leaves_backend_fixtures_alone():
    events = generate_events(7, 4, 48)
    reference, _ = ShardedBackend("end-user").submit(events)

    backend = ShardedBackend("end-user")
    backend.submit(events[:1])
    FleetService(endpoints=4, events=8, seed=7, machine_factory="cuckoo-vm",
                 config=_all_disabled(), max_workers=1).run()
    records, _ = backend.submit(events)

    assert records == reference
