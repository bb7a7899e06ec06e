"""Long-lived multi-endpoint protection service ("fleet mode").

The paper deploys Scarecrow as a resident protection service on end-user
machines; this package scales that deployment story out to a *fleet*: N
protected endpoints (machine + controller + Deep Freeze), a seeded
virtual-clock event stream of benign launches, evasive-malware arrivals
and reboot resets, a bounded admission queue with backpressure, chunked
dispatch onto the parallel worker pool, and periodic checkpoints a
killed run resumes from — with the rollup byte-identical to the
uninterrupted run. See ``docs/FLEET.md``.
"""

from .endpoint import (DEFAULT_REPORT_BUFFER, FAILED_LABEL, EventRecord,
                       ProtectedEndpoint, failed_event_record)
from .events import (DEFAULT_FLEET_FAMILIES, EVENT_BENIGN, EVENT_KINDS,
                     EVENT_MALWARE, EVENT_RESET, FleetEvent, FleetRng,
                     WorkloadProfile, build_sample_pool, generate_events)
from .report import (ArmRollup, FamilyRollup, FleetReport, LatencyRollup,
                     ShardRollup, VersionRollup, build_arm_rollups,
                     build_fleet_report, finalize_report,
                     merge_shard_rollups, render_fleet_report)
from .service import (CHECKPOINT_VERSION, DEFAULT_FLEET_FACTORY,
                      DEFAULT_QUEUE_LIMIT, AdmissionPlan,
                      FleetRunResult, FleetService, execute_fleet_batch,
                      execute_fleet_chunk, group_round,
                      initialize_fleet_worker, plan_rounds)
from .shard import (BatchJob, BatchResult, FleetChunk, FleetCheckpointError,
                    FleetShard, ShardOutcome, build_shards, route_round,
                    shard_checkpoint_path, shard_of)

__all__ = [
    "AdmissionPlan", "ArmRollup", "BatchJob", "BatchResult",
    "CHECKPOINT_VERSION",
    "DEFAULT_FLEET_FACTORY", "DEFAULT_FLEET_FAMILIES",
    "DEFAULT_QUEUE_LIMIT", "DEFAULT_REPORT_BUFFER", "EVENT_BENIGN",
    "EVENT_KINDS", "EVENT_MALWARE", "EVENT_RESET", "EventRecord",
    "FAILED_LABEL", "FamilyRollup", "FleetChunk", "FleetCheckpointError",
    "FleetEvent", "FleetReport", "FleetRng", "FleetRunResult",
    "FleetService", "FleetShard", "LatencyRollup", "ProtectedEndpoint",
    "ShardOutcome", "ShardRollup", "VersionRollup", "WorkloadProfile",
    "build_arm_rollups", "build_fleet_report",
    "build_sample_pool", "build_shards", "execute_fleet_batch",
    "execute_fleet_chunk", "failed_event_record", "finalize_report",
    "generate_events", "group_round", "initialize_fleet_worker",
    "merge_shard_rollups", "plan_rounds", "render_fleet_report",
    "route_round", "shard_checkpoint_path", "shard_of",
]
