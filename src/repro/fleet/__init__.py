"""Fleet-scale batch simulation: many devices, bounded memory, resumable.

The deployment shape the paper targets is not one device but a *fleet* of
periodic energy-harvesting sensors.  This package simulates N
heterogeneous devices — mixed apps, policies, per-device solar traces and
event schedules, all derived deterministically from one fleet seed —
sharded across worker processes, with stream-aggregated rollups
(:class:`FleetRollup`; never an O(devices) metrics list) and
checkpoint/resume journals that make a killed run resumable
bit-identically.

Two entry points:

* Python API — :func:`run_fleet` over a :class:`FleetSpec`, returning a
  :class:`FleetResult` (re-exported from :mod:`repro.api`), which also
  carries the vector kernel's per-phase timing (``kernel_stats``);
* CLI — ``python -m repro.fleet --devices N --shards K --jobs 0
  [--checkpoint DIR] [--resume]``.
"""

from repro.fleet.checkpoint import FleetCheckpoint
from repro.fleet.rollup import MAX_RECORDED_FAILURES, DeviceFailure, FleetRollup
from repro.fleet.service import FleetResult, run_fleet, run_shard
from repro.fleet.spec import SPEC_SCHEMA_VERSION, FleetSpec, shard_ranges

__all__ = [
    "FleetSpec",
    "SPEC_SCHEMA_VERSION",
    "FleetResult",
    "FleetRollup",
    "DeviceFailure",
    "FleetCheckpoint",
    "run_fleet",
    "run_shard",
    "shard_ranges",
    "MAX_RECORDED_FAILURES",
]
