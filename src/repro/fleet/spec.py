"""Fleet specifications: N heterogeneous devices from one seed.

A :class:`FleetSpec` describes a *population* of energy-harvesting
devices — the deployment shape the paper targets (fleets of periodic
sensing nodes) — as a small, hashable recipe: how many devices, which
policy/environment/MCU/harvester mixes, and one fleet seed.  Every
per-device detail (its policy, sensing environment, harvester size, solar
trace, event schedule, and classification draws) is derived
*deterministically* from ``(fleet seed, device index)``, so:

* the same spec always describes bit-identical devices, on any machine
  and under any sharding of the fleet;
* device ``i`` can be rebuilt in isolation (a resumed shard re-derives
  exactly the devices the killed run would have simulated);
* no per-device state needs to be stored anywhere — the spec *is* the
  fleet.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from dataclasses import dataclass, fields

from repro.device.mcu import mcu_by_name
from repro.env.activity import environment_by_name
from repro.errors import ConfigurationError
from repro.experiments.configs import ExperimentConfig

__all__ = ["FleetSpec", "SPEC_SCHEMA_VERSION", "shard_ranges"]

#: Ceiling for derived per-device RNG seeds.
_SEED_SPAN = 1 << 30

#: Version of the FleetSpec wire encoding (``to_json``/``from_json``).
#: Bump when a field is added, removed, or changes meaning; ``from_json``
#: rejects versions it does not read, so stale spec files fail loudly
#: instead of silently describing a different fleet.
SPEC_SCHEMA_VERSION = 1


def shard_ranges(devices: int, shards: int) -> list[range]:
    """Partition device indices into ``shards`` contiguous, balanced ranges.

    Sizes differ by at most one; concatenating the ranges in shard order
    yields ``range(devices)`` exactly, which is what makes a shard-order
    rollup merge equal a serial device-order fold.
    """
    if devices < 0:
        raise ConfigurationError(f"devices must be >= 0, got {devices}")
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    base, extra = divmod(devices, shards)
    ranges = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        ranges.append(range(start, start + size))
        start += size
    return ranges


@functools.cache
def _policy_names() -> frozenset[str]:
    """The ``standard_policies`` names, built once (imported lazily)."""
    from repro.experiments.harness import standard_policies

    return frozenset(standard_policies())


@dataclass(frozen=True, kw_only=True)
class FleetSpec:
    """A deterministic population of heterogeneous devices.

    Construct with keyword arguments.  Attributes ``policies``,
    ``environments``, ``mcus``, and ``cells`` are the *mixes* each device
    draws from (uniformly, from its device RNG); singleton tuples give a
    homogeneous fleet.

    Attributes
    ----------
    devices:
        Fleet size.
    seed:
        The fleet seed every per-device derivation stems from.
    name:
        Label folded into the derivation (two same-sized fleets with
        different names are different populations).
    n_events:
        Events per device schedule.
    policies:
        Policy mix — keys into the standard grid of
        :func:`repro.experiments.harness.standard_policies`.
    environments:
        Sensing-environment mix (``environment_by_name`` names).
    mcus:
        MCU mix (``mcu_by_name`` names).
    cells:
        Harvester cell-count mix.
    capture_period_s / buffer_capacity / drain_timeout_s:
        Shared device parameters (Table 1 defaults).
    """

    devices: int
    seed: int = 0
    name: str = "fleet"
    n_events: int = 50
    policies: tuple = ("QZ", "NA", "AD", "TH50")
    environments: tuple = ("more crowded", "crowded", "less crowded")
    mcus: tuple = ("apollo4",)
    cells: tuple = (4, 6, 8)
    capture_period_s: float = 1.0
    buffer_capacity: int | None = 10
    drain_timeout_s: float = 3600.0

    def __post_init__(self) -> None:
        for field_name in ("policies", "environments", "mcus", "cells"):
            value = getattr(self, field_name)
            if not isinstance(value, tuple):
                object.__setattr__(self, field_name, tuple(value))
            if not getattr(self, field_name):
                raise ConfigurationError(f"{field_name} must not be empty")
        if self.devices < 1:
            raise ConfigurationError(f"devices must be >= 1, got {self.devices}")
        if self.n_events < 1:
            raise ConfigurationError(f"n_events must be >= 1, got {self.n_events}")
        known = _policy_names()
        unknown = [name for name in self.policies if name not in known]
        if unknown:
            raise ConfigurationError(
                f"unknown policies {unknown}; available: {sorted(known)}"
            )
        for env_name in self.environments:
            environment_by_name(env_name)  # raises on unknown names
        for mcu_name in self.mcus:
            mcu_by_name(mcu_name)
        for cell_count in self.cells:
            if cell_count < 1:
                raise ConfigurationError(f"cells must be >= 1, got {cell_count}")

    # -- per-device derivation ---------------------------------------------------

    def device_rng(self, index: int) -> random.Random:
        """The device's private RNG, derived from (seed, name, index).

        String seeding hashes through SHA-512, so the stream is stable
        across processes and interpreter restarts (no ``PYTHONHASHSEED``
        dependence).
        """
        if not 0 <= index < self.devices:
            raise ConfigurationError(
                f"device index {index} outside fleet of {self.devices}"
            )
        return random.Random(f"{self.name}/{self.seed}/device-{index}")

    def device_config(self, index: int) -> tuple[str, ExperimentConfig]:
        """Derive device ``index``: its policy name and experiment config."""
        rng = self.device_rng(index)
        policy = rng.choice(self.policies)
        environment = environment_by_name(rng.choice(self.environments))
        mcu = mcu_by_name(rng.choice(self.mcus))
        cells = rng.choice(self.cells)
        config = ExperimentConfig(
            name=f"{self.name}-dev{index:06d}",
            mcu=mcu,
            environment=environment,
            n_events=self.n_events,
            cells=cells,
            capture_period_s=self.capture_period_s,
            buffer_capacity=self.buffer_capacity,
            trace_seed=rng.randrange(_SEED_SPAN),
            schedule_seed=rng.randrange(_SEED_SPAN),
            sim_seed=rng.randrange(_SEED_SPAN),
            drain_timeout_s=self.drain_timeout_s,
        )
        return policy, config

    # -- identity ----------------------------------------------------------------

    def to_dict(self) -> dict:
        out: dict = {}
        for field in fields(self):
            value = getattr(self, field.name)
            out[field.name] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FleetSpec":
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"FleetSpec data must be a mapping, got {type(data).__name__}"
            )
        known = {field.name for field in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown FleetSpec keys {unknown}; known: {sorted(known)}"
            )
        kwargs = dict(data)
        for field_name in ("policies", "environments", "mcus", "cells"):
            if field_name in kwargs:
                kwargs[field_name] = tuple(kwargs[field_name])
        return cls(**kwargs)

    def fingerprint(self) -> str:
        """Stable identity hash (checkpoint journals are keyed on this).

        Deliberately computed over the *fields only* (:meth:`to_dict`,
        not the versioned wire form): the identity of a fleet must not
        change when the wire envelope does, or every cache and journal
        would be invalidated by a schema bump.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()

    # -- versioned wire codec ----------------------------------------------------
    #
    # The one encoding every spec-consuming surface shares: the serve
    # protocol, the fleet CLI's ``--spec spec.json``, and the checkpoint
    # manifest all round-trip specs through to_wire/from_wire instead of
    # ad-hoc dict handling.  The golden file pinned by
    # tests/fleet/test_spec_wire.py freezes the v1 byte layout.

    def to_wire(self) -> dict:
        """The versioned wire dict (``to_dict`` plus ``schema_version``)."""
        out = {"schema_version": SPEC_SCHEMA_VERSION}
        out.update(self.to_dict())
        return out

    @classmethod
    def from_wire(cls, data: dict) -> "FleetSpec":
        """Decode a wire dict; unknown keys and foreign versions are errors."""
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"FleetSpec wire data must be a mapping, got {type(data).__name__}"
            )
        if "schema_version" not in data:
            raise ConfigurationError(
                "FleetSpec wire data is missing 'schema_version' "
                f"(this build writes version {SPEC_SCHEMA_VERSION})"
            )
        version = data["schema_version"]
        if version != SPEC_SCHEMA_VERSION:
            raise ConfigurationError(
                f"FleetSpec schema_version {version!r} is not supported; "
                f"this build reads version {SPEC_SCHEMA_VERSION}"
            )
        payload = {key: value for key, value in data.items()
                   if key != "schema_version"}
        return cls.from_dict(payload)

    def to_json(self) -> str:
        """Canonical JSON wire form (sorted keys, 2-space indent, newline)."""
        return json.dumps(self.to_wire(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "FleetSpec":
        """Decode :meth:`to_json` output (raises ``ConfigurationError``)."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"FleetSpec JSON is unreadable: {exc}") from exc
        return cls.from_wire(data)
