"""The fleet batch-simulation service.

:func:`run_fleet` simulates every device of a :class:`FleetSpec`, sharded
across worker processes on the experiment runner's fork fan-out
(:func:`repro.experiments.runner.map_indexed`), and stream-aggregates the
results: each shard folds its devices into one constant-size
:class:`~repro.fleet.rollup.FleetRollup` as they complete, shard rollups
are journaled to the optional checkpoint directory the moment they
arrive, and the fleet total is the shard-order merge.  No per-device
metrics list ever exists — memory is O(shards + policies), not
O(devices).

Determinism contract (pinned by ``tests/fleet/``): for a given spec the
final rollup is bit-identical for any ``shards``/``jobs`` setting, and a
killed run resumed from its checkpoint equals an uninterrupted one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.experiments.harness import standard_policies
from repro.experiments.runner import RunFailure, RunSpec, _attempt_spec, map_indexed
from repro.fleet.checkpoint import FleetCheckpoint
from repro.fleet.rollup import FleetRollup
from repro.fleet.spec import FleetSpec, shard_ranges
from repro.obs.events import TraceEvent
from repro.obs.tracer import RingBufferTracer, stamping_sink

if TYPE_CHECKING:
    from repro.fleet.kernel import KernelStats

__all__ = ["FleetResult", "resolve_kernel", "run_fleet", "run_shard"]


@dataclass
class FleetResult:
    """Outcome of one :func:`run_fleet` call.

    Attributes
    ----------
    spec / shards:
        The fleet recipe and the shard count it ran under.
    rollup:
        Fleet-total :class:`FleetRollup` (over every completed shard).
    computed_shards / resumed_shards:
        How many shards were simulated by this call vs restored from the
        checkpoint journal.
    complete:
        False when ``stop_after`` cut the run short (the checkpoint holds
        the completed shards; resume to finish).
    kernel_stats:
        The vector kernel's per-phase timing
        (:class:`~repro.fleet.kernel.KernelStats`), merged over the shards
        this call computed, as each completes; None when none ran on the
        vector kernel (scalar kernel, or every shard resumed).  Wall-clock
        telemetry: never part of the rollup or the journal.
    """

    spec: FleetSpec
    shards: int
    rollup: FleetRollup
    computed_shards: int = 0
    resumed_shards: int = 0
    complete: bool = True
    pending_shards: list = field(default_factory=list)
    kernel_stats: KernelStats | None = None

    def summary(self) -> dict:
        return self.rollup.summary()

    def render(self) -> str:
        header = (
            f"=== Fleet '{self.spec.name}': {self.spec.devices} devices, "
            f"{self.shards} shard(s) "
            f"({self.resumed_shards} resumed, {self.computed_shards} computed) ==="
        )
        body = self.rollup.render()
        if self.complete:
            return f"{header}\n{body}"
        return (
            f"{header}\n{body}\n"
            f"INCOMPLETE: shards {self.pending_shards} not yet run "
            f"(resume with --resume)"
        )


_KERNELS = ("scalar", "vector", "auto")


def _resolve_store(trace_store):
    """Normalize ``trace_store``: a directory path opens a TraceStore.

    Resolved once in the parent before the shard fan-out — forked workers
    inherit the already-parsed manifest, so attaching a store adds no
    per-worker setup and no extra RSS (the mapped pages are shared
    through the page cache).
    """
    if trace_store is None or isinstance(trace_store, str):
        if trace_store is None:
            return None
        from repro.trace.store import TraceStore

        return TraceStore.open(trace_store)
    return trace_store


#: Narrowest shard ``auto`` sends to the vector kernel: the measured
#: crossover below which the kernel's fixed per-iteration numpy cost loses
#: to the scalar engine (DESIGN.md, "Where `auto` draws the line").
_MIN_VECTOR_LANES = 192


def _auto_choice(spec: FleetSpec, shards: int, factories=None) -> tuple[str, str]:
    """``(kernel, reason)`` that ``auto`` resolves to for ``spec``."""
    from repro.fleet.kernel import VECTOR_KERNEL_POLICIES

    covered = VECTOR_KERNEL_POLICIES(factories or standard_policies())
    uncovered = [name for name in spec.policies if name not in covered]
    if uncovered:
        return "scalar", f"{', '.join(uncovered)} not vector-covered"
    width = spec.devices // max(1, shards)
    if width < _MIN_VECTOR_LANES:
        return "scalar", f"{width} devices per shard < {_MIN_VECTOR_LANES}"
    return "vector", f"{width} devices per shard >= {_MIN_VECTOR_LANES}"


def resolve_kernel(
    spec: FleetSpec, kernel: str, factories=None, shards: int = 1
) -> str:
    """Collapse ``"auto"`` to a concrete kernel for ``spec``.

    ``auto`` picks the vector kernel when *every* policy in the spec's
    mix is inside the vector envelope (:func:`VECTOR_KERNEL_POLICIES`)
    *and* each of the ``shards`` shards is at least ``_MIN_VECTOR_LANES``
    devices wide, and the scalar engine otherwise — a fleet-level
    decision, so every shard of a fleet resolves identically.  Explicit
    kernels pass through unchanged (``"vector"`` still falls back per
    device for anything outside the envelope).
    """
    if kernel not in _KERNELS:
        raise ConfigurationError(
            f"kernel must be one of {_KERNELS}, got {kernel!r}"
        )
    if kernel != "auto":
        return kernel
    return _auto_choice(spec, shards, factories)[0]


def run_shard(
    spec: FleetSpec,
    shards: int,
    shard: int,
    retries: int = 1,
    kernel: str = "scalar",
    stats=None,
    tracer=None,
    trace_store=None,
) -> FleetRollup:
    """Simulate one shard's devices, folding outcomes in device order.

    Pure function of ``(spec, shards, shard)`` — the unit of recomputation
    for checkpoint resume.  ``kernel`` selects *how* the shard is
    simulated, never *what* it computes: ``"scalar"`` builds each device
    from scratch (derived config, fresh policy/trace/schedule/engine) and
    runs it on the reference engine; ``"vector"`` advances the shard's
    baseline-policy devices in lockstep on the numpy struct-of-arrays
    kernel (:mod:`repro.fleet.kernel`), which produces bit-identical
    per-device metrics and falls back to the scalar engine for any device
    outside its envelope (Quetzal policies included); ``"auto"`` resolves
    per :func:`resolve_kernel`.  Either way the rollup fold happens in
    ascending device order, failures become rollup failure records (never
    raised), and the result is kernel-independent.  ``stats`` optionally
    receives the vector kernel's per-phase timing
    (:class:`repro.fleet.kernel.KernelStats`) — pure telemetry, never
    part of the rollup.  ``tracer`` optionally receives device-stamped
    :class:`~repro.obs.events.TraceEvent` rows from every device in the
    shard (same observability status: never journaled, never part of the
    rollup, and the rollup stays bit-identical with or without it).
    ``trace_store`` optionally names (or is) a
    :class:`~repro.trace.store.TraceStore`; devices whose trace/schedule
    the store holds attach the memory-mapped arrays instead of
    regenerating them — a pure setup-time optimization, pinned
    byte-identical to the generator path by ``tests/fleet``.  Missing
    entries fall back to the generators silently.
    """
    kernel = resolve_kernel(spec, kernel, shards=shards)
    device_range = shard_ranges(spec.devices, shards)[shard]
    factories = standard_policies()
    store = _resolve_store(trace_store)
    rollup = FleetRollup()
    if kernel == "vector":
        from repro.fleet.kernel import vector_shard_outcomes

        names: dict[int, str] = {}
        outcomes = vector_shard_outcomes(
            spec, device_range, retries=retries, factories=factories,
            stats=stats, tracer=tracer, store=store, names=names,
        )
        for device in device_range:
            policy_name = names[device]
            outcome = outcomes[device]
            if isinstance(outcome, RunFailure):
                rollup.observe_failure(device, policy_name, outcome.error)
            else:
                rollup.observe_metrics(device, policy_name, outcome)
        return rollup
    for device in device_range:
        policy_name, config = spec.device_config(device)
        trace = schedule = None
        if store is not None:
            trace = store.trace_for(config)
            schedule = store.schedule_for(config)
        outcome = _attempt_spec(
            RunSpec(policy=policy_name, seed=0, config=config),
            factories[policy_name],
            trace if trace is not None else config.build_trace(),
            schedule if schedule is not None else config.build_schedule(),
            retries,
            tracer=None if tracer is None else stamping_sink(tracer, device),
        )
        if isinstance(outcome, RunFailure):
            rollup.observe_failure(device, policy_name, outcome.error)
        else:
            rollup.observe_metrics(device, policy_name, outcome)
    return rollup


def run_fleet(
    spec: FleetSpec,
    *,
    shards: int = 1,
    jobs: int | None = 1,
    checkpoint: str | None = None,
    resume: bool = False,
    retries: int = 1,
    kernel: str = "scalar",
    recorder=None,
    stop_after: int | None = None,
    progress=None,
    trace=None,
    heartbeat=None,
    trace_store=None,
) -> FleetResult:
    """Run a whole fleet, sharded, stream-aggregated, and resumable.

    Parameters
    ----------
    spec:
        The fleet recipe (see :class:`FleetSpec`).
    shards:
        Work units the device range is split into (clamped to the fleet
        size).  More shards = finer checkpoint granularity and better
        fan-out; the result is bit-identical at any setting.
    jobs:
        Worker processes shards fan out over (``0``/``None`` = one per
        CPU, ``1`` = serial in-process), exactly like ``run_grid``.
    checkpoint:
        Directory to journal completed shards into (created if needed).
    resume:
        Load previously journaled shards from ``checkpoint`` instead of
        recomputing them (requires a matching manifest).
    retries:
        Per-device retry count before a run becomes a failure record.
    kernel:
        ``"scalar"`` (default) runs one reference engine per device;
        ``"vector"`` runs each shard's baseline-policy devices on the
        lockstep numpy kernel (bit-identical rollup; Quetzal and other
        uncovered devices fall back to the scalar engine automatically);
        ``"auto"`` picks vector when every policy in the spec's mix is
        inside the vector envelope and every shard is at least 192
        devices wide, scalar otherwise (see :func:`resolve_kernel`),
        logging the choice and its reason via ``progress``.
    recorder:
        Optional :class:`repro.sim.telemetry.FleetRecorder`, handed the
        returned :class:`FleetResult`.
    stop_after:
        Simulate a kill: journal only this many not-yet-done shards, then
        return an incomplete result (requires ``checkpoint``).  This is
        what ``make smoke`` and the resume tests drive.
    progress:
        Optional ``callable(str)`` for human-readable progress lines.
    trace:
        Optional :class:`repro.obs.TraceSink` receiving the fleet's
        device-stamped timeline events.  Workers record into a local
        bounded ring, ship the retained window back with the shard's
        rollup, and the parent folds windows in **shard order**, so the
        merged stream is deterministic for any ``jobs`` setting.  Resumed
        shards contribute no events (the checkpoint journal stays
        trace-free and kernel-invariant).
    heartbeat:
        Optional :class:`repro.obs.HeartbeatPublisher`; receives
        ``start``, one throttled ``on_shard`` per completed shard (in
        completion order — this is wall-clock telemetry, not part of the
        deterministic result), and ``finish``, whose ``phase_seconds``
        are those of the result's ``kernel_stats``.
    trace_store:
        Optional :class:`~repro.trace.store.TraceStore` (or a store
        directory path) of prebuilt traces/schedules; see
        :func:`run_shard`.  The store is opened once here and inherited
        by forked shard workers, and the rollup is byte-identical with
        or without it.
    """
    shards = min(max(1, shards), spec.devices)
    trace_store = _resolve_store(trace_store)
    if kernel == "auto" and progress is not None:
        kernel, reason = _auto_choice(spec, shards)
        progress(
            f"[fleet] kernel auto -> {kernel} "
            f"({reason}; policies: {', '.join(spec.policies)})"
        )
    kernel = resolve_kernel(spec, kernel, shards=shards)
    if stop_after is not None:
        if checkpoint is None:
            raise ConfigurationError("stop_after requires a checkpoint directory")
        if stop_after < 0:
            raise ConfigurationError(f"stop_after must be >= 0, got {stop_after}")

    journal = None
    done: dict[int, FleetRollup] = {}
    if checkpoint is not None:
        journal = FleetCheckpoint(checkpoint, spec, shards)
        done = journal.initialize(resume)
    elif resume:
        raise ConfigurationError("resume requires a checkpoint directory")
    if progress is not None and done:
        progress(f"[fleet] resumed {len(done)} of {shards} shard(s) from journal")

    pending = [shard for shard in range(shards) if shard not in done]
    cut = pending[stop_after:] if stop_after is not None else []
    if cut:
        pending = pending[:stop_after]

    if heartbeat is not None:
        heartbeat.start(
            fleet=spec.name, devices=spec.devices, shards=shards, kernel=kernel
        )
    # The one telemetry record: every computed shard's stats merge into it
    # as the shard completes; the heartbeat and the result read it.
    kernel_stats = None
    if kernel == "vector" and pending:
        from repro.fleet.kernel import KernelStats

        kernel_stats = KernelStats()
    beat = {
        "shards_done": len(done),
        "devices_done": sum(rollup.devices for rollup in done.values()),
    }
    trace_capacity = getattr(trace, "capacity", None)

    def worker(position: int) -> tuple:
        # The rollup (the result) travels with pure telemetry: the vector
        # kernel's per-phase timing and the shard's retained trace window.
        # Only the rollup ever reaches the checkpoint journal — resumed
        # shards have no stats or trace, and the journal format is
        # kernel- and observability-invariant.
        stats = None if kernel_stats is None else KernelStats()
        local = None
        if trace is not None:
            local = (
                RingBufferTracer() if trace_capacity is None
                else RingBufferTracer(trace_capacity)
            )
        rollup = run_shard(
            spec, shards, pending[position], retries, kernel=kernel,
            stats=stats, tracer=local, trace_store=trace_store,
        )
        window = None
        if local is not None:
            window = ([event.as_dict() for event in local.events()], local.dropped)
        return rollup, stats, window

    def journal_result(position: int, payload: tuple) -> None:
        shard = pending[position]
        rollup, stats, _ = payload
        if journal is not None:
            journal.write_shard(shard, rollup)
        if progress is not None:
            progress(f"[fleet] shard {shard} done ({rollup.devices} devices)")
        if kernel_stats is not None:
            kernel_stats.merge(stats)
        if heartbeat is not None:
            beat["shards_done"] += 1
            beat["devices_done"] += rollup.devices
            heartbeat.on_shard(
                shards_done=beat["shards_done"],
                shards_total=shards,
                devices_done=beat["devices_done"],
                devices_total=spec.devices,
                kernel=kernel,
                phase_seconds=(
                    None if kernel_stats is None else kernel_stats.phase_seconds()
                ),
            )

    payloads = map_indexed(worker, len(pending), jobs, on_result=journal_result)
    computed = {}
    for shard, (rollup, _, window) in zip(pending, payloads):
        computed[shard] = rollup
        if window is not None:
            # Fold each shard's window in shard order: the merged stream
            # is deterministic for any jobs setting.
            rows, dropped = window
            absorb = getattr(trace, "absorb_rows", None)
            if absorb is not None:
                absorb(rows, dropped)
            else:
                for row in rows:
                    trace.emit(TraceEvent.from_dict(row))

    total = FleetRollup()
    parts = {**done, **computed}
    for shard in sorted(parts):
        total.merge(parts[shard])

    result = FleetResult(
        spec=spec,
        shards=shards,
        rollup=total,
        computed_shards=len(computed),
        resumed_shards=len(done),
        complete=not cut,
        pending_shards=cut,
        kernel_stats=kernel_stats,
    )
    if recorder is not None:
        recorder.result = result
    if heartbeat is not None:
        heartbeat.finish(
            devices=total.devices,
            failures=total.failure_count,
            complete=not cut,
            kernel=kernel,
            phase_seconds=(
                None if kernel_stats is None else kernel_stats.phase_seconds()
            ),
        )
    if progress is not None:
        progress(
            f"[fleet] {total.devices} devices folded; "
            f"{total.failure_count} failed"
        )
    return result
