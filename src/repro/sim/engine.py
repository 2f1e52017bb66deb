"""The simulation engine.

Faithful to the paper's simulator semantics (section 6.3): harvested energy
is added to the storage element continuously, a task "runs" by consuming
its latency and energy, a JIT checkpointing system rides through power
failures (save state, die, recharge to the restart threshold, restore,
resume), and policy/degradation logic is evaluated — and its overheads
charged — before each job.  The capture process inserts inputs at a fixed
rate regardless of device state (see DESIGN.md's reserved-capture-store
substitution), so recharge stalls translate directly into buffer pressure.

Instead of literally iterating 1 ms steps, the engine advances between
*breakpoints* — the next capture tick, the next trace segment boundary, the
task's completion, or the storage's depletion instant — and integrates the
piecewise-constant power in closed form over each span.  For such traces
this is exact (``tests/sim/test_engine_equivalence.py`` checks it against a
literal fixed-increment stepper).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.device.buffer import BufferedInput, InputBuffer, _input_ids
from repro.device.checkpoint import CheckpointModel
from repro.device.mcu import APOLLO4, MCUProfile
from repro.device.storage import Supercapacitor
from repro.env.events import EventSchedule
from repro.errors import ConfigurationError, SchedulingError, SimulationError
from repro.core.scheduler import JobCandidate
from repro.obs.events import TraceEvent
from repro.policies.base import CompletionRecord, Decision, Policy, SchedulingContext
from repro.sim.metrics import RunMetrics
from repro.trace.power_trace import PiecewiseConstantTrace
from repro.units import TIME_EPSILON
from repro.workload.pipelines import PersonDetectionApp
from repro.workload.task import TaskCost

__all__ = ["SimulationConfig", "SimulationEngine", "simulate"]

_ENERGY_EPS = 1e-12

#: Differencing-filter draws fetched per refill of the capture stream.
_CAP_CHUNK = 1024

# Frozen-dataclass bypass for the two context objects built once per policy
# invocation: identical fields, no generated-__init__ object.__setattr__
# round-trips (see repro.policies.base._make_decision for the same idiom).
_OBJ_NEW = object.__new__

#: Shared CompletionRecord.task_spans for policies that never read spans
#: (Policy.needs_task_spans is False) — saves one dict per completed job.
#: Module-level and deliberately never written to.
_NO_SPANS: dict = {}


class _RunEnded(Exception):
    """Internal control flow: the hard end of the simulation was reached."""


@dataclass(frozen=True, kw_only=True)
class SimulationConfig:
    """Engine parameters independent of device/workload/policy.

    Construction is keyword-only; derive variants with
    :func:`dataclasses.replace`.

    Attributes
    ----------
    capture_period_s:
        Camera capture period (Table 1: 1 s = 1 FPS).
    buffer_capacity:
        Input-buffer capacity in images (Table 1: 10); ``None`` gives the
        Ideal baseline's unbounded buffer.
    drain_timeout_s:
        Extra simulated time allowed after the last event for the device to
        drain its buffer before the run is cut off.
    charge_policy_overhead:
        Whether to debit the policy's per-invocation compute cost from the
        energy store (the paper's simulator does; section 6.3).
    seed:
        Seed for the classification-outcome RNG.
    cost_jitter_sigma:
        Log-normal sigma of per-execution latency jitter (0 disables it,
        matching the paper's consistent-cost assumption; section 5.2 names
        variable costs as future work — see
        :mod:`repro.workload.variability`).
    """

    capture_period_s: float = 1.0
    buffer_capacity: int | None = 10
    drain_timeout_s: float = 3600.0
    charge_policy_overhead: bool = True
    seed: int = 0
    cost_jitter_sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.capture_period_s <= 0:
            raise ConfigurationError("capture_period_s must be positive")
        if self.drain_timeout_s < 0:
            raise ConfigurationError("drain_timeout_s must be >= 0")
        if self.cost_jitter_sigma < 0:
            raise ConfigurationError("cost_jitter_sigma must be >= 0")


class SimulationEngine:
    """Simulates one policy processing one event schedule under one trace."""

    def __init__(
        self,
        app: PersonDetectionApp,
        policy: Policy,
        trace: PiecewiseConstantTrace,
        schedule: EventSchedule,
        mcu: MCUProfile = APOLLO4,
        storage: Supercapacitor | None = None,
        checkpoint: CheckpointModel | None = None,
        config: SimulationConfig | None = None,
        tracer=None,
    ) -> None:
        if not isinstance(trace, PiecewiseConstantTrace):
            # The span loop, the recharge loops and the context's power
            # reads all work on the piecewise-constant segment tables.
            raise ConfigurationError(
                "the simulation engine needs a PiecewiseConstantTrace, got "
                f"{type(trace).__name__}"
            )
        self.app = app
        self.policy = policy
        self.trace = trace
        self.schedule = schedule
        self.mcu = mcu
        self.storage = storage or Supercapacitor()
        self.checkpoint = checkpoint or CheckpointModel()
        self.config = config or SimulationConfig()
        #: Optional :class:`repro.obs.TraceSink` receiving typed timeline
        #: events (capture/decision/ibo/power_fail/checkpoint/restore/
        #: recharge) — the engine's one observer hook.  Results stay
        #: bit-identical with or without one.
        self.tracer = tracer

        self.buffer = InputBuffer(self.config.buffer_capacity)
        self.metrics = RunMetrics()
        self.rng = np.random.default_rng(self.config.seed)
        # The differencing-filter draws use a separate stream advanced once
        # per capture, so every policy simulated at the same seed sees the
        # *identical* arrival sequence (the paper gets this repeatability
        # from its secondary-MCU event rig, section 6.2).
        self._capture_rng = np.random.default_rng((self.config.seed, 0xD1FF))
        self._cost_jitter = None
        if self.config.cost_jitter_sigma > 0:
            from repro.workload.variability import CostJitterModel

            self._cost_jitter = CostJitterModel(
                self.config.cost_jitter_sigma,
                np.random.default_rng((self.config.seed, 0xC057)),
            )
        self.now = 0.0
        self.hard_end = self.schedule.end_time + self.config.drain_timeout_s
        self._capture_index = 1  # first capture at one full period
        # Hot-path trace queries: a stateful monotone cursor.
        self._tq = trace.cursor()
        # The fused recharge loop skips `time_to_harvest` on ticks where the
        # restart level is unreachable; that shortcut needs the guarantee
        # that the trace can always eventually refill the store (periodic
        # with positive energy per period), otherwise the general loop's
        # starvation detection must run.
        self._recharge_fast = (
            trace.period is not None and trace._energy_per_period > 0
        )
        # Differencing-filter draws are consumed in stream order but fetched
        # in chunks (Generator.random(n) yields the identical sequence to n
        # scalar draws), held as a float64 buffer view like the cursor's.
        self._rng_chunk = memoryview(np.empty(0))
        self._rng_pos = 0
        # Index of the last event started by the latest capture tick (the
        # monotone event lookup in _fire_due_captures).
        self._ev_idx = 0
        self._charge_overhead = self.config.charge_policy_overhead
        # Policies that keep the base class's no-op observers (on_capture /
        # on_job_complete are documentation-only `pass` bodies on Policy)
        # skip the per-capture / per-job call entirely; state is unchanged
        # either way, so this is behavior-preserving for both code paths.
        self._on_capture_hook = (
            policy.on_capture
            if type(policy).on_capture is not Policy.on_capture
            else None
        )
        self._on_complete_hook = (
            policy.on_job_complete
            if type(policy).on_job_complete is not Policy.on_job_complete
            else None
        )
        self._max_trace_power = trace.max_power
        # Candidate reuse: pending_summary() rows change only when the
        # buffer does, so the JobCandidate built for a row is reused while
        # its (oldest, newest, count) triple is unchanged.
        self._candidate_cache: dict[str, JobCandidate] = {}
        # Reused SchedulingContext (see _invoke_policy).
        self._ctx: SchedulingContext | None = None
        # Conservative default; run() refines it after policy.prepare(),
        # when the policy knows whether its estimator consumes spans.
        self._want_spans = self._on_complete_hook is not None
        # Last span seen by the fused _advance_to loop: power is constant on
        # a trace segment, and time only moves forward, so `power(self.now)`
        # equals the cached value while `self.now < _span_until`.
        self._span_power = 0.0
        self._span_until = -1.0
        self._policy_cost: tuple[float, float, float] | None = None
        # Bound once: _execute_job calls the planner once per job.
        self._app_plan = app.plan
        # Checkpoint reserve, resolved once for the run-block loops in
        # _invoke_policy and _execute_job (the checkpoint model is per-run
        # constant).
        self._ckpt_reserve = self.checkpoint.save_energy_j
        self._ckpt_threshold = self._ckpt_reserve + _ENERGY_EPS
        # Known job names as a frozenset: the per-decision validation probe
        # stays at C speed instead of JobSet.__contains__'s call frame.
        self._job_names = frozenset(app.jobs._by_name)
        # Loop-invariant _advance_to preamble, packed so the hot path pays
        # one attribute load + tuple unpack instead of a dozen lookups.
        # The trailing TraceCursor internals feed the inlined span query.
        capacity = self.storage._capacity
        tq = self._tq
        self._adv_consts = (
            tq.span_at,
            self.storage,
            self.metrics,
            capacity,
            -1e-9 * (capacity if capacity > 1.0 else 1.0),
            self.hard_end,
            self.hard_end - TIME_EPSILON,
            self.config.capture_period_s,
            tq,
            tq._times,
            tq._powers,
            tq._n,
            tq._period,
        )
        # Loop-invariant capture-firing state, including the schedule's
        # lookup lists.  The dicts are the buffer's internals by identity;
        # the buffer only replaces them in clear(), after the last capture
        # of the run.
        self._cap_consts = (
            self.config.capture_period_s,
            self.tracer,
            *schedule._lookup_lists(),
            schedule.diff_probability,
            schedule.background_diff_probability,
            self._on_capture_hook,
            self.buffer,
            self.buffer._entries,
            self.buffer._by_job,
            self.buffer._stats,
            self.buffer._capacity,
            app.entry_job,
        )
        self._ran = False

    # ------------------------------------------------------------------ run --

    def run(self) -> RunMetrics:
        """Execute the simulation and return its metrics (single use)."""
        if self._ran:
            raise SimulationError("SimulationEngine instances are single-use")
        self._ran = True
        if self.tracer is not None:
            # Policies with internal observable state (the Quetzal PID)
            # emit their own events into the same stream.
            attach = getattr(self.policy, "attach_tracer", None)
            if attach is not None:
                attach(self.tracer)
        self.policy.prepare(self.app.jobs, self.config.capture_period_s)
        # Read after prepare(): policies may only then know whether their
        # estimator consumes realised task spans.  Skipping span timing is
        # behaviour-preserving — the spans feed only the policy's observe
        # loop, which such policies never run.
        self._want_spans = self._on_complete_hook is not None and getattr(
            self.policy, "needs_task_spans", True
        )
        hard_end_eps = self.hard_end - TIME_EPSILON
        sched_end = self.schedule.end_time
        cap_period = self.config.capture_period_s
        entries = self.buffer._entries
        try:
            while True:
                if self.now >= hard_end_eps:
                    break
                if entries:
                    decision = self._invoke_policy()
                    self._execute_job(decision)
                else:
                    next_capture = self._capture_index * cap_period
                    if next_capture > sched_end:
                        break  # nothing left to capture or process
                    self._idle_until(next_capture)
        except _RunEnded:
            pass
        self._finalize()
        return self.metrics

    def resume_at(
        self, now: float, energy_j: float, metrics: RunMetrics,
        capture_index: int, capture_draws: int, classify_draws: int, pending,
    ) -> None:
        """Place this unrun engine at a ``run()`` loop head reached elsewhere.

        No job is in flight there; ``pending`` holds ``(capture_time,
        interesting, job_name)`` rows in capture order (``enqueue_time``,
        which nothing reads, becomes the capture time).  The span and
        cursor caches start cold and re-derive the same values, so
        ``run()`` continues bit-identically.
        """
        self.now = now
        self.storage.set_energy(energy_j)
        vars(self.metrics).update(vars(metrics))
        self.metrics.option_use = {t: dict(c) for t, c in metrics.option_use.items()}
        self._capture_index = capture_index
        # Generator.random(n) consumes exactly n scalar draws.
        chunks, self._rng_pos = divmod(capture_draws, _CAP_CHUNK)
        self._capture_rng.random(chunks * _CAP_CHUNK)
        if self._rng_pos:
            self._rng_chunk = memoryview(self._capture_rng.random(_CAP_CHUNK))
        self.rng.random(classify_draws)
        for capture_time, interesting, job_name in pending:
            self.buffer.try_insert(
                BufferedInput(capture_time, interesting, job_name, capture_time)
            )

    # ---------------------------------------------------------- time advance --

    def _next_capture_time(self) -> float:
        return self._capture_index * self.config.capture_period_s

    def _check_hard_end(self) -> None:
        if self.now >= self.hard_end - TIME_EPSILON:
            raise _RunEnded

    def _fire_due_captures(self) -> None:
        """Fire every capture tick due by ``now`` — the one capture body.

        Per tick: look up the event in progress, draw the differencing
        filter, then insert the input or count an IBO drop.  An attached
        sink gets the ``capture`` row before the policy's ``on_capture``
        hook and the ``ibo`` row after the drop is counted.  Captures touch
        neither the store nor the energy metrics.
        """
        (
            cap_period,
            tracer,
            ev_starts,
            ev_ends,
            ev_interesting,
            diff_p,
            bg_diff_p,
            hook,
            buffer,
            entries,
            by_job,
            stats_map,
            cap,
            entry_job,
        ) = self._cap_consts
        limit = self.now + TIME_EPSILON
        idx = self._capture_index
        t = idx * cap_period
        if t > limit:
            return
        metrics = self.metrics
        chunk = self._rng_chunk
        pos = self._rng_pos
        eidx = self._ev_idx
        fired = 0
        while t <= limit:
            fired += 1
            # Capture times only increase, so the event index moves forward,
            # usually by zero or one step; a longer jump bisects.  Before the
            # first event starts, eidx stays 0 and no event is in progress.
            # The trailing inf start stops the scan after the last event.
            if ev_starts[eidx] <= t:
                nxt = eidx + 1
                if ev_starts[nxt] <= t:
                    eidx = nxt
                    if ev_starts[nxt + 1] <= t:
                        eidx = bisect_right(ev_starts, t) - 1
                in_event = t < ev_ends[eidx]
            else:
                in_event = False
            # One draw per capture keeps the arrival stream identical across
            # policies at a given seed, whether or not an event is in
            # progress.  Draws are prefetched in chunks from the same stream.
            if pos == len(chunk):
                chunk = memoryview(self._capture_rng.random(_CAP_CHUNK))
                self._rng_chunk = chunk
                pos = 0
            diff_draw = chunk[pos]
            pos += 1
            if in_event:
                active = diff_draw < diff_p
                interesting = active and ev_interesting[eidx]
            else:
                active = diff_draw < bg_diff_p
                interesting = False
            if interesting:
                metrics.captures_interesting += 1
            if tracer is not None:
                tracer.emit(TraceEvent(t, "capture", data={
                    "occupancy": len(entries),
                    "energy_j": self.storage._energy,
                    "power_w": self._tq.power(t),
                    "active": active,
                    "interesting": interesting,
                    "event": in_event,
                }))
            if hook is not None:
                hook(t, active)  # positional: ~55k calls/run, kwargs cost real time
            if active:
                metrics.captures_active += 1
                if cap is not None and len(entries) >= cap:
                    # Overflow: the input is dropped before an entry is
                    # built.
                    metrics.ibo_drops += 1
                    if interesting:
                        metrics.ibo_drops_interesting += 1
                    if tracer is not None:
                        tracer.emit(TraceEvent(t, "ibo", data={
                            "interesting": interesting,
                        }))
                else:
                    # InputBuffer.try_insert minus the guards a freshly
                    # constructed entry cannot trip (not-buffered, unique
                    # input_id); BufferedInput.__init__ bypassed
                    # slot-for-slot, with the same id drawn from the same
                    # shared counter.
                    entry = _OBJ_NEW(BufferedInput)
                    entry.capture_time = t
                    entry.interesting = interesting
                    entry._job_name = entry_job
                    entry.enqueue_time = t
                    entry.input_id = next(_input_ids)
                    entry._buffer = buffer
                    entry._seq = buffer._next_seq
                    buffer._next_seq += 1
                    entries[entry.input_id] = entry
                    pending = by_job.get(entry_job)
                    if pending is None:
                        pending = by_job[entry_job] = {}
                    pending[entry.input_id] = entry
                    stats_map.pop(entry_job, None)
                    metrics.stored += 1
            idx += 1
            t = idx * cap_period
        # Batched: integer adds commute and nothing in the loop reads it.
        metrics.captures_total += fired
        self._rng_pos = pos
        self._capture_index = idx
        self._ev_idx = eidx

    def _advance_to(
        self, target_s: float, draw_w: float, stop_energy_j: float | None = None
    ) -> bool:
        """Advance time to ``target_s`` drawing ``draw_w`` watts.

        Fires captures crossed along the way.  If ``stop_energy_j`` is set
        and the store would drain to that level first, stops there and
        returns True (depleted).  Returns False when ``target_s`` was
        reached.  Raises :class:`_RunEnded` at the hard end.
        """
        # Fused multi-segment step: one flat loop walks every trace boundary
        # up to the target with a single cursor query per span and the span
        # accounting inlined, including Supercapacitor.draw / .harvest's
        # arithmetic in their operation order (the store ends where those
        # methods would leave it).  The two energy metrics fold through
        # locals and are flushed before any call-out.
        now = self.now
        target_eps = target_s - TIME_EPSILON
        if now >= target_eps:
            return False
        (
            span_at,
            storage,
            metrics,
            capacity,
            overdraw_floor,
            hard_end,
            hard_end_eps,
            cap_period,
            tr_cur,
            tr_times,
            tr_powers,
            tr_n,
            tr_period,
        ) = self._adv_consts
        e_consumed = metrics.energy_consumed_j
        e_harvested = metrics.energy_harvested_j
        energy = storage._energy
        target = target_s
        has_stop = stop_energy_j is not None
        # _capture_index only moves inside _fire_due_captures, so the next
        # capture time is loop-invariant between firings.
        next_cap = self._capture_index * cap_period
        # Span reuse: power is constant on [query time, nb), and time only
        # moves forward, so the last span answers every query until `now`
        # crosses its boundary — including spans cached by a previous
        # _advance_to call.
        sp_power = self._span_power
        sp_until = self._span_until
        while now < target_eps:
            if now >= hard_end_eps:
                self.now = now
                metrics.energy_consumed_j = e_consumed
                metrics.energy_harvested_j = e_harvested
                raise _RunEnded
            boundary = next_cap
            if target < boundary:
                boundary = target
            if now < sp_until:
                p_in = sp_power
                nb = sp_until
            else:
                if tr_period is not None and now >= 0:
                    # TraceCursor.span_at inlined for the periodic trace
                    # (the benchmark shape): same fold, the same cached
                    # segment-index discipline with the same bisect
                    # fallback, and the same boundary arithmetic —
                    # identical floats, no call frame.
                    k = math.floor(now / tr_period)
                    local = now - k * tr_period
                    if local >= tr_period:
                        local -= tr_period
                        k += 1
                    seg = tr_cur._idx
                    if tr_times[seg] <= local:
                        nxt_seg = seg + 1
                        if not (nxt_seg == tr_n or local < tr_times[nxt_seg]):
                            if (
                                nxt_seg + 1 == tr_n
                                or local < tr_times[nxt_seg + 1]
                            ):
                                if tr_times[nxt_seg] <= local:
                                    seg = tr_cur._idx = nxt_seg
                                else:
                                    seg = bisect_right(tr_times, local) - 1
                                    tr_cur._idx = seg if seg >= 0 else 0
                            else:
                                seg = bisect_right(tr_times, local) - 1
                                tr_cur._idx = seg if seg >= 0 else 0
                    else:
                        seg = bisect_right(tr_times, local) - 1
                        tr_cur._idx = seg if seg >= 0 else 0
                    p_in = tr_powers[seg]
                    if seg + 1 < tr_n:
                        nb = k * tr_period + tr_times[seg + 1]
                    else:
                        nb = k * tr_period + tr_period
                    if nb <= now:
                        nb = math.nextafter(now, math.inf)
                else:
                    p_in, nb = span_at(now)
                self._span_power = sp_power = p_in
                self._span_until = sp_until = nb
            if nb < boundary:
                boundary = nb
            if hard_end < boundary:
                boundary = hard_end
            net = draw_w - p_in
            if has_stop and net > 0:
                margin = energy - stop_energy_j
                if margin <= _ENERGY_EPS:
                    self.now = now
                    metrics.energy_consumed_j = e_consumed
                    metrics.energy_harvested_j = e_harvested
                    return True
                t_depleted = now + margin / net
                if t_depleted < boundary - TIME_EPSILON:
                    dt = t_depleted - now
                    if dt > 0:
                        e_consumed += draw_w * dt
                        remaining = energy - net * dt
                        if remaining < overdraw_floor:
                            metrics.energy_consumed_j = e_consumed
                            metrics.energy_harvested_j = e_harvested
                            raise SimulationError(
                                f"energy overdraw: drew {net * dt} J with only "
                                f"{energy} J stored"
                            )
                        storage._energy = energy = (
                            remaining if remaining > 0.0 else 0.0
                        )
                        e_harvested += p_in * dt
                    self.now = now = t_depleted
                    metrics.energy_consumed_j = e_consumed
                    metrics.energy_harvested_j = e_harvested
                    if next_cap <= now + TIME_EPSILON:
                        self._fire_due_captures()
                    return True
            dt = boundary - now
            if dt > 0:
                e_consumed += draw_w * dt
                if net >= 0:
                    remaining = energy - net * dt
                    if remaining < overdraw_floor:
                        metrics.energy_consumed_j = e_consumed
                        metrics.energy_harvested_j = e_harvested
                        raise SimulationError(
                            f"energy overdraw: drew {net * dt} J with only "
                            f"{energy} J stored"
                        )
                    storage._energy = energy = (
                        remaining if remaining > 0.0 else 0.0
                    )
                    e_harvested += p_in * dt
                else:
                    amount = -net * dt
                    headroom = capacity - energy
                    stored = amount if amount < headroom else headroom
                    storage._energy = energy = energy + stored
                    e_harvested += draw_w * dt + stored
            now = boundary
            if next_cap <= now + TIME_EPSILON:
                self.now = now
                metrics.energy_consumed_j = e_consumed
                metrics.energy_harvested_j = e_harvested
                self._fire_due_captures()
                next_cap = self._capture_index * cap_period
        self.now = now
        metrics.energy_consumed_j = e_consumed
        metrics.energy_harvested_j = e_harvested
        return False

    def _recharge_to_restart(self) -> None:
        """Dead device: harvest (drawing nothing) until the restart level."""
        if not self._recharge_fast:
            return self._recharge_to_restart_general()
        # Fused recharge loop.  Two observations beat down the general
        # loop's per-tick cost:
        #
        # * `time_to_harvest`'s result only matters on the tick where the
        #   recharge actually completes — on every earlier tick the boundary
        #   clamps to the next capture time regardless of the wait.  So
        #   integrate up to the tick first (that value is the harvest to
        #   book anyway) and only fall back to `time_to_harvest` — and the
        #   general loop's exact boundary arithmetic — when the deficit is
        #   reachable within the tick.
        # * consecutive ticks share an integration endpoint: this tick's cap
        #   is the next tick's `now`, so its fold and cumulative-energy
        #   lookup are cached and reused, leaving one segment resolution per
        #   tick.  The inlined storage/metrics updates replicate
        #   `Supercapacitor.harvest` / `deficit_to_restart_j` and the
        #   cursor's `integrate` float-for-float, in the same order.
        #
        # Guarded by `_recharge_fast`: the trace is periodic with positive
        # energy per period, so starvation (the isinf branch of the general
        # loop) is impossible here.
        start = now = self.now
        storage = self.storage
        metrics = self.metrics
        tq = self._tq
        fold = tq._fold
        efz = tq._energy_from_zero
        epp = tq._epp
        integrate = tq.integrate
        hard_end = self.hard_end
        hard_end_eps = hard_end - TIME_EPSILON
        cap_period = self.config.capture_period_s
        capacity = storage._capacity
        restart = storage._restart_energy
        energy = storage._energy
        e_harvested = metrics.energy_harvested_j
        cache_t = -1.0  # endpoint whose (whole periods, E) fold is cached
        cache_k = 0
        cache_e = 0.0
        nc = self._capture_index * cap_period
        while True:
            deficit = restart - energy  # <= eps ⟺ max(0.0, ·) <= eps
            if deficit <= _ENERGY_EPS:
                break
            if now >= hard_end_eps:
                self.now = now
                storage._energy = energy
                metrics.energy_harvested_j = e_harvested
                raise _RunEnded
            cap = nc if nc < hard_end else hard_end
            if now == cache_t:
                k0 = cache_k
                e0 = cache_e
            else:
                local0, k0 = fold(now)
                e0 = efz(local0)
            local1, k1 = fold(cap)
            e1 = efz(local1)
            e_cap = (k1 - k0) * epp + e1 - e0
            if e_cap < deficit:
                boundary = cap
                harvested = e_cap
                cache_t, cache_k, cache_e = cap, k1, e1
            else:
                # Completes within this tick: reproduce the general loop's
                # boundary computation exactly.
                wait = tq.time_to_harvest(now, deficit)
                boundary = now + wait
                if nc < boundary:
                    boundary = nc
                if hard_end < boundary:
                    boundary = hard_end
                harvested = integrate(now, boundary)
                cache_t = -1.0
            if harvested < 0:
                storage._energy = energy
                metrics.energy_harvested_j = e_harvested
                raise SimulationError(
                    f"cannot harvest negative energy {harvested}"
                )
            headroom = capacity - energy
            stored = harvested if harvested < headroom else headroom
            energy += stored
            e_harvested += stored
            self.now = now = boundary
            if nc <= now + TIME_EPSILON:
                storage._energy = energy
                metrics.energy_harvested_j = e_harvested
                self._fire_due_captures()
                energy = storage._energy
                e_harvested = metrics.energy_harvested_j
                nc = self._capture_index * cap_period
        storage._energy = energy
        metrics.energy_harvested_j = e_harvested
        metrics.recharge_time_s += now - start
        if self.tracer is not None and now > start:
            self.tracer.emit(TraceEvent(start, "recharge", dur=now - start))

    def _recharge_to_restart_general(self) -> None:
        """Recharge loop for any trace, including one that runs dry.

        The only loop for traces without a positive-energy period (an
        aperiodic replay, or a zero-energy period), where the fused loop in
        :meth:`_recharge_to_restart` cannot assume the store always refills.
        When ``time_to_harvest`` reports the restart level unreachable, the
        device starves until the hard end of the run.
        """
        start = self.now
        while True:
            deficit = self.storage.deficit_to_restart_j()
            if deficit <= _ENERGY_EPS:
                break
            self._check_hard_end()
            wait = self._tq.time_to_harvest(self.now, deficit)
            if math.isinf(wait):
                # The trace can never refill the store: starve to run end.
                self.metrics.recharge_time_s += self.hard_end - self.now
                self.now = self.hard_end
                raise _RunEnded
            boundary = min(self.now + wait, self._next_capture_time(), self.hard_end)
            harvested = self._tq.integrate(self.now, boundary)
            self.metrics.energy_harvested_j += self.storage.harvest(harvested)
            self.now = boundary
            self._fire_due_captures()
        self.metrics.recharge_time_s += self.now - start
        if self.tracer is not None and self.now > start:
            self.tracer.emit(TraceEvent(start, "recharge", dur=self.now - start))

    def _power_failure(self) -> None:
        """JIT checkpoint: save, die, recharge, restore."""
        self.metrics.power_failures += 1
        tracer = self.tracer
        checkpoint = self.checkpoint
        if tracer is not None:
            tracer.emit(TraceEvent(self.now, "power_fail"))
        t0 = self.now
        self._pay_overhead(checkpoint.save_time_s, checkpoint.save_energy_j)
        if tracer is not None:
            tracer.emit(TraceEvent(t0, "checkpoint", dur=self.now - t0))
        self._recharge_to_restart()
        t0 = self.now
        self._pay_overhead(checkpoint.restore_time_s, checkpoint.restore_energy_j)
        if tracer is not None:
            tracer.emit(TraceEvent(t0, "restore", dur=self.now - t0))

    def _pay_overhead(self, time_s: float, energy_j: float) -> None:
        """Charge a fixed time+energy overhead (checkpoint save/restore).

        Zero-duration overheads draw straight from the store, and the
        consumed metric counts exactly what was drawn (so the energy books
        balance).  If the store cannot cover the full amount, the device
        browns out mid-overhead: that is a power failure, after which it
        recharges to the restart level and pays the remainder.
        """
        if time_s > 0:
            self._advance_to(self.now + time_s, energy_j / time_s)
            return
        remaining = energy_j
        while remaining > _ENERGY_EPS:
            step = min(remaining, self.storage.energy_j)
            if step > 0:
                self.storage.draw(step)
                self.metrics.energy_consumed_j += step
                remaining -= step
            if remaining > _ENERGY_EPS:
                self.metrics.power_failures += 1
                if self.tracer is not None:
                    self.tracer.emit(TraceEvent(self.now, "power_fail", data={
                        "during": "overhead",
                    }))
                self._recharge_to_restart()

    def _idle_until(self, target_s: float) -> None:
        """Sleep (harvesting) until ``target_s``; ride through brownouts."""
        while self.now < target_s - TIME_EPSILON:
            depleted = self._advance_to(
                target_s, self.mcu.sleep_power_w, stop_energy_j=0.0
            )
            if depleted:
                # Sleep-state brownout: no checkpoint needed, state is
                # retained in NVM; simply wait for the restart threshold.
                self._recharge_to_restart()

    # ----------------------------------------------------------------- policy --

    def _invoke_policy(self) -> Decision:
        buffer = self.buffer
        # One context object per run, re-populated per decision: the
        # SchedulingContext contract says it is only valid for the duration
        # of select() (policies must copy what they keep), so reuse is
        # invisible to a conforming policy and saves an allocation on every
        # decision.
        context = self._ctx
        if context is None:
            context = self._ctx = _OBJ_NEW(SchedulingContext)
        # Incremental candidate state, inlined (one policy invocation per
        # executed job makes this the hottest buffer read).  Between
        # decisions the buffer usually changes by one entry (the processed
        # input leaves, a few captures arrive), so most per-job stats rows
        # are unchanged and their frozen JobCandidate can be reused as-is.
        # Field-for-field the reused object is what a rebuild would produce
        # (identity on oldest/newest, equal count); pending_summary()'s
        # per-job (oldest, newest, min_seq) stats and oldest-first order
        # are preserved.
        by_job = buffer._by_job
        stats_map = buffer._stats
        stats = buffer._job_stats
        n_jobs = len(by_job)
        if n_jobs == 2:
            # The overwhelmingly common non-trivial shape (detect + transmit
            # pending): order the pair by min_seq directly — seqs are
            # unique, so the `>` swap reproduces sorted()'s oldest-first
            # order — and keep the fetched stats rows for the candidate
            # loop below.
            it = iter(by_job)
            job_a = next(it)
            job_b = next(it)
            row_a = stats_map.get(job_a)
            if row_a is None:
                row_a = stats(job_a)
            row_b = stats_map.get(job_b)
            if row_b is None:
                row_b = stats(job_b)
            if row_a[2] > row_b[2]:
                ordered = ((job_b, row_b), (job_a, row_a))
            else:
                ordered = ((job_a, row_a), (job_b, row_b))
        elif n_jobs == 1:
            for job_a in by_job:
                row_a = stats_map.get(job_a)
                if row_a is None:
                    row_a = stats(job_a)
            ordered = ((job_a, row_a),)
        else:
            names = sorted(
                by_job,
                key=lambda job: (stats_map.get(job) or stats(job))[2],
            )
            ordered = tuple(
                (job, stats_map.get(job) or stats(job)) for job in names
            )
        cache = self._candidate_cache
        candidates = []
        for job_name, row in ordered:
            oldest, newest, _ = row
            count = len(by_job[job_name])
            candidate = cache.get(job_name)
            if (
                candidate is None
                or candidate.oldest is not oldest
                or candidate.newest is not newest
                or candidate.pending_count != count
            ):
                candidate = _OBJ_NEW(JobCandidate)
                cd = candidate.__dict__
                cd["job"] = self.app.jobs.job(job_name)
                cd["oldest"] = oldest
                cd["newest"] = newest
                cd["pending_count"] = count
                cache[job_name] = candidate
            candidates.append(candidate)
        d = context.__dict__
        now = self.now
        d["now_s"] = now
        d["candidates"] = candidates
        d["buffer_occupancy"] = len(buffer._entries)
        d["buffer_limit"] = buffer._capacity
        d["true_input_power_w"] = (
            self._span_power if now < self._span_until else self._tq.power(now)
        )
        d["max_trace_power_w"] = self._max_trace_power
        decision = self.policy.select(context)
        # _validate_decision inlined (runs once per decision): cheap guard
        # checks first — a frozenset probe and the slot read behind the
        # job_name property — the error formatting stays in the cold helper.
        entry = decision.entry
        if (
            decision.job_name not in self._job_names
            or buffer._entries.get(entry.input_id) is not entry
            or entry._job_name != decision.job_name
        ):
            self._validate_decision(decision)
        if self.tracer is not None:
            job = self.app.jobs.job(decision.job_name)
            deg_task = job.degradable_task
            option = decision.chosen_options.get(deg_task.name, deg_task.highest_quality)
            self.tracer.emit(TraceEvent(self.now, "decision", data={
                "job": decision.job_name,
                "option": option.name,
                "degraded": decision.degraded,
                "ibo_predicted": decision.ibo_predicted,
                "predicted_service_s": decision.predicted_service_s,
            }))
            if decision.degraded:
                self.tracer.emit(TraceEvent(self.now, "degradation", data={
                    "job": decision.job_name,
                    "option": option.name,
                }))
        metrics = self.metrics
        metrics.policy_invocations += 1
        if decision.ibo_predicted:
            metrics.ibo_predictions += 1
        if self._charge_overhead:
            # The policy's invocation cost is constant across a run (it
            # depends only on the prepared job set), so the cost pair and
            # its power quotient are resolved once.
            cost = self._policy_cost
            if cost is None:
                time_s, energy_j = self.policy.invocation_cost(self.mcu)
                cost = self._policy_cost = (
                    time_s,
                    energy_j,
                    energy_j / time_s if time_s > 0 else 0.0,
                )
            time_s, energy_j, power_w = cost
            if time_s > 0:
                metrics.policy_time_s += time_s
                metrics.policy_energy_j += energy_j
                # The run-block loop of _execute_job (once per decision).
                remaining = time_s
                reserve = self._ckpt_reserve
                storage = self.storage
                while remaining > TIME_EPSILON:
                    if storage._energy <= self._ckpt_threshold:
                        self._recharge_to_restart()
                    start = self.now
                    depleted = self._advance_to(
                        start + remaining, power_w, stop_energy_j=reserve
                    )
                    remaining -= self.now - start
                    if depleted and remaining > TIME_EPSILON:
                        self._power_failure()
        return decision

    def _validate_decision(self, decision: Decision) -> None:
        if decision.job_name not in self.app.jobs:
            raise SchedulingError(f"policy selected unknown job {decision.job_name!r}")
        if decision.entry not in self.buffer:
            raise SchedulingError(
                f"policy selected input {decision.entry.input_id} not in buffer"
            )
        if decision.entry.job_name != decision.job_name:
            raise SchedulingError(
                f"input {decision.entry.input_id} is pending job "
                f"{decision.entry.job_name!r}, not {decision.job_name!r}"
            )

    # -------------------------------------------------------------------- jobs --

    def _execute_job(self, decision: Decision) -> None:
        entry = decision.entry
        plan = self._app_plan(
            decision.job_name, entry.interesting, decision.chosen_options, self.rng
        )
        started = self.now
        complete_hook = self._on_complete_hook
        jitter = self._cost_jitter
        want_spans = self._want_spans
        task_spans: dict[str, float] = {} if want_spans else _NO_SPANS
        reserve = self._ckpt_reserve
        threshold = self._ckpt_threshold
        storage = self.storage
        try:
            for planned in plan.planned:
                if not planned.executes:
                    continue
                cost: TaskCost = planned.option.cost
                if jitter is not None:
                    cost = jitter.jittered(cost)
                t0 = self.now
                # Run-block loop: run the task intermittently, recharging
                # first when the store is at the checkpoint reserve and
                # checkpointing across a mid-task power failure.
                remaining = cost.t_exe_s
                power_w = cost.p_exe_w
                while remaining > TIME_EPSILON:
                    if storage._energy <= threshold:
                        self._recharge_to_restart()
                    start = self.now
                    depleted = self._advance_to(
                        start + remaining, power_w, stop_energy_j=reserve
                    )
                    remaining -= self.now - start
                    if depleted and remaining > TIME_EPSILON:
                        self._power_failure()
                if want_spans:
                    task_spans[planned.ref.task.name] = self.now - t0
        except _RunEnded:
            # Job cut off by the end of the run; its input stays buffered
            # and is counted as leftover by _finalize.
            raise

        outcome = plan.outcome
        if outcome.remove_input:
            # InputBuffer.remove inlined, minus its membership guard: the
            # decision was validated against the buffer and task execution
            # only *inserts* captures, so the entry is still present by
            # construction.
            buffer = self.buffer
            del buffer._entries[entry.input_id]
            job_name = entry._job_name
            pending = buffer._by_job[job_name]
            del pending[entry.input_id]
            if not pending:
                del buffer._by_job[job_name]
            buffer._stats.pop(job_name, None)
            entry._buffer = None
        elif outcome.respawn_job is not None:
            # Job spawning (paper section 5.2): the input stays buffered in
            # place, re-indexed under the follow-on job.
            self.buffer.retag(entry, outcome.respawn_job, enqueue_time=self.now)

        metrics = self.metrics
        metrics.jobs_completed += 1
        if decision.degraded:
            metrics.jobs_degraded += 1
        deg_task = plan.job._degradable_ref.task  # degradable_task, sans property
        deg_name = deg_task.name
        chosen = decision.chosen_options.get(deg_name, deg_task.highest_quality)
        # metrics.record_option_use inlined (once per completed job).
        per_task = metrics.option_use.get(deg_name)
        if per_task is None:
            per_task = metrics.option_use[deg_name] = {}
        chosen_name = chosen.name
        per_task[chosen_name] = per_task.get(chosen_name, 0) + 1
        if outcome.false_negative:
            metrics.false_negatives += 1
        elif outcome.classified_positive is False:
            metrics.true_negatives += 1
        if outcome.packet_quality is not None:
            self._record_packet(entry.interesting, outcome.packet_quality)

        if decision.predicted_service_s is not None:
            error = (self.now - started) - decision.predicted_service_s
            metrics.prediction_count += 1
            metrics.prediction_error_s += error
            metrics.prediction_abs_error_s += abs(error)

        if complete_hook is not None:
            # Frozen-dataclass bypass (same trick as SchedulingContext /
            # JobCandidate): __init__ costs an object.__setattr__ per field.
            record = _OBJ_NEW(CompletionRecord)
            d = record.__dict__
            d["decision"] = decision
            d["started_s"] = started
            d["finished_s"] = self.now
            # Shared with every record built from this cached plan (the
            # mapping is a pure function of the plan; read-only downstream).
            d["executed_by_task"] = plan.executed_by_task
            d["outcome"] = outcome
            d["task_spans"] = task_spans
            complete_hook(record)

    def _record_packet(self, interesting: bool, quality: str) -> None:
        metrics = self.metrics
        if quality not in ("high", "low"):
            raise SimulationError(f"unknown packet quality {quality!r}")
        high = quality == "high"
        if interesting and high:
            metrics.packets_interesting_high += 1
        elif interesting:
            metrics.packets_interesting_low += 1
        elif high:
            metrics.packets_uninteresting_high += 1
        else:
            metrics.packets_uninteresting_low += 1

    # ---------------------------------------------------------------- finalize --

    def _finalize(self) -> None:
        self.metrics.sim_end_s = self.now
        leftovers = self.buffer.clear()
        self.metrics.leftover_total = len(leftovers)
        self.metrics.leftover_interesting = sum(1 for e in leftovers if e.interesting)
        # Decision-path work counters (policies without a cached decision
        # path leave the RunMetrics fields at their zero defaults).  These
        # describe implementation effort and are left out of the golden
        # RunMetrics digests.
        stats = getattr(self.policy, "decision_stats", None)
        if stats is not None:
            self.metrics.decision_cache_hits = stats.cache_hits
            self.metrics.decision_cache_misses = stats.cache_misses
            self.metrics.decision_scored_candidates = stats.scored_candidates
            self.metrics.degradation_walks = stats.degradation_walks
            self.metrics.degradation_walk_steps = stats.degradation_walk_steps


def simulate(
    app: PersonDetectionApp,
    policy: Policy,
    trace: PiecewiseConstantTrace,
    schedule: EventSchedule,
    mcu: MCUProfile = APOLLO4,
    storage: Supercapacitor | None = None,
    checkpoint: CheckpointModel | None = None,
    config: SimulationConfig | None = None,
    tracer=None,
) -> RunMetrics:
    """Convenience wrapper: build an engine, run it, return the metrics."""
    engine = SimulationEngine(
        app, policy, trace, schedule, mcu=mcu, storage=storage,
        checkpoint=checkpoint, config=config, tracer=tracer,
    )
    return engine.run()
