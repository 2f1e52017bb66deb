"""Vectorized fleet kernel: a dense packed-state lockstep engine for shards.

``run_fleet`` advances one scalar :class:`~repro.sim.engine.SimulationEngine`
per device, so fleet cost scales as devices x simulated seconds of pure
Python.  This module advances a whole shard of *baseline-policy* devices in
lockstep instead.  Per-device state lives in four row-major hot-state
matrices (float64 / int64 / int8 / bool), one row per field, one column per
live lane; handler fields are views of those rows, so every handler touches
a handful of contiguous slabs instead of ~15 scattered arrays.

The CTRL/ADV/RECHG handlers run *dense*: full-width elementwise arithmetic
over all live columns plus ``np.copyto(..., where=mask)`` stores, rather
than fancy-index gather/scatter over the live subset.  Dense ops cost one
pass over the columns regardless of how many lanes are in the state, which
beats gathers once each state holds a reasonable fraction of lanes — and
the batch *compacts* (harvests finished columns and shrinks every matrix)
as lanes die, so full width tracks the live population and the longest-
lived stragglers no longer drag near-empty rounds.  Below
``_MIGRATE_LANES`` live lanes, a near-empty round costs more per lane
than the scalar engine, so each remaining lane *migrates*: at its next
CTRL step (the engine's loop head, where no job is in flight) its state
moves onto a fresh :class:`~repro.sim.engine.SimulationEngine`
(``SimulationEngine.resume_at``), which finishes the run from there.

The contract is the one ``tests/fleet/test_kernel_parity.py`` pins against
the scalar engine, whose own results ``tests/sim/test_golden_runs.py`` holds
to committed digests: **bit-identical** :class:`RunMetrics`, not
approximately equal.  Three facts make that reachable:

* elementwise numpy float64 arithmetic is IEEE-identical to the equivalent
  Python-float expression, so replaying the scalar engine's per-span
  operations (same operands, same order) in arrays reproduces its floats —
  and masked full-width compute keeps this property, because masked-out
  columns' results (including inf/nan garbage) are simply never stored;
* fleet traces are sampled on an integer grid (``times[i] == float(i)``,
  ``period == float(n)``), where the engine's ``bisect``-based segment
  lookup reduces to a clipped ``floor`` — a gather, not a search;
* ``numpy.random.Generator.random(n)`` consumes the identical stream as
  ``n`` scalar ``random()`` calls, so the capture and classification draws
  can be chunked per device without perturbing either stream (the scalar
  engine already relies on this for its capture chunks).

Devices whose policy has no vector path (the Quetzal variants), whose
configuration falls outside the vector kernel's envelope, or that hit an
anomalous condition mid-flight (energy overdraw, negative harvest, the
iteration backstop) are re-run on the scalar engine via the same
``_attempt_spec`` helper the scalar shard path uses (as is a migrated
lane whose continuation raises), so every device's outcome — including
:class:`RunFailure` — is exactly what the scalar path would have produced.  The scalar engine stays the oracle; this kernel is
only ever a faster spelling of it (``tests/fleet/test_kernel.py``).
"""

from __future__ import annotations

import gc
import math
import mmap
import time
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from repro.core.scheduler import FCFSScheduler
from repro.device.checkpoint import CheckpointModel
from repro.device.storage import Supercapacitor
from repro.env.events import EventSchedule
from repro.experiments.runner import RunFailure, RunSpec, _attempt_spec, _build_engine
from repro.obs.events import TraceEvent
from repro.obs.tracer import stamping_sink
from repro.policies.always_degrade import AlwaysDegradePolicy
from repro.policies.base import Policy
from repro.policies.buffer_threshold import BufferThresholdPolicy
from repro.policies.noadapt import NoAdaptPolicy
from repro.policies.power_threshold import PowerThresholdPolicy
from repro.sim.engine import _ENERGY_EPS
from repro.sim.metrics import RunMetrics
from repro.trace.power_trace import _MAX_HARVEST_PERIODS, PiecewiseConstantTrace
from repro.units import TIME_EPSILON
from repro.workload.ml import MLModelProfile
from repro.workload.pipelines import DETECT_JOB, TRANSMIT_JOB, PersonDetectionApp

__all__ = ["vector_shard_outcomes", "VECTOR_KERNEL_POLICIES", "KernelStats"]

#: Devices per lockstep batch.  Bounds the kernel's working set (the trace
#: power/cumulative-energy matrices are [devices, samples] float64) while
#: keeping batches wide enough to amortize per-iteration numpy overhead.
_MAX_BATCH = 8192

#: Compaction threshold: shrink the batch once at least this many columns
#: are finished *and* they make up >= 1/8 of the width.  The trace tables
#: (powers/cum — the bulk of batch memory) are never copied: gathers go
#: through the ``trow`` row-indirection, so a compaction only touches the
#: packed hot-state matrices and the small per-lane side arrays.  That
#: makes an aggressive 1/8 trigger affordable, and it keeps dense
#: full-width ops tracking the live population closely.
_COMPACT_MIN = 64

# Device states.
_CTRL, _ADV, _RECHG, _DONE = 0, 1, 2, 3
# What an _ADV lane returns to when its span target is reached/depleted.
_C_IDLE, _C_TASK, _C_SAVE, _C_RESTORE = 0, 1, 2, 3
# What a _RECHG lane returns to once the restart level is reached.
_R_BLOCK, _R_FAILURE, _R_IDLE = 0, 1, 2

# Policy families with a vector decision path.
_K_NOADAPT, _K_ALWAYS, _K_BUFFER, _K_POWER = 0, 1, 2, 3
#: Where each family but NoAdapt starts (and the last one ends) in a
#: kind-sorted lane list.
_KIND_EDGES = np.array(
    (_K_ALWAYS, _K_BUFFER, _K_POWER, _K_POWER + 1), dtype=np.int8
)

#: Draws fetched per device per refill.  Any chunk size yields the same
#: stream (``Generator.random(out=)`` over ``n`` slots consumes exactly
#: ``n`` scalar draws), and migration hands the engine draw *counts*, so
#: neither chunk has to match the scalar engine's own 1024: 256 keeps the
#: double-buffered capture table at 4 KB per lane instead of 16 KB.
#:
#: Cohort-refill contract: refills are batched and double-buffered — each
#: lane's draw buffer holds *two* chunks, and whenever any drawing lane
#: runs dry, every lane within one chunk of empty is topped up in the same
#: pass (one C-level ``Generator.random(out=)`` fill per lane, no per-pass
#: allocation).  Topping a lane up *ahead* of consumption is stream-safe
#: under the same equivalence: the lane's generator is still invoked in
#: the identical chunk-sized call sequence, and draws generated early are
#: simply consumed later, so the value read for draw ``k`` never changes.
_CLS_CHUNK = 256
_CAP_CHUNK = 256

#: Straggler migration: a batch that started wider than this retires each
#: lane at its next CTRL step once fewer than this many lanes are live,
#: and finishes the retired lanes on the scalar engine from their kernel
#: state (DESIGN.md, "Masked divergence", has the threshold sweep).
_MIGRATE_LANES = 64


@dataclass
class KernelStats:
    """Per-phase accounting for one or more vector-kernel invocations.

    Wall-clock fields are seconds.  ``ctrl_s`` also counts each batch's
    compactions and its final harvest (results and trace-row release):
    compaction runs at the loop head, which is the CTRL step, so the three
    phase timers together cover the whole lockstep loop.  ``fallback_s``
    times all scalar-engine work: envelope exclusions (``scalar_lanes``),
    in-flight anomaly reruns (``fallback_lanes``) and straggler
    continuations (``migrated_lanes``).
    """

    lanes: int = 0            #: devices that entered the vector kernel
    scalar_lanes: int = 0     #: devices outside the vector envelope
    fallback_lanes: int = 0   #: vector lanes re-run on the scalar engine
    migrated_lanes: int = 0   #: vector lanes finished on the scalar engine
    batches: int = 0
    iterations: int = 0
    compactions: int = 0
    lane_build_s: float = 0.0
    attach_s: float = 0.0     #: trace-store attach time (subset of lane build)
    batch_init_s: float = 0.0
    ctrl_s: float = 0.0
    adv_s: float = 0.0
    rech_s: float = 0.0
    fallback_s: float = 0.0

    @property
    def setup_s(self) -> float:
        return self.lane_build_s + self.batch_init_s

    @property
    def kernel_s(self) -> float:
        return self.ctrl_s + self.adv_s + self.rech_s

    def merge(self, other: "KernelStats") -> None:
        for f in dataclass_fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def as_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in dataclass_fields(self)}
        out["setup_s"] = self.setup_s
        out["kernel_s"] = self.kernel_s
        return out

    def phase_seconds(self) -> dict:
        """The five top-level phases: a heartbeat's ``phase_seconds``."""
        return {name: getattr(self, name) for name in
                ("setup_s", "ctrl_s", "adv_s", "rech_s", "fallback_s")}

    def render(self) -> str:
        """Human-readable per-phase breakdown (the ``--kernel-stats`` view)."""
        total = self.setup_s + self.kernel_s + self.fallback_s

        def pct(part: float) -> str:
            return f"{100.0 * part / total:5.1f}%" if total > 0 else "    -%"

        lines = [
            "=== Vector kernel per-phase timing ===",
            f"lanes: {self.lanes} vector, {self.scalar_lanes} scalar-only, "
            f"{self.fallback_lanes} fell back mid-run, "
            f"{self.migrated_lanes} migrated",
            f"batches: {self.batches}  iterations: {self.iterations}  "
            f"compactions: {self.compactions}",
            f"setup    {self.setup_s:8.3f} s  {pct(self.setup_s)}  "
            f"(lane build {self.lane_build_s:.3f} s"
            f" incl. store attach {self.attach_s:.3f} s, "
            f"batch init {self.batch_init_s:.3f} s)",
            f"CTRL     {self.ctrl_s:8.3f} s  {pct(self.ctrl_s)}",
            f"ADV      {self.adv_s:8.3f} s  {pct(self.adv_s)}",
            f"RECHG    {self.rech_s:8.3f} s  {pct(self.rech_s)}",
            f"fallback {self.fallback_s:8.3f} s  {pct(self.fallback_s)}",
        ]
        return "\n".join(lines)


def _policy_kind(factory) -> tuple[int, float | None] | None:
    """Classify a policy factory into a vector family, or None.

    Inspects a throwaway instance instead of pattern-matching grid names,
    so the mapping stays correct if the harness grid changes.  A policy
    qualifies only when it is *exactly* one of the known baseline classes
    (a subclass may override ``select``), keeps the base class's no-op
    hooks and zero invocation cost, and schedules FCFS.
    """
    try:
        policy = factory()
    except Exception:  # pragma: no cover - defensive: factories may be exotic
        return None
    cls = type(policy)
    base = Policy
    if (
        cls.prepare is not base.prepare
        or cls.on_capture is not base.on_capture
        or cls.on_job_complete is not base.on_job_complete
        or cls.invocation_cost is not base.invocation_cost
        or hasattr(policy, "decision_stats")
    ):
        return None
    if type(getattr(policy, "scheduler", None)) is not FCFSScheduler:
        return None
    if cls is NoAdaptPolicy:
        return (_K_NOADAPT, None)
    if cls is AlwaysDegradePolicy:
        return (_K_ALWAYS, None)
    if cls is BufferThresholdPolicy:
        return (_K_BUFFER, float(policy.threshold))
    if cls is PowerThresholdPolicy:
        # The per-decision threshold is fraction * reference with a
        # constant reference (datasheet value, or the trace's max power);
        # reproducing the same single multiply per device is exact.
        ref = policy.datasheet_max_w  # may be None -> use trace max power
        return (_K_POWER, (float(policy.threshold_fraction), ref))
    return None


def _vector_kernel_policies(factories) -> dict[str, tuple]:
    """Grid names in ``factories`` that have a vector decision path."""
    kinds = {}
    for name, factory in factories.items():
        kind = _policy_kind(factory)
        if kind is not None:
            kinds[name] = kind
    return kinds


def VECTOR_KERNEL_POLICIES(factories) -> frozenset[str]:
    """Public view of which grid policies the vector kernel covers."""
    return frozenset(_vector_kernel_policies(factories))


def _integer_grid(trace) -> bool:
    """True when the trace's segment grid makes lookup a clipped floor."""
    if type(trace) is not PiecewiseConstantTrace:
        return False
    if trace._period is None or trace._energy_per_period <= 0:
        return False
    times = trace._times
    n = times.shape[0]
    if n == 0 or trace._period != float(n):
        return False
    return bool(np.array_equal(times, np.arange(n, dtype=np.float64)))


def _app_shape(app) -> tuple | None:
    """Extract the (detect, transmit) task/option tables, or None.

    The planner is positional (``task_refs[0]`` is the classifier,
    ``task_refs[1]`` the conditional prep; transmit is single-task), so the
    kernel requires exactly that shape and reads the same option objects
    the scalar planner would choose (``options[0]`` highest, ``options[-1]``
    lowest).
    """
    if type(app) is not PersonDetectionApp or app.entry_job != DETECT_JOB:
        return None
    jobs = app.jobs
    if DETECT_JOB not in jobs or TRANSMIT_JOB not in jobs:
        return None
    detect = jobs.job(DETECT_JOB)
    transmit = jobs.job(TRANSMIT_JOB)
    if len(detect.task_refs) != 2 or len(transmit.task_refs) != 1:
        return None
    if detect.spawns != TRANSMIT_JOB or transmit.spawns is not None:
        return None
    ml_ref, prep_ref = detect.task_refs
    radio_ref = transmit.task_refs[0]
    if not ml_ref.task.degradable or prep_ref.task.degradable:
        return None
    if not radio_ref.task.degradable:
        return None
    ml_hi = ml_ref.task.options[0]
    ml_lo = ml_ref.task.options[-1]
    radio_hi = radio_ref.task.options[0]
    radio_lo = radio_ref.task.options[-1]
    for opt in (ml_hi, ml_lo):
        model = opt.metadata.get("ml")
        if type(model) is not MLModelProfile:
            return None
    for opt in (radio_hi, radio_lo):
        if opt.metadata.get("quality") not in ("high", "low"):
            return None
    prep_opt = prep_ref.task.highest_quality
    # The kernel chains a finished job's next decision into the same
    # lockstep round; sub-epsilon task durations would make that chain
    # unbounded, so leave them to the scalar engine.
    for opt in (ml_hi, ml_lo, prep_opt, radio_hi, radio_lo):
        if opt.cost.t_exe_s <= TIME_EPSILON:
            return None
    return (ml_ref, ml_hi, ml_lo, prep_ref, prep_opt, radio_ref, radio_hi, radio_lo)


class _Lane:
    """One device prepared for the kernel (inputs shared with any fallback).

    ``traces`` / ``schedules`` are optional per-shard caches keyed by the
    config's ``trace_key()`` / ``schedule_key()`` (the same keys the
    experiment runner's grid cache uses), so lanes with identical
    generation parameters share one immutable trace/schedule object
    instead of rebuilding it.  Fleet specs draw per-device seeds, so the
    win is modest there, but grid-style shards with repeated seeds build
    each artifact once.
    """

    __slots__ = (
        "device", "policy_name", "config", "trace", "schedule", "app",
        "sim", "shape", "kind", "storage",
    )

    def __init__(self, device, policy_name, config, traces=None, schedules=None,
                 trace=None, schedule=None):
        self.device = device
        self.policy_name = policy_name
        self.config = config
        # Prebuilt (store-attached) artifacts win outright; otherwise fall
        # through to the per-chunk generator caches.
        if trace is not None:
            self.trace = trace
        elif traces is None:
            self.trace = config.build_trace()
        else:
            key = config.trace_key()
            trace = traces.get(key)
            if trace is None:
                trace = traces[key] = config.build_trace()
            self.trace = trace
        if schedule is not None:
            self.schedule = schedule
        elif schedules is None:
            self.schedule = config.build_schedule()
        else:
            key = config.schedule_key()
            schedule = schedules.get(key)
            if schedule is None:
                schedule = schedules[key] = config.build_schedule()
            self.schedule = schedule
        self.app = None
        self.sim = None
        self.shape = None
        self.kind = None
        self.storage = None


def _lane_eligible(lane: _Lane, kinds, apps=None) -> bool:
    """Config-level envelope of the vector kernel (trace, app, storage, sim)."""
    kind = kinds.get(lane.policy_name)
    if kind is None:
        return False
    sim = lane.config.build_sim_config()
    if (
        sim.cost_jitter_sigma != 0.0
        or sim.buffer_capacity is None
        or sim.buffer_capacity < 1
        or sim.capture_period_s <= 0
    ):
        return False
    storage = lane.config.build_storage()
    if type(storage) is not Supercapacitor:
        return False
    ckpt = CheckpointModel()
    if ckpt.save_time_s <= 0 or ckpt.restore_time_s <= 0:
        return False
    if type(lane.schedule) is not EventSchedule:
        return False
    if not _integer_grid(lane.trace):
        return False
    # The kernel and the fallback path only *read* the app's task/option
    # tables, so lanes on the same MCU profile can share one instance.
    if apps is None:
        app = lane.config.build_app()
    else:
        key = id(lane.config.mcu)
        app = apps.get(key)
        if app is None:
            app = apps[key] = lane.config.build_app()
    shape = _app_shape(app)
    if shape is None:
        return False
    lane.app = app
    lane.sim = sim
    lane.shape = shape
    lane.kind = kind
    lane.storage = storage
    return True


# --------------------------------------------------------------------------
# Packed hot-state layout.  One row per field; handler attributes are views
# of these rows, rebound by ``_bind`` whenever the batch compacts.
# --------------------------------------------------------------------------

#: float64 rows filled once from the lane tables (``_lane_float_consts``
#: must return values in exactly this order; ``energy`` is the storage's
#: initial charge and mutates from there).
_F_CONST_FIELDS = (
    "epp", "diff_p", "bg_diff_p", "sched_end", "hard_end", "hard_end_eps",
    "sleep_p", "capacity", "restart", "overdraw_floor", "th_thresh",
    "pz_thresh",
    "ml_t0", "ml_t1", "radio_t0", "radio_t1",
    "ml_p0", "ml_p1", "radio_p0", "radio_p1",
    "fnr0", "fnr1", "fpr0", "fpr1", "prep_t", "prep_p",
    "energy",
)
#: float64 rows that start at zero (clock, span registers, float metrics).
#: seg_nb/seg_p belong to the cached segment cursor (see
#: ``_seg_advance``) and are re-seeded by ``__init__``.
_F_DYN_FIELDS = (
    "now", "adv_target", "adv_draw", "adv_stop", "rech_start",
    "blk_rem", "blk_start", "task_p",
    "seg_nb", "seg_p", "next_cap", "ev_next_start", "ev_cur_end",
    "m_energy_harvested", "m_energy_consumed", "m_recharge_time", "m_sim_end",
)
_F_FIELDS = _F_CONST_FIELDS + _F_DYN_FIELDS

#: int64 rows: cursors, buffer occupancy, and integer metric counters.
_I_FIELDS = (
    "cap_idx", "cap_pos", "cap_fill", "cls_pos", "cls_fill",
    "occ", "head", "ev_idx",
    "m_captures_interesting", "m_ibo_drops", "m_ibo_drops_interesting",
    "m_false_negatives",
    "m_true_negatives", "m_packets_ih", "m_packets_il",
    "m_packets_uh", "m_packets_ul", "m_power_failures",
    "m_policy_invocations", "m_leftover_total", "m_leftover_interesting",
    "optc_ml_hi", "optc_ml_lo", "optc_radio_hi", "optc_radio_lo",
    "trow",
)

#: int8 rows: small enums.
_B_FIELDS = ("state", "kind", "adv_cont", "rech_cont", "cur_task",
             "exec_job")

#: bool rows: flags and per-lane constants consumed as masks.
#: exec_deg doubles as the low-quality-option flag: the planner always
#: picks the degraded option exactly when the policy degraded the job.
_M_FIELDS = ("anomaly", "migrated", "exec_pos", "exec_deg", "exec_int",
             "radio_hiq0", "radio_hiq1", "ev_cur_int")

#: Row blocks read or written at a computed row offset, so one 2D gather
#: or scatter serves every variant.  With ``j`` the job (0 detect, 1
#: transmit) and ``d`` the degrade flag: the planned option's duration
#: and power sit at ``_OPT_T``/``_OPT_P + 2*j + d``, the classifier's
#: error rates at ``_FNR``/``_FPR + d``, the radio-quality flag at
#: ``_HIQ + d``, and the option counter at ``_OPTC + 2*j + d``.
#: ``_OUTCOME`` starts the six counters a finished job that leaves the
#: buffer books one of: FN, TN, then packets IH, IL, UH, UL.
_OPT_T = _F_FIELDS.index("ml_t0")
_OPT_P = _F_FIELDS.index("ml_p0")
_FNR = _F_FIELDS.index("fnr0")
_FPR = _F_FIELDS.index("fpr0")
_OPTC = _I_FIELDS.index("optc_ml_hi")
_OUTCOME = _I_FIELDS.index("m_false_negatives")
_HIQ = _M_FIELDS.index("radio_hiq0")

#: 2D per-lane arrays compacted by row selection alongside the matrices.
#: Trace tables stay lane-major: lane sim-times diverge by hours, so a
#: lane-minor layout would not cluster the segment gathers (measured
#: slower at 8192 lanes).  ``powers``/``cum`` are deliberately *not*
#: here: they dominate batch memory (D x N float64 each), so compaction
#: leaves them in place and every gather goes through the ``trow``
#: row-indirection instead — that keeps compaction O(hot state), cheap
#: enough to run aggressively.
_ROW_ARRAYS = ("buf_t", "buf_int", "buf_job")
#: The lane-minor (transposed) tables — RNG draw chunks and event
#: tables — are likewise left full-size behind ``trow``.  Draw positions
#: and event cursors are near-synchronized across lanes (every lane
#: draws once per capture tick; schedules have similar event densities),
#: so one tick still reads a narrow band of contiguous rows; compaction
#: keeps ``trow`` sorted, so the column gather stays forward-marching
#: even with dead-lane gaps.


#: Drops a private anonymous page (it reads back as zeros); a platform
#: without it keeps dead trace rows resident.
_MADV_DONTNEED = getattr(mmap, "MADV_DONTNEED", None)


def _anon_zeros(shape) -> np.ndarray:
    """A zeroed float64 array in its own private anonymous mapping, whose
    pages go back to the OS when the array dies (glibc kept freed 14.7 MB
    heap tables resident)."""
    mapping = mmap.mmap(-1, max(8 * math.prod(shape), 1), flags=mmap.MAP_PRIVATE)
    return np.ndarray(shape, dtype=np.float64, buffer=mapping)


def _lane_float_consts(lane: _Lane) -> tuple:
    """Per-lane float constants, in ``_F_CONST_FIELDS`` order."""
    trace = lane.trace
    sched = lane.schedule
    storage = lane.storage
    cap = storage._capacity
    kind, param = lane.kind
    th = param if kind == _K_BUFFER else 0.0
    if kind == _K_POWER:
        fraction, datasheet = param
        reference = datasheet if datasheet is not None else trace.max_power
        pz = fraction * reference
    else:
        pz = 0.0
    (ml_ref, ml_hi, ml_lo, prep_ref, prep_opt,
     radio_ref, radio_hi, radio_lo) = lane.shape
    hard_end = sched.end_time + lane.sim.drain_timeout_s
    return (
        trace._energy_per_period,
        sched.diff_probability,
        sched.background_diff_probability,
        sched.end_time,
        hard_end,
        hard_end - TIME_EPSILON,
        lane.config.mcu.sleep_power_w,
        cap,
        storage._restart_energy,
        -1e-9 * (cap if cap > 1.0 else 1.0),
        th,
        pz,
        ml_hi.cost.t_exe_s, ml_lo.cost.t_exe_s,
        radio_hi.cost.t_exe_s, radio_lo.cost.t_exe_s,
        ml_hi.cost.p_exe_w, ml_lo.cost.p_exe_w,
        radio_hi.cost.p_exe_w, radio_lo.cost.p_exe_w,
        ml_hi.metadata["ml"].false_negative_rate,
        ml_lo.metadata["ml"].false_negative_rate,
        ml_hi.metadata["ml"].false_positive_rate,
        ml_lo.metadata["ml"].false_positive_rate,
        prep_opt.cost.t_exe_s, prep_opt.cost.p_exe_w,
        storage._energy,
    )


class _VectorBatch:
    """Lockstep packed-state simulation of one homogeneous-geometry batch.

    Every method replays the scalar engine's floating-point operations in
    the scalar op order; comments name the engine code being mirrored.
    The CTRL/ADV/RECHG entry points take a full-width boolean mask over
    the current columns and compute dense; minority sub-steps (decisions,
    exits, captures) stay index-based.  ``run()`` returns one
    ``RunMetrics`` per lane — in the original lane order, across any
    number of compactions — or ``None`` where the lane must be re-run on
    the scalar engine.  ``factories`` builds the policies of migrated
    lanes' engines.
    """

    def __init__(self, lanes: list[_Lane], factories, tracer=None) -> None:
        # Columns are ordered by policy kind so ``_decide`` can address
        # each family as a contiguous slice of its sorted lane indices
        # (compaction preserves column order, so the invariant holds for
        # the whole run).  ``orig`` maps columns back to caller order.
        order = sorted(range(len(lanes)), key=lambda i: lanes[i].kind[0])
        lanes = [lanes[i] for i in order]
        self.lanes = lanes
        self.factories = factories
        D = self.D = len(lanes)
        self.N = N = lanes[0].trace._times.shape[0]
        self.C = C = int(lanes[0].sim.buffer_capacity)
        f8, i8 = np.float64, np.int64

        # -- per-batch scalars (engine __init__ / CheckpointModel defaults) --
        ckpt = CheckpointModel()
        self.SAVE_T = ckpt.save_time_s
        self.SAVE_P = ckpt.save_energy_j / ckpt.save_time_s
        self.REST_T = ckpt.restore_time_s
        self.REST_P = ckpt.restore_energy_j / ckpt.restore_time_s
        self.RESERVE = ckpt.save_energy_j
        self.THRESHOLD = self.RESERVE + _ENERGY_EPS
        self.PERIOD = float(N)
        # Uniform within a batch by group key; int64 * float and int64 /
        # float reproduce the engine's int * float / int / int arithmetic.
        self.CAPP = float(lanes[0].sim.capture_period_s)
        self.BUFL = float(C)
        # Trace grid: times[i] == float(i), and the period is float(N), so
        # the boundary after segment ``seg`` is ``seg + 1`` even for the
        # last segment.
        self.times1d = np.arange(N, dtype=f8)

        # -- packed hot-state matrices --
        self.F = np.zeros((len(_F_FIELDS), D), dtype=f8)
        self.I = np.zeros((len(_I_FIELDS), D), dtype=i8)
        self.B = np.zeros((len(_B_FIELDS), D), dtype=np.int8)
        self.M = np.zeros((len(_M_FIELDS), D), dtype=bool)
        self._bind()
        #: original column position of each current column (results index).
        self.orig = np.array(order, dtype=np.intp)
        self._ar = np.arange(D, dtype=np.intp)
        # Row indirection into the full-size trace tables (powers/cum):
        # compaction renumbers columns but never copies those tables.
        self.trow[:] = self._ar
        self.results: list = [None] * D

        self._fill_traces(lanes)
        # Bulk constant fill: one boxed tuple per lane, one transposed copy.
        self.F[: len(_F_CONST_FIELDS)] = np.array(
            [_lane_float_consts(lane) for lane in lanes], dtype=f8
        ).T
        self.kind[:] = [lane.kind[0] for lane in lanes]
        self.radio_hiq0[:] = [
            lane.shape[6].metadata["quality"] == "high" for lane in lanes
        ]
        self.radio_hiq1[:] = [
            lane.shape[7].metadata["quality"] == "high" for lane in lanes
        ]

        # Schedules expose their columnar (starts, durations, interesting)
        # view directly; ``starts + durations`` reproduces ``Event.end``
        # element-wise, so no per-event Python objects are touched here
        # (store-attached schedules never materialize them at all).
        sched_arrays = [lane.schedule.arrays() for lane in lanes]
        counts = [arr[0].shape[0] for arr in sched_arrays]
        E = max(counts, default=0)
        self.E = E
        # Event tables are event-major (lane-minor): event cursors advance
        # in loose lockstep, so a capture tick gathers from a narrow band
        # of rows instead of one scattered row per lane.  ev_ends/ev_int
        # carry one trailing sentinel row (-inf / False) so the
        # pre-first-event cursor (ev_idx == -1) wraps to a gather that
        # reads "not in an event" without a separate ``ei >= 0`` term.
        self.ev_starts = np.full((max(E, 1) + 1, D), np.inf, dtype=f8)
        self.ev_ends = np.full((max(E, 1) + 1, D), -np.inf, dtype=f8)
        self.ev_int = np.zeros((max(E, 1) + 1, D), dtype=bool)
        if E > 0:
            if all(count == E for count in counts):
                starts = np.array([arr[0] for arr in sched_arrays], dtype=f8)
                durations = np.array([arr[1] for arr in sched_arrays], dtype=f8)
                self.ev_starts[:E] = starts.T
                self.ev_ends[:E] = (starts + durations).T
                self.ev_int[:E] = np.array(
                    [arr[2] for arr in sched_arrays], dtype=bool
                ).T
            else:  # ragged schedules: pad per lane
                for i, (starts, durations, interesting) in enumerate(sched_arrays):
                    count = counts[i]
                    self.ev_starts[:count, i] = starts
                    self.ev_ends[:count, i] = starts + durations
                    self.ev_int[:count, i] = interesting
        self.opt_names = [
            (
                lane.shape[0].task.name, lane.shape[1].name, lane.shape[2].name,
                lane.shape[5].task.name, lane.shape[6].name, lane.shape[7].name,
            )
            for lane in lanes
        ]
        self.cls_rngs = [np.random.default_rng(lane.sim.seed) for lane in lanes]
        self.cap_rngs = [
            np.random.default_rng((lane.sim.seed, 0xD1FF)) for lane in lanes
        ]

        # -- dynamic state not covered by the zero-init of F/I/B/M --
        self.cap_idx[:] = 1
        # Cached ``cap_idx * CAPP``: re-derived only where cap_idx moves
        # (the capture-fire loop), so the handlers read it for free.
        self.next_cap[:] = 1 * self.CAPP
        # cap_pos/cls_pos (draws consumed) and cap_fill/cls_fill (draws
        # generated) are absolute per-lane counters; both start at zero,
        # so the first draw triggers a full-width cohort refill.
        self.ev_idx[:] = -1
        # Cached event-cursor reads (the cursor moves on a tiny fraction
        # of capture ticks, so per-tick 2D gathers from the event tables
        # are replaced by 1D rows refreshed only at move time).  The
        # cursor starts at -1, i.e. on the sentinel row: no event active.
        self.ev_next_start[:] = self.ev_starts[0]
        self.ev_cur_end[:] = -np.inf
        self.ev_cur_int[:] = False
        # Segment cursor at t = 0: segment 0, next boundary at 1.0 (every
        # grid segment has length exactly 1.0).
        self.seg_nb[:] = 1.0
        self.seg_p[:] = self.powers[:, 0]
        # Buffer SoA, one FIFO ring per lane: captures append at slot
        # ``(head + occ) % C``, and FCFS always executes (then retags or
        # frees) the oldest input, the one at ``head``.  Freeing a slot
        # clears its ``buf_int`` and ``buf_job``, so a row sum counts the
        # pending interesting inputs and a capture lands as a detection.
        self.buf_t = np.zeros((D, C), dtype=f8)
        self.buf_int = np.zeros((D, C), dtype=bool)
        self.buf_job = np.zeros((D, C), dtype=np.int8)
        # Chunked RNG draws, lane-minor (capture draws are near-synchronized
        # across lanes, so one tick reads a mostly-contiguous row) and
        # double-buffered: two chunk planes per lane, indexed by the
        # absolute counters modulo 2*chunk, so a cohort refill can land a
        # lane's next chunk while the current one still has unread draws.
        self.cap_chunk = _anon_zeros((2 * _CAP_CHUNK, D))
        self.cls_chunk = _anon_zeros((2 * _CLS_CHUNK, D))

        # -- straggler migration: retired lanes' orig index + loop-head state
        self.migrating = False
        self._resume: list = []

        # -- phase accounting (read by the shard runner after run()) --
        self.iterations = 0
        self.compactions = 0
        self.ctrl_s = 0.0
        self.adv_s = 0.0
        self.rech_s = 0.0
        self.migrate_s = 0.0

        # -- opt-in tracing: handlers buffer (t, kind, device, dur, data)
        # rows; ``run()`` flushes them to the sink once per phase.  The
        # kernel emits the state-changing timeline (active captures, IBO
        # drops, decisions, degradations, power failures, checkpoint/
        # restore/recharge spans); quiescent capture ticks are elided —
        # their count is recoverable from RunMetrics.captures_total.
        self._trace = tracer
        if tracer is not None:
            # Device ids in packed-row order, indexed through ``trow`` so
            # the mapping survives compaction.
            self._trace_dev = np.array(
                [lane.device for lane in lanes], dtype=np.int64
            )
            self._trace_rows: list = []

    def _fill_traces(self, lanes) -> None:
        """Make the table rows each lane's only trace copy.

        Only ``powers`` is copied (``_need_cum`` builds ``cum`` rows), and
        harvested rows are released, so a lane keeps a trace after its
        batch only if it leaves with private rows (``_detach``).
        Store-attached schedules become private copies, so a segment's
        mapping closes once its lanes are filled; filling in source-address
        order walks the store one segment at a time.
        """
        self.powers = powers = _anon_zeros((self.D, self.N))
        self.cum = cum = _anon_zeros((self.D, self.N))
        self.cum_built = np.zeros(self.D, dtype=bool)
        self.row_dead = np.zeros(self.D, dtype=bool)
        times = self.times1d  # equal to every lane's grid (_integer_grid)
        source = [lane.trace._powers.__array_interface__["data"][0] for lane in lanes]
        for i in sorted(range(self.D), key=source.__getitem__):
            lane = lanes[i]
            trace = lane.trace
            powers[i] = trace._powers
            lane.trace = PiecewiseConstantTrace._attach(
                times, powers[i], cum[i], trace._period, trace._energy_per_period
            )
            sched = lane.schedule
            columns = sched.arrays()
            if columns[0].base is not None:  # a view of a store segment
                lane.schedule = EventSchedule._from_arrays(
                    *(column.copy() for column in columns),
                    sched.diff_probability, sched.background_diff_probability,
                )

    # --------------------------------------------------------------- layout --

    def _bind(self) -> None:
        """(Re)bind field attributes to the rows of the packed matrices."""
        for row, name in enumerate(_F_FIELDS):
            setattr(self, name, self.F[row])
        for row, name in enumerate(_I_FIELDS):
            setattr(self, name, self.I[row])
        for row, name in enumerate(_B_FIELDS):
            setattr(self, name, self.B[row])
        for row, name in enumerate(_M_FIELDS):
            setattr(self, name, self.M[row])

    def _compact(self, live) -> None:
        """Harvest finished columns and shrink every array to the live set."""
        self._harvest((~live).nonzero()[0])
        keep = live.nonzero()[0]
        self.F = np.ascontiguousarray(self.F[:, keep])
        self.I = np.ascontiguousarray(self.I[:, keep])
        self.B = np.ascontiguousarray(self.B[:, keep])
        self.M = np.ascontiguousarray(self.M[:, keep])
        self._bind()
        self.orig = self.orig[keep]
        for name in _ROW_ARRAYS:
            setattr(self, name, getattr(self, name)[keep])
        self._ar = np.arange(keep.size, dtype=np.intp)
        self.compactions += 1

    def _harvest(self, idx) -> None:
        """Materialize finished columns into ``results`` (None = fallback);
        set migrated columns aside with their loop-head state for ``run()``.
        Then release the columns' trace rows: a lane whose metrics were
        harvested drops its trace, so reusing it raises instead of
        simulating released (zeroed) rows."""
        results = self.results
        orig = self.orig
        anomaly = self.anomaly
        migrated = self.migrated
        state = self.state
        for i in idx:
            i = int(i)
            if migrated[i]:
                self._resume.append((int(orig[i]), self._loop_head(i)))
            elif anomaly[i] or state[i] != _DONE:
                self._detach(i)  # the scalar rerun reads its trace
                results[int(orig[i])] = None
            else:
                results[int(orig[i])] = self._metrics(i)
                self.lanes[int(self.trow[i])].trace = None
        self._release(self.trow[idx])

    def _need_cum(self, rows) -> None:
        """Build the unbuilt ``cum`` rows among trace rows ``rows``: the
        prefix sum of ``_init_from_validated``, whose durations are all
        exactly 1.0 on the integer grid, so bit-identical to the trace's
        ``_cum_energy``.  Rows never read stay untouched pages."""
        unbuilt = rows[~self.cum_built[rows]]
        if unbuilt.size:
            for row in unbuilt.tolist():  # in place: no temporaries
                np.cumsum(self.powers[row, :-1], out=self.cum[row, 1:])
            self.cum_built[unbuilt] = True

    def _release(self, rows) -> None:
        """Mark trace rows dead and return to the OS the whole pages inside
        each run of dead rows that ``rows`` joined, in both tables."""
        dead = self.row_dead
        dead[rows] = True
        if _MADV_DONTNEED is None:
            return
        edges = np.flatnonzero(np.diff(dead, prepend=False, append=False))
        starts, ends = edges[0::2], edges[1::2]
        runs = np.unique(np.searchsorted(starts, rows, side="right") - 1)
        row_bytes, page = 8 * self.N, mmap.PAGESIZE
        lo = -(-starts[runs] * row_bytes // page) * page  # whole pages only
        size = ends[runs] * row_bytes // page * page - lo
        powers, cum = self.powers.base, self.cum.base
        whole = size > 0
        for start, length in zip(lo[whole].tolist(), size[whole].tolist()):
            powers.madvise(_MADV_DONTNEED, start, length)
            cum.madvise(_MADV_DONTNEED, start, length)

    def _detach(self, i: int) -> _Lane:
        """Column ``i``'s lane, re-pointed at private copies of its trace
        rows: it outlives them (a continuation or a scalar rerun)."""
        row = int(self.trow[i])
        self._need_cum(self.trow[i : i + 1])
        lane = self.lanes[row]
        lane.trace = PiecewiseConstantTrace._attach(
            self.times1d, self.powers[row].copy(), self.cum[row].copy(),
            lane.trace._period, lane.trace._energy_per_period,
        )
        return lane

    def _loop_head(self, i: int) -> tuple:
        """Column ``i``'s lane and ``SimulationEngine.resume_at`` arguments."""
        lane = self._detach(i)
        head = int(self.head[i])
        pending = [
            (float(self.buf_t[i, s]), bool(self.buf_int[i, s]),
             TRANSMIT_JOB if self.buf_job[i, s] else DETECT_JOB)
            for s in ((head + j) % self.C for j in range(int(self.occ[i])))
        ]
        return lane, (
            float(self.now[i]), float(self.energy[i]), self._metrics(i),
            int(self.cap_idx[i]), int(self.cap_pos[i]), int(self.cls_pos[i]),
            pending,
        )

    def _continue(self, lane: _Lane, loop_head: tuple) -> RunMetrics | None:
        """Finish a migrated lane on an engine built as the scalar path does;
        ``None`` (the caller reruns it from scratch) if that raises."""
        tracer = self._trace
        engine = _build_engine(
            RunSpec(policy=lane.policy_name, seed=0, config=lane.config),
            self.factories[lane.policy_name], lane.trace, lane.schedule,
            None if tracer is None else stamping_sink(tracer, lane.device),
        )
        engine.resume_at(*loop_head)
        try:
            return engine.run()
        except Exception:  # noqa: BLE001 - the rerun records the failure
            return None

    # ------------------------------------------------------------- helpers --

    def _anomalize(self, lanes) -> None:
        self.anomaly[lanes] = True
        self.state[lanes] = _DONE

    def _finish(self, lanes) -> None:
        """Engine ``_finalize``: freeze sim_end and count leftovers."""
        self.m_sim_end[lanes] = self.now[lanes]
        self.m_leftover_total[lanes] = self.occ[lanes]
        self.m_leftover_interesting[lanes] = self.buf_int[lanes].sum(axis=1)
        self.state[lanes] = _DONE

    def _seg_advance(self, behind) -> None:
        """Move the segment cursor of lanes ``behind``, whose clocks reached
        their cached boundary (engine ``_advance_to``'s span cache).

        Replaces TraceCursor.span_at: after this, ``seg_p[lane]`` is the
        segment power at ``now`` and ``seg_nb[lane]`` the next boundary,
        with ``now < seg_nb``.  One direct fold, the engine's own: ``local
        = now - k*period`` is exact (Sterbenz), so the truncated segment is
        the engine's ``bisect`` result and ``k*period + times[seg+1]`` an
        exactly-represented integer above ``now`` (the scalar path's ``nb
        <= t`` nextafter guard cannot trigger on the integer grid).
        """
        if behind.size:
            local, k = self._fold(self.now[behind])
            seg = local.astype(np.intp)
            self.seg_nb[behind] = k * self.PERIOD + (seg + 1)
            self.seg_p[behind] = self.powers[self.trow[behind], seg]

    def _fold(self, t):
        """TraceCursor._fold, vectorized (k kept as float64).

        The scalar ``local >= period`` round-off guard cannot fire here:
        rounding is monotone and integers are exact, so ``k = floor(t /
        period)`` never falls below the true quotient's floor, and ``t -
        k*period`` is then exact (Sterbenz) and below ``period``
        (``tests/fleet/test_kernel.py`` checks the fold against the
        cursor's).
        """
        k = np.floor(t / self.PERIOD)
        return t - k * self.PERIOD, k

    def _efz(self, rows, local):
        """TraceCursor._energy_from_zero: cum[idx] + p[idx]*(local-times[idx])
        over trace rows ``rows``.

        ``local`` is a folded offset in [0, PERIOD), so truncation equals
        the scalar path's clipped floor, and ``times[idx] == idx``.
        """
        seg = local.astype(np.intp)
        return self.cum[rows, seg] + self.powers[rows, seg] * (local - seg)

    def _refill(self, pos, fill, rngs, table, chunk) -> None:
        """Cohort-batched, double-buffered chunk refill (see _CLS_CHUNK note).

        Called when some drawing lane ran dry; tops up *every* live column
        within one chunk of empty in the same pass, so loosely-desynced
        lanes share refill passes instead of each triggering its own.
        Finished columns are skipped: they never draw again (a migrated
        lane resumes from its draw counts, not from this table).
        Each lane gets one C-level ``Generator.random(out=)`` fill into a
        row of the staging block (no per-lane allocation, same stream as
        chunked scalar draws), and the staging rows land in the lane's
        free buffer plane in two contiguous strided stores grouped by
        plane parity.  ``fill - pos <= chunk`` guarantees the landing
        plane holds no unconsumed draws (buffer capacity is 2*chunk).
        """
        cohort = (((fill - pos) <= chunk) & (self.state != _DONE)).nonzero()[0]
        # Group by landing plane first so each plane's store is one
        # contiguous slice of the staging block.
        offsets = fill[cohort] % (2 * chunk)  # 0 or chunk per lane
        cohort = cohort[np.argsort(offsets, kind="stable")]
        low = int(np.count_nonzero(offsets == 0))
        rows = self.trow[cohort]
        stage = np.empty((rows.size, chunk), dtype=np.float64)
        for j, d in enumerate(rows.tolist()):
            rngs[d].random(out=stage[j])
        if low:
            table[:chunk, rows[:low]] = stage[:low].T
        if low < rows.size:
            table[chunk:, rows[low:]] = stage[low:].T
        fill[cohort] += chunk

    def _draw_caps(self, lanes):
        """One differencing-filter draw per lane (chunked like the engine)."""
        pos = self.cap_pos[lanes]
        if np.count_nonzero(pos == self.cap_fill[lanes]):
            self._refill(
                self.cap_pos, self.cap_fill, self.cap_rngs,
                self.cap_chunk, _CAP_CHUNK,
            )
        draws = self.cap_chunk[pos % (2 * _CAP_CHUNK), self.trow[lanes]]
        self.cap_pos[lanes] = pos + 1
        return draws

    def _draw_cls(self, lanes):
        """One classification draw per lane (engine draws these singly)."""
        pos = self.cls_pos[lanes]
        if np.count_nonzero(pos == self.cls_fill[lanes]):
            self._refill(
                self.cls_pos, self.cls_fill, self.cls_rngs,
                self.cls_chunk, _CLS_CHUNK,
            )
        draws = self.cls_chunk[pos % (2 * _CLS_CHUNK), self.trow[lanes]]
        self.cls_pos[lanes] = pos + 1
        return draws

    # ------------------------------------------------------------- captures --

    def _fire_due_captures(self, lanes, t, limit) -> None:
        """Engine ``_fire_due_captures`` body, one tick per pass.

        Callers pass ``t = cap_idx * CAPP`` for lanes they already proved
        due (the boundary reached the next capture tick) and ``limit`` as
        those lanes' post-advance clocks; later passes re-derive dueness
        against ``limit`` for the rare multi-tick catch-up.
        """
        while True:
            # captures_total is not counted here: every fired tick bumps
            # ``cap_idx`` below, so it is always ``cap_idx - 1`` (both
            # start one apart) and the harvest derives it for free.
            # The engine's event lookup: monotone advance over start times.
            # The cached ``ev_next_start`` row decides whether any lane
            # moves this tick; only movers touch the 2D event tables.
            adv = (self.ev_next_start[lanes] <= t).nonzero()[0]
            if adv.size:
                ml = lanes[adv]
                mr = self.trow[ml]
                mt = t[adv]
                ei = self.ev_idx[ml] + 1  # first step already proven due
                while True:
                    step = self.ev_starts[ei + 1, mr] <= mt
                    if not np.count_nonzero(step):
                        break
                    ei = ei + step
                self.ev_idx[ml] = ei
                self.ev_next_start[ml] = self.ev_starts[ei + 1, mr]
                self.ev_cur_end[ml] = self.ev_ends[ei, mr]
                self.ev_cur_int[ml] = self.ev_int[ei, mr]
            in_event = t < self.ev_cur_end[lanes]
            draws = self._draw_caps(lanes)
            if np.count_nonzero(in_event):
                ev_interesting = in_event & self.ev_cur_int[lanes]
                active = draws < np.where(
                    in_event, self.diff_p[lanes], self.bg_diff_p[lanes]
                )
                interesting = active & ev_interesting
                # All-zero adds are pure overhead.
                if np.count_nonzero(ev_interesting):
                    self.m_captures_interesting[lanes] += interesting
            else:
                active = draws < self.bg_diff_p[lanes]
                interesting = np.zeros(lanes.shape[0], dtype=bool)
            act = active.nonzero()[0]
            if act.size:
                a_lanes = lanes[act]
                a_int = interesting[act]
                a_t = t[act]
                # Neither captures_active nor stored is counted: every
                # stored input is still buffered or left it as a negative
                # or a packet, and every active capture is stored or
                # dropped (``_metrics`` sums them).
                occ = self.occ[a_lanes]
                full = occ >= self.C
                if self._trace is not None:
                    rows = self._trace_rows
                    dev = self._trace_dev[self.trow[a_lanes]]
                    en = self.energy[a_lanes]
                    for j in range(act.size):
                        rows.append((
                            float(a_t[j]), "capture", int(dev[j]), 0.0,
                            {"active": True, "interesting": bool(a_int[j]),
                             "occupancy": int(occ[j]),
                             "energy_j": float(en[j])},
                        ))
                        if full[j]:
                            rows.append((
                                float(a_t[j]), "ibo", int(dev[j]), 0.0,
                                {"interesting": bool(a_int[j])},
                            ))
                fl = full.nonzero()[0]
                if fl.size:
                    f_lanes = a_lanes[fl]
                    self.m_ibo_drops[f_lanes] += 1
                    self.m_ibo_drops_interesting[f_lanes] += a_int[fl]
                ins = (~full).nonzero()[0]
                if ins.size:
                    i_lanes = a_lanes[ins]
                    i_occ = occ[ins]
                    slot = (self.head[i_lanes] + i_occ) % self.C
                    self.buf_t[i_lanes, slot] = a_t[ins]
                    self.buf_int[i_lanes, slot] = a_int[ins]
                    self.occ[i_lanes] = i_occ + 1
            idx = self.cap_idx[lanes] + 1
            self.cap_idx[lanes] = idx
            t = idx * self.CAPP
            self.next_cap[lanes] = t
            due = (t <= limit + TIME_EPSILON).nonzero()[0]
            if not due.size:
                return
            lanes = lanes[due]
            t = t[due]
            limit = limit[due]

    # ---------------------------------------------------------------- control --

    def _ctrl(self, m, count: int) -> None:
        """The engine ``run()`` loop head: end / decide / idle.

        CTRL holds a minority of lanes most iterations (decisions resolve
        into multi-pass ADV/RECHG stints), so the handler goes subset-first
        — one ``nonzero`` up front, then everything gathers through the
        lane list — unlike ``_adv``, whose ~50% live fraction favours
        dense full-width arithmetic.  ``count`` is the number of lanes in
        ``m``, so emptiness checks are integer arithmetic.
        """
        if self.migrating:
            # The loop head is the only point with no job in flight, so a
            # lane's state here is exactly what the scalar engine resumes.
            self.migrated[m] = True
            self.state[m] = _DONE
            return
        lanes = m.nonzero()[0]
        at_end = self.now[lanes] >= self.hard_end_eps[lanes]
        ae = at_end.nonzero()[0]
        if ae.size:
            self._finish(lanes[ae])
            count -= ae.size
            if not count:
                return
            lanes = lanes[(~at_end).nonzero()[0]]
        busy = self.occ[lanes] > 0
        idle = lanes[~busy]
        if idle.size:
            next_cap = self.next_cap[idle]
            over = next_cap > self.sched_end[idle]
            if np.count_nonzero(over):
                self._finish(idle[over])  # nothing left to capture
                keep = ~over
                idle = idle[keep]
                next_cap = next_cap[keep]
            if idle.size:
                self.adv_target[idle] = next_cap
                self.adv_draw[idle] = self.sleep_p[idle]
                self.adv_stop[idle] = 0.0
                self.adv_cont[idle] = _C_IDLE
                self.state[idle] = _ADV
        work = lanes[busy]
        if work.size:
            self._decide(work)

    def _decide(self, lanes) -> None:
        """_invoke_policy + plan(): FCFS pick, degrade flag, task table."""
        self.m_policy_invocations[lanes] += 1
        # Columns are kind-sorted and ``lanes`` ascending, so each policy
        # family is one contiguous run: a searchsorted replaces three
        # mask/nonzero scans and the runs slice for free.
        kind = self.kind[lanes]
        b = kind.searchsorted(_KIND_EDGES)
        degrade = np.zeros(lanes.shape[0], dtype=bool)
        degrade[b[0]:b[1]] = True
        if b[2] > b[1]:
            t_lanes = lanes[b[1]:b[2]]
            fill = self.occ[t_lanes] / self.BUFL
            degrade[b[1]:b[2]] = fill >= self.th_thresh[t_lanes]
        if b[3] > b[2]:
            p_lanes = lanes[b[2]:b[3]]
            self._seg_advance(
                p_lanes[self.now[p_lanes] >= self.seg_nb[p_lanes]]
            )
            degrade[b[2]:b[3]] = self.seg_p[p_lanes] < self.pz_thresh[p_lanes]
        # FCFS: the oldest input, at the head of the lane's ring.
        slot = self.head[lanes]
        job = self.buf_job[lanes, slot]
        interesting = self.buf_int[lanes, slot]
        self.exec_job[lanes] = job
        self.exec_deg[lanes] = degrade
        self.exec_int[lanes] = interesting
        if self._trace is not None:
            rows = self._trace_rows
            trow = self.trow[lanes]
            dev = self._trace_dev[trow]
            now = self.now[lanes]
            for j in range(lanes.shape[0]):
                names = self.opt_names[int(trow[j])]
                if job[j]:
                    jname = TRANSMIT_JOB
                    opt = names[5] if degrade[j] else names[4]
                else:
                    jname = DETECT_JOB
                    opt = names[2] if degrade[j] else names[1]
                rows.append((
                    float(now[j]), "decision", int(dev[j]), 0.0,
                    {"job": jname, "option": opt,
                     "degraded": bool(degrade[j])},
                ))
                if degrade[j]:
                    rows.append((
                        float(now[j]), "degradation", int(dev[j]), 0.0,
                        {"job": jname, "option": opt},
                    ))
        option = 2 * job + degrade
        self.blk_rem[lanes] = self.F[_OPT_T + option, lanes]
        self.task_p[lanes] = self.F[_OPT_P + option, lanes]
        self.cur_task[lanes] = 0
        # exec_pos stays False for transmits: a positive detection is the
        # only job with a second task (the conditional prep).
        self.exec_pos[lanes] = False
        det = (job == 0).nonzero()[0]
        if det.size:
            d_lanes = lanes[det]
            d_deg = degrade[det]
            draws = self._draw_cls(d_lanes)
            # MLModelProfile.classify: interesting -> u >= fnr, else u < fpr.
            fnr = self.F[_FNR + d_deg, d_lanes]
            fpr = self.F[_FPR + d_deg, d_lanes]
            self.exec_pos[d_lanes] = np.where(
                interesting[det], draws >= fnr, draws < fpr
            )
        self._block_top(lanes)

    def _block_top(self, lanes) -> None:
        """Run-block loop head: done / recharge-first / advance.

        A lane whose task just finished starts its job's next task in the
        same pass (only a positive detection has one, the conditional
        prep) or completes the job.
        """
        done = self.blk_rem[lanes] <= TIME_EPSILON
        if np.count_nonzero(done):
            d_lanes = lanes[done]
            self.cur_task[d_lanes] += 1
            more = self.exec_pos[d_lanes] & (self.cur_task[d_lanes] == 1)
            fin = d_lanes[~more]
            if fin.size:
                self._complete_job(fin)
            nxt = d_lanes[more]
            self.blk_rem[nxt] = self.prep_t[nxt]
            self.task_p[nxt] = self.prep_p[nxt]
            lanes = np.concatenate((lanes[~done], nxt))
            if not lanes.size:
                return
        low = self.energy[lanes] <= self.THRESHOLD
        go = lanes
        if np.count_nonzero(low):
            rech = lanes[low]
            self.rech_cont[rech] = _R_BLOCK
            self.rech_start[rech] = self.now[rech]
            self.state[rech] = _RECHG
            go = lanes[~low]
        if go.size:
            now = self.now[go]
            self.blk_start[go] = now
            self.adv_target[go] = now + self.blk_rem[go]
            self.adv_draw[go] = self.task_p[go]
            self.adv_stop[go] = self.RESERVE
            self.adv_cont[go] = _C_TASK
            self.state[go] = _ADV

    def _complete_job(self, lanes) -> None:
        """_execute_job epilogue: buffer effect, counters, packets.

        jobs_completed and jobs_degraded are not counted: every finished
        job books exactly one option counter, so they are sums of those.
        """
        lo = self.exec_deg[lanes]
        job = self.exec_job[lanes]
        np.add.at(self.I, (_OPTC + 2 * job + lo, lanes), 1)
        positive = self.exec_pos[lanes]
        pos = lanes[positive]
        if pos.size:
            # Positive: input stays buffered, retagged for transmit.
            self.buf_job[pos, self.head[pos]] = 1
        leave = (~positive).nonzero()[0]
        if leave.size:
            # A negative detection or a transmit frees the ring head.
            l_lanes = lanes[leave]
            head = self.head[l_lanes]
            self.buf_int[l_lanes, head] = False
            self.buf_job[l_lanes, head] = 0
            self.head[l_lanes] = (head + 1) % self.C
            self.occ[l_lanes] -= 1
            # Outcome row: 1 - i for a detection (FN/TN), 5 - 2i - h for a
            # transmit (packets IH/IL/UH/UL), i interesting, h high quality.
            l_lo = lo[leave]
            l_int = self.exec_int[l_lanes].view(np.int8)
            high = self.M[_HIQ + l_lo, l_lanes].view(np.int8)
            outcome = 1 - l_int + job[leave] * (4 - l_int - high)
            np.add.at(self.I, (_OUTCOME + outcome, l_lanes), 1)
        self.state[lanes] = _CTRL

    # ---------------------------------------------------------------- advance --

    def _adv(self, m, count: int) -> None:
        """One ``_advance_to`` span per live lane (dense masked).

        ``count`` tracks the lanes remaining in ``m`` so exit branches
        test an integer instead of reducing the mask again.

        Arithmetic runs full-width; masked-out columns may compute inf/nan
        garbage (``run()`` holds the divide/invalid errstate), which the
        ``where=`` stores discard.  Exit paths mutate only the columns they
        are handed, so reading the row views after an exit call is safe
        for every column still in ``m``.
        """
        now = self.now
        energy = self.energy
        reached = m & (now >= self.adv_target - TIME_EPSILON)
        r = reached.nonzero()[0]
        if r.size:
            self._adv_exit(r)
            count -= r.size
            if not count:
                return
            m = m & ~reached
        at_end = m & (now >= self.hard_end_eps)
        ae = at_end.nonzero()[0]
        if ae.size:
            self._finish(ae)
            count -= ae.size
            if not count:
                return
            m = m & ~at_end
        next_cap = self.next_cap
        self._seg_advance((m & (now >= self.seg_nb)).nonzero()[0])
        p_in = self.seg_p
        boundary = np.minimum(np.minimum(self.adv_target, next_cap), self.seg_nb)
        boundary = np.minimum(boundary, self.hard_end)
        draw = self.adv_draw
        net = draw - p_in
        # A span without a stop level (save, restore) carries -inf, which
        # no margin test or depletion time below can act on.
        stop = m & (net > 0.0)
        depleting = None
        if np.count_nonzero(stop):
            margin = energy - self.adv_stop
            immediate = stop & (margin <= _ENERGY_EPS)
            im = immediate.nonzero()[0]
            if im.size:
                # No headroom at span entry: stop without advancing.
                self._adv_exit(im, immediate)
                count -= im.size
                if not count:
                    return
                m = m & ~immediate
                stop = stop & ~immediate
            t_depleted = now + margin / net
            depleting = stop & (t_depleted < boundary - TIME_EPSILON)
            boundary = np.where(depleting, t_depleted, boundary)
        # The engine's span accounting (Supercapacitor.draw / .harvest
        # arithmetic), fused.  With dtz = 0 every update below is an
        # identity (consumed/harvested add 0, stored clamps to 0,
        # max(energy, 0) == energy), which is exactly the engine's "skip
        # accounting when dt <= 0" — but the clock still moves to the
        # boundary unconditionally, as it must.
        dt = boundary - now
        dtz = np.maximum(dt, 0.0)
        draining = net >= 0.0
        ndt = net * dtz
        remaining = energy - ndt
        overdraw = m & (remaining < self.overdraw_floor)
        ov = overdraw.nonzero()[0]
        if ov.size:
            self._anomalize(ov)
            count -= ov.size
            if not count:
                return
            m = m & ~overdraw
            if depleting is not None:
                depleting = depleting & m
        headroom = self.capacity - energy
        stored = np.minimum(-ndt, headroom)
        np.copyto(
            energy,
            np.where(draining, np.maximum(remaining, 0.0), energy + stored),
            where=m,
        )
        consumed = draw * dtz
        np.add(
            self.m_energy_consumed, consumed,
            out=self.m_energy_consumed, where=m,
        )
        np.add(
            self.m_energy_harvested,
            np.where(draining, p_in * dtz, consumed + stored),
            out=self.m_energy_harvested, where=m,
        )
        np.copyto(now, boundary, where=m)
        d = (m & (next_cap <= boundary + TIME_EPSILON)).nonzero()[0]
        if d.size:
            self._fire_due_captures(d, next_cap[d], boundary[d])
        # Spans that just reached their target exit in the same pass: the
        # scalar engine has no iteration boundary between reaching a span
        # end and running its continuation, so dispatching now (instead
        # of letting the next call's reached-check do it) preserves each
        # lane's op sequence while halving the passes per span.  Depleted
        # spans stopped short of their target, so the two sets are
        # disjoint and share one dispatch.
        exits = m & (now >= self.adv_target - TIME_EPSILON)
        if depleting is not None and np.count_nonzero(depleting):
            exits |= depleting
        else:
            depleting = None
        ex = exits.nonzero()[0]
        if ex.size:
            self._adv_exit(ex, depleting)

    def _adv_exit(self, lanes, depleted=None) -> None:
        """Dispatch finished spans to their continuations.

        ``depleted`` is None or a full-width mask of the columns whose span
        stopped at its energy floor rather than its target.  One bincount
        decides which continuations are present, so absent ones cost
        nothing instead of a compare + scan each, and every lane that
        continues a run block (a task or a finished restore) goes through
        one ``_block_top`` call.
        """
        cont = self.adv_cont[lanes]
        cnt = np.bincount(cont, minlength=4)
        blocks = []
        if cnt[_C_TASK]:
            task = lanes[cont == _C_TASK]
            # Run-block loop: remaining -= now - start, then maybe a failure.
            self.blk_rem[task] = self.blk_rem[task] - (
                self.now[task] - self.blk_start[task]
            )
            if depleted is not None:
                failing = depleted[task] & (self.blk_rem[task] > TIME_EPSILON)
                fail = task[failing]
                if fail.size:
                    # _power_failure: count it, then pay the save cost.
                    self.m_power_failures[fail] += 1
                    if self._trace is not None:
                        rows = self._trace_rows
                        dev = self._trace_dev[self.trow[fail]]
                        now = self.now[fail]
                        for j in range(fail.size):
                            rows.append((
                                float(now[j]), "power_fail",
                                int(dev[j]), 0.0, {},
                            ))
                    self.adv_target[fail] = self.now[fail] + self.SAVE_T
                    self.adv_draw[fail] = self.SAVE_P
                    self.adv_stop[fail] = -np.inf
                    self.adv_cont[fail] = _C_SAVE
                    self.state[fail] = _ADV
                    task = task[~failing]
            blocks.append(task)
        if cnt[_C_SAVE]:
            save = lanes[cont == _C_SAVE]
            if self._trace is not None:
                # The save span just completed: now is its end.
                rows = self._trace_rows
                dev = self._trace_dev[self.trow[save]]
                now = self.now[save]
                for j in range(save.size):
                    rows.append((
                        float(now[j]) - self.SAVE_T, "checkpoint",
                        int(dev[j]), self.SAVE_T, {},
                    ))
            self.rech_cont[save] = _R_FAILURE
            self.rech_start[save] = self.now[save]
            self.state[save] = _RECHG
        if cnt[_C_RESTORE]:
            rest = lanes[cont == _C_RESTORE]
            if self._trace is not None:
                rows = self._trace_rows
                dev = self._trace_dev[self.trow[rest]]
                now = self.now[rest]
                for j in range(rest.size):
                    rows.append((
                        float(now[j]) - self.REST_T, "restore",
                        int(dev[j]), self.REST_T, {},
                    ))
            blocks.append(rest)
        if blocks:
            self._block_top(np.concatenate(blocks) if len(blocks) > 1 else blocks[0])
        if cnt[_C_IDLE]:
            idle = lanes[cont == _C_IDLE]
            if depleted is not None:
                # Sleep-state brownout: wait for restart, then resume idling.
                brown = depleted[idle]
                out = idle[brown]
                if out.size:
                    self.rech_cont[out] = _R_IDLE
                    self.rech_start[out] = self.now[out]
                    self.state[out] = _RECHG
                    idle = idle[~brown]
            self.state[idle] = _CTRL

    # --------------------------------------------------------------- recharge --

    def _rech(self, lanes) -> None:
        """One fused-recharge tick per lane (engine ``_recharge_to_restart``).

        RECHG holds the smallest lane population of the three states (a
        few percent most iterations), so the whole handler is subset-based
        — ``lanes`` is the index array, then per-lane gathers; its core is
        dominated by per-lane trace-table gathers (``_efz``) whose cost is
        per *element touched* either way, and full-width evaluation of the
        state checks would do strictly more element work (measured ~2x on
        the fleet mix).
        """
        deficit = self.restart[lanes] - self.energy[lanes]
        full = deficit <= _ENERGY_EPS
        fu = full.nonzero()[0]
        if fu.size:
            self._rech_exit(lanes[fu])
            if fu.size == lanes.size:
                return
            keep = (~full).nonzero()[0]
            lanes = lanes[keep]
            deficit = deficit[keep]
        at_end = self.now[lanes] >= self.hard_end_eps[lanes]
        ae = at_end.nonzero()[0]
        if ae.size:
            # Engine raises _RunEnded here: recharge_time is *not* booked.
            self._finish(lanes[ae])
            if ae.size == lanes.size:
                return
            keep = (~at_end).nonzero()[0]
            lanes = lanes[keep]
            deficit = deficit[keep]
        self._need_cum(self.trow[lanes])  # the recharge walks read ``cum``
        now = self.now[lanes]
        next_cap = self.next_cap[lanes]
        hard = self.hard_end[lanes]
        cap = np.minimum(next_cap, hard)
        e_cap = self._integrate_vec(lanes, now, cap)
        boundary = cap  # np.minimum above returned a fresh writable array
        harvested = e_cap
        finishing = (~(e_cap < deficit)).nonzero()[0]
        if finishing.size:
            # Completes within this tick: reproduce the reference boundary
            # computation exactly (time_to_harvest + integrate), replayed
            # elementwise over the finishing subset.
            fin = lanes[finishing]
            t0 = now[finishing]
            wait = self._time_to_harvest_vec(
                fin, t0, deficit[finishing], cap[finishing]
            )
            bnd = np.minimum(
                np.minimum(t0 + wait, next_cap[finishing]), hard[finishing]
            )
            boundary[finishing] = bnd
            harvested[finishing] = self._integrate_vec(fin, t0, bnd)
        negative = harvested < 0.0
        if np.count_nonzero(negative):
            self._anomalize(lanes[negative])
            keep = (~negative).nonzero()[0]
            lanes = lanes[keep]
            if not lanes.size:
                return
            boundary = boundary[keep]
            harvested = harvested[keep]
            next_cap = next_cap[keep]
        energy = self.energy[lanes]
        headroom = self.capacity[lanes] - energy
        stored = np.minimum(harvested, headroom)
        self.energy[lanes] = energy + stored
        self.m_energy_harvested[lanes] += stored
        self.now[lanes] = boundary
        due = (next_cap <= boundary + TIME_EPSILON).nonzero()[0]
        if due.size:
            self._fire_due_captures(lanes[due], next_cap[due], boundary[due])
        # Lanes stay in _RECHG; the next iteration re-checks the deficit.

    def _rech_exit(self, lanes) -> None:
        self.m_recharge_time[lanes] += self.now[lanes] - self.rech_start[lanes]
        if self._trace is not None:
            rows = self._trace_rows
            dev = self._trace_dev[self.trow[lanes]]
            start = self.rech_start[lanes]
            dur = self.now[lanes] - start
            for j in range(lanes.shape[0]):
                if dur[j] > 0.0:
                    rows.append((
                        float(start[j]), "recharge", int(dev[j]),
                        float(dur[j]), {},
                    ))
        cont = self.rech_cont[lanes]
        cnt = np.bincount(cont, minlength=3)
        if cnt[_R_BLOCK]:
            self._block_top(lanes[cont == _R_BLOCK])
        if cnt[_R_FAILURE]:
            fail = lanes[cont == _R_FAILURE]
            # _power_failure: pay the restore cost, then back to the block.
            self.adv_target[fail] = self.now[fail] + self.REST_T
            self.adv_draw[fail] = self.REST_P
            self.adv_stop[fail] = -np.inf
            self.adv_cont[fail] = _C_RESTORE
            self.state[fail] = _ADV
        if cnt[_R_IDLE]:
            idle = lanes[cont == _R_IDLE]
            resume = self.now[idle] < self.adv_target[idle] - TIME_EPSILON
            back = idle[resume]
            if back.size:
                self.adv_draw[back] = self.sleep_p[back]
                self.adv_stop[back] = 0.0
                self.adv_cont[back] = _C_IDLE
                self.state[back] = _ADV
            arrived = idle[~resume]
            if arrived.size:
                self.state[arrived] = _CTRL

    # -- vectorized trace walks for the recharge-completion tick --------------

    def _integrate_vec(self, lanes, t0, t1):
        """TraceCursor.integrate (periodic path) over aligned arrays.

        ``k`` stays float64: the fold keeps it integer-valued and far below
        2**53, so ``k * period`` and ``(k1 - k0) * epp`` are bit-equal to
        the scalar int-arithmetic (the ``_fold`` precedent).  Both ends
        fold and look up in one pass.  The scalar ``t1 == t0`` shortcut
        needs no mask: equal ends give equal ``k`` and ``e``, so the sum
        below is ``(0.0 + e) - e``, already the shortcut's ``0.0``.
        """
        n = t0.shape[0]
        local, k = self._fold(np.concatenate((t0, t1)))
        rows = self.trow[lanes]
        e = self._efz(np.concatenate((rows, rows)), local)
        return (k[n:] - k[:n]) * self.epp[lanes] + e[n:] - e[:n]

    def _time_to_harvest_vec(self, lanes, t0, energy, cap):
        """TraceCursor.time_to_harvest replayed elementwise over ``lanes``,
        for positive deficits ``energy`` that ``_rech`` found harvestable
        by each lane's tick end ``cap``.

        The scalar routine is a periodic fast path (whole-period skip) plus
        a fused segment walk; here every lane advances one segment per
        lockstep pass, preserving each lane's own op sequence exactly.
        ``epp > 0`` is guaranteed by eligibility, so the starvation branch
        cannot trigger; where the scalar code would raise on
        non-convergence, the vector path anomalizes the lane so it falls
        back to the scalar engine instead of sinking the batch (the caller
        finishes the tick on it: an anomalized lane's state is discarded).
        """
        period = self.PERIOD
        n = lanes.shape[0]
        out = np.zeros(n, dtype=np.float64)
        w, tw, rw = self._ar[:n], t0, energy  # the lanes still walking
        local, k = self._fold(t0)
        period_end = t0 + (period - local)
        # Whole-period skip: it fires where the energy up to the period
        # boundary falls short of the deficit.  The integral never falls as
        # its end moves out (powers are non-negative, ``cum`` is a running
        # sum and ``epp`` the last segment's end value), so a lane whose
        # ``cap`` is at or before its boundary cannot skip, and unless some
        # lane's tick crosses a period boundary the integral is not needed.
        if np.count_nonzero(cap > period_end):
            e_to_boundary = self._integrate_vec(lanes, t0, period_end)
            skipping = e_to_boundary < energy
            if np.count_nonzero(skipping):
                epp = self.epp[lanes]
                remaining = np.where(skipping, energy - e_to_boundary, energy)
                t = np.where(skipping, (k + 1.0) * period, t0)
                periods = remaining / epp
                n_whole = np.floor(periods)
                skip = n_whole * period
                never = skipping & (
                    (periods >= _MAX_HARVEST_PERIODS) | np.isinf(skip)
                )
                skipping &= ~never
                t = np.where(skipping, t + skip, t)
                remaining = np.where(
                    skipping, remaining - n_whole * epp, remaining
                )
                done = skipping & (remaining <= 0.0)
                out[never] = np.inf
                out[done] = (t - t0)[done]
                w = ((remaining > 0.0) & ~(never | done)).nonzero()[0]
                tw, rw = t[w], remaining[w]
                local, k = self._fold(tw)
        # Fused segment walk, one segment per pass in lockstep.  As in
        # ``_seg_advance``, the next boundary ``k*period + seg + 1`` lies
        # above ``tw``, so the scalar nextafter guard cannot fire.
        rows = self.trow[lanes[w]]
        for _ in range(10 * self.N + 100):
            if not w.size:
                return out
            seg = local.astype(np.intp)
            p = self.powers[rows, seg]
            nxt = k * period + (seg + 1)
            harvest = p * (nxt - tw)
            fin = harvest >= rw
            done = w[fin]
            out[done] = (tw + rw / p)[fin] - t0[done]
            if done.size == w.size:
                return out
            cont = ~fin
            w = w[cont]
            rw = rw[cont] - harvest[cont]
            tw = nxt[cont]
            rows = rows[cont]
            local, k = self._fold(tw)
        self._anomalize(lanes[w])
        return out

    # -------------------------------------------------------------------- run --

    def _flush_trace(self) -> None:
        """Emit buffered rows to the sink (called once per phase)."""
        rows = self._trace_rows
        if not rows:
            return
        emit = self._trace.emit
        for t, kind, device, dur, data in rows:
            emit(TraceEvent(t, kind, device=device, dur=dur, data=data))
        rows.clear()

    def run(self) -> list[RunMetrics | None]:
        # Backstop far above any real run (spans per simulated second are
        # bounded by segment boundaries + captures + a few per job): lanes
        # still live at the cap are handed to the scalar engine.
        per_lane = self.hard_end / max(self.CAPP, 1e-9) + self.N
        max_iters = int(50 * float(per_lane.max(initial=0.0))) + 10_000
        iters = 0
        migrate_below = _MIGRATE_LANES if self.D > _MIGRATE_LANES else 0
        perf = time.perf_counter
        t_ctrl = t_adv = t_rech = 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            while True:
                state = self.state
                width = state.shape[0]
                counts = np.bincount(state, minlength=4)
                dead = int(counts[_DONE])
                if dead == width:
                    break
                if width - dead < migrate_below:
                    self.migrating = True
                if dead >= _COMPACT_MIN and dead * 8 >= width:
                    t0 = perf()
                    self._compact(state != _DONE)
                    t_ctrl += perf() - t0
                    state = self.state
                iters += 1
                if iters > max_iters:
                    self._anomalize((state != _DONE).nonzero()[0])
                    break
                # Trace rows buffered by a phase's handlers flush inside
                # that phase's timed region: tracing cost is attributed to
                # the phase that produced the events.
                tracing = self._trace is not None
                t0 = perf()
                if counts[_CTRL]:
                    self._ctrl(state == _CTRL, int(counts[_CTRL]))
                    if tracing:
                        self._flush_trace()
                t1 = perf()
                if counts[_ADV]:
                    self._adv(state == _ADV, int(counts[_ADV]))
                    if tracing:
                        self._flush_trace()
                t2 = perf()
                # Read after ``_adv``: the lanes it just moved into recharge
                # take their first tick now, as the scalar engine recharges
                # straight after a power failure.
                rech = (state == _RECHG).nonzero()[0]
                if rech.size:
                    self._rech(rech)
                    if tracing:
                        self._flush_trace()
                t3 = perf()
                # Span/recharge exits above hand lanes back to CTRL; run
                # their loop-head step now instead of next iteration.  The
                # scalar engine has no iteration boundary between a span's
                # continuation and the next decision, so the per-lane op
                # sequence is unchanged — this only shortens each lane's
                # pass chain (and with it the batch's iteration count).
                post = state == _CTRL
                pc = int(np.count_nonzero(post))
                if pc:
                    self._ctrl(post, pc)
                    if tracing:
                        self._flush_trace()
                t4 = perf()
                t_ctrl += (t1 - t0) + (t4 - t3)
                t_adv += t2 - t1
                t_rech += t3 - t2
        if self._trace is not None:
            self._flush_trace()
        t0 = perf()
        self._harvest(np.arange(self.state.shape[0]))
        self.iterations = iters
        self.ctrl_s = t_ctrl + perf() - t0
        self.adv_s = t_adv
        self.rech_s = t_rech
        # The continuations need none of the batch's trace or draw tables.
        self.powers = self.cum = self.cap_chunk = self.cls_chunk = None
        t0 = perf()
        for index, (lane, loop_head) in self._resume:
            self.results[index] = self._continue(lane, loop_head)
        self.migrate_s = perf() - t0
        return self.results

    def _metrics(self, i: int) -> RunMetrics:
        option_use: dict = {}
        ml_task, ml_hi, ml_lo, radio_task, radio_hi, radio_lo = self.opt_names[
            int(self.trow[i])
        ]
        ml_counts = {}
        if self.optc_ml_hi[i]:
            ml_counts[ml_hi] = int(self.optc_ml_hi[i])
        if self.optc_ml_lo[i]:
            ml_counts[ml_lo] = int(self.optc_ml_lo[i])
        if ml_counts:
            option_use[ml_task] = ml_counts
        radio_counts = {}
        if self.optc_radio_hi[i]:
            radio_counts[radio_hi] = int(self.optc_radio_hi[i])
        if self.optc_radio_lo[i]:
            radio_counts[radio_lo] = int(self.optc_radio_lo[i])
        if radio_counts:
            option_use[radio_task] = radio_counts
        stored = int(self.occ[i] + self.I[_OUTCOME : _OUTCOME + 6, i].sum())
        return RunMetrics(
            sim_end_s=float(self.m_sim_end[i]),
            captures_total=int(self.cap_idx[i]) - 1,
            captures_active=stored + int(self.m_ibo_drops[i]),
            captures_interesting=int(self.m_captures_interesting[i]),
            stored=stored,
            ibo_drops=int(self.m_ibo_drops[i]),
            ibo_drops_interesting=int(self.m_ibo_drops_interesting[i]),
            jobs_completed=int(
                self.optc_ml_hi[i] + self.optc_ml_lo[i]
                + self.optc_radio_hi[i] + self.optc_radio_lo[i]
            ),
            jobs_degraded=int(self.optc_ml_lo[i] + self.optc_radio_lo[i]),
            false_negatives=int(self.m_false_negatives[i]),
            true_negatives=int(self.m_true_negatives[i]),
            packets_interesting_high=int(self.m_packets_ih[i]),
            packets_interesting_low=int(self.m_packets_il[i]),
            packets_uninteresting_high=int(self.m_packets_uh[i]),
            packets_uninteresting_low=int(self.m_packets_ul[i]),
            leftover_total=int(self.m_leftover_total[i]),
            leftover_interesting=int(self.m_leftover_interesting[i]),
            energy_harvested_j=float(self.m_energy_harvested[i]),
            energy_consumed_j=float(self.m_energy_consumed[i]),
            power_failures=int(self.m_power_failures[i]),
            recharge_time_s=float(self.m_recharge_time[i]),
            policy_invocations=int(self.m_policy_invocations[i]),
            option_use=option_use,
        )


# --------------------------------------------------------------------------
# Shard orchestration.
# --------------------------------------------------------------------------

def _build_lanes(spec, chunk, kinds, store=None):
    """Build lanes for a device chunk; returns (vector, scalar, attach_s).

    Lane building allocates large long-lived arrays; cyclic GC passes over
    them are pure overhead, so collection is paused for the build.  Traces,
    schedules, and apps are shared across lanes via per-chunk caches.

    With a :class:`repro.trace.store.TraceStore`, traces and schedules are
    *attached* (zero-copy memmap views, memoized per distinct artifact) in
    place of regeneration; entries missing from the store fall back to the
    generator caches per artifact, so a partial store still helps.
    ``attach_s`` is the seconds spent in store lookups (a subset of the
    caller's lane-build wall time).
    """
    lanes = []
    traces: dict = {}
    schedules: dict = {}
    apps: dict = {}
    attach_s = 0.0
    perf = time.perf_counter
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for device in chunk:
            policy_name, config = spec.device_config(device)
            trace = schedule = None
            if store is not None:
                t0 = perf()
                trace = store.trace_for(config)
                schedule = store.schedule_for(config)
                attach_s += perf() - t0
            lanes.append(
                _Lane(device, policy_name, config, traces, schedules,
                      trace=trace, schedule=schedule)
            )
        vector_lanes = [
            lane for lane in lanes if _lane_eligible(lane, kinds, apps)
        ]
    finally:
        if gc_was_enabled:
            gc.enable()
    scalar_lanes = [lane for lane in lanes if lane.kind is None]
    return vector_lanes, scalar_lanes, attach_s


def _lane_groups(vector_lanes) -> list[list[_Lane]]:
    """Vector lanes split into batches by array geometry (trace samples,
    buffer width) and capture period, which the batch hoists to scalars."""
    groups: dict[tuple, list[_Lane]] = {}
    for lane in vector_lanes:
        key = (
            lane.trace._times.shape[0],
            lane.sim.buffer_capacity,
            lane.sim.capture_period_s,
        )
        groups.setdefault(key, []).append(lane)
    return list(groups.values())


def _run_lane_groups(vector_lanes, factories, stats: KernelStats, tracer=None):
    """Run vector lanes through batches; returns [(lane, metrics-or-None)].

    ``factories`` maps policy names to the factories migrated lanes'
    engines are built with; ``stats`` accumulates each batch's timing.
    """
    out = []
    perf = time.perf_counter
    for group in _lane_groups(vector_lanes):
        # The batch kind-sorts its columns internally and returns results
        # in caller order, so groups go in as-is.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf()
            batch = _VectorBatch(group, factories, tracer=tracer)
            t1 = perf()
            results = batch.run()
        finally:
            if gc_was_enabled:
                gc.enable()
        stats.batches += 1
        stats.batch_init_s += t1 - t0
        stats.iterations += batch.iterations
        stats.compactions += batch.compactions
        stats.ctrl_s += batch.ctrl_s
        stats.adv_s += batch.adv_s
        stats.rech_s += batch.rech_s
        stats.migrated_lanes += len(batch._resume)
        stats.fallback_s += batch.migrate_s
        out.extend(zip(group, results))
    return out


def vector_shard_outcomes(
    spec, device_range, retries: int = 1, factories=None,
    stats: KernelStats | None = None, tracer=None, store=None, names=None,
):
    """Simulate ``device_range`` of ``spec``; return ``{device: outcome}``.

    Outcomes are :class:`RunMetrics` or :class:`RunFailure`, bit-identical
    to what the scalar per-device loop produces.  Devices outside the
    vector envelope (and any lane the kernel flags as anomalous) fall back
    to the scalar engine via ``_attempt_spec``.  Pass a :class:`KernelStats`
    to accumulate the per-phase timing breakdown (one is made and dropped
    otherwise), and a
    :class:`repro.obs.TraceSink` to record device-stamped timeline events
    (fallback lanes emit through the scalar engine, wrapped in a
    stamping sink, so the stream stays device-attributed either way).
    ``store`` (a :class:`repro.trace.store.TraceStore`) replaces per-lane
    trace/schedule regeneration with zero-copy memmap attach.  ``names``,
    when given, receives ``{device: policy name}`` from the lanes, so
    callers need not re-derive device configs.
    """
    if factories is None:
        from repro.experiments.harness import standard_policies

        factories = standard_policies()
    if stats is None:
        stats = KernelStats()
    kinds = _vector_kernel_policies(factories)
    outcomes = {}
    devices = list(device_range)
    perf = time.perf_counter
    for start in range(0, len(devices), _MAX_BATCH):
        chunk = devices[start : start + _MAX_BATCH]
        t0 = perf()
        vector_lanes, scalar_lanes, attach_s = _build_lanes(
            spec, chunk, kinds, store
        )
        stats.lane_build_s += perf() - t0
        stats.attach_s += attach_s
        stats.lanes += len(vector_lanes)
        stats.scalar_lanes += len(scalar_lanes)
        if names is not None:
            for lane in vector_lanes + scalar_lanes:
                names[lane.device] = lane.policy_name
        rerun = list(scalar_lanes)
        for lane, metrics in _run_lane_groups(vector_lanes, factories, stats, tracer):
            if metrics is None:
                rerun.append(lane)
                stats.fallback_lanes += 1
            else:
                outcomes[lane.device] = metrics
        t2 = perf()
        for lane in rerun:
            outcomes[lane.device] = _attempt_spec(
                RunSpec(policy=lane.policy_name, seed=0, config=lane.config),
                factories[lane.policy_name],
                lane.trace,
                lane.schedule,
                retries,
                tracer=(
                    None if tracer is None
                    else stamping_sink(tracer, lane.device)
                ),
            )
        stats.fallback_s += perf() - t2
    return outcomes
