"""The Quetzal runtime: scheduler + IBO engine + trackers + PID + circuit.

This is the system a programmer links into their application (paper
Figure 4): it owns the energy-aware SJF scheduler (Alg. 1), the
IBO-detection and reaction engine (Alg. 2), the bit-vector trackers for
input arrival rate and task execution probability (section 5.1), the PID
prediction-error mitigation (section 4.3), and a service-time estimator —
by default the hardware-assisted one backed by the measurement circuit.

The same class, composed with different schedulers or estimators, realises
the section 7.3 ablations (FCFS/LCFS scheduling, Avg-S_e2e estimation), so
"Quetzal with policy X" in Figure 12 is literally this runtime with a
different :class:`~repro.core.scheduler.Scheduler` injected.
"""

from __future__ import annotations

import math

from repro.core.ibo import IBODecision
from repro.core.pid import PIDController
from repro.core.scheduler import EnergyAwareSJF, JobCandidate, Scheduler
from repro.core.service_time import (
    HardwareServiceTimeEstimator,
    ServiceTimeEstimator,
)
from repro.core.trackers import ArrivalRateTracker, ExecutionProbabilityTracker
from repro.device.mcu import MCUProfile
from repro.errors import ConfigurationError
from repro.hardware.costs import scheduler_invocation_cost
from repro.policies.base import (
    CompletionRecord,
    Decision,
    Policy,
    SchedulingContext,
    _make_decision,
)
from repro.sim.telemetry import DecisionPathStats
from repro.workload.job import Job, JobSet

__all__ = ["QuetzalRuntime"]

#: Table 1's window sizes.
DEFAULT_TASK_WINDOW = 64
DEFAULT_ARRIVAL_WINDOW = 256

#: Sentinel meaning "construct a fresh default PID controller".
_DEFAULT_PID = object()

_OBJ_NEW = object.__new__


def _make_ibo(
    option, ibo_predicted, ibo_avoided, predicted_service_s, degraded
) -> IBODecision:
    """Field-for-field identical to ``IBODecision(...)``, skipping the
    frozen dataclass's generated ``__init__`` (one ``object.__setattr__``
    per field) — built once per candidate per decision on the hot path."""
    ibo = _OBJ_NEW(IBODecision)
    d = ibo.__dict__
    d["option"] = option
    d["ibo_predicted"] = ibo_predicted
    d["ibo_avoided"] = ibo_avoided
    d["predicted_service_s"] = predicted_service_s
    d["degraded"] = degraded
    return ibo


class _JobDecisionPlan:
    """Per-job constants and the estimator-row cache of the decision path.

    Built once in :meth:`QuetzalRuntime.prepare`, a plan flattens the
    job-structure lookups Algorithm 2 repeats every decision — the
    degradable task, its quality-ordered option tuple, and the
    (task, highest-option, conditional) terms of the non-degradable E[S]
    sum — and carries ``svc_rows``, the decision path's one cache: the
    estimator's answers for this job (the non-degradable tasks' S_e2e and
    the degradable task's S_e2e vector), keyed by estimator token.  Eq. 1
    depends on nothing else that changes at run time, so the hardware
    estimator, whose token is the 8-bit V_D1 code, fills at most 256 rows
    and a varying trace finds old codes still cached.  The execution
    probabilities, λ, free space and PID correction are read fresh every
    decision.
    """

    __slots__ = (
        "deg_task",
        "deg_task_name",
        "deg_conditional",
        "options",
        "non_deg_terms",
        "svc_rows",
    )

    def __init__(self, job: Job) -> None:
        deg_ref = job.degradable_ref
        self.deg_task = deg_ref.task
        self.deg_task_name = deg_ref.task.name
        self.deg_conditional = deg_ref.conditional
        self.options = tuple(deg_ref.task.options)
        self.non_deg_terms = tuple(
            (ref.task, ref.task.highest_quality, ref.conditional)
            for ref in job.non_degradable_refs
        )
        self.svc_rows: dict = {}


class QuetzalRuntime(Policy):
    """Quetzal as a schedulable policy.

    Parameters
    ----------
    scheduler:
        Job-selection policy; default is the paper's Energy-aware SJF.
    estimator:
        Service-time estimator; default is the hardware-assisted one (the
        production configuration).  Pass an
        :class:`~repro.core.service_time.AverageServiceTimeEstimator` to get
        the Avg-S_e2e baseline, or an exact estimator for ablations.
    task_window / arrival_window:
        Bit-vector window sizes (Table 1 defaults: 64 and 256).
    pid:
        PID controller for prediction-error mitigation; pass ``None`` to
        disable (ablation).  Defaults to the paper's constants.
    name:
        Display name; defaults to "quetzal" (for ablations, pass e.g.
        "quetzal-fcfs").
    """

    def __init__(
        self,
        scheduler: Scheduler | None = None,
        estimator: ServiceTimeEstimator | None = None,
        task_window: int = DEFAULT_TASK_WINDOW,
        arrival_window: int = DEFAULT_ARRIVAL_WINDOW,
        pid: PIDController | None | object = _DEFAULT_PID,
        name: str = "quetzal",
    ) -> None:
        self.name = name
        self.scheduler = scheduler or EnergyAwareSJF()
        self.estimator = estimator or HardwareServiceTimeEstimator()
        if pid is _DEFAULT_PID:
            # Paper gains (Table 1) with a filtered derivative and a clamped
            # output: corrections beyond a few seconds would swamp E[S] for
            # the sub-second degraded tasks this controller protects.
            pid = PIDController(
                output_limits=(-2.0, 2.0), derivative_tau_s=5.0
            )
        self.pid: PIDController | None = pid  # type: ignore[assignment]
        self.task_window = task_window
        self.arrival_window = arrival_window
        self.uses_hardware_module = isinstance(
            self.estimator, HardwareServiceTimeEstimator
        )
        self._jobs: JobSet | None = None
        self._num_tasks = 0
        self._options_per_task = 0
        self._arrivals: ArrivalRateTracker | None = None
        self._probabilities = ExecutionProbabilityTracker(task_window)
        self._last_completion_s: float | None = None
        self._plans: dict[str, _JobDecisionPlan] = {}
        self._estimator_observes = True
        self._cost_cache: tuple[MCUProfile, tuple[float, float]] | None = None
        #: Work counters for the cached decision path (harvested into
        #: RunMetrics at the end of a run).
        self.decision_stats = DecisionPathStats()
        #: Trace sink handed over by the engine (SimulationEngine(tracer=...))
        #: so PID corrections land in the same event stream.
        self._tracer = None

    # -- lifecycle ---------------------------------------------------------------

    def prepare(self, jobs: JobSet, capture_period_s: float) -> None:
        self._jobs = jobs
        tasks = jobs.all_tasks()
        self._num_tasks = len(tasks)
        self._options_per_task = jobs.max_options_per_task()
        self.estimator.profile(tasks)
        self._arrivals = ArrivalRateTracker(self.arrival_window, capture_period_s)
        self._plans = {job.name: _JobDecisionPlan(job) for job in jobs}
        self.decision_stats = DecisionPathStats()
        # Estimators with the base no-op observe skip the per-completion
        # feedback loop entirely.
        self._estimator_observes = (
            type(self.estimator).observe is not ServiceTimeEstimator.observe
        )
        # Only estimators that consume realised spans need the engine to
        # time every executed task (see Policy.needs_task_spans).
        self.needs_task_spans = self._estimator_observes
        self._cost_cache = None

    def attach_tracer(self, tracer) -> None:
        """Receive the engine's :class:`repro.obs.TraceSink` for the run.

        The runtime emits one ``pid_update`` event per absorbed service-time
        error sample; everything else about the decision path is already
        visible through the engine's own events.
        """
        self._tracer = tracer

    def reset(self) -> None:
        if self._arrivals is not None:
            self._arrivals = ArrivalRateTracker(
                self.arrival_window, self._arrivals.capture_period_s
            )
        self._probabilities = ExecutionProbabilityTracker(self.task_window)
        if self.pid is not None:
            self.pid.reset()
        self._last_completion_s = None
        # Every run starts with an empty estimator-row cache.
        for plan in self._plans.values():
            plan.svc_rows.clear()
        self.decision_stats = DecisionPathStats()

    # -- observation hooks ---------------------------------------------------------

    def on_capture(self, now_s: float, stored: bool) -> None:
        arrivals = self._arrivals
        if arrivals is None:
            raise ConfigurationError("QuetzalRuntime used before prepare()")
        arrivals.record_capture(stored)

    def on_job_complete(self, record: CompletionRecord) -> None:
        # Atomically append execution bits for all of the job's tasks
        # (section 5.1's bit-vector update rule).
        self._probabilities.record_job(record.executed_by_task)

        # Feed per-task realised service times to the estimator — skipped
        # outright for estimators that keep the base no-op observe (the
        # production hardware estimator and the exact one), for which the
        # loop below would change nothing.
        if self._estimator_observes:
            job = self._require_jobs().job(record.decision.job_name)
            for ref in job.task_refs:
                if not record.executed_by_task.get(ref.task.name, False):
                    continue
                span = record.task_spans.get(ref.task.name)
                if span is None:
                    continue
                option = record.decision.chosen_options.get(
                    ref.task.name, ref.task.highest_quality
                )
                self.estimator.observe(ref.task, option, span)

        # PID error mitigation (section 4.3): error is observed - predicted.
        pid = self.pid
        if pid is not None and record.decision.predicted_service_s is not None:
            observed = record.finished_s - record.started_s  # observed_service_s
            error = observed - record.decision.predicted_service_s
            if self._last_completion_s is None:
                dt = max(observed, 1e-6)
            else:
                dt = max(record.finished_s - self._last_completion_s, 1e-6)
            output = pid.update(error, dt)
            if self._tracer is not None:
                from repro.obs.events import TraceEvent

                self._tracer.emit(TraceEvent(record.finished_s, "pid_update", data={
                    "job": record.decision.job_name,
                    "error_s": error,
                    "dt_s": dt,
                    "output": output,
                }))
        self._last_completion_s = record.finished_s

    # -- the decision procedure -------------------------------------------------------

    def select(self, context: SchedulingContext) -> Decision:
        """Alg. 1 over Alg. 2: pick the job with the least realizable E[S].

        Each candidate is scored by its *realizable* E[S]: the service time
        at the degradation option the IBO walk would choose for it.
        Scoring at nominal quality instead would make SJF permanently defer
        a job whose degraded form is actually the shortest available work,
        letting its inputs camp in the buffer.  Every degradation option of
        every pending job is considered, which is the per-invocation
        operation count the paper charges for (section 5.1: num_tasks +
        num_degradation_options).

        The floats are those of the stateless
        :class:`~repro.core.ibo.IBOEngine`: the estimator's
        ``service_time_vector`` contract, the ``non_deg + deg_prob * s +
        correction`` association of ``IBOEngine.decide`` and ``growth >=
        free`` detection (``tests/core/test_decision_cache.py`` checks
        single decisions against ``IBOEngine`` and
        ``tests/sim/test_golden_runs.py`` pins whole runs).  Each candidate
        is decided at most once per call, whichever scheduler asks.
        """
        arrivals = self._arrivals
        if arrivals is None:
            raise ConfigurationError("QuetzalRuntime used before prepare()")
        # One input-power measurement per invocation (Alg. 1 line 1).
        estimator = self.estimator
        estimator.begin_cycle(context.true_input_power_w)
        token = estimator.cache_token()
        pid = self.pid
        correction = pid.output if pid is not None else 0.0
        arrival_rate = arrivals.rate()
        limit = context.buffer_limit
        if limit is None:
            free = math.inf
        else:
            free = max(0.0, float(limit - context.buffer_occupancy))
        stats = self.decision_stats
        stats.decisions += 1
        plans = self._plans
        decided: dict[str, IBODecision] = {}

        def ibo_for(job_name: str) -> IBODecision:
            ibo = decided.get(job_name)
            if ibo is None:
                ibo = decided[job_name] = self._decide(
                    plans[job_name], token, arrival_rate, free, correction
                )
            return ibo

        def scorer(candidate: JobCandidate) -> float:
            stats.scored_candidates += 1
            return ibo_for(candidate.job.name).predicted_service_s

        selection = self.scheduler.select(context.candidates, scorer)
        job_name = selection.candidate.job.name
        ibo = ibo_for(job_name)
        return _make_decision(
            job_name,
            selection.entry,
            {plans[job_name].deg_task_name: ibo.option},
            ibo.predicted_service_s,
            ibo.ibo_predicted,
            ibo.degraded,
        )

    def _decide(
        self,
        plan: _JobDecisionPlan,
        token: object | None,
        arrival_rate: float,
        free: float,
        correction: float,
    ) -> IBODecision:
        """Algorithm 2 for one job over its flat score row.

        The row is the Eq.-1 S_e2e vector of the degradable task, the
        non-degradable E[S] sum and the degradable task's execution
        probability.  Its estimator half comes from ``plan.svc_rows`` (the
        only place the estimator is consulted); the probabilities are read
        fresh.  The walk itself is then one multiply + add + max and one
        Little's-Law comparison per option.
        """
        stats = self.decision_stats
        svc = plan.svc_rows.get(token) if token is not None else None
        if svc is None:
            stats.cache_misses += 1
            service_time = self.estimator.service_time
            svc = (
                tuple(
                    service_time(task, highest)
                    for task, highest, _ in plan.non_deg_terms
                ),
                self.estimator.service_time_vector(plan.deg_task),
            )
            if token is not None:
                if len(plan.svc_rows) >= 4096:
                    # Safety bound for continuous tokens (e.g. the exact
                    # estimator's raw float P_in); the 8-bit hardware code
                    # never gets near it.
                    plan.svc_rows.clear()
                plan.svc_rows[token] = svc
        else:
            stats.cache_hits += 1
        svc_times, s_times = svc
        probability = self._probabilities.probability
        non_deg = 0.0
        for (task, _, conditional), svc_time in zip(plan.non_deg_terms, svc_times):
            prob = probability(task.name) if conditional else 1.0
            non_deg += prob * svc_time
        deg_prob = (
            probability(plan.deg_task_name) if plan.deg_conditional else 1.0
        )

        # Detection (Alg. 2 line 6).  max(0.0, …) also absorbs a NaN from
        # 0 * inf exactly as IBOEngine's corrected_e_s does.
        e_s = max(0.0, non_deg + deg_prob * s_times[0] + correction)
        if not (arrival_rate * e_s >= free):
            return _make_ibo(plan.options[0], False, True, e_s, False)

        # Reaction walk (Alg. 2 lines 8-19) over the flat S_e2e vector.
        stats.degradation_walks += 1
        options = plan.options
        steps = 0
        for i, s_i in enumerate(s_times):
            steps += 1
            e_s_i = max(0.0, non_deg + deg_prob * s_i + correction)
            if not (arrival_rate * e_s_i >= free):
                stats.degradation_walk_steps += steps
                return _make_ibo(options[i], True, True, e_s_i, i > 0)
        stats.degradation_walk_steps += steps

        # Fallback: minimise S_e2e (first minimum wins, like min()).
        best_i = 0
        best_s = s_times[0]
        for i in range(1, len(s_times)):
            if s_times[i] < best_s:
                best_i = i
                best_s = s_times[i]
        return _make_ibo(
            options[best_i],
            True,
            False,
            max(0.0, non_deg + deg_prob * s_times[best_i] + correction),
            best_i > 0,
        )

    # -- cost model ---------------------------------------------------------------------

    def invocation_cost(self, mcu: MCUProfile) -> tuple[float, float]:
        if self._num_tasks == 0:
            return (0.0, 0.0)
        # The section 5.1 cost model depends only on profile-time constants,
        # but the engine asks on every decision; memoize per MCU profile.
        cached = self._cost_cache
        if cached is not None and cached[0] is mcu:
            return cached[1]
        cost = scheduler_invocation_cost(
            mcu,
            num_tasks=self._num_tasks,
            options_per_task=self._options_per_task,
            use_module=self.uses_hardware_module,
        )
        self._cost_cache = (mcu, cost)
        return cost

    # -- internals ------------------------------------------------------------------------

    def _require_jobs(self) -> JobSet:
        if self._jobs is None:
            raise ConfigurationError("QuetzalRuntime used before prepare()")
        return self._jobs
