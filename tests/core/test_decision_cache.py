"""Edge cases of the cached decision path, against a stateless oracle.

The component-level edge cases (PID ``dt_s <= 0``, Little's-Law zero
rate / unbounded buffer, Alg. 2's fastest-option fallback) each have unit
tests against the stateless components; this module pins the runtime's
decision path, with its per-token estimator rows, to
:func:`reference_select` — Alg. 1 over the stateless :class:`IBOEngine`'s
Alg. 2 — at exactly those corners, where a stale or mis-keyed row would
be most likely to diverge:

* λ = 0 (empty arrival window) with free space, and with a full buffer
  (``0 >= 0`` still predicts an overflow);
* ``buffer_limit=None`` (the Ideal baseline's unbounded buffer);
* the degradation walk's fastest-option fallback when no option clears
  the predicted overflow;
* power, arrival-window and execution-probability churn between
  decisions.

The runtime and the oracle share one ``JobSet`` so Decision equality is
exact — identical option objects, bit-identical floats.
"""

import pytest

from repro.core.ibo import IBOEngine
from repro.core.pid import PIDController
from repro.core.runtime import QuetzalRuntime
from repro.core.scheduler import JobCandidate
from repro.device.buffer import BufferedInput
from repro.errors import ConfigurationError
from repro.policies.base import Decision, SchedulingContext
from repro.workload.pipelines import DETECT_JOB, ML_TASK, TX_PREP_TASK, build_apollo_app

APP = build_apollo_app()
JOBS = APP.jobs


def make_runtime() -> QuetzalRuntime:
    runtime = QuetzalRuntime()
    runtime.prepare(JOBS, capture_period_s=1.0)
    return runtime


def reference_select(runtime: QuetzalRuntime, ctx: SchedulingContext) -> Decision:
    """One uncached decision over ``runtime``'s live state (the oracle).

    Every candidate is scored by the stateless ``IBOEngine().decide`` from
    the runtime's estimator, trackers and PID correction, and the runtime's
    scheduler picks on those scores.  Reads the runtime's state and
    touches none of its caches or counters (``begin_cycle`` re-measures
    the same power the cached path measures).
    """
    # One input-power measurement per invocation (Alg. 1 line 1).
    runtime.estimator.begin_cycle(ctx.true_input_power_w)
    correction = runtime.pid.output if runtime.pid is not None else 0.0
    arrival_rate = runtime._arrivals.rate()
    ibo_engine = IBOEngine()
    ibo_by_job = {}

    def ibo_for(candidate):
        cached = ibo_by_job.get(candidate.job.name)
        if cached is None:
            cached = ibo_engine.decide(
                candidate.job,
                arrival_rate=arrival_rate,
                buffer_occupancy=ctx.buffer_occupancy,
                buffer_limit=ctx.buffer_limit,
                service_time_fn=runtime.estimator.service_time,
                probability_fn=runtime._probabilities.probability,
                correction_s=correction,
            )
            ibo_by_job[candidate.job.name] = cached
        return cached

    def scorer(candidate):
        return ibo_for(candidate).predicted_service_s

    selection = runtime.scheduler.select(ctx.candidates, scorer)
    ibo = ibo_for(selection.candidate)
    return Decision(
        job_name=selection.job.name,
        entry=selection.entry,
        chosen_options={selection.job.degradable_task.name: ibo.option},
        predicted_service_s=ibo.predicted_service_s,
        ibo_predicted=ibo.ibo_predicted,
        degraded=ibo.degraded,
    )


def detect_context(
    *,
    occupancy: int = 1,
    limit: int | None = 8,
    power_w: float = 0.05,
    now_s: float = 10.0,
) -> SchedulingContext:
    entry = BufferedInput(
        capture_time=now_s - 1.0,
        interesting=False,
        job_name=DETECT_JOB,
        enqueue_time=now_s - 1.0,
    )
    candidate = JobCandidate(
        job=JOBS.job(DETECT_JOB), oldest=entry, newest=entry, pending_count=occupancy
    )
    return SchedulingContext(
        now_s=now_s,
        candidates=[candidate],
        buffer_occupancy=occupancy,
        buffer_limit=limit,
        true_input_power_w=power_w,
        max_trace_power_w=0.2,
    )


def select_both(**context_kwargs):
    """The same single decision, cached and by the oracle."""
    ctx = detect_context(**context_kwargs)
    return [make_runtime().select(ctx), reference_select(make_runtime(), ctx)]


class TestZeroArrivalRate:
    """λ = 0: an empty arrival window, Little's Law's left edge."""

    def test_with_free_space_matches_reference(self):
        fast, reference = select_both(occupancy=1, limit=8)
        assert fast == reference
        assert fast.ibo_predicted is False
        assert fast.degraded is False

    def test_full_buffer_still_predicts_overflow(self):
        # growth = 0 >= free = 0: detection fires even with no arrivals,
        # and since *no* option can beat zero free space the walk falls
        # back to the fastest option — cached and by the oracle.
        fast, reference = select_both(occupancy=8, limit=8)
        assert fast == reference
        assert fast.ibo_predicted is True
        assert fast.degraded is True


class TestUnboundedBuffer:
    def test_never_predicts_overflow(self):
        fast, reference = select_both(occupancy=100, limit=None)
        assert fast == reference
        assert fast.ibo_predicted is False
        assert fast.degraded is False


class TestFastestOptionFallback:
    def test_walk_falls_back_to_fastest(self):
        """When nothing avoids the IBO, cache and oracle pick min-S_e2e."""
        ml_task = JOBS.job(DETECT_JOB).degradable_task
        for decision in select_both(occupancy=8, limit=8):
            chosen = decision.chosen_options[ML_TASK]
            fastest = ml_task.fastest_option(lambda opt: opt.cost.t_exe_s)
            assert chosen is fastest
            assert decision.ibo_predicted is True

    def test_fallback_counts_a_degradation_walk(self):
        runtime = make_runtime()
        runtime.select(detect_context(occupancy=8, limit=8))
        stats = runtime.decision_stats
        assert stats.degradation_walks == 1
        # The walk visited every option before falling back.
        ml_task = JOBS.job(DETECT_JOB).degradable_task
        assert stats.degradation_walk_steps == len(ml_task.options)


class TestCacheChurn:
    """State changes between decisions must invalidate, not stale-hit."""

    def test_power_token_change_matches_reference(self):
        runtime = make_runtime()
        for power in (0.01, 0.15, 0.01, 0.08, 0.15):
            ctx = detect_context(power_w=power)
            assert runtime.select(ctx) == reference_select(runtime, ctx)

    def test_arrival_window_change_matches_reference(self):
        runtime = make_runtime()
        for i, stored in enumerate([True, True, False, True]):
            runtime.on_capture(float(i), stored)
            ctx = detect_context(now_s=float(i) + 0.5)
            assert runtime.select(ctx) == reference_select(runtime, ctx)

    def test_probability_change_matches_reference(self):
        # tx_prep is the detect job's one conditional task: its execution
        # probability feeds every E[S] while the estimator row is reused.
        from repro.policies.base import CompletionRecord
        from repro.workload.pipelines import JobOutcome

        runtime = make_runtime()
        for i, executed in enumerate([True, False, False, True, False]):
            ctx = detect_context(occupancy=6, now_s=10.0 + i)
            decision = runtime.select(ctx)
            assert decision == reference_select(runtime, ctx)
            runtime.on_job_complete(CompletionRecord(
                decision=decision,
                started_s=10.0 + i,
                finished_s=10.5 + i,
                executed_by_task={ML_TASK: True, TX_PREP_TASK: executed},
                outcome=JobOutcome(remove_input=True, classified_positive=False),
            ))
        assert runtime.decision_stats.cache_hits == 4

    def test_repeat_decision_hits_cache(self):
        runtime = make_runtime()
        ctx = detect_context()
        first = runtime.select(ctx)
        second = runtime.select(ctx)
        assert first == second
        stats = runtime.decision_stats
        assert stats.decisions == 2
        assert stats.cache_hits == 1
        assert stats.cache_misses == 1


class TestPIDEdges:
    def test_pid_rejects_zero_dt(self):
        with pytest.raises(ConfigurationError):
            PIDController().update(1.0, dt_s=0.0)

    def test_simultaneous_completions_use_floored_dt(self):
        """Two completions at the same timestamp must not feed dt=0 into
        the PID (the runtime floors dt at 1 µs)."""
        from repro.policies.base import CompletionRecord
        from repro.workload.pipelines import JobOutcome

        runtime = make_runtime()
        decision = runtime.select(detect_context())
        record = CompletionRecord(
            decision=decision,
            started_s=10.0,
            finished_s=12.5,
            executed_by_task={ML_TASK: True},
            outcome=JobOutcome(remove_input=True, classified_positive=False),
        )
        runtime.on_job_complete(record)
        runtime.on_job_complete(record)  # same finished_s: dt would be 0
        assert runtime.pid.output == runtime.pid.output  # finite, no raise


class TestSelectBinding:
    """select() refuses to decide before prepare()."""

    def test_unprepared_instance_raises(self):
        runtime = QuetzalRuntime()
        with pytest.raises(ConfigurationError):
            runtime.select(detect_context())
