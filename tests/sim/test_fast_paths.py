"""The engine's hot paths against the reference's recorded results.

The scalar engine runs one implementation: monotone :class:`TraceCursor`
and event-index queries, the fused span-integration loop in
``_advance_to``, the cached-fold recharge loop and the Quetzal runtime's
cached decision path.  Its contract is *exact* floating-point equality
with the stateless reference implementations those paths replaced: every
metric, counter and telemetry-visible quantity bit-identical, not merely
close.  The reference bodies are gone; their results over every policy
family, with and without cost jitter, on a bounded and an unbounded buffer
and on a dense sub-second trace, are the ``FIXTURE_GOLDEN`` digests in
``test_golden_runs.py`` (recorded while both implementations agreed).

The digests leave out the decision-path *work counters*
(``decision_cache_hits`` etc.): they measure implementation effort, not
simulated behaviour.  ``test_decision_counters_*`` pins their required
behaviour instead.
"""

import pytest

from repro.core.runtime import QuetzalRuntime
from repro.env.activity import CROWDED
from repro.policies.noadapt import NoAdaptPolicy
from repro.sim.engine import SimulationConfig, simulate
from repro.trace.solar import SolarTraceGenerator
from repro.workload.pipelines import build_apollo_app
from tests.sim.test_golden_runs import (
    FIXTURE_GOLDEN,
    FIXTURE_POLICIES,
    WORK_COUNTER_FIELDS,
    digest,
    run_fixture,
)


@pytest.fixture(scope="module")
def solar_trace():
    return SolarTraceGenerator(seed=1).generate()


@pytest.fixture(scope="module")
def schedule():
    return CROWDED.schedule(40, seed=2)


def run_one(policy_factory, trace, schedule):
    config = SimulationConfig(seed=5)
    return simulate(build_apollo_app(), policy_factory(), trace, schedule, config=config)


def matches_reference(key: str) -> bool:
    return digest(run_fixture(key)) == FIXTURE_GOLDEN[key]


@pytest.mark.parametrize("policy_name", sorted(FIXTURE_POLICIES))
def test_bit_identical_metrics(policy_name):
    assert matches_reference(policy_name)


@pytest.mark.parametrize("policy_name", ["noadapt", "quetzal"])
@pytest.mark.parametrize("sigma", [0.2, 0.7])
def test_bit_identical_with_cost_jitter(policy_name, sigma):
    """Jitter draws extra RNG per task; the streams must stay aligned."""
    assert matches_reference(f"{policy_name}/jitter-{sigma}")


def test_bit_identical_unbounded_buffer():
    """The Ideal baseline: capacity=None exercises the no-IBO branches."""
    assert matches_reference("quetzal/unbounded")


def test_bit_identical_dense_trace():
    """Sub-second segments: many fused multi-segment steps per job."""
    assert matches_reference("noadapt/dense")


def test_engine_has_one_path():
    """No switch selects a second engine implementation."""
    with pytest.raises(TypeError):
        SimulationConfig(fast_paths=False)  # type: ignore[call-arg]


# -- decision-path work counters (satellite: RunMetrics observability) --------


def test_decision_counters_populated_on_fast_path(solar_trace, schedule):
    """The decision path must account for its work: under Energy-aware
    SJF every decision scores each candidate exactly once, each scored
    candidate is one lookup of the per-token estimator rows, and the rows
    are reused across decisions."""
    metrics = run_one(QuetzalRuntime, solar_trace, schedule)
    scored = metrics.decision_scored_candidates
    lookups = metrics.decision_cache_hits + metrics.decision_cache_misses
    assert scored > 0
    assert lookups == scored
    assert metrics.decision_cache_hits > 0
    assert metrics.jobs_completed > 0
    # Non-Quetzal policies have no decision cache: their counters stay
    # zero.
    baseline = run_one(NoAdaptPolicy, solar_trace, schedule)
    for field in WORK_COUNTER_FIELDS:
        assert getattr(baseline, field) == 0, field


def test_fcfs_decides_only_the_selected_job(solar_trace, schedule):
    """FCFS never calls the scorer, so each decision makes exactly one
    row lookup: the selected job's."""
    from repro.core.scheduler import FCFSScheduler

    policy = QuetzalRuntime(scheduler=FCFSScheduler())
    run_one(lambda: policy, solar_trace, schedule)
    stats = policy.decision_stats
    assert stats.decisions > 0
    assert stats.scored_candidates == 0
    assert stats.cache_hits + stats.cache_misses == stats.decisions
    assert stats.score_table_rebuilds == stats.cache_misses


def test_decision_counters_surface_in_telemetry(solar_trace, schedule):
    """The policy's live counters must match the RunMetrics counters."""
    from repro.sim.telemetry import TelemetryRecorder

    policy = QuetzalRuntime()
    metrics = simulate(
        build_apollo_app(),
        policy,
        solar_trace,
        schedule,
        config=SimulationConfig(seed=5),
        tracer=TelemetryRecorder(),
    )
    stats = policy.decision_stats
    assert stats.cache_hits == metrics.decision_cache_hits
    assert stats.cache_misses == metrics.decision_cache_misses
    assert stats.scored_candidates == metrics.decision_scored_candidates
    assert stats.degradation_walks == metrics.degradation_walks
    assert stats.degradation_walk_steps == metrics.degradation_walk_steps
    d = stats.as_dict()
    assert d["decisions"] == stats.decisions
    assert 0.0 <= d["cache_hit_rate"] <= 1.0
