"""Fast paths vs reference paths: bit-identical results, by construction.

``SimulationConfig(fast_paths=...)`` selects between the engine's
constant-amortized hot paths (monotone :class:`TraceCursor` /
:class:`EventCursor`, the fused span-integration loop in ``_advance_to``,
the cached-fold recharge loop, and the policy's cached decision path) and
the original stateless reference implementations.  The optimization
contract is *exact* floating-point equality — every metric, counter, and
telemetry-visible quantity must come out bit-identical, not merely close.
This suite runs both engines over every policy family, with and without
cost jitter, on bounded and unbounded buffers and on a dense sub-second
trace, and compares the full :class:`RunMetrics` dataclass trees with
``==`` (no ``approx``).

The only fields excluded from the contract are the decision-path *work
counters* (``decision_cache_hits`` etc.): they measure implementation
effort, which by design differs between the cached and reference paths.
``test_decision_counters_*`` pins their required behaviour instead.
"""

import dataclasses

import pytest

from repro.core.runtime import QuetzalRuntime
from repro.env.activity import CROWDED
from repro.policies.always_degrade import AlwaysDegradePolicy
from repro.policies.buffer_threshold import BufferThresholdPolicy, catnap_policy
from repro.policies.noadapt import NoAdaptPolicy
from repro.policies.power_threshold import PowerThresholdPolicy
from repro.sim.engine import SimulationConfig, simulate
from repro.trace.solar import SolarTraceConfig, SolarTraceGenerator
from repro.workload.pipelines import build_apollo_app

#: RunMetrics fields that count decision-path implementation work.  They
#: are zero on the reference path by definition (nothing is cached), so
#: the bit-identical comparison strips them; their behaviour is pinned
#: separately below.
WORK_COUNTER_FIELDS = (
    "decision_cache_hits",
    "decision_cache_misses",
    "decision_scored_candidates",
    "degradation_walks",
    "degradation_walk_steps",
)


@pytest.fixture(scope="module")
def solar_trace():
    return SolarTraceGenerator(seed=1).generate()


@pytest.fixture(scope="module")
def dense_trace():
    return SolarTraceGenerator(SolarTraceConfig(sample_period_s=0.05), seed=1).generate()


@pytest.fixture(scope="module")
def schedule():
    return CROWDED.schedule(40, seed=2)


POLICIES = {
    "noadapt": NoAdaptPolicy,
    "quetzal": QuetzalRuntime,
    "catnap": catnap_policy,
    "buffer-threshold": lambda: BufferThresholdPolicy(0.5),
    "power-threshold": lambda: PowerThresholdPolicy(0.05),
    "always-degrade": AlwaysDegradePolicy,
}


def run_one(policy_factory, trace, schedule, *, fast, **config_kwargs):
    config = SimulationConfig(seed=5, fast_paths=fast, **config_kwargs)
    return simulate(build_apollo_app(), policy_factory(), trace, schedule, config=config)


def run_both(policy_factory, trace, schedule, **config_kwargs):
    """One run per path; returns the two RunMetrics as plain dict trees.

    Decision-path work counters are stripped — they describe the
    implementation, not the simulation, and are pinned separately.
    """
    out = []
    for fast in (True, False):
        metrics = run_one(policy_factory, trace, schedule, fast=fast, **config_kwargs)
        tree = dataclasses.asdict(metrics)
        for field in WORK_COUNTER_FIELDS:
            tree.pop(field)
        out.append(tree)
    return out


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_bit_identical_metrics(policy_name, solar_trace, schedule):
    fast, reference = run_both(POLICIES[policy_name], solar_trace, schedule)
    assert fast == reference


@pytest.mark.parametrize("policy_name", ["noadapt", "quetzal"])
@pytest.mark.parametrize("sigma", [0.2, 0.7])
def test_bit_identical_with_cost_jitter(policy_name, sigma, solar_trace, schedule):
    """Jitter draws extra RNG per task; the streams must stay aligned."""
    fast, reference = run_both(
        POLICIES[policy_name], solar_trace, schedule, cost_jitter_sigma=sigma
    )
    assert fast == reference


def test_bit_identical_unbounded_buffer(solar_trace, schedule):
    """The Ideal baseline: capacity=None exercises the no-IBO branches."""
    fast, reference = run_both(
        QuetzalRuntime, solar_trace, schedule, buffer_capacity=None
    )
    assert fast == reference


def test_bit_identical_dense_trace(dense_trace, schedule):
    """Sub-second segments: many fused multi-segment steps per job."""
    fast, reference = run_both(NoAdaptPolicy, dense_trace, schedule)
    assert fast == reference


def test_fast_paths_default_on():
    assert SimulationConfig().fast_paths is True


# -- decision-path work counters (satellite: RunMetrics observability) --------


def test_decision_counters_zero_on_reference_path(solar_trace, schedule):
    """fast_paths=False disables the decision cache entirely: every work
    counter must read zero, proving the reference run took the uncached
    Alg. 1/2 path."""
    metrics = run_one(QuetzalRuntime, solar_trace, schedule, fast=False)
    for field in WORK_COUNTER_FIELDS:
        assert getattr(metrics, field) == 0, field


def test_decision_counters_populated_on_fast_path(solar_trace, schedule):
    """The cached path must account for its work: every decision scores
    its candidates exactly once, and each (decision, candidate) lookup is
    either a hit or a miss."""
    metrics = run_one(QuetzalRuntime, solar_trace, schedule, fast=True)
    scored = metrics.decision_scored_candidates
    lookups = metrics.decision_cache_hits + metrics.decision_cache_misses
    assert scored > 0
    assert lookups == scored
    assert metrics.jobs_completed > 0
    # Non-Quetzal policies have no decision cache: counters stay zero even
    # on the fast path.
    baseline = run_one(NoAdaptPolicy, solar_trace, schedule, fast=True)
    for field in WORK_COUNTER_FIELDS:
        assert getattr(baseline, field) == 0, field


def test_decision_counters_surface_in_telemetry(solar_trace, schedule):
    """The policy's live counters must match the RunMetrics counters."""
    from repro.sim.telemetry import TelemetryRecorder

    policy = QuetzalRuntime()
    config = SimulationConfig(seed=5, fast_paths=True)
    metrics = simulate(
        build_apollo_app(),
        policy,
        solar_trace,
        schedule,
        config=config,
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
