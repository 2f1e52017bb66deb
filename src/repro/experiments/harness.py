"""Running policy grids over experiment configurations.

The evaluation compares many policies on the same environments; to make
that reproducible and statistically honest the harness:

* rebuilds every stateful object (policy, storage, engine) per run;
* shares the solar trace and the arrival stream across policies at a given
  seed (the paper's secondary-MCU repeatability, section 6.2);
* aggregates each metric over seed replicas as a mean (with the replica
  standard deviation alongside, so sweeps report statistical spread).

Execution itself — parallel fan-out, input caching, per-run fault
tolerance — lives in :mod:`repro.experiments.runner`; ``run_grid`` is the
grid-shaped front end over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.core.runtime import QuetzalRuntime
from repro.core.scheduler import FCFSScheduler, LCFSScheduler
from repro.core.service_time import AverageServiceTimeEstimator
from repro.errors import ConfigurationError
from repro.experiments.configs import ExperimentConfig
from repro.experiments.runner import (
    ExperimentRunner,
    GridResults,
    RunFailure,
    grid_specs,
)
from repro.policies.always_degrade import AlwaysDegradePolicy
from repro.policies.base import Policy
from repro.policies.buffer_threshold import BufferThresholdPolicy, catnap_policy
from repro.policies.noadapt import NoAdaptPolicy
from repro.policies.power_threshold import PowerThresholdPolicy
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import RunMetrics

__all__ = [
    "PolicyFactory",
    "PolicyGrid",
    "AggregateMetrics",
    "GridResults",
    "RunFailure",
    "aggregate",
    "run_config",
    "run_grid",
    "standard_policies",
    "quetzal_factory",
    "PZ_DATASHEET_MAX_W",
]

#: A factory producing a *fresh* policy instance per run.
PolicyFactory = Callable[[], Policy]

#: Named grid of policies to compare.
PolicyGrid = Mapping[str, PolicyFactory]

#: Datasheet maximum of the modelled harvester (6 x IXYS SM700K10L at
#: standard test conditions, before real-world derating).  Real traces
#: almost never reach it, which is the flaw the paper calls out in the
#: Zygarde/Protean thresholds (section 6.1).
PZ_DATASHEET_MAX_W = 2.4


@dataclass(frozen=True)
class AggregateMetrics:
    """Seed-averaged summary of one policy on one configuration.

    ``*_std`` fields carry the population standard deviation over the seed
    replicas of the corresponding mean, so sweeps report spread as well as
    central tendency (0.0 for single-replica aggregates).
    """

    policy: str
    runs: int
    discarded_fraction: float
    ibo_fraction: float
    false_negative_fraction: float
    reported_interesting: float
    reported_hq: float
    reported_lq: float
    high_quality_fraction: float
    captures_interesting: float
    packets_uninteresting: float
    discarded_fraction_std: float = 0.0
    ibo_fraction_std: float = 0.0
    false_negative_fraction_std: float = 0.0
    reported_interesting_std: float = 0.0
    high_quality_fraction_std: float = 0.0

    def as_row(self) -> dict:
        """Row dict for the reporting table helpers."""
        return {
            "policy": self.policy,
            "discarded %": 100 * self.discarded_fraction,
            "ibo %": 100 * self.ibo_fraction,
            "fn %": 100 * self.false_negative_fraction,
            "hq pkts": self.reported_hq,
            "lq pkts": self.reported_lq,
            "hq share %": 100 * self.high_quality_fraction,
        }


def aggregate(policy: str, runs: Sequence[RunMetrics]) -> AggregateMetrics:
    """Average the figure-of-merit metrics over seed replicas.

    Each key metric's mean comes with its population standard deviation
    over the replicas (the spread parallel sweeps report).
    """
    if not runs:
        raise ConfigurationError("aggregate() needs at least one run")
    n = len(runs)

    def mean(fn: Callable[[RunMetrics], float]) -> float:
        return sum(fn(m) for m in runs) / n

    def std(fn: Callable[[RunMetrics], float]) -> float:
        mu = mean(fn)
        return math.sqrt(sum((fn(m) - mu) ** 2 for m in runs) / n)

    return AggregateMetrics(
        policy=policy,
        runs=n,
        discarded_fraction=mean(lambda m: m.interesting_discarded_fraction),
        ibo_fraction=mean(lambda m: m.ibo_discarded_fraction),
        false_negative_fraction=mean(lambda m: m.false_negative_fraction),
        reported_interesting=mean(lambda m: m.reported_interesting),
        reported_hq=mean(lambda m: m.packets_interesting_high),
        reported_lq=mean(lambda m: m.packets_interesting_low),
        high_quality_fraction=mean(lambda m: m.high_quality_fraction),
        captures_interesting=mean(lambda m: m.captures_interesting),
        packets_uninteresting=mean(
            lambda m: m.packets_uninteresting_high + m.packets_uninteresting_low
        ),
        discarded_fraction_std=std(lambda m: m.interesting_discarded_fraction),
        ibo_fraction_std=std(lambda m: m.ibo_discarded_fraction),
        false_negative_fraction_std=std(lambda m: m.false_negative_fraction),
        reported_interesting_std=std(lambda m: m.reported_interesting),
        high_quality_fraction_std=std(lambda m: m.high_quality_fraction),
    )


def run_config(config: ExperimentConfig, policy: Policy) -> RunMetrics:
    """Run one policy once on one configuration."""
    engine = SimulationEngine(
        app=config.build_app(),
        policy=policy,
        trace=config.build_trace(),
        schedule=config.build_schedule(),
        mcu=config.mcu,
        storage=config.build_storage(),
        config=config.build_sim_config(),
    )
    return engine.run()


def run_grid(
    config: ExperimentConfig,
    policies: PolicyGrid,
    seeds: Sequence[int] = (0, 1, 2),
    jobs: int | None = 1,
    runner: ExperimentRunner | None = None,
    trace_store=None,
) -> GridResults:
    """Run every policy over seed-shifted replicas of ``config``.

    Returns a name → :class:`AggregateMetrics` mapping in grid order
    (a :class:`~repro.experiments.runner.GridResults` dict).  ``jobs``
    selects the worker-process count (``None`` = one per CPU); results
    are bit-identical at any setting.  A run that keeps raising after its
    retry is recorded on the result's ``failures`` list instead of
    aborting the sweep; a policy whose every replica failed has no
    aggregate entry.  ``trace_store`` optionally names (or is) a
    :class:`~repro.trace.store.TraceStore` the grid's input cache reads
    through (byte-identical results, setup-time speedup; ignored when an
    explicit ``runner`` is passed — configure the runner instead).

    A run this process already finished is served from a per-process
    memo instead of being simulated again.  The memo is keyed on the
    pickled seeded config and the policy's instance state, not on code:
    after redefining or editing a policy class in the same process, call
    :func:`~repro.experiments.runner.clear_run_memo` (also in
    ``repro.api``) to reset it.
    """
    runner = runner or ExperimentRunner(jobs=jobs, trace_store=trace_store)
    specs = grid_specs(config, policies, seeds)
    outcomes = runner.run_specs(specs, policies)
    runs_by_policy: dict[str, list[RunMetrics]] = {name: [] for name in policies}
    failures: list[RunFailure] = []
    for spec, outcome in zip(specs, outcomes):
        if isinstance(outcome, RunFailure):
            failures.append(outcome)
        else:
            runs_by_policy[spec.policy].append(outcome)
    results = GridResults(failures=failures)
    for name, runs in runs_by_policy.items():
        if runs:
            results[name] = aggregate(name, runs)
    return results


# ---------------------------------------------------------------------------
# Standard policy factories (the section 6.1 baseline grid).
# ---------------------------------------------------------------------------


def quetzal_factory(**kwargs) -> PolicyFactory:
    """A factory for Quetzal runtimes with fixed constructor arguments."""
    return lambda: QuetzalRuntime(**kwargs)


def standard_policies() -> dict[str, PolicyFactory]:
    """The full baseline grid of section 6.1 (Ideal is a config, not a policy)."""
    return {
        "QZ": quetzal_factory(),
        "NA": NoAdaptPolicy,
        "AD": AlwaysDegradePolicy,
        "CN": catnap_policy,
        "PZO": lambda: PowerThresholdPolicy(0.5, datasheet_max_w=PZ_DATASHEET_MAX_W),
        "PZI": lambda: PowerThresholdPolicy(0.5),
        "TH25": lambda: BufferThresholdPolicy(0.25),
        "TH50": lambda: BufferThresholdPolicy(0.50),
        "TH75": lambda: BufferThresholdPolicy(0.75),
        "QZ-FCFS": quetzal_factory(scheduler=FCFSScheduler(), name="quetzal-fcfs"),
        "QZ-LCFS": quetzal_factory(scheduler=LCFSScheduler(), name="quetzal-lcfs"),
        "QZ-AVG": lambda: QuetzalRuntime(
            estimator=AverageServiceTimeEstimator(), name="quetzal-avg"
        ),
    }
