"""Tests for the parallel, fault-tolerant experiment runner.

The acceptance properties of the runner:

* a parallel sweep is bit-identical to a serial one (every run's
  randomness derives only from its config's seeds, and results come back
  in spec order);
* a run that raises is retried and, failing again, recorded as a
  structured :class:`RunFailure` without aborting the sweep;
* traces and schedules are built once per distinct key and shared;
* each distinct (seeded config, policy) run simulates once per process
  (the run memo), and nothing else is ever served from the memo.
"""

import dataclasses

import pytest

from repro.core.runtime import QuetzalRuntime
from repro.errors import ConfigurationError
from repro.experiments import runner as runner_module
from repro.experiments.configs import apollo_simulation_config
from repro.experiments.harness import quetzal_factory, run_grid
from repro.experiments.runner import (
    ExperimentRunner,
    GridResults,
    RunFailure,
    RunSpec,
    clear_run_memo,
    grid_specs,
)
from repro.policies.buffer_threshold import BufferThresholdPolicy
from repro.policies.noadapt import NoAdaptPolicy
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import RunMetrics


TINY = apollo_simulation_config("less crowded", 6)


class ExplodingPolicy(NoAdaptPolicy):
    """A policy that dies on preparation, on every attempt."""

    def prepare(self, jobs, capture_period_s):
        raise RuntimeError("boom")


def flaky_factory(failures=1):
    """A factory whose first ``failures`` instances explode, then recover.

    Models a transient per-run fault; the counter lives in the enclosing
    scope, so the retry (same process, fresh instance) sees the recovery.
    """
    state = {"remaining": failures}

    def build():
        if state["remaining"] > 0:
            state["remaining"] -= 1
            return ExplodingPolicy()
        return NoAdaptPolicy()

    return build


class TestParallelEquivalence:
    def test_parallel_matches_serial_bit_for_bit(self):
        grid = {"NA": NoAdaptPolicy, "QZ": quetzal_factory()}
        serial = run_grid(TINY, grid, seeds=(0, 1, 2), jobs=1)
        clear_run_memo()  # else the parallel leg is all memo hits
        parallel = run_grid(TINY, grid, seeds=(0, 1, 2), jobs=4)
        assert serial.ok and parallel.ok
        assert list(serial) == list(parallel)
        # AggregateMetrics is a frozen dataclass of floats: == here means
        # every metric (means and stds) is bit-identical, not approximate.
        assert serial == parallel

    def test_results_come_back_in_spec_order(self):
        specs = grid_specs(TINY, {"NA": None, "QZ": None}, seeds=(0, 1))
        factories = {"NA": NoAdaptPolicy, "QZ": quetzal_factory()}
        serial = ExperimentRunner(jobs=1).run_specs(specs, factories)
        clear_run_memo()  # else the parallel leg is all memo hits
        parallel = ExperimentRunner(jobs=4).run_specs(specs, factories)
        assert len(serial) == len(parallel) == 4
        for a, b in zip(serial, parallel):
            assert isinstance(a, RunMetrics) and isinstance(b, RunMetrics)
            assert a.captures_total == b.captures_total
            assert a.packets_total == b.packets_total


class TestFaultTolerance:
    def test_failure_is_recorded_not_raised(self):
        grid = {"NA": NoAdaptPolicy, "BAD": ExplodingPolicy}
        results = run_grid(TINY, grid, seeds=(0, 1), jobs=1)
        # The healthy policy's sweep completed untouched.
        assert results["NA"].runs == 2
        # The broken policy has no aggregate, only structured failures.
        assert "BAD" not in results
        assert not results.ok
        assert len(results.failures) == 2
        failure = results.failures[0]
        assert failure.policy == "BAD"
        assert failure.seed == 0
        assert "boom" in failure.error
        assert "boom" in failure.traceback
        assert "BAD" in str(failure)

    def test_failure_recorded_in_parallel_too(self):
        grid = {"NA": NoAdaptPolicy, "BAD": ExplodingPolicy}
        results = run_grid(TINY, grid, seeds=(0, 1), jobs=4)
        assert results["NA"].runs == 2
        assert {(f.policy, f.seed) for f in results.failures} == {
            ("BAD", 0),
            ("BAD", 1),
        }

    def test_transient_failure_retried_to_success(self):
        runner = ExperimentRunner(jobs=1, retries=1)
        specs = [RunSpec(policy="FLAKY", seed=0, config=TINY)]
        [outcome] = runner.run_specs(specs, {"FLAKY": flaky_factory(failures=1)})
        assert isinstance(outcome, RunMetrics)

    def test_retries_zero_fails_fast(self):
        runner = ExperimentRunner(jobs=1, retries=0)
        specs = [RunSpec(policy="FLAKY", seed=0, config=TINY)]
        [outcome] = runner.run_specs(specs, {"FLAKY": flaky_factory(failures=1)})
        assert isinstance(outcome, RunFailure)

    def test_unknown_policy_is_a_wiring_error(self):
        specs = [RunSpec(policy="NOPE", seed=0, config=TINY)]
        with pytest.raises(ConfigurationError):
            ExperimentRunner().run_specs(specs, {"NA": NoAdaptPolicy})


class TestCaching:
    def test_trace_shared_across_grid(self):
        specs = grid_specs(TINY, {"A": None, "B": None}, seeds=(0, 1, 2))
        traces, schedules = ExperimentRunner.build_caches(specs)
        # Seed offsets shift only the schedule and classification streams:
        # one trace for the whole grid, one schedule per seed.
        assert len(traces) == 1
        assert len(schedules) == 3

    def test_distinct_configs_get_distinct_traces(self):
        other = apollo_simulation_config("crowded", 6)
        specs = grid_specs(TINY, {"A": None}, seeds=(0,)) + grid_specs(
            other, {"A": None}, seeds=(0,)
        )
        traces, schedules = ExperimentRunner.build_caches(specs)
        assert len(traces) == 1  # same cells + trace seed: still shared
        assert len(schedules) == 2  # different environments


@pytest.fixture
def engine_runs(monkeypatch):
    """The engines simulated in this process, in call order."""
    engines = []
    real_run = SimulationEngine.run

    def counted(self, *args, **kwargs):
        engines.append(self)
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(SimulationEngine, "run", counted)
    return engines


class LambdaPolicy(NoAdaptPolicy):
    """NoAdapt holding a lambda, so the run cannot be pickled into a key."""

    def __init__(self):
        super().__init__()
        self.hook = lambda: None


def run_one(factory, config=TINY, seed=0, retries=1):
    specs = [RunSpec(policy="P", seed=seed, config=config)]
    [outcome] = ExperimentRunner(retries=retries).run_specs(specs, {"P": factory})
    return outcome


class TestRunMemo:
    """Each distinct (seeded config, policy) run simulates once per process."""

    def test_repeat_is_served_without_simulating(self, engine_runs):
        first = run_one(quetzal_factory())
        second = run_one(QuetzalRuntime)  # another factory, same instance
        assert len(engine_runs) == 1
        assert second == first and second is not first

    def test_grid_names_do_not_key_runs(self, engine_runs):
        a, b = (
            ExperimentRunner().run_specs(
                [RunSpec(policy=name, seed=0, config=TINY)], {name: NoAdaptPolicy}
            )[0]
            for name in "AB"
        )
        assert len(engine_runs) == 1
        assert a == b and a is not b

    def test_config_names_do_not_key_runs(self, engine_runs):
        renamed = dataclasses.replace(TINY, name="another label")
        assert run_one(NoAdaptPolicy, config=renamed) == run_one(NoAdaptPolicy)
        assert len(engine_runs) == 1

    def test_figure8_reuses_figure3_runs(self, engine_runs):
        """Figure 8's crowded QZ/NA runs are Figure 3's under another name."""
        from repro.experiments import figures

        cold = figures.fig8_hardware_experiment(4, (0,)).to_dict()
        assert len(engine_runs) == 4
        clear_run_memo()
        engine_runs.clear()
        figures.fig3_naive_solutions(4, (0,))
        engine_runs.clear()
        served = figures.fig8_hardware_experiment(4, (0,)).to_dict()
        assert len(engine_runs) == 2  # only the more-crowded pair simulates
        assert served == cold

    @pytest.mark.parametrize(
        "factories",
        [
            (lambda: BufferThresholdPolicy(0.25), lambda: BufferThresholdPolicy(0.50)),
            (quetzal_factory(arrival_window=128), quetzal_factory(arrival_window=256)),
        ],
        ids=["TH25-TH50", "QZ-arrival-window"],
    )
    def test_distinct_policies_never_share(self, engine_runs, factories):
        for factory in factories:
            run_one(factory)
        assert len(engine_runs) == 2
        assert len(runner_module._run_memo) == 2

    def test_int_and_float_configs_never_share(self, engine_runs):
        as_int = dataclasses.replace(TINY, capture_period_s=1)
        as_float = dataclasses.replace(TINY, capture_period_s=1.0)
        assert as_int == as_float  # equal values, different pickles
        run_one(NoAdaptPolicy, config=as_int)
        run_one(NoAdaptPolicy, config=as_float)
        assert len(engine_runs) == 2

    def test_seeds_never_share(self, engine_runs):
        run_one(NoAdaptPolicy, seed=0)
        run_one(NoAdaptPolicy, seed=1)
        assert len(engine_runs) == 2

    def test_retried_success_is_not_stored(self, engine_runs):
        assert isinstance(run_one(flaky_factory(failures=1)), RunMetrics)
        _, exploding = runner_module._keyed_policy(TINY.with_seeds(0), ExplodingPolicy)
        assert exploding not in runner_module._run_memo
        assert not runner_module._run_memo
        run_one(NoAdaptPolicy)  # the retry's instance was not keyed either
        assert len(engine_runs) == 3

    @pytest.mark.parametrize("retries", [0, 1])
    def test_failures_are_not_memoized(self, retries):
        for _ in range(2):
            assert isinstance(run_one(ExplodingPolicy, retries=retries), RunFailure)
        assert not runner_module._run_memo

    def test_duplicate_failures_keep_their_own_names(self):
        specs = [RunSpec(policy=name, seed=0, config=TINY) for name in "AB"]
        outcomes = ExperimentRunner().run_specs(
            specs, {"A": ExplodingPolicy, "B": ExplodingPolicy}
        )
        assert [failure.policy for failure in outcomes] == ["A", "B"]

    def test_unpicklable_policy_simulates_every_call(self, engine_runs):
        run_one(LambdaPolicy)
        run_one(LambdaPolicy)
        assert len(engine_runs) == 2
        assert not runner_module._run_memo

    def test_hits_are_independent_copies(self):
        fresh = run_one(NoAdaptPolicy)
        expected = dataclasses.asdict(fresh)
        assert fresh.option_use
        fresh.captures_total = -1
        next(iter(fresh.option_use.values())).clear()
        hit = run_one(NoAdaptPolicy)
        assert dataclasses.asdict(hit) == expected
        next(iter(hit.option_use.values()))["mutated"] = 1
        assert dataclasses.asdict(run_one(NoAdaptPolicy)) == expected

    def test_forked_run_fills_the_parent_memo(self, engine_runs):
        specs = grid_specs(TINY, {"NA": None, "TH50": None}, seeds=(0, 1))
        factories = {"NA": NoAdaptPolicy, "TH50": lambda: BufferThresholdPolicy(0.5)}
        parallel = ExperimentRunner(jobs=2).run_specs(specs, factories)
        assert len(runner_module._run_memo) == 4
        engine_runs.clear()
        served = ExperimentRunner(jobs=1).run_specs(specs, factories)
        assert not engine_runs
        assert served == parallel

    def test_memo_is_a_bounded_lru(self):
        memo = runner_module._run_memo
        assert runner_module._RUN_MEMO_SIZE == 512
        run_one(NoAdaptPolicy)
        [kept] = memo
        for index in range(511):
            memo[b"filler-%d" % index] = b""
        run_one(NoAdaptPolicy)  # a hit refreshes the entry
        run_one(NoAdaptPolicy, seed=1)  # a miss evicts the oldest filler
        assert len(memo) == 512
        assert b"filler-0" not in memo and b"filler-1" in memo
        assert kept in memo


class TestTraceStoreReadThrough:
    """A grid with a store-backed input cache is bit-identical without it."""

    POLICIES = {"NA": NoAdaptPolicy}

    def _store(self, tmp_path, specs):
        from repro.trace.store import TraceStore

        store = TraceStore.create(str(tmp_path / "store"))
        for spec in specs:
            store.put_for_config(spec.seeded_config())
        return store

    @pytest.fixture
    def store_reads(self, monkeypatch):
        """Whether each store lookup the runner made found an entry."""
        from repro.trace.store import TraceStore

        found = []
        for name in ("trace_for", "schedule_for"):
            real = getattr(TraceStore, name)

            def counted(self, config, real=real):
                attached = real(self, config)
                found.append(attached is not None)
                return attached

            monkeypatch.setattr(TraceStore, name, counted)
        return found

    def test_store_backed_grid_matches_plain_grid(self, tmp_path, store_reads):
        specs = grid_specs(TINY, self.POLICIES, seeds=(0, 1))
        store = self._store(tmp_path, specs)
        plain = run_grid(TINY, self.POLICIES, seeds=(0, 1), jobs=1)
        clear_run_memo()  # else the backed leg is all memo hits
        backed = run_grid(
            TINY, self.POLICIES, seeds=(0, 1), jobs=1, trace_store=store
        )
        assert store_reads == [True] * 3  # 1 trace + 2 schedules attached
        assert backed["NA"] == plain["NA"]

    def test_store_accepts_a_directory_path(self, tmp_path, store_reads):
        specs = grid_specs(TINY, self.POLICIES, seeds=(0,))
        self._store(tmp_path, specs)
        plain = run_grid(TINY, self.POLICIES, seeds=(0,), jobs=1)
        clear_run_memo()
        backed = run_grid(
            TINY, self.POLICIES, seeds=(0,), jobs=1,
            trace_store=str(tmp_path / "store"),
        )
        assert store_reads == [True, True]
        assert backed["NA"] == plain["NA"]

    def test_empty_store_falls_back_to_generators(self, tmp_path, store_reads):
        from repro.trace.store import TraceStore

        empty = TraceStore.create(str(tmp_path / "empty"))
        plain = run_grid(TINY, self.POLICIES, seeds=(0,), jobs=1)
        clear_run_memo()
        backed = run_grid(
            TINY, self.POLICIES, seeds=(0,), jobs=1, trace_store=empty
        )
        assert store_reads == [False, False]
        assert backed["NA"] == plain["NA"]

    def test_default_store_hook(self, tmp_path, store_reads):
        from repro.experiments.runner import set_default_trace_store

        specs = grid_specs(TINY, self.POLICIES, seeds=(0,))
        store = self._store(tmp_path, specs)
        plain = run_grid(TINY, self.POLICIES, seeds=(0,), jobs=1)
        clear_run_memo()
        set_default_trace_store(store)
        try:
            backed = run_grid(TINY, self.POLICIES, seeds=(0,), jobs=1)
        finally:
            set_default_trace_store(None)
        assert store_reads == [True, True]
        assert backed["NA"] == plain["NA"]


class TestConstruction:
    def test_jobs_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentRunner(jobs=-1)
        with pytest.raises(ConfigurationError):
            ExperimentRunner(retries=-1)

    def test_jobs_none_or_zero_means_cpu_count(self):
        assert ExperimentRunner(jobs=None).jobs >= 1
        assert ExperimentRunner(jobs=0).jobs == ExperimentRunner(jobs=None).jobs

    def test_grid_results_behaves_like_dict(self):
        results = GridResults({"a": 1}, failures=[])
        assert results["a"] == 1
        assert results.ok
        results.failures.append("x")
        assert not results.ok
