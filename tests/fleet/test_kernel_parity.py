"""Randomized vector-vs-scalar parity sweep plus kernel selection/telemetry.

The fixed fixtures in ``test_kernel.py`` pin bit-exactness on one
heterogeneous spec; layout refactors (packed hot-state matrices, masked
full-width ops) can slip through a fixed fixture while breaking some
other policy/trace/MCU mix.  The sweep here draws small random
:class:`FleetSpec`s from the whole configuration space (seeded, so
failures replay) and asserts per-device ``RunMetrics`` equality against
the scalar oracle for every one.

Straggler migration gets its own sweep: with ``_MIGRATE_LANES`` lowered
so that small batches migrate, every device must still match the oracle.

A wide spec (one 256-lane batch) runs at the real compaction and
migration thresholds, where lanes on different sub-paths share each
handler call.

Also covered: ``kernel="auto"`` resolution, and the per-phase
:class:`KernelStats` telemetry (``FleetResult.kernel_stats``, rollup
invariance, loop coverage).
"""

import dataclasses
import random
import time

import pytest

from repro.errors import ConfigurationError
from repro.experiments.harness import standard_policies
from repro.fleet import FleetSpec, kernel, run_fleet
from repro.fleet.kernel import (
    VECTOR_KERNEL_POLICIES,
    KernelStats,
    vector_shard_outcomes,
)
from repro.fleet.service import resolve_kernel, run_shard
from repro.obs import RingBufferTracer
from repro.sim.engine import SimulationEngine

from tests.fleet.test_kernel import scalar_outcome

#: Draw pools for the randomized sweep.  Policies deliberately include
#: Quetzal (scalar fallback) alongside every vector-covered family.
POLICY_POOL = ("NA", "AD", "CN", "PZO", "PZI", "TH25", "TH50", "TH75", "QZ")
ENVIRONMENT_POOL = ("more crowded", "crowded", "less crowded")
MCU_POOL = ("apollo4", "msp430")
CELL_POOL = (2, 4, 6, 8)
BUFFER_POOL = (None, 4, 10)


def draw_spec(rng: random.Random, index: int) -> FleetSpec:
    """One small random fleet covering policy/trace/MCU/buffer mixes."""

    def subset(pool, at_least=1):
        k = rng.randint(at_least, len(pool))
        return tuple(rng.sample(pool, k))

    return FleetSpec(
        name=f"parity-sweep-{index}",
        devices=rng.randint(4, 9),
        seed=rng.randint(0, 10_000),
        n_events=rng.randint(5, 14),
        policies=subset(POLICY_POOL, at_least=2),
        environments=subset(ENVIRONMENT_POOL),
        mcus=subset(MCU_POOL),
        cells=subset(CELL_POOL),
        buffer_capacity=rng.choice(BUFFER_POOL),
    )


class TestRandomizedParity:
    @pytest.mark.parametrize("index", range(8))
    def test_random_spec_matches_scalar_oracle(self, index):
        rng = random.Random(0xC0FFEE + index)
        spec = draw_spec(rng, index)
        outcomes = vector_shard_outcomes(spec, range(spec.devices), retries=0)
        for device in range(spec.devices):
            policy_name, _ = spec.device_config(device)
            expected = scalar_outcome(spec, device)
            got = outcomes[device]
            assert dataclasses.asdict(got) == dataclasses.asdict(expected), (
                f"spec {spec.name} (seed {spec.seed}) device {device} "
                f"({policy_name}) diverged from the scalar engine"
            )

    def test_sweep_exercises_vector_and_fallback_devices(self):
        # The sweep is only meaningful if its draws actually hit both
        # sides of the envelope; guard against pool edits silencing it.
        covered = VECTOR_KERNEL_POLICIES(standard_policies())
        seen = set()
        for index in range(8):
            rng = random.Random(0xC0FFEE + index)
            spec = draw_spec(rng, index)
            for device in range(spec.devices):
                seen.add(spec.device_config(device)[0])
        assert seen & covered
        assert seen - covered


def assert_matches_oracle(spec, outcomes):
    for device in range(spec.devices):
        expected = scalar_outcome(spec, device)
        assert dataclasses.asdict(outcomes[device]) == dataclasses.asdict(
            expected
        ), f"spec {spec.name} (seed {spec.seed}) device {device} diverged"


def migrating_run(spec, **kwargs):
    """``vector_shard_outcomes`` over the whole spec, with its stats."""
    stats = KernelStats()
    outcomes = vector_shard_outcomes(
        spec, range(spec.devices), retries=0, stats=stats, **kwargs
    )
    return outcomes, stats


#: The vector-covered baseline families, for the migration sweep.
BASELINE_POOL = ("NA", "AD", "CN", "PZO", "PZI", "TH25", "TH50", "TH75")
MIGRATION_SPECS = 12


def draw_migration_spec(rng: random.Random, index: int) -> tuple[FleetSpec, int]:
    """A 16-40-device all-baseline spec and a ``_MIGRATE_LANES`` of 2-8."""
    spec = FleetSpec(
        name=f"migration-sweep-{index}",
        devices=rng.randint(16, 40),
        seed=rng.randint(0, 10_000),
        n_events=rng.randint(3, 10),
        policies=tuple(rng.sample(BASELINE_POOL, rng.randint(2, 8))),
        environments=tuple(rng.sample(ENVIRONMENT_POOL, rng.randint(1, 3))),
        mcus=tuple(rng.sample(MCU_POOL, rng.randint(1, 2))),
        cells=tuple(rng.sample(CELL_POOL, rng.randint(1, 4))),
        buffer_capacity=(4, 10)[index % 2],
    )
    return spec, rng.randint(2, 8)


class TestStragglerMigration:
    @pytest.mark.parametrize("index", range(MIGRATION_SPECS))
    def test_migrated_lanes_match_scalar_oracle(self, index, monkeypatch):
        spec, threshold = draw_migration_spec(random.Random(0x316 + index), index)
        monkeypatch.setattr(kernel, "_MIGRATE_LANES", threshold)
        outcomes, stats = migrating_run(spec)
        assert stats.migrated_lanes > 0
        assert stats.fallback_lanes == 0
        assert_matches_oracle(spec, outcomes)

    def test_sweep_covers_msp430_buffers_and_every_family(self):
        policies, mcus, buffers = set(), set(), set()
        for index in range(MIGRATION_SPECS):
            spec, _ = draw_migration_spec(random.Random(0x316 + index), index)
            buffers.add(spec.buffer_capacity)
            for device in range(spec.devices):
                policy, config = spec.device_config(device)
                policies.add(policy)
                mcus.add(config.mcu.name)
        assert policies == set(BASELINE_POOL)
        assert buffers == {4, 10}
        assert any("msp430" in name.lower() for name in mcus), mcus

    def test_migration_after_many_draws_on_both_streams(self, monkeypatch):
        # A long schedule: the survivor has consumed more than one capture
        # chunk (1024 draws) and one classification chunk (256) in-kernel.
        spec = FleetSpec(name="long-draws", devices=4, seed=2, n_events=30,
                         policies=("NA",), cells=(8,))
        monkeypatch.setattr(kernel, "_MIGRATE_LANES", 2)
        draws = []
        resume_at = SimulationEngine.resume_at

        def spy(engine, *args):
            draws.append(args[4:6])
            resume_at(engine, *args)

        monkeypatch.setattr(SimulationEngine, "resume_at", spy)
        outcomes, stats = migrating_run(spec)
        assert stats.migrated_lanes == len(draws) > 0
        assert max(capture for capture, _ in draws) > 1024
        assert max(classify for _, classify in draws) > 256
        assert_matches_oracle(spec, outcomes)

    @pytest.mark.parametrize("devices, migrates", [(8, False), (9, True)])
    def test_only_batches_wider_than_the_threshold_migrate(
        self, devices, migrates, monkeypatch
    ):
        spec = FleetSpec(name="narrow", devices=devices, seed=4, n_events=5,
                         policies=("NA", "AD", "TH50"), cells=(4,))
        monkeypatch.setattr(kernel, "_MIGRATE_LANES", 8)
        outcomes, stats = migrating_run(spec)
        assert (stats.migrated_lanes > 0) == migrates
        assert_matches_oracle(spec, outcomes)

    def test_raising_continuation_reruns_from_scratch(self, monkeypatch):
        spec = FleetSpec(name="raising", devices=12, seed=5, n_events=5,
                         policies=("NA", "TH50"), cells=(6,))
        monkeypatch.setattr(kernel, "_MIGRATE_LANES", 4)
        resume_at = SimulationEngine.resume_at

        def resume_then_fail(engine, *args):
            resume_at(engine, *args)

            def boom():
                raise RuntimeError("continuation failed")

            engine._finalize = boom

        monkeypatch.setattr(SimulationEngine, "resume_at", resume_then_fail)
        outcomes, stats = migrating_run(spec)
        assert stats.migrated_lanes > 0
        assert stats.fallback_lanes == stats.migrated_lanes
        assert_matches_oracle(spec, outcomes)

    def test_migrated_engines_emit_device_stamped_events(self, monkeypatch):
        spec = FleetSpec(name="traced", devices=10, seed=6, n_events=4,
                         policies=("NA", "AD"), cells=(4,))
        monkeypatch.setattr(kernel, "_MIGRATE_LANES", 4)
        tracer = RingBufferTracer(capacity=1_000_000)
        outcomes, stats = migrating_run(spec, tracer=tracer)
        assert stats.migrated_lanes > 0
        events = tracer.events()
        assert all(event.device is not None for event in events)
        # The kernel elides quiescent capture ticks; only the scalar
        # engine emits them, so these come from the continuations.
        assert any(
            event.kind == "capture" and not event.data["active"]
            for event in events
        )
        assert_matches_oracle(spec, outcomes)


#: Wide enough to compact (``_COMPACT_MIN`` is 64) and to migrate at the
#: real ``_MIGRATE_LANES``: merged handler calls only go wrong when lanes
#: on different sub-paths share one call, which narrow specs rarely line up.
WIDE_DEVICES = 256


class TestWideParity:
    @pytest.mark.slow
    @pytest.mark.parametrize("buffer_capacity", (4, 10))
    def test_wide_batch_matches_scalar_oracle(self, buffer_capacity):
        spec = FleetSpec(
            name="wide-parity", devices=WIDE_DEVICES, seed=11, n_events=3,
            policies=BASELINE_POOL, environments=ENVIRONMENT_POOL,
            mcus=MCU_POOL, cells=CELL_POOL, buffer_capacity=buffer_capacity,
        )
        outcomes, stats = migrating_run(spec)
        assert stats.lanes == WIDE_DEVICES and stats.batches == 1
        assert stats.compactions > 0
        assert stats.migrated_lanes > 0
        assert_matches_oracle(spec, outcomes)


class TestAutoKernel:
    def test_auto_resolves_vector_for_covered_mix(self):
        spec = FleetSpec(devices=256, policies=("NA", "AD", "TH50"))
        assert resolve_kernel(spec, "auto", shards=1) == "vector"

    def test_auto_resolves_scalar_for_narrow_covered_mix(self):
        spec = FleetSpec(devices=4, policies=("NA", "AD", "TH50"))
        assert resolve_kernel(spec, "auto") == "scalar"

    def test_auto_judges_width_per_shard(self):
        # 512 devices over 5 shards is 102 lanes per shard: below 128.
        spec = FleetSpec(devices=512, policies=("NA", "AD", "TH50"))
        assert resolve_kernel(spec, "auto", shards=4) == "vector"
        assert resolve_kernel(spec, "auto", shards=5) == "scalar"

    def test_auto_resolves_scalar_when_any_policy_uncovered(self):
        for devices in (4, 256, 4096):
            spec = FleetSpec(devices=devices, policies=("NA", "QZ"))
            assert resolve_kernel(spec, "auto") == "scalar"

    def test_explicit_kernels_pass_through(self):
        for spec in (FleetSpec(devices=4, policies=("NA", "QZ")),
                     FleetSpec(devices=4096, policies=("NA", "AD"))):
            assert resolve_kernel(spec, "scalar") == "scalar"
            assert resolve_kernel(spec, "vector") == "vector"

    def test_unknown_kernel_rejected(self):
        spec = FleetSpec(devices=4)
        with pytest.raises(ConfigurationError):
            resolve_kernel(spec, "warp")

    def test_run_fleet_auto_matches_explicit_and_logs_choice(self):
        spec = FleetSpec(devices=6, n_events=8, policies=("NA", "TH50"))
        lines = []
        auto = run_fleet(spec, shards=2, jobs=1, kernel="auto",
                         progress=lines.append)
        explicit = run_fleet(spec, shards=2, jobs=1, kernel="vector")
        assert auto.rollup.to_dict() == explicit.rollup.to_dict()
        assert (
            "[fleet] kernel auto -> scalar "
            "(3 devices per shard < 128; policies: NA, TH50)"
        ) in lines

    def test_run_fleet_auto_logs_uncovered_policy(self):
        spec = FleetSpec(devices=4, n_events=1, policies=("NA", "QZ"))
        lines = []
        run_fleet(spec, kernel="auto", progress=lines.append)
        assert (
            "[fleet] kernel auto -> scalar "
            "(QZ not vector-covered; policies: NA, QZ)"
        ) in lines

    @pytest.mark.slow
    @pytest.mark.parametrize("devices, chosen", [(127, "scalar"), (128, "vector")])
    def test_run_fleet_auto_at_the_crossover(self, devices, chosen):
        spec = FleetSpec(devices=devices, n_events=1, policies=("NA", "AD", "TH50"))
        lines = []
        auto = run_fleet(spec, kernel="auto", progress=lines.append)
        assert lines[0].startswith(f"[fleet] kernel auto -> {chosen} ")
        for kernel in ("scalar", "vector"):
            explicit = run_fleet(spec, kernel=kernel)
            assert auto.rollup.to_dict() == explicit.rollup.to_dict()

    def test_run_shard_accepts_auto(self):
        spec = FleetSpec(devices=4, n_events=8, policies=("NA", "QZ"))
        auto = run_shard(spec, 1, 0, retries=0, kernel="auto")
        scalar = run_shard(spec, 1, 0, retries=0, kernel="scalar")
        assert auto.to_dict() == scalar.to_dict()


class TestKernelStatsTelemetry:
    def test_vector_run_reports_phase_timings(self):
        spec = FleetSpec(devices=6, n_events=8,
                         policies=("NA", "AD", "TH50", "QZ"))
        total = run_fleet(spec, shards=2, jobs=1, kernel="vector").kernel_stats
        assert isinstance(total, KernelStats)
        assert total.lanes + total.scalar_lanes == spec.devices
        assert total.scalar_lanes > 0  # QZ devices fell back
        assert total.batches >= 1
        assert total.iterations > 0
        assert total.kernel_s > 0
        assert total.setup_s > 0

    def test_scalar_run_reports_no_stats(self):
        spec = FleetSpec(devices=4, n_events=8, policies=("NA",))
        result = run_fleet(spec, shards=1, jobs=1, kernel="scalar")
        assert result.kernel_stats is None

    def test_stats_never_enter_rollup_or_journal(self, tmp_path):
        spec = FleetSpec(devices=6, n_events=8, policies=("NA", "TH50"))
        ckpt = str(tmp_path / "journal")
        vector = run_fleet(spec, shards=2, jobs=1, kernel="vector",
                           checkpoint=ckpt)
        scalar = run_fleet(spec, shards=2, jobs=1, kernel="scalar")
        # Rollup (and therefore the journal payload) is kernel-invariant:
        # stats are result-only telemetry.
        assert vector.rollup.to_dict() == scalar.rollup.to_dict()
        resumed = run_fleet(spec, shards=2, jobs=1, kernel="vector",
                            checkpoint=ckpt, resume=True)
        assert resumed.resumed_shards == 2
        # Resumed shards were not recomputed, so they carry no stats.
        assert resumed.kernel_stats is None

    def test_ctrl_time_covers_compaction_and_final_harvest(self, monkeypatch):
        # Every compaction harvests, and the batch harvests once more after
        # its loop: both are loop-head (CTRL) work and must land in ctrl_s.
        pause = 0.02
        harvest = kernel._VectorBatch._harvest

        def slow_harvest(batch, idx):
            time.sleep(pause)
            harvest(batch, idx)

        monkeypatch.setattr(kernel._VectorBatch, "_harvest", slow_harvest)
        spec = FleetSpec(name="timed", devices=200, seed=3, n_events=3,
                         policies=BASELINE_POOL)
        _, stats = migrating_run(spec)
        assert stats.compactions > 0
        assert stats.ctrl_s >= (stats.compactions + stats.batches) * pause

    def test_stats_merge_and_render(self):
        stats = KernelStats(lanes=10, scalar_lanes=2, migrated_lanes=7,
                            batches=1, iterations=123, ctrl_s=0.5, adv_s=1.0,
                            rech_s=0.25, lane_build_s=0.1, batch_init_s=0.05)
        merged = KernelStats()
        merged.merge(stats)
        merged.merge(stats)
        assert merged.iterations == 246
        assert merged.migrated_lanes == 14
        assert merged.kernel_s == pytest.approx(3.5)
        text = stats.render()
        for token in ("CTRL", "ADV", "RECHG", "fallback", "setup", "7 migrated"):
            assert token in text
