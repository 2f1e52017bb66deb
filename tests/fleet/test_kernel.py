"""The vector kernel contract: a faster spelling of the scalar engine.

Every check here is an *equality* check, not a tolerance check — the
kernel promises bit-identical :class:`RunMetrics` for every device it
vectorizes (the scalar engine's own results are pinned by the digests in
``tests/sim/test_golden_runs.py``), and scalar-engine fallback for
everything else, so the fleet rollup is kernel-invariant byte for byte.
"""

import dataclasses
import multiprocessing
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.experiments.harness import standard_policies
from repro.experiments.runner import RunFailure, RunSpec, _attempt_spec
from repro.fleet import FleetSpec, run_fleet
from repro.fleet.kernel import VECTOR_KERNEL_POLICIES, vector_shard_outcomes
from repro.fleet.service import run_shard

#: Heterogeneous mix: every vector-covered baseline plus Quetzal (which
#: must fall back to the scalar engine), over three cell counts.
MIXED = dict(
    name="kernel-mix",
    seed=11,
    n_events=12,
    policies=("NA", "AD", "TH50", "CN", "PZO", "PZI", "QZ"),
    cells=(4, 6, 8),
)


def mixed_spec(devices: int = 14) -> FleetSpec:
    return FleetSpec(devices=devices, **MIXED)


def scalar_outcome(spec: FleetSpec, device: int):
    """One device on the scalar reference engine (the oracle)."""
    policy_name, config = spec.device_config(device)
    return _attempt_spec(
        RunSpec(policy=policy_name, seed=0, config=config),
        standard_policies()[policy_name],
        config.build_trace(),
        config.build_schedule(),
        0,
    )


class TestPolicyCoverage:
    def test_baselines_covered_quetzal_excluded(self):
        covered = VECTOR_KERNEL_POLICIES(standard_policies())
        assert {"NA", "AD", "CN", "PZO", "PZI", "TH25", "TH50", "TH75"} <= covered
        assert not any(name.startswith("QZ") for name in covered)


class TestBitExactness:
    def test_every_device_matches_the_scalar_engine(self):
        spec = mixed_spec()
        outcomes = vector_shard_outcomes(spec, range(spec.devices), retries=0)
        policies_seen = set()
        for device in range(spec.devices):
            policy_name, _ = spec.device_config(device)
            policies_seen.add(policy_name)
            expected = scalar_outcome(spec, device)
            got = outcomes[device]
            assert not isinstance(got, RunFailure), (device, got)
            assert dataclasses.asdict(got) == dataclasses.asdict(expected), (
                f"device {device} ({policy_name}) diverged from the scalar engine"
            )
        # The spec mixes policies randomly; make sure the assertion above
        # actually exercised both vectorized and fallback devices.
        covered = VECTOR_KERNEL_POLICIES(standard_policies())
        assert policies_seen & covered
        assert policies_seen - covered

    def test_run_shard_rollup_is_kernel_invariant(self):
        spec = mixed_spec(devices=8)
        scalar = run_shard(spec, 2, 0, retries=0, kernel="scalar")
        vector = run_shard(spec, 2, 0, retries=0, kernel="vector")
        assert vector.to_dict() == scalar.to_dict()

    def test_run_fleet_rollup_is_kernel_invariant(self):
        spec = mixed_spec(devices=8)
        scalar = run_fleet(spec, shards=2, jobs=1)
        vector = run_fleet(spec, shards=2, jobs=1, kernel="vector")
        assert vector.rollup.to_dict() == scalar.rollup.to_dict()


class TestKernelValidation:
    def test_unknown_kernel_rejected(self):
        with pytest.raises(ConfigurationError):
            run_shard(mixed_spec(devices=2), 1, 0, kernel="warp")
        with pytest.raises(ConfigurationError):
            run_fleet(mixed_spec(devices=2), kernel="warp")


class TestAllZeroDiscardFleet:
    def test_fleet_p99_discard_is_exactly_zero(self):
        # Unbounded buffers: no capture ever overflows, so every device's
        # input-buffer-overflow fraction is exactly 0.0 and the fleet p99
        # must report 0.0 — not the first histogram bin's upper edge (the
        # pre-fix behaviour reported 1/256).
        spec = FleetSpec(
            name="no-drops", devices=6, seed=5, n_events=4,
            policies=("NA", "AD"), buffer_capacity=None,
        )
        result = run_fleet(spec, shards=2, jobs=1)
        dist = result.rollup.overall.dists["ibo_fraction"]
        assert dist.count == 6
        assert dist.percentile(99.0) == 0.0
        assert dist.percentile(50.0) == 0.0


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs forked workers to finish shards out of order",
)
class TestOutOfOrderKillResume:
    def test_late_shards_survive_a_shard_0_crash(self, tmp_path, monkeypatch):
        """Shard 0 dies *after* later shards finish; resume recomputes only it.

        The journal writes from ``map_indexed``'s completion-order callback,
        so shards 1 and 2 must be durable even though shard 0 — submitted
        first — never completed.
        """
        import repro.fleet.service as service

        spec = mixed_spec(devices=6)
        straight = run_fleet(spec, shards=3, jobs=1)
        ckpt = str(tmp_path / "journal")

        real_run_shard = service.run_shard

        def slow_crash_shard_0(spec, shards, shard, retries=1, **kwargs):
            if shard == 0:
                time.sleep(1.0)  # let shards 1 and 2 finish and journal first
                raise RuntimeError("simulated kill")
            return real_run_shard(spec, shards, shard, retries, **kwargs)

        monkeypatch.setattr(service, "run_shard", slow_crash_shard_0)
        with pytest.raises(RuntimeError, match="simulated kill"):
            run_fleet(spec, shards=3, jobs=3, checkpoint=ckpt)
        monkeypatch.setattr(service, "run_shard", real_run_shard)

        computed = []

        def counting_run_shard(spec, shards, shard, retries=1, **kwargs):
            computed.append(shard)
            return real_run_shard(spec, shards, shard, retries, **kwargs)

        monkeypatch.setattr(service, "run_shard", counting_run_shard)
        resumed = run_fleet(
            spec, shards=3, jobs=1, checkpoint=ckpt, resume=True
        )
        assert computed == [0]
        assert resumed.resumed_shards == 2
        assert resumed.computed_shards == 1
        assert resumed.rollup.to_dict() == straight.rollup.to_dict()


class TestTraceStoreBacked:
    """Attaching a trace store must never change what gets computed."""

    def _store_for(self, spec, tmp_path):
        from repro.trace.store import TraceStore

        store = TraceStore.create(tmp_path / "store")
        for device in range(spec.devices):
            _, config = spec.device_config(device)
            store.put_for_config(config)
        store.save()
        return store

    def test_vector_outcomes_identical_with_store(self, tmp_path):
        spec = mixed_spec()
        store = self._store_for(spec, tmp_path)
        plain = vector_shard_outcomes(spec, range(spec.devices))
        backed = vector_shard_outcomes(spec, range(spec.devices), store=store)
        for device in range(spec.devices):
            assert dataclasses.asdict(backed[device]) == dataclasses.asdict(
                plain[device]
            )

    @pytest.mark.parametrize("kernel", ["scalar", "vector"])
    def test_run_shard_rollup_identical_with_store(self, kernel, tmp_path):
        import json

        spec = mixed_spec()
        store = self._store_for(spec, tmp_path)
        plain = run_shard(spec, 1, 0, kernel=kernel)
        backed = run_shard(spec, 1, 0, kernel=kernel, trace_store=store)
        assert json.dumps(backed.to_dict(), sort_keys=True) == json.dumps(
            plain.to_dict(), sort_keys=True
        )

    def test_run_shard_accepts_store_path(self, tmp_path):
        spec = mixed_spec(devices=4)
        store = self._store_for(spec, tmp_path)
        plain = run_shard(spec, 1, 0, kernel="vector")
        backed = run_shard(
            spec, 1, 0, kernel="vector", trace_store=store.directory
        )
        assert backed == plain

    def test_partial_store_falls_back_to_generators(self, tmp_path):
        from repro.trace.store import TraceStore

        spec = mixed_spec()
        store = TraceStore.create(tmp_path / "store")
        _, config = spec.device_config(0)
        store.put_for_config(config)  # only device 0's inputs
        store.save()
        plain = run_shard(spec, 1, 0, kernel="vector")
        backed = run_shard(spec, 1, 0, kernel="vector", trace_store=store)
        assert backed == plain

    def test_attach_time_reported_in_stats(self, tmp_path):
        from repro.fleet.kernel import KernelStats

        spec = mixed_spec()
        store = self._store_for(spec, tmp_path)
        stats = KernelStats()
        run_shard(spec, 1, 0, kernel="vector", stats=stats, trace_store=store)
        assert stats.attach_s > 0.0
        assert stats.attach_s <= stats.lane_build_s
        assert "store attach" in stats.render()


def baseline_spec(devices: int) -> FleetSpec:
    return FleetSpec(name="residency", devices=devices, seed=5, n_events=4,
                     policies=("NA", "AD", "TH50", "CN", "PZO", "PZI"))


def one_batch_of_lanes(spec, store=None):
    """The widest batch of ``spec``'s lanes, built as a shard builds them."""
    from repro.fleet import kernel

    kinds = kernel._vector_kernel_policies(standard_policies())
    lanes, _, _ = kernel._build_lanes(spec, range(spec.devices), kinds, store)
    return max(kernel._lane_groups(lanes), key=len)


class TestTraceResidency:
    """The batch tables are each lane's only trace copy, and nothing keeps
    them, the store's mappings or the draw buffers alive past the shard."""

    def test_tables_die_when_the_shard_returns(self, monkeypatch):
        import gc
        import weakref

        from repro.fleet import kernel

        monkeypatch.setattr(kernel, "_MIGRATE_LANES", 8)
        refs = []
        real_run = kernel._VectorBatch.run

        def spy(batch):
            refs.extend(weakref.ref(table) for table in (
                batch.powers, batch.cum, batch.cap_chunk, batch.cls_chunk))
            return real_run(batch)

        monkeypatch.setattr(kernel._VectorBatch, "run", spy)
        spec = baseline_spec(40)
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            stats = kernel.KernelStats()
            vector_shard_outcomes(spec, range(spec.devices), stats=stats)
            assert stats.migrated_lanes > 0
            assert refs and all(ref() is None for ref in refs)
        finally:
            if gc_was_enabled:
                gc.enable()

    def test_batch_init_releases_every_store_mapping(self, tmp_path):
        import numpy as np

        from repro.fleet import kernel
        from repro.trace.store import TraceStore

        spec = baseline_spec(24)
        store = TraceStore.create(tmp_path / "store")
        store.build_for_spec(spec)
        lanes = one_batch_of_lanes(spec, store)
        assert len(store._maps) > 0  # the lanes hold store attachments
        batch = kernel._VectorBatch(lanes, standard_policies())
        assert len(store._maps) == 0
        for lane in lanes:
            assert np.shares_memory(lane.trace._powers, batch.powers)
            assert np.shares_memory(lane.trace._cum_energy, batch.cum)

    def test_migrated_lanes_leave_the_tables(self, monkeypatch):
        import numpy as np

        from repro.fleet import kernel

        monkeypatch.setattr(kernel, "_MIGRATE_LANES", 8)
        lanes = one_batch_of_lanes(baseline_spec(40))
        batch = kernel._VectorBatch(lanes, standard_policies())
        powers, cum = batch.powers, batch.cum
        batch.run()
        migrated = {id(lane) for _, (lane, _) in batch._resume}
        assert migrated
        for lane in lanes:
            if id(lane) not in migrated:  # finished: its rows are released
                assert lane.trace is None
                continue
            assert not np.shares_memory(lane.trace._powers, powers)
            assert not np.shares_memory(lane.trace._cum_energy, cum)

    def test_reusing_finished_lanes_raises(self):
        from repro.fleet import kernel

        lanes = one_batch_of_lanes(baseline_spec(40))
        kernel._VectorBatch(lanes, standard_policies()).run()
        with pytest.raises(AttributeError):
            kernel._VectorBatch(lanes, standard_policies())

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 40).flatmap(lambda n: st.lists(
        st.lists(st.floats(0.0, 1e6), min_size=n, max_size=n),
        min_size=1, max_size=4,
    )))
    def test_lazy_cum_rows_equal_the_traces(self, rows):
        import numpy as np

        from repro.fleet import kernel
        from repro.trace.power_trace import PiecewiseConstantTrace

        batch = kernel._VectorBatch.__new__(kernel._VectorBatch)
        batch.N = len(rows[0])
        batch.powers = kernel._anon_zeros((len(rows), batch.N))
        batch.powers[:] = rows
        batch.cum = kernel._anon_zeros((len(rows), batch.N))
        batch.cum_built = np.zeros(len(rows), dtype=bool)
        batch._need_cum(np.array([len(rows) - 1]))  # built once, kept
        batch._need_cum(np.arange(len(rows))[::-1])
        for built, row in zip(batch.cum, rows):
            expected = PiecewiseConstantTrace.from_samples(row, 1.0)._cum_energy
            assert np.array_equal(built, expected)

    def test_fallback_lanes_rerun_from_private_rows(self, monkeypatch):
        """Lanes anomalized mid-run, one mid-recharge and one whose ``cum``
        row was never built, leave with their own trace rows and rerun,
        after the batch released its table rows, to the oracle's results;
        no lane that leaves the batch alive pins the tables."""
        import mmap

        import numpy as np

        from repro.fleet import kernel

        monkeypatch.setattr(kernel, "_MIGRATE_LANES", 8)
        spec = baseline_spec(40)
        forced = []
        real_rech = kernel._VectorBatch._rech

        def rech(batch, m, count):
            real_rech(batch, m, count)
            if not forced:
                unbuilt = ~batch.cum_built[batch.trow] & (batch.state != kernel._DONE)
                columns = np.array([m.nonzero()[0][0], unbuilt.nonzero()[0][0]])
                forced.extend(batch.orig[columns].tolist())
                batch._anomalize(columns)

        monkeypatch.setattr(kernel._VectorBatch, "_rech", rech)
        lanes = one_batch_of_lanes(spec)
        batch = kernel._VectorBatch(lanes, standard_policies())
        powers, cum = batch.powers, batch.cum
        results = batch.run()
        assert len(forced) == 2 and all(results[i] is None for i in forced)
        assert batch.row_dead.all()
        if hasattr(mmap, "MADV_DONTNEED"):  # the last row may end mid-page
            assert not powers[:-1].any() and not cum[:-1].any()
        fallback = [lanes[i] for i in forced]
        for lane in [lane for _, (lane, _) in batch._resume] + fallback:
            assert not np.shares_memory(lane.trace._powers, powers)
            assert not np.shares_memory(lane.trace._cum_energy, cum)
        for lane in fallback:
            rerun = _attempt_spec(
                RunSpec(policy=lane.policy_name, seed=0, config=lane.config),
                standard_policies()[lane.policy_name], lane.trace, lane.schedule, 0,
            )
            expected = scalar_outcome(spec, lane.device)
            assert dataclasses.asdict(rerun) == dataclasses.asdict(expected)

    def test_lanes_that_never_recharge_build_no_cum_row(self):
        from repro.fleet import kernel

        spec = baseline_spec(40)
        lanes = one_batch_of_lanes(spec)
        first = dict(zip(
            (lane.device for lane in lanes),
            kernel._VectorBatch(lanes, standard_policies()).run(),
        ))
        calm = {device for device, metrics in first.items()
                if metrics.recharge_time_s == 0.0}
        assert 0 < len(calm) < len(lanes)
        lanes = [lane for lane in one_batch_of_lanes(spec) if lane.device in calm]
        batch = kernel._VectorBatch(lanes, standard_policies())
        cum = batch.cum
        results = batch.run()
        assert not batch.cum_built.any() and not cum.any()
        for lane, metrics in zip(lanes, results):
            assert dataclasses.asdict(metrics) == dataclasses.asdict(first[lane.device])

    def test_capture_chunking_never_changes_results(self, monkeypatch):
        from repro.fleet import kernel

        spec = baseline_spec(200)
        outcomes = {}
        for chunk in (7, 256, 1024):
            monkeypatch.setattr(kernel, "_CAP_CHUNK", chunk)
            stats = kernel.KernelStats()
            outcomes[chunk] = vector_shard_outcomes(
                spec, range(spec.devices), stats=stats
            )
            assert stats.migrated_lanes > 0
        for device in range(spec.devices):
            expected = dataclasses.asdict(outcomes[256][device])
            assert dataclasses.asdict(outcomes[7][device]) == expected
            assert dataclasses.asdict(outcomes[1024][device]) == expected
