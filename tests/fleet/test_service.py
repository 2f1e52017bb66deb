"""The fleet determinism contract: shard-invariant, kill-resume-identical."""

import itertools
import json
import os

import pytest

from repro.errors import ConfigurationError
from repro.fleet import FleetSpec, run_fleet
from repro.fleet.checkpoint import FleetCheckpoint
from repro.fleet.kernel import KernelStats
from repro.fleet.rollup import FleetRollup
from repro.fleet.service import run_shard
from repro.serve.cache import canonical_rollup_json
from repro.sim.telemetry import FleetRecorder


def small_spec(**overrides) -> FleetSpec:
    base = dict(devices=6, seed=11, name="test-fleet", n_events=3,
                policies=("QZ", "NA", "TH50"))
    base.update(overrides)
    return FleetSpec(**base)


def _stale_version(data: bytes) -> bytes:
    """An otherwise-intact journal file from an older schema version."""
    return json.dumps({**json.loads(data), "version": 2}).encode()


class TestShardInvariance:
    def test_serial_and_sharded_are_bit_identical(self):
        spec = small_spec()
        serial = run_fleet(spec, shards=1, jobs=1)
        sharded = run_fleet(spec, shards=3, jobs=2)
        assert serial.rollup == sharded.rollup
        assert (
            json.dumps(serial.rollup.to_dict(), sort_keys=True)
            == json.dumps(sharded.rollup.to_dict(), sort_keys=True)
        )

    def test_shards_clamped_to_fleet_size(self):
        result = run_fleet(small_spec(devices=2), shards=64, jobs=1)
        assert result.shards == 2
        assert result.rollup.devices == 2

    def test_result_counts_every_shard(self):
        result = run_fleet(small_spec(), shards=3, jobs=1)
        assert result.computed_shards == 3
        assert result.resumed_shards == 0
        assert result.rollup.devices == 6
        assert result.rollup.overall.decision_path_totals().scored_candidates > 0

    def test_live_shard_rollup_equals_its_dict_round_trip(self):
        # Workers ship shard rollups as objects, not as to_dict() payloads
        # parsed back in the parent; that is only sound while the two
        # spellings encode, compare and merge identically, on both kernels.
        for spec, kernel in itertools.product(
            (small_spec(), small_spec(policies=("QZ", "NA"), n_events=5)),
            ("scalar", "vector"),
        ):
            live = [run_shard(spec, 3, shard, kernel=kernel)
                    for shard in range(3)]
            parsed = [FleetRollup.from_dict(r.to_dict()) for r in live]
            for a, b in zip(live, parsed):
                assert canonical_rollup_json(a.to_dict()) == (
                    canonical_rollup_json(b.to_dict()))
                assert a == b
            totals = []
            for parts in (live, parsed):
                total = FleetRollup()
                for part in parts:
                    total.merge(part)
                totals.append(canonical_rollup_json(total.to_dict()))
            assert totals[0] == totals[1]


#: The KernelStats count fields: equal on any run of the same shards.
_COUNTS = ("lanes", "scalar_lanes", "batches", "iterations", "compactions",
           "migrated_lanes", "fallback_lanes")


def _counts(stats) -> tuple:
    return tuple(getattr(stats, name) for name in _COUNTS)


class TestFleetRecorderTelemetry:
    """``FleetResult.kernel_stats``, and the recorder's view of it."""

    def test_kernel_stats_total_with_mixed_shards(self):
        # QZ devices fall outside the vector envelope, so every shard's
        # KernelStats mixes vector lanes with scalar fallbacks.
        spec = small_spec()
        total = run_fleet(spec, shards=3, jobs=1, kernel="vector").kernel_stats
        assert total.lanes + total.scalar_lanes == 6
        assert total.lanes > 0
        assert total.scalar_lanes > 0  # the QZ devices
        expected = KernelStats()
        for shard in range(3):
            stats = KernelStats()
            run_shard(spec, 3, shard, kernel="vector", stats=stats)
            expected.merge(stats)
        assert _counts(total) == _counts(expected)

    def test_kernel_stats_counts_equal_at_any_jobs(self, monkeypatch):
        from repro.fleet import kernel

        # Narrow batches migrate once the threshold is lowered (forked
        # workers inherit the patch).
        monkeypatch.setattr(kernel, "_MIGRATE_LANES", 4)
        spec = small_spec(devices=30, policies=("NA", "AD", "TH50", "QZ"))
        serial = run_fleet(spec, shards=3, jobs=1, kernel="vector")
        forked = run_fleet(spec, shards=3, jobs=2, kernel="vector")
        assert _counts(serial.kernel_stats) == _counts(forked.kernel_stats)
        assert serial.kernel_stats.migrated_lanes > 0
        assert serial.kernel_stats.scalar_lanes > 0

    def test_kernel_stats_total_none_for_scalar_runs(self):
        recorder = FleetRecorder()
        result = run_fleet(small_spec(), shards=2, jobs=1, kernel="scalar",
                           recorder=recorder)
        assert result.kernel_stats is None
        assert recorder.kernel_stats_total() is None

    def test_kernel_stats_total_skips_resumed_shards(self, tmp_path):
        spec = small_spec()
        ckpt = str(tmp_path / "journal")
        run_fleet(spec, shards=3, jobs=1, kernel="vector",
                  checkpoint=ckpt, stop_after=1)
        result = run_fleet(spec, shards=3, jobs=1, kernel="vector",
                           checkpoint=ckpt, resume=True)
        assert result.resumed_shards == 1
        # Only the two recomputed shards (devices 2-5) report timing.
        stats = result.kernel_stats
        assert stats.lanes + stats.scalar_lanes == 4
        # A run that resumes every shard computes nothing.
        again = run_fleet(spec, shards=3, jobs=1, kernel="vector",
                          checkpoint=ckpt, resume=True)
        assert again.computed_shards == 0
        assert again.kernel_stats is None

    def test_recorder_is_a_view_of_the_result(self):
        recorder = FleetRecorder()
        assert recorder.kernel_stats_total() is None
        result = run_fleet(small_spec(), shards=2, jobs=1, kernel="vector",
                           recorder=recorder)
        assert result.kernel_stats is not None
        assert recorder.kernel_stats_total() is result.kernel_stats

    def test_decision_path_totals_survive_resume(self, tmp_path):
        spec = small_spec()
        straight = run_fleet(spec, shards=3, jobs=1)
        ckpt = str(tmp_path / "journal")
        run_fleet(spec, shards=3, jobs=1, checkpoint=ckpt, stop_after=1)
        resumed = run_fleet(spec, shards=3, jobs=1, checkpoint=ckpt,
                            resume=True)
        assert resumed.resumed_shards == 1
        totals = resumed.rollup.overall.decision_path_totals()
        assert totals.as_dict() == (
            straight.rollup.overall.decision_path_totals().as_dict())
        # The QZ devices did real cached-decision work.
        assert totals.scored_candidates > 0


class TestCheckpointResume:
    def test_kill_then_resume_matches_uninterrupted(self, tmp_path):
        spec = small_spec()
        straight = run_fleet(spec, shards=3, jobs=1)

        ckpt = str(tmp_path / "journal")
        killed = run_fleet(spec, shards=3, jobs=1, checkpoint=ckpt, stop_after=1)
        assert not killed.complete
        assert killed.pending_shards == [1, 2]

        resumed = run_fleet(spec, shards=3, jobs=1, checkpoint=ckpt,
                            resume=True)
        assert resumed.complete
        assert resumed.resumed_shards == 1
        assert resumed.computed_shards == 2
        assert resumed.rollup == straight.rollup
        assert resumed.rollup.to_dict() == straight.rollup.to_dict()

    @pytest.mark.parametrize(
        "damage", [lambda data: data[: len(data) // 2],
                   lambda data: b"\xff\xfe\x00", lambda data: b"[1]",
                   _stale_version],
        ids=["truncated", "non-utf8", "non-object", "stale-version"],
    )
    def test_truncated_shard_entry_is_recomputed(self, tmp_path, damage):
        spec = small_spec()
        ckpt = str(tmp_path / "journal")
        straight = run_fleet(spec, shards=3, jobs=1, checkpoint=ckpt)

        # Simulate a crash mid-write or bit rot: damage one journal entry.
        victim = os.path.join(ckpt, "shard-000001.json")
        with open(victim, "rb") as handle:
            data = handle.read()
        with open(victim, "wb") as handle:
            handle.write(damage(data))

        resumed = run_fleet(spec, shards=3, jobs=1, checkpoint=ckpt, resume=True)
        assert resumed.resumed_shards == 2
        assert resumed.computed_shards == 1
        assert resumed.rollup == straight.rollup

    @pytest.mark.parametrize("pair", [[1, 3], [1, 2 ** 1075], [1, 0]],
                             ids=["not-dyadic", "over-scale", "zero"])
    def test_corrupt_sum_pair_is_recomputed(self, tmp_path, pair):
        spec = small_spec()
        ckpt = str(tmp_path / "journal")
        straight = run_fleet(spec, shards=3, jobs=1, checkpoint=ckpt)

        victim = os.path.join(ckpt, "shard-000001.json")
        with open(victim) as handle:
            data = json.load(handle)
        data["rollup"]["overall"]["sums"]["sim_end_s"] = pair
        with open(victim, "w") as handle:
            json.dump(data, handle)

        resumed = run_fleet(spec, shards=3, jobs=1, checkpoint=ckpt, resume=True)
        assert resumed.resumed_shards == 2
        assert resumed.computed_shards == 1
        assert resumed.rollup == straight.rollup

    @pytest.mark.parametrize(
        "damage", [lambda data: b"\xff\xfe\x00", lambda data: b"[1]",
                   _stale_version],
        ids=["non-utf8", "non-object", "stale-version"],
    )
    def test_unreadable_manifest_refuses_resume(self, tmp_path, damage):
        ckpt = str(tmp_path / "journal")
        run_fleet(small_spec(), shards=2, jobs=1, checkpoint=ckpt, stop_after=1)
        checkpoint = FleetCheckpoint(ckpt, small_spec(), 2)
        assert checkpoint.resumable()
        with open(checkpoint.manifest_path, "rb") as handle:
            data = handle.read()
        with open(checkpoint.manifest_path, "wb") as handle:
            handle.write(damage(data))
        assert not checkpoint.resumable()
        with pytest.raises(ConfigurationError, match="no readable manifest"):
            run_fleet(small_spec(), shards=2, jobs=1, checkpoint=ckpt, resume=True)

    def test_resume_rejects_different_spec(self, tmp_path):
        ckpt = str(tmp_path / "journal")
        run_fleet(small_spec(), shards=2, jobs=1, checkpoint=ckpt, stop_after=1)
        with pytest.raises(ConfigurationError, match="fingerprint"):
            run_fleet(small_spec(seed=99), shards=2, jobs=1,
                      checkpoint=ckpt, resume=True)

    def test_resume_rejects_different_shard_count(self, tmp_path):
        ckpt = str(tmp_path / "journal")
        run_fleet(small_spec(), shards=2, jobs=1, checkpoint=ckpt, stop_after=1)
        with pytest.raises(ConfigurationError, match="shards"):
            run_fleet(small_spec(), shards=3, jobs=1, checkpoint=ckpt, resume=True)

    def test_resume_requires_checkpoint(self):
        with pytest.raises(ConfigurationError, match="resume"):
            run_fleet(small_spec(), resume=True)
        with pytest.raises(ConfigurationError, match="stop_after"):
            run_fleet(small_spec(), stop_after=1)

    def test_fresh_run_drops_stale_entries(self, tmp_path):
        spec = small_spec()
        ckpt = str(tmp_path / "journal")
        run_fleet(spec, shards=3, jobs=1, checkpoint=ckpt)
        # A fresh (non-resume) run must not trust old entries.
        fresh = run_fleet(spec, shards=3, jobs=1, checkpoint=ckpt)
        assert fresh.resumed_shards == 0
        assert fresh.computed_shards == 3


class TestResultRendering:
    def test_render_flags_incomplete(self, tmp_path):
        ckpt = str(tmp_path / "journal")
        result = run_fleet(small_spec(), shards=3, jobs=1,
                           checkpoint=ckpt, stop_after=1)
        assert "INCOMPLETE" in result.render()
        assert "test-fleet" in result.render()

    def test_summary_is_plain_floats(self):
        summary = run_fleet(small_spec(devices=2), jobs=1).summary()
        assert isinstance(summary, dict)
        assert all(isinstance(v, (int, float, dict, str)) for v in summary.values())
