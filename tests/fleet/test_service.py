"""The fleet determinism contract: shard-invariant, kill-resume-identical."""

import json
import os

import pytest

from repro.errors import ConfigurationError
from repro.fleet import FleetSpec, run_fleet
from repro.fleet.checkpoint import FleetCheckpoint
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

    def test_recorder_sees_every_shard_in_order(self):
        recorder = FleetRecorder()
        result = run_fleet(small_spec(), shards=3, jobs=1, recorder=recorder)
        assert [s.shard for s in recorder.shard_samples] == [0, 1, 2]
        assert recorder.devices_observed() == 6
        assert recorder.resumed_shards() == []
        assert recorder.rollup == result.rollup
        assert recorder.decision_path_totals() is not None


class TestFleetRecorderTelemetry:
    def test_kernel_stats_total_with_mixed_shards(self):
        # QZ devices fall outside the vector envelope, so every shard's
        # KernelStats mixes vector lanes with scalar fallbacks.
        recorder = FleetRecorder()
        run_fleet(small_spec(), shards=3, jobs=1, kernel="vector",
                  recorder=recorder)
        per_shard = [s.kernel_stats for s in recorder.shard_samples]
        assert all(stats is not None for stats in per_shard)
        total = recorder.kernel_stats_total()
        assert total.lanes + total.scalar_lanes == 6
        assert total.lanes > 0
        assert total.scalar_lanes > 0  # the QZ devices
        assert total.batches == sum(s.batches for s in per_shard)

    def test_kernel_stats_total_none_for_scalar_runs(self):
        recorder = FleetRecorder()
        run_fleet(small_spec(), shards=2, jobs=1, kernel="scalar",
                  recorder=recorder)
        assert all(s.kernel_stats is None for s in recorder.shard_samples)
        assert recorder.kernel_stats_total() is None

    def test_kernel_stats_total_skips_resumed_shards(self, tmp_path):
        spec = small_spec()
        ckpt = str(tmp_path / "journal")
        run_fleet(spec, shards=3, jobs=1, kernel="vector",
                  checkpoint=ckpt, stop_after=1)
        recorder = FleetRecorder()
        run_fleet(spec, shards=3, jobs=1, kernel="vector",
                  checkpoint=ckpt, resume=True, recorder=recorder)
        assert recorder.resumed_shards() == [0]
        for sample in recorder.shard_samples:
            assert (sample.kernel_stats is None) == sample.resumed
        # The recomputed shards still report timing.
        assert recorder.kernel_stats_total() is not None

    def test_decision_path_totals_survive_resume(self, tmp_path):
        spec = small_spec()
        straight = FleetRecorder()
        run_fleet(spec, shards=3, jobs=1, recorder=straight)
        ckpt = str(tmp_path / "journal")
        run_fleet(spec, shards=3, jobs=1, checkpoint=ckpt, stop_after=1)
        resumed = FleetRecorder()
        run_fleet(spec, shards=3, jobs=1, checkpoint=ckpt, resume=True,
                  recorder=resumed)
        assert resumed.resumed_shards() == [0]
        assert (
            resumed.decision_path_totals().as_dict()
            == straight.decision_path_totals().as_dict()
        )
        # The QZ devices did real cached-decision work.
        assert resumed.decision_path_totals().scored_candidates > 0


class TestCheckpointResume:
    def test_kill_then_resume_matches_uninterrupted(self, tmp_path):
        spec = small_spec()
        straight = run_fleet(spec, shards=3, jobs=1)

        ckpt = str(tmp_path / "journal")
        killed = run_fleet(spec, shards=3, jobs=1, checkpoint=ckpt, stop_after=1)
        assert not killed.complete
        assert killed.pending_shards == [1, 2]

        recorder = FleetRecorder()
        resumed = run_fleet(spec, shards=3, jobs=1, checkpoint=ckpt,
                            resume=True, recorder=recorder)
        assert resumed.complete
        assert resumed.resumed_shards == 1
        assert resumed.computed_shards == 2
        assert recorder.resumed_shards() == [0]
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
