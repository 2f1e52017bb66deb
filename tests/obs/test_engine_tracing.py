"""Tracing integration: scalar engine, vector kernel, fleet fan-out.

The contract under test everywhere: tracing is pure observation.  The
same run with and without a tracer attached produces bit-identical
metrics/rollups; the tracer's timeline is consistent with those metrics.
"""

import dataclasses
import hashlib
import io
import json

import pytest

from repro.core.runtime import QuetzalRuntime
from repro.env.activity import CROWDED
from repro.env.events import Event, EventSchedule
from repro.fleet import FleetSpec, run_fleet
from repro.fleet.service import run_shard
from repro.obs import EVENT_KINDS, HeartbeatPublisher, RingBufferTracer
from repro.obs.heartbeat import validate_heartbeat_records
from repro.policies.noadapt import NoAdaptPolicy
from repro.serve.cache import canonical_rollup_json
from repro.sim.engine import SimulationConfig, simulate
from repro.sim.telemetry import TelemetryRecorder
from repro.trace.solar import SolarTraceGenerator
from repro.trace.synthetic import constant_trace
from repro.workload.pipelines import build_apollo_app


def one_event_schedule(duration=30.0):
    return EventSchedule([Event(5.0, duration, True)], diff_probability=1.0)


def run_traced(policy, trace, schedule=None, tracer=None, **kw):
    kw.setdefault("config", SimulationConfig(seed=0, drain_timeout_s=500.0))
    return simulate(
        build_apollo_app(), policy, trace,
        one_event_schedule() if schedule is None else schedule,
        tracer=tracer, **kw,
    )


class TestScalarEngineTracing:
    def test_tracing_never_changes_metrics(self, steady_trace):
        plain = run_traced(NoAdaptPolicy(), steady_trace)
        traced = run_traced(NoAdaptPolicy(), steady_trace,
                            tracer=RingBufferTracer())
        assert traced.to_dict() == plain.to_dict()

    def test_tracing_never_changes_quetzal_metrics(self, low_power_trace):
        plain = run_traced(QuetzalRuntime(), low_power_trace)
        traced = run_traced(QuetzalRuntime(), low_power_trace,
                            tracer=RingBufferTracer())
        assert traced.to_dict() == plain.to_dict()

    def test_timeline_matches_metrics(self, steady_trace):
        ring = RingBufferTracer()
        metrics = run_traced(NoAdaptPolicy(), steady_trace, tracer=ring)
        counts = ring.counts_by_kind()
        assert counts["capture"] == metrics.captures_total
        assert counts["decision"] == metrics.policy_invocations
        assert set(counts) <= set(EVENT_KINDS)
        assert ring.dropped == 0
        # Capture ticks are emitted in simulated-time order.  (The full
        # stream is not globally sorted: a task's completion decision can
        # land between already-fired due capture ticks.)
        captures = [e.t for e in ring.events() if e.kind == "capture"]
        assert captures == sorted(captures)

    def test_ibo_events_match_drops(self, low_power_trace):
        ring = RingBufferTracer()
        metrics = run_traced(
            NoAdaptPolicy(), low_power_trace,
            schedule=one_event_schedule(duration=120.0),
            tracer=ring,
            config=SimulationConfig(seed=0, drain_timeout_s=4000.0),
        )
        assert metrics.ibo_drops > 0
        assert ring.counts_by_kind()["ibo"] == metrics.ibo_drops
        ibo = next(e for e in ring.events() if e.kind == "ibo")
        assert "interesting" in ibo.data

    def test_power_fail_and_recovery_spans(self, small_storage):
        ring = RingBufferTracer()
        metrics = run_traced(
            NoAdaptPolicy(), constant_trace(0.010),
            schedule=EventSchedule([Event(0.5, 1.0, True)],
                                   diff_probability=1.0),
            tracer=ring,
            storage=small_storage,
            config=SimulationConfig(seed=0, drain_timeout_s=4000.0),
        )
        counts = ring.counts_by_kind()
        assert metrics.power_failures > 0
        assert counts["power_fail"] == metrics.power_failures
        assert counts.get("recharge", 0) > 0
        for kind in ("checkpoint", "restore", "recharge"):
            for event in ring.events():
                if event.kind == kind:
                    assert event.dur > 0.0

    def test_capture_events_carry_event_flag(self, steady_trace):
        ring = RingBufferTracer()
        run_traced(NoAdaptPolicy(), steady_trace, tracer=ring)
        captures = [e.data for e in ring.events() if e.kind == "capture"]
        assert all(type(data["event"]) is bool for data in captures)
        assert all(data["event"] for data in captures if data["interesting"])
        assert {data["event"] for data in captures} == {True, False}

    def test_quetzal_emits_pid_updates(self, steady_trace):
        ring = RingBufferTracer()
        run_traced(QuetzalRuntime(), steady_trace, tracer=ring)
        updates = [e for e in ring.events() if e.kind == "pid_update"]
        assert updates
        assert {"job", "error_s", "dt_s", "output"} <= set(updates[0].data)

    def test_quetzal_degradation_events(self, low_power_trace):
        ring = RingBufferTracer()
        run_traced(QuetzalRuntime(), low_power_trace,
                   schedule=one_event_schedule(duration=60.0), tracer=ring)
        degradations = [e for e in ring.events() if e.kind == "degradation"]
        assert degradations
        assert degradations[0].data["option"] in ("lenet", "single-byte")


def stream_digest(rows) -> str:
    """sha256 of canonical JSON over ``rows``, in order."""
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class TestCaptureStream:
    """Every capture, observed or not, fires through one body.

    The capture totals are pinned with no sink, with a ring and with the
    telemetry recorder.  The digests pin what the counts cannot: every
    ring row ``(t, kind, dur, data)`` and the rows' order, and the
    recorder's buffer and decision samples.  They were recorded while the
    engine still fired traced captures through a separate body.
    """

    CAPTURES = {"NA": 1847, "QZ": 1457}
    RING_DIGESTS = {
        "NA": "bd28b900973d30129c646ffacc65aaf05815d454e5cfec2ecccd452ae2c74e4c",
        "QZ": "6c0933d237c50e54f596d4b8090f2574126a24733dd19f74d1ef07699c5738b4",
    }
    TELEMETRY_DIGESTS = {
        "NA": "ab77baa84f8ded18dd4628596c92d082780655bad8e77052855ca7e654b4ef24",
        "QZ": "5ad214c9211718a3cff89a76ec1ae312ce2992f36833d09352a4197741a97b04",
    }

    @pytest.fixture(scope="class")
    def solar_trace(self):
        return SolarTraceGenerator(seed=1).generate()

    @staticmethod
    def run(solar_trace, policy, tracer=None):
        factory = {"NA": NoAdaptPolicy, "QZ": QuetzalRuntime}[policy]
        return simulate(
            build_apollo_app(), factory(), solar_trace,
            CROWDED.schedule(30, seed=2), config=SimulationConfig(seed=3),
            tracer=tracer,
        )

    @pytest.mark.parametrize("sink", [None, RingBufferTracer, TelemetryRecorder])
    @pytest.mark.parametrize("policy", ["NA", "QZ"])
    def test_captures_total(self, solar_trace, policy, sink):
        metrics = self.run(solar_trace, policy, None if sink is None else sink())
        assert metrics.captures_total == self.CAPTURES[policy]

    @pytest.mark.parametrize("policy", ["NA", "QZ"])
    def test_ring_stream_digest(self, solar_trace, policy):
        ring = RingBufferTracer(capacity=1 << 16)
        metrics = self.run(solar_trace, policy, ring)
        assert ring.dropped == 0
        assert ring.counts_by_kind()["capture"] == metrics.captures_total
        rows = [[e.t, e.kind, e.dur, e.data] for e in ring.events()]
        assert stream_digest(rows) == self.RING_DIGESTS[policy]

    @pytest.mark.parametrize("policy", ["NA", "QZ"])
    def test_telemetry_digest(self, solar_trace, policy):
        recorder = TelemetryRecorder()
        metrics = self.run(solar_trace, policy, recorder)
        assert len(recorder.buffer_samples) == metrics.captures_total
        rows = [
            [dataclasses.astuple(s) for s in recorder.buffer_samples],
            [dataclasses.astuple(d) for d in recorder.decisions],
        ]
        assert stream_digest(rows) == self.TELEMETRY_DIGESTS[policy]


def baseline_spec(**kw):
    base = dict(devices=6, seed=11, name="trace-fleet", n_events=3,
                policies=("NA", "AD", "TH50"))
    base.update(kw)
    return FleetSpec(**base)


class TestVectorKernelTracing:
    def test_rollup_unchanged_by_tracer(self):
        spec = baseline_spec()
        plain = run_shard(spec, 1, 0, kernel="vector")
        traced = run_shard(spec, 1, 0, kernel="vector",
                           tracer=RingBufferTracer())
        assert traced.to_dict() == plain.to_dict()

    def test_events_are_device_stamped(self):
        spec = baseline_spec()
        ring = RingBufferTracer()
        run_shard(spec, 2, 1, kernel="vector", tracer=ring)
        devices = {e.device for e in ring.events()}
        assert devices  # the shard produced a timeline
        assert devices <= set(range(3, 6))  # shard 1 of 2 over 6 devices

    def test_kernel_timeline_is_consistent_with_rollup(self):
        spec = baseline_spec()
        ring = RingBufferTracer()
        rollup = run_shard(spec, 1, 0, kernel="vector", tracer=ring)
        counts = ring.counts_by_kind()
        assert set(counts) <= set(EVENT_KINDS)
        assert counts["decision"] == rollup.overall.counters[
            "policy_invocations"
        ]
        # The kernel elides quiescent capture ticks: what it does emit is
        # only ever *active* captures, never more than the true total.
        captures = [e for e in ring.events() if e.kind == "capture"]
        assert all(e.data["active"] for e in captures)
        assert len(captures) <= rollup.overall.counters["captures_total"]


class TestFleetTracing:
    def test_merged_trace_is_jobs_invariant(self):
        spec = baseline_spec()
        traces = []
        for jobs in (1, 2):
            ring = RingBufferTracer()
            run_fleet(spec, shards=3, jobs=jobs, trace=ring)
            traces.append([e.as_dict() for e in ring.events()])
        assert traces[0] == traces[1]
        assert traces[0]  # non-empty

    def test_rollup_unchanged_by_trace_and_heartbeat(self):
        spec = baseline_spec()
        plain = run_fleet(spec, shards=2, jobs=1).rollup
        buffer = io.StringIO()
        observed = run_fleet(
            spec, shards=2, jobs=1,
            trace=RingBufferTracer(),
            heartbeat=HeartbeatPublisher(buffer),
        ).rollup
        assert observed.to_dict() == plain.to_dict()

    def test_worker_rings_mirror_parent_capacity(self):
        spec = baseline_spec()
        ring = RingBufferTracer(capacity=8)
        run_fleet(spec, shards=2, jobs=1, trace=ring)
        # Each worker ring was bounded too, so drops are accounted, and
        # the parent ring holds at most its own capacity.
        assert len(ring) <= 8
        assert ring.emitted > 8
        assert ring.dropped == ring.emitted - len(ring)

    def test_vector_fleet_feeds_telemetry_recorder(self):
        spec = baseline_spec(devices=8, policies=("NA", "AD"))
        plain = run_fleet(spec, kernel="vector").rollup
        recorder = TelemetryRecorder()
        observed = run_fleet(spec, kernel="vector", trace=recorder).rollup
        assert canonical_rollup_json(observed.to_dict()) == canonical_rollup_json(
            plain.to_dict()
        )
        ring = RingBufferTracer()
        run_fleet(spec, kernel="vector", trace=ring)
        captures = ring.counts_by_kind()["capture"]
        assert captures > 0
        assert len(recorder.buffer_samples) == captures
        assert {s.input_power_w for s in recorder.buffer_samples} == {None}

    def test_occupancy_statistics_are_kernel_independent(self):
        # The scalar engine also emits inactive capture ticks and the
        # vector kernel does not; occupancy counts active ticks only.
        spec = baseline_spec(devices=8, n_events=5, policies=("NA", "AD"))
        recorders = {}
        for kernel in ("scalar", "vector"):
            recorders[kernel] = TelemetryRecorder()
            run_fleet(spec, kernel=kernel, trace=recorders[kernel])
        scalar, vector = recorders["scalar"], recorders["vector"]
        assert len(scalar.buffer_samples) > len(vector.buffer_samples)
        assert scalar.peak_occupancy() == vector.peak_occupancy() > 0
        assert scalar.mean_occupancy() == vector.mean_occupancy() > 0

    def test_heartbeat_stream_from_run_fleet(self):
        spec = baseline_spec()
        buffer = io.StringIO()
        result = run_fleet(
            spec, shards=3, jobs=1, heartbeat=HeartbeatPublisher(buffer)
        )
        rows = [json.loads(line) for line in buffer.getvalue().splitlines()]
        assert validate_heartbeat_records(rows) == []
        assert rows[0]["type"] == "start"
        assert rows[0]["shards"] == 3
        assert rows[-1]["type"] == "end"
        assert rows[-1]["devices"] == result.rollup.devices
        assert rows[-1]["complete"] is True
        beats = [r for r in rows if r["type"] == "heartbeat"]
        assert [b["shards_done"] for b in beats] == [1, 2, 3]
        assert beats[-1]["devices_done"] == spec.devices

    def test_resumed_shards_do_not_replay_trace(self, tmp_path):
        spec = baseline_spec()
        ckpt = str(tmp_path / "journal")
        run_fleet(spec, shards=3, jobs=1, checkpoint=ckpt)
        ring = RingBufferTracer()
        buffer = io.StringIO()
        result = run_fleet(
            spec, shards=3, jobs=1, checkpoint=ckpt, resume=True,
            trace=ring, heartbeat=HeartbeatPublisher(buffer),
        )
        # Every shard came from the journal: no simulation, no trace.
        assert len(ring) == 0
        rows = [json.loads(line) for line in buffer.getvalue().splitlines()]
        assert rows[-1]["type"] == "end"
        assert rows[-1]["devices"] == result.rollup.devices
