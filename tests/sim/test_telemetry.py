"""Tests for the telemetry recorder and its engine integration."""

import pytest

from repro.env.events import Event, EventSchedule
from repro.errors import ConfigurationError
from repro.obs import RingBufferTracer, TraceEvent, TraceSink
from repro.policies.noadapt import NoAdaptPolicy
from repro.core.runtime import QuetzalRuntime
from repro.sim.engine import SimulationConfig, SimulationEngine
from repro.sim.telemetry import BufferSample, DecisionSample, TelemetryRecorder
from repro.trace.synthetic import two_level_trace
from repro.workload.pipelines import build_apollo_app


def run_with_telemetry(
    policy, trace, sample_every=1, duration=30.0, seed=0, sink=None
):
    telemetry = TelemetryRecorder(sample_every) if sink is None else sink
    engine = SimulationEngine(
        build_apollo_app(),
        policy,
        trace,
        EventSchedule([Event(5.0, duration, True)], diff_probability=1.0),
        config=SimulationConfig(seed=seed, drain_timeout_s=500.0),
        tracer=telemetry,
    )
    metrics = engine.run()
    return telemetry, metrics


class TestTraceSink:
    def test_is_a_trace_sink(self):
        assert isinstance(TelemetryRecorder(), TraceSink)

    def test_rows_equal_the_trace_stream(self, low_power_trace):
        recorder, _ = run_with_telemetry(
            QuetzalRuntime(), low_power_trace, duration=60.0, seed=4
        )
        ring, _ = run_with_telemetry(
            QuetzalRuntime(), low_power_trace, duration=60.0, seed=4,
            sink=RingBufferTracer(),
        )
        assert ring.dropped == 0
        events = ring.events()
        captures = [
            BufferSample(
                e.t, e.data["occupancy"], e.data["energy_j"],
                e.data["power_w"], e.data["event"],
            )
            for e in events if e.kind == "capture"
        ]
        decisions = [
            DecisionSample(
                e.t, e.data["job"], e.data["option"], e.data["degraded"],
                e.data["ibo_predicted"], e.data["predicted_service_s"],
            )
            for e in events if e.kind == "decision"
        ]
        assert recorder.buffer_samples == captures
        assert recorder.decisions == decisions
        assert any(d.degraded for d in decisions)
        assert {s.event_active for s in captures} == {True, False}

    def test_other_kinds_are_ignored(self):
        recorder = TelemetryRecorder()
        for event in (
            TraceEvent(1.0, "pid_update", data={"job": "ml", "error_s": 0.1}),
            TraceEvent(2.0, "recharge", dur=5.0),
            TraceEvent(3.0, "ibo", data={"interesting": True}),
            TraceEvent(4.0, "degradation", data={"job": "ml", "option": "lenet"}),
        ):
            recorder.emit(event)
        assert recorder.buffer_samples == []
        assert recorder.decisions == []
        assert recorder.peak_occupancy() == 0
        assert recorder.mean_occupancy() == 0.0


class TestRecorder:
    def test_capture_samples_collected(self, steady_trace):
        telemetry, metrics = run_with_telemetry(NoAdaptPolicy(), steady_trace)
        assert len(telemetry.buffer_samples) == metrics.captures_total
        times = [s.t for s in telemetry.buffer_samples]
        assert times == sorted(times)

    def test_decision_samples_collected(self, steady_trace):
        telemetry, metrics = run_with_telemetry(NoAdaptPolicy(), steady_trace)
        assert len(telemetry.decisions) == metrics.policy_invocations

    def test_sampling_thins_captures(self, steady_trace):
        dense, _ = run_with_telemetry(NoAdaptPolicy(), steady_trace, sample_every=1)
        sparse, _ = run_with_telemetry(NoAdaptPolicy(), steady_trace, sample_every=4)
        assert len(sparse.buffer_samples) < len(dense.buffer_samples)
        assert len(sparse.buffer_samples) >= len(dense.buffer_samples) // 4

    def test_sampling_does_not_thin_occupancy_statistics(self, steady_trace):
        # Peak/mean run over every capture tick; sample_every thins only
        # the stored series.
        dense, _ = run_with_telemetry(NoAdaptPolicy(), steady_trace, sample_every=1)
        sparse, _ = run_with_telemetry(NoAdaptPolicy(), steady_trace, sample_every=4)
        assert sparse.peak_occupancy() == dense.peak_occupancy()
        assert sparse.mean_occupancy() == dense.mean_occupancy()

    def test_sampled_peak_can_exceed_stored_samples(self, low_power_trace):
        # Under low power the buffer fills and drains; a coarse sampler
        # can easily miss the tick where occupancy peaked — the statistic
        # must not.
        dense, _ = run_with_telemetry(
            NoAdaptPolicy(), low_power_trace, duration=60.0, sample_every=1
        )
        sparse, _ = run_with_telemetry(
            NoAdaptPolicy(), low_power_trace, duration=60.0, sample_every=7
        )
        assert sparse.peak_occupancy() == dense.peak_occupancy()
        assert sparse.mean_occupancy() == dense.mean_occupancy()
        stored_peak = max(s.occupancy for s in sparse.buffer_samples)
        assert stored_peak <= sparse.peak_occupancy()

    def test_samples_carry_physical_state(self, steady_trace):
        telemetry, _ = run_with_telemetry(NoAdaptPolicy(), steady_trace)
        sample = telemetry.buffer_samples[0]
        assert sample.input_power_w == pytest.approx(0.050)
        assert 0.0 <= sample.stored_energy_j <= 0.13
        assert sample.occupancy >= 0

    def test_degraded_fraction_tracks_quetzal(self, low_power_trace):
        telemetry, _ = run_with_telemetry(
            QuetzalRuntime(), low_power_trace, duration=60.0
        )
        # At 2 mW with a long event, Quetzal must degrade some jobs.
        assert telemetry.degraded_fraction() > 0
        assert any(d.option_name in ("lenet", "single-byte") for d in telemetry.decisions)

    def test_occupancy_statistics(self, low_power_trace):
        telemetry, _ = run_with_telemetry(
            NoAdaptPolicy(), low_power_trace, duration=60.0
        )
        assert telemetry.peak_occupancy() >= telemetry.mean_occupancy()
        assert telemetry.peak_occupancy() <= 10

    def test_series_accessors(self, steady_trace):
        telemetry, _ = run_with_telemetry(NoAdaptPolicy(), steady_trace)
        t1, occ = telemetry.occupancy_series()
        t2, power = telemetry.power_series()
        assert t1 == t2
        assert len(occ) == len(power) == len(t1)

    def test_windowed_rate_responds_to_power(self):
        # High power first, then a 6 mW tail: the rate must drop.
        trace = two_level_trace(0.3, 0.006, switch_at_s=40.0)
        telemetry, _ = run_with_telemetry(NoAdaptPolicy(), trace, duration=80.0)
        times, rates = telemetry.windowed_processing_rate(20.0)
        assert len(rates) >= 3
        early = max(rates[:2])
        late = rates[3] if len(rates) > 3 else rates[-1]
        assert early > late

    def test_empty_recorder(self):
        telemetry = TelemetryRecorder()
        assert telemetry.peak_occupancy() == 0
        assert telemetry.mean_occupancy() == 0.0
        assert telemetry.degraded_fraction() == 0.0
        assert telemetry.windowed_processing_rate(10.0) == ([], [])

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TelemetryRecorder(sample_every=0)
        with pytest.raises(ConfigurationError):
            TelemetryRecorder().windowed_processing_rate(0.0)
