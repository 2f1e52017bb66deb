"""Captures must continue while the device recharges.

DESIGN.md's reserved-capture-store substitution: the capture subsystem
keeps sampling on schedule even when the main storage is depleted and the
compute core is waiting to recharge.  This is what converts recharge
stalls into buffer pressure — the central mechanism of the IBO problem —
so it gets its own focused tests.
"""


from repro.device.storage import Supercapacitor
from repro.env.events import Event, EventSchedule
from repro.policies.noadapt import NoAdaptPolicy
from repro.sim.engine import SimulationConfig, SimulationEngine
from repro.sim.telemetry import TelemetryRecorder
from repro.trace.synthetic import constant_trace
from repro.workload.pipelines import build_apollo_app


def run(trace_power_w, duration=60.0, capacity=10):
    telemetry = TelemetryRecorder()
    engine = SimulationEngine(
        build_apollo_app(),
        NoAdaptPolicy(),
        constant_trace(trace_power_w),
        EventSchedule([Event(2.0, duration, True)], diff_probability=1.0),
        storage=Supercapacitor(capacitance_f=3.3e-3),  # ~12.6 mJ: fails fast
        config=SimulationConfig(
            seed=0, buffer_capacity=capacity, drain_timeout_s=4000.0
        ),
        tracer=telemetry,
    )
    metrics = engine.run()
    return metrics, telemetry


class TestCapturesDuringRecharge:
    def test_every_event_second_captured_despite_failures(self):
        metrics, _ = run(trace_power_w=0.003)
        # The device spends most of its time recharging (power failures),
        # yet captures cover the full event: t = 2..61 -> 60 interesting.
        assert metrics.power_failures > 0
        assert metrics.captures_interesting == 60

    def test_buffer_fills_while_recharging(self):
        metrics, telemetry = run(trace_power_w=0.003)
        # Arrivals during stalls fill the buffer to capacity and overflow.
        assert telemetry.peak_occupancy() == 10
        assert metrics.ibo_drops > 0

    def test_high_power_control(self):
        # At 0.5 W there are no recharge stalls; remaining IBOs are purely
        # compute-bound (2 s ML vs 1 s arrivals) and far fewer than the
        # recharge-driven losses at 3 mW.
        high, _ = run(trace_power_w=0.5)
        low, _ = run(trace_power_w=0.003)
        assert high.power_failures == 0
        assert high.ibo_drops < low.ibo_drops

    def test_capture_count_independent_of_power(self):
        low, _ = run(trace_power_w=0.003)
        high, _ = run(trace_power_w=0.5)
        assert low.captures_interesting == high.captures_interesting

    def test_recharge_time_dominates_at_low_power(self):
        metrics, _ = run(trace_power_w=0.003)
        assert metrics.recharge_time_s > 0.5 * metrics.sim_end_s
