"""The curated ``repro.api`` surface and the top-level ``repro`` package.

``repro.api.__all__`` is the supported contract — this snapshot pins it
so any addition or removal is a deliberate, reviewed change.  The
top-level ``repro.__all__`` is pinned the same way.
"""

import importlib
import warnings

import pytest

import repro
import repro.api as api

# The supported surface, pinned.  Editing this list is an API change:
# update docs (DESIGN.md "Supported API") in the same commit.
API_SNAPSHOT = sorted([
    # single runs
    "simulate",
    "SimulationConfig",
    "SimulationEngine",
    "RunMetrics",
    "TelemetryRecorder",
    # systems under test
    "QuetzalRuntime",
    "Policy",
    "NoAdaptPolicy",
    "AlwaysDegradePolicy",
    "BufferThresholdPolicy",
    "PowerThresholdPolicy",
    "catnap_policy",
    # workloads and worlds
    "build_apollo_app",
    "build_msp430_app",
    "SolarTraceGenerator",
    "SolarTraceConfig",
    "TraceStore",
    "environment_by_name",
    "EventSchedule",
    "EventScheduleGenerator",
    # experiment grids
    "ExperimentConfig",
    "apollo_simulation_config",
    "hardware_experiment_config",
    "msp430_simulation_config",
    "run_grid",
    "standard_policies",
    "ExperimentRunner",
    "GridResults",
    "RunFailure",
    "clear_run_memo",
    # fleets
    "run_fleet",
    "FleetSpec",
    "FleetResult",
    "FleetRollup",
    "MetricsRollup",
    # observability
    "TraceEvent",
    "RingBufferTracer",
    "MetricsRegistry",
    "fleet_registry",
    "HeartbeatPublisher",
    # serving
    "ServeConfig",
    "FleetClient",
    "submit",
    "ResultCache",
    # meta
    "__version__",
])

TOP_LEVEL_SNAPSHOT = sorted([
    "QuetzalRuntime", "EnergyAwareSJF", "FCFSScheduler", "LCFSScheduler",
    "Policy", "NoAdaptPolicy", "AlwaysDegradePolicy", "BufferThresholdPolicy",
    "catnap_policy", "PowerThresholdPolicy",
    "MCUProfile", "APOLLO4", "MSP430FR5994", "mcu_by_name", "Supercapacitor",
    "InputBuffer",
    "Event", "EventSchedule", "EventScheduleGenerator", "SensingEnvironment",
    "APOLLO_ENVIRONMENTS", "environment_by_name",
    "PiecewiseConstantTrace", "SolarTraceGenerator", "SolarTraceConfig",
    "constant_trace", "square_wave_trace",
    "Task", "TaskCost", "TaskRef", "DegradationOption", "Job", "JobSet",
    "MLModelProfile", "build_apollo_app", "build_msp430_app",
    "SimulationEngine", "SimulationConfig", "RunMetrics", "simulate",
    "TelemetryRecorder",
    "__version__",
])

# Internal names: importable from their home modules, never from ``repro``.
INTERNAL_NAMES = {
    "IBOEngine": "repro.core.ibo",
    "PIDController": "repro.core.pid",
    "end_to_end_service_time": "repro.core.service_time",
    "ExactServiceTimeEstimator": "repro.core.service_time",
    "HardwareServiceTimeEstimator": "repro.core.service_time",
    "AverageServiceTimeEstimator": "repro.core.service_time",
    "ADC": "repro.hardware.adc",
    "Diode": "repro.hardware.diode",
    "PowerMonitor": "repro.hardware.circuit",
    "CheckpointModel": "repro.device.checkpoint",
}


class TestApiFacade:
    def test_all_is_exactly_the_snapshot(self):
        assert sorted(api.__all__) == API_SNAPSHOT

    def test_every_name_resolves(self):
        for name in api.__all__:
            assert getattr(api, name) is not None, name

    def test_names_are_the_same_objects_as_their_homes(self):
        from repro.fleet import FleetSpec, run_fleet
        from repro.serve import FleetClient, ResultCache, ServeConfig, submit
        from repro.sim.engine import simulate

        assert api.simulate is simulate
        assert api.run_fleet is run_fleet
        assert api.FleetSpec is FleetSpec
        assert api.QuetzalRuntime is repro.QuetzalRuntime
        assert api.ServeConfig is ServeConfig
        assert api.FleetClient is FleetClient
        assert api.submit is submit
        assert api.ResultCache is ResultCache
        assert api.__version__ == repro.__version__

    def test_facade_import_does_not_warn(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for name in api.__all__:
                getattr(api, name)
        assert caught == []


class TestTopLevelShims:
    """Only the lazy submodule attributes resolve beyond ``__all__``."""

    def test_all_is_exactly_the_snapshot(self):
        assert sorted(repro.__all__) == TOP_LEVEL_SNAPSHOT

    @pytest.mark.parametrize("name", sorted(INTERNAL_NAMES))
    def test_internal_name_resolves_from_home_module_only(self, name):
        home = importlib.import_module(INTERNAL_NAMES[name])
        assert getattr(home, name) is not None
        assert name not in repro.__all__
        with pytest.raises(AttributeError):
            getattr(repro, name)

    def test_supported_names_do_not_warn(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            repro.simulate
            repro.QuetzalRuntime
            repro.build_apollo_app
            repro.SimulationConfig
        assert caught == []

    def test_lazy_submodule_access(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert repro.api is api
            assert repro.fleet.FleetSpec is api.FleetSpec
        assert caught == []

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute"):
            repro.definitely_not_a_name  # noqa: B018
