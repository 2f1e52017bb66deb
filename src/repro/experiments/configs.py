"""Experiment configurations (paper Table 1).

===============  ==========================================================
Component        Values
===============  ==========================================================
Compute          Apollo 4 (HW & sim) and MSP430FR5994 (sim); buffer = 10
Expt. config     Capture rate 1 FPS; max interesting durations 600/60/20 s
                 (Apollo) and 10 s (MSP430)
App details      High-Q ML MobileNetV2 / Low-Q LeNet (Apollo),
                 int16/int8 LeNet (MSP430); radio full JPEG vs single byte
Quetzal params   <task-window>=64, <arrival-window>=256,
                 PID Kp=5e-6 Ki=1e-6 Kd=1
Harvester        6 cells (swept 2-10 in the sensitivity study)
Events           100 (hardware experiment), 1000 (simulation)
===============  ==========================================================

An :class:`ExperimentConfig` bundles the device, environment, trace, and
engine parameters of one run and knows how to build all of them; the
harness and figure runners never construct engines by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.device.mcu import APOLLO4, MSP430FR5994, MCUProfile
from repro.device.storage import Supercapacitor
from repro.env.activity import MSP430_ENVIRONMENT, SensingEnvironment, environment_by_name
from repro.env.events import EventSchedule
from repro.errors import ConfigurationError
from repro.sim.engine import SimulationConfig
from repro.trace.power_trace import PiecewiseConstantTrace
from repro.trace.solar import SolarTraceConfig, SolarTraceGenerator
from repro.trace.store import KeyTemplate, schedule_store_key, solar_store_key
from repro.workload.pipelines import PersonDetectionApp, app_for_mcu

__all__ = [
    "ExperimentConfig",
    "apollo_simulation_config",
    "hardware_experiment_config",
    "msp430_simulation_config",
    "DEFAULT_SIM_EVENTS",
    "DEFAULT_HW_EVENTS",
]

#: The paper's event counts (section 6.4).  Figure runners default to a
#: scaled-down count so the full suite regenerates in minutes; pass
#: ``n_events=DEFAULT_SIM_EVENTS`` for the paper-scale runs.
DEFAULT_SIM_EVENTS = 1000
DEFAULT_HW_EVENTS = 100

#: Per cell count: the validated ``SolarTraceConfig`` (shared by every
#: ``build_trace``) and its trace-store :class:`~repro.trace.store.KeyTemplate`.
#: Schedule key templates are cached per (generator, n_events).  A template
#: yields each seed's key and fingerprint; the schedule cache keeps a
#: strong reference to its generator so cached ``id()`` keys stay valid.
_SOLAR_TEMPLATES: dict = {}
_SCHEDULE_KEY_TEMPLATES: dict = {}


def _solar_template(cells: int) -> tuple[SolarTraceConfig, KeyTemplate]:
    cached = _SOLAR_TEMPLATES.get(cells)
    if cached is None:
        solar = SolarTraceConfig(cells=cells)
        cached = _SOLAR_TEMPLATES[cells] = (
            solar, KeyTemplate(solar_store_key(solar, 0)),
        )
    return cached


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """One fully resolved experiment setup.

    Construction is keyword-only and variants come from
    :func:`dataclasses.replace`, so per-device fleet overrides never
    depend on field order.

    Attributes
    ----------
    name:
        Human-readable experiment name.
    mcu:
        Device profile (Apollo 4 or MSP430FR5994).
    environment:
        Sensing environment preset.
    n_events:
        Number of events in the generated schedule.
    cells:
        Harvester cell count (Table 1 default: 6; swept in Figure 14).
    capture_period_s:
        Camera capture period (swept in Figure 2b).
    buffer_capacity:
        Input buffer capacity in images; ``None`` = Ideal infinite buffer.
    trace_seed / schedule_seed / sim_seed:
        RNG seeds for the solar trace, the event schedule, and the
        classification draws respectively.
    """

    name: str
    mcu: MCUProfile = APOLLO4
    environment: SensingEnvironment = None  # type: ignore[assignment]
    n_events: int = 100
    cells: int = 6
    capture_period_s: float = 1.0
    buffer_capacity: int | None = 10
    trace_seed: int = 1
    schedule_seed: int = 10
    sim_seed: int = 100
    drain_timeout_s: float = 3600.0

    def __post_init__(self) -> None:
        if self.environment is None:
            raise ConfigurationError("environment is required")
        if self.n_events < 1:
            raise ConfigurationError("n_events must be >= 1")
        if self.cells < 1:
            raise ConfigurationError("cells must be >= 1")

    # -- builders ---------------------------------------------------------------

    def build_app(self) -> PersonDetectionApp:
        """The person-detection app matching this config's MCU."""
        return app_for_mcu(self.mcu)

    def build_trace(self) -> PiecewiseConstantTrace:
        """The solar trace for this config's cell count and seed."""
        return self.trace_generator().generate()

    def trace_generator(self) -> SolarTraceGenerator:
        """The generator :meth:`build_trace` runs."""
        solar, _ = _solar_template(self.cells)
        return SolarTraceGenerator(solar, seed=self.trace_seed)

    def build_schedule(self) -> EventSchedule:
        """The event schedule for this config's environment and seed."""
        return self.environment.schedule(self.n_events, seed=self.schedule_seed)

    def build_storage(self) -> Supercapacitor:
        """A fresh 33 mF supercapacitor (section 6.2)."""
        return Supercapacitor()

    def build_sim_config(self) -> SimulationConfig:
        return SimulationConfig(
            capture_period_s=self.capture_period_s,
            buffer_capacity=self.buffer_capacity,
            drain_timeout_s=self.drain_timeout_s,
            seed=self.sim_seed,
        )

    # -- cache keys --------------------------------------------------------------
    #
    # The experiment runner builds traces and schedules once per distinct
    # key and shares them across runs; each key must cover exactly the
    # fields its builder reads.

    def trace_key(self) -> tuple:
        """Hashable identity of :meth:`build_trace`'s inputs."""
        return (self.cells, self.trace_seed)

    def schedule_key(self) -> tuple:
        """Hashable identity of :meth:`build_schedule`'s inputs."""
        return (self.environment, self.n_events, self.schedule_seed)

    # -- trace-store keys --------------------------------------------------------
    #
    # The persistent, process-independent identities of the same builders:
    # full generator params + seed, fingerprinted by the trace store.  A
    # store entry written for one config is found by any other config
    # whose builder would generate identical data.  Key templates are
    # cached per generator: fleet lane builds call these once per device,
    # and a template encodes its params once for every seed's fingerprint.

    def trace_store_key(self) -> dict:
        """:mod:`repro.trace.store` key of :meth:`build_trace`'s output."""
        return _solar_template(self.cells)[1].key(self.trace_seed)

    def trace_store_fingerprint(self) -> str:
        """``fingerprint_key(self.trace_store_key())``."""
        return _solar_template(self.cells)[1].fingerprint(self.trace_seed)

    def schedule_store_key(self) -> dict:
        """:mod:`repro.trace.store` key of :meth:`build_schedule`'s output."""
        return self._schedule_template().key(self.schedule_seed)

    def schedule_store_fingerprint(self) -> str:
        """``fingerprint_key(self.schedule_store_key())``."""
        return self._schedule_template().fingerprint(self.schedule_seed)

    def _schedule_template(self) -> KeyTemplate:
        generator = self.environment.generator
        cached = _SCHEDULE_KEY_TEMPLATES.get((id(generator), self.n_events))
        # The cache holds a strong reference to the generator, so a hit's
        # id() cannot have been recycled; the identity check is belt and
        # braces.
        if cached is None or cached[0] is not generator:
            template = KeyTemplate(schedule_store_key(generator, self.n_events, 0))
            _SCHEDULE_KEY_TEMPLATES[(id(generator), self.n_events)] = (
                generator, template,
            )
            return template
        return cached[1]

    # -- variants ---------------------------------------------------------------

    def with_seeds(self, offset: int) -> "ExperimentConfig":
        """A seed-shifted copy (same trace; new schedule and draws)."""
        return replace(
            self,
            schedule_seed=self.schedule_seed + offset,
            sim_seed=self.sim_seed + offset,
        )

    def with_ideal_buffer(self) -> "ExperimentConfig":
        """Copy with an unbounded buffer (the Ideal baseline's device).

        The Ideal system models infinite memory *and* patience: its backlog
        may take far longer than the event schedule to drain, so the drain
        timeout is extended accordingly (otherwise end-of-run leftovers
        would masquerade as losses the paper's Ideal bar does not have).
        """
        return replace(
            self,
            name=f"{self.name}-ideal",
            buffer_capacity=None,
            drain_timeout_s=max(self.drain_timeout_s, 200_000.0),
        )


def apollo_simulation_config(
    environment: str | SensingEnvironment = "crowded",
    n_events: int = 200,
) -> ExperimentConfig:
    """The primary Apollo 4 simulation setup (sections 6.3-6.4)."""
    env = (
        environment_by_name(environment)
        if isinstance(environment, str)
        else environment
    )
    return ExperimentConfig(
        name=f"apollo-{env.name.lower().replace(' ', '-')}",
        mcu=APOLLO4,
        environment=env,
        n_events=n_events,
    )


def hardware_experiment_config(
    environment: str | SensingEnvironment = "more crowded",
    n_events: int = DEFAULT_HW_EVENTS,
) -> ExperimentConfig:
    """The end-to-end hardware experiment setup (section 6.2): 100 events."""
    env = (
        environment_by_name(environment)
        if isinstance(environment, str)
        else environment
    )
    return ExperimentConfig(
        name=f"hw-{env.name.lower().replace(' ', '-')}",
        mcu=APOLLO4,
        environment=env,
        n_events=n_events,
    )


def msp430_simulation_config(n_events: int = 200) -> ExperimentConfig:
    """The MSP430FR5994 versatility study (Figure 13, Table 1)."""
    return ExperimentConfig(
        name="msp430",
        mcu=MSP430FR5994,
        environment=MSP430_ENVIRONMENT,
        n_events=n_events,
    )
