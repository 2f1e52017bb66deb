"""Harvested-power traces.

Quetzal's evaluation drives an emulated solar harvester from a recorded
power trace (paper section 6.2).  This package provides the trace
abstraction used throughout the simulator plus generators for synthetic
solar traces (substituting the Columbia dataset, see DESIGN.md) and simple
deterministic traces for tests.
"""

from repro.trace.io import load_trace_csv, save_trace_csv, trace_from_rows
from repro.trace.power_trace import PiecewiseConstantTrace
from repro.trace.solar import SolarTraceConfig, SolarTraceGenerator
from repro.trace.stats import TraceSummary, fraction_above, percentile_power, summarize
from repro.trace.store import TraceStore, schedule_store_key, solar_store_key
from repro.trace.synthetic import (
    constant_trace,
    ramp_trace,
    square_wave_trace,
    two_level_trace,
)

__all__ = [
    "PiecewiseConstantTrace",
    "SolarTraceConfig",
    "SolarTraceGenerator",
    "constant_trace",
    "square_wave_trace",
    "two_level_trace",
    "ramp_trace",
    "load_trace_csv",
    "save_trace_csv",
    "trace_from_rows",
    "summarize",
    "TraceSummary",
    "fraction_above",
    "percentile_power",
    "TraceStore",
    "solar_store_key",
    "schedule_store_key",
]
