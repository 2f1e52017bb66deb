"""Shared fixtures for the Quetzal reproduction test suite."""

from __future__ import annotations

import pytest

from repro.device.checkpoint import CheckpointModel
from repro.device.storage import Supercapacitor
from repro.env.events import Event, EventSchedule
from repro.experiments.runner import clear_run_memo
from repro.trace.synthetic import constant_trace
from repro.workload.pipelines import build_apollo_app, build_msp430_app


@pytest.fixture(autouse=True)
def cold_run_memo():
    """Start every test with an empty run memo: no test reuses another's runs."""
    clear_run_memo()


@pytest.fixture
def apollo_app():
    """A fresh Apollo 4 person-detection application."""
    return build_apollo_app()


@pytest.fixture
def msp430_app():
    """A fresh MSP430 person-detection application."""
    return build_msp430_app()


@pytest.fixture
def steady_trace():
    """A constant 50 mW trace — enough to run the whole Apollo pipeline."""
    return constant_trace(0.050)


@pytest.fixture
def low_power_trace():
    """A constant 2 mW trace — recharge time dominates everything."""
    return constant_trace(0.002)


@pytest.fixture
def one_event_schedule():
    """A single 20 s interesting event starting at t=5 s, always-different."""
    return EventSchedule(
        [Event(start=5.0, duration=20.0, interesting=True)],
        diff_probability=1.0,
    )


@pytest.fixture
def small_storage():
    """A small store (about 12.6 mJ usable) that depletes quickly in tests."""
    return Supercapacitor(capacitance_f=3.3e-3)


@pytest.fixture
def zero_checkpoint():
    """A checkpoint model with no save/restore cost (for exact-math tests)."""
    return CheckpointModel(0.0, 0.0, 0.0, 0.0)
