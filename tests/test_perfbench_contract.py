"""The names ``perfbench/spans.py`` reads from ``src/`` keep working.

perfbench traces the program from outside: :class:`SpanRecorder`
wraps public functions of each layer and reads the counters the program
already returns (``KernelStats`` through a ``FleetRecorder``, the
Quetzal ``DecisionPathStats`` on each engine's policy).  This test loads
``perfbench/spans.py`` unchanged, installs its recorder around a short
Quetzal ``simulate`` and a small vector-kernel ``run_fleet``, and checks
that the counters it reads are live and that uninstalling restores every
attribute it patched.
"""

import importlib.util
from pathlib import Path

from repro.core.runtime import QuetzalRuntime
from repro.env.activity import CROWDED
from repro.fleet import FleetSpec
from repro.sim.engine import SimulationConfig, simulate
from repro.trace.solar import SolarTraceGenerator
from repro.workload.pipelines import build_apollo_app

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_recorder_reads_live_counters_and_restores_patches():
    from repro.fleet import service

    recorder = load_spans().SpanRecorder()
    recorder.install()
    patched = list(recorder._patches)
    try:
        simulate(
            build_apollo_app(),
            QuetzalRuntime(),
            SolarTraceGenerator(seed=1).generate(),
            CROWDED.schedule(20, seed=2),
            config=SimulationConfig(seed=5),
        )
        # Through the module attribute, as perfbench's workloads call it:
        # the recorder patches ``service.run_fleet`` in place.
        service.run_fleet(
            FleetSpec(devices=4, seed=11, name="pb", n_events=3,
                      policies=("NA",)),
            kernel="vector",
            jobs=1,
        )
    finally:
        recorder.uninstall()

    counters = recorder.counters
    assert counters["core.decisions"] > 0
    assert counters["core.cache_hits"] > 0
    assert counters["kernel.iterations"] > 0
    metrics = recorder.layer_metrics()
    assert 0.0 < metrics["core.cache_hit_ratio"] <= 1.0
    assert metrics["core.score_table_rebuilds"] == counters["core.cache_misses"]

    assert patched
    assert not recorder._patches
    for owner, attr, original in patched:
        assert getattr(owner, attr) == original, (owner, attr)
