"""In-memory span recorder for the traced benchmark run.

Tracing is done from outside the program: :meth:`SpanRecorder.install`
wraps public functions of each repo module (``repro.trace``,
``repro.fleet.kernel``, ``repro.fleet``, ``repro.sim``,
``repro.experiments``, ``repro.obs``, ``repro.serve``) so every call
records a span ``(id, parent, layer, name, start, end, thread)``, and
reads the counters the program already returns (``KernelStats`` through
a ``FleetRecorder``, the Quetzal ``DecisionPathStats`` on each engine's
policy).  Nothing under ``src/`` changes.  Spans stay in memory and are
written out once, when the run ends.

A layer's self time is the sum of its spans' durations minus the part
covered by their child spans on the same thread.  Spans on the serve
thread have no parent on the client thread, so a client waiting for a
cold job is not charged for the job's work.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from collections import defaultdict

#: Layers that get a ``<layer>.self_s`` metric.  ``core`` has counters
#: only: its decisions run inside ``SimulationEngine.run`` thousands of
#: times per second, too often for a per-call span.
SPAN_LAYERS = ("trace", "kernel", "fleet", "sim", "experiments", "obs", "serve")

KERNEL_FIELDS = (
    "lane_build_s", "attach_s", "batch_init_s", "ctrl_s", "adv_s", "rech_s",
    "iterations", "compactions", "fallback_s", "fallback_lanes",
)


class SpanRecorder:
    """Records spans and counters while installed; inert otherwise."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple] = []
        self._miss_at: list[float] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer: str, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, parent, layer, name, start, end, threading.get_ident())
            )

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] += value

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    # -- instrumentation -----------------------------------------------------

    def _patch(self, owner, attr: str, layer: str, name: str, after=None) -> None:
        original = getattr(owner, attr)
        recorder = self

        def traced(*args, **kwargs):
            if after is None:
                return recorder.call(layer, name, original, *args, **kwargs)
            start = time.perf_counter()
            result = recorder.call(layer, name, original, *args, **kwargs)
            after(args, kwargs, result, start, time.perf_counter())
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap the public entry points of every layer."""
        from repro.experiments import figures
        from repro.experiments.configs import ExperimentConfig
        from repro.fleet import kernel, service
        from repro.fleet.checkpoint import FleetCheckpoint
        from repro.fleet.rollup import FleetRollup
        from repro.obs import metrics
        from repro.serve import server
        from repro.serve.cache import ResultCache
        from repro.sim.engine import SimulationEngine
        from repro.trace.store import TraceStore

        self._patch(ExperimentConfig, "build_trace", "trace", "generate",
                    self._count("trace.generate_calls"))
        self._patch(ExperimentConfig, "build_schedule", "trace", "generate",
                    self._count("trace.generate_calls"))
        self._patch(TraceStore, "build_for_spec", "trace", "store_build",
                    self._on_store_build)
        self._patch(kernel, "vector_shard_outcomes", "kernel", "shard_outcomes")
        fleet_call = self._fleet_call(service.run_fleet)
        for module in (service, server):
            self._patches.append((module, "run_fleet", module.run_fleet))
            setattr(module, "run_fleet", fleet_call)
        self._patch(service, "run_shard", "fleet", "shard")
        self._patch(FleetCheckpoint, "initialize", "fleet", "journal")
        self._patch(FleetCheckpoint, "write_shard", "fleet", "journal")
        self._patch(FleetRollup, "merge", "fleet", "merge")
        self._patch(SimulationEngine, "run", "sim", "run", self._on_engine_run)
        self._patch(figures, "run_grid", "experiments", "run_grid")
        self._patch(metrics, "fleet_registry", "obs", "registry")
        self._patch(metrics.MetricsRegistry, "to_prometheus", "obs", "export")
        self._patch(metrics.MetricsRegistry, "to_dict", "obs", "export")
        self._patch(ResultCache, "get", "serve", "cache_get", self._on_cache_get)
        self._patch(ResultCache, "put", "serve", "cache_put",
                    self._timed("serve.cache_put_ms"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _count(self, name: str):
        def after(args, kwargs, result, start, end):
            self.add(name, 1)
        return after

    def _timed(self, name: str):
        def after(args, kwargs, result, start, end):
            self.sample(name, 1000.0 * (end - start))
        return after

    def _fleet_call(self, run_fleet):
        """``run_fleet`` in a span, with a recorder for the kernel stats.

        The serve thread calls ``run_fleet`` without a recorder, so one is
        injected here to read ``FleetRecorder.kernel_stats_total()``.
        """
        from repro.sim.telemetry import FleetRecorder

        def traced(spec, **kwargs):
            recorder = kwargs.get("recorder")
            if recorder is None:
                recorder = kwargs["recorder"] = FleetRecorder()
            result = self.call("fleet", "run_fleet", run_fleet, spec, **kwargs)
            stats = recorder.kernel_stats_total()
            if stats is not None:
                for field in KERNEL_FIELDS + ("lanes",):
                    self.add(f"kernel.{field}", getattr(stats, field))
            return result

        return traced

    def _on_store_build(self, args, kwargs, result, start, end):
        self.add("trace.store_build_s", end - start)
        with self._lock:
            if self._miss_at:
                self.samples["serve.queue_wait_ms"].append(
                    1000.0 * (start - self._miss_at.pop(0))
                )

    def _on_cache_get(self, args, kwargs, result, start, end):
        self.sample("serve.cache_get_ms", 1000.0 * (end - start))
        if result is None:
            # A miss queues a job whose first step is the store build.
            with self._lock:
                self._miss_at.append(end)

    def _on_engine_run(self, args, kwargs, result, start, end):
        self.add("sim.runs", 1)
        self.add("sim.run_s", end - start)
        stats = getattr(args[0].policy, "decision_stats", None)
        if stats is not None:
            self.add("core.decisions", stats.decisions)
            self.add("core.cache_hits", stats.cache_hits)
            self.add("core.cache_misses", stats.cache_misses)
            self.add("core.score_table_rebuilds", stats.score_table_rebuilds)

    # -- reduction -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per layer, each span minus its same-thread children."""
        covered: dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals = {layer: 0.0 for layer in SPAN_LAYERS}
        for span_id, _, layer, _, start, end, _ in self.spans:
            if layer in totals:
                totals[layer] += (end - start) - covered[span_id]
        return totals

    def span_seconds(self, layer: str, name: str) -> float:
        return sum(
            end - start for _, _, lay, nam, start, end, _ in self.spans
            if lay == layer and nam == name
        )

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics that every workload reports (0 when bypassed)."""
        c = self.counters
        lanes = c["kernel.lanes"]
        hits, misses = c["core.cache_hits"], c["core.cache_misses"]
        out = {f"kernel.{field}": c[f"kernel.{field}"] for field in KERNEL_FIELDS}
        out.update({
            "trace.store_build_s": c["trace.store_build_s"],
            "trace.generate_s": self.span_seconds("trace", "generate"),
            "trace.generate_calls": c["trace.generate_calls"],
            "kernel.lanes_per_iteration": (
                lanes / c["kernel.iterations"] if c["kernel.iterations"] else 0.0
            ),
            "fleet.shard_s": self.span_seconds("fleet", "shard"),
            "fleet.journal_s": self.span_seconds("fleet", "journal"),
            "fleet.merge_s": self.span_seconds("fleet", "merge"),
            "obs.export_s": (
                self.span_seconds("obs", "registry")
                + self.span_seconds("obs", "export")
            ),
            "sim.runs": c["sim.runs"],
            "sim.run_s": c["sim.run_s"],
            "core.decisions": c["core.decisions"],
            "core.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "core.score_table_rebuilds": c["core.score_table_rebuilds"],
        })
        for name in ("serve.cache_get_ms", "serve.cache_put_ms",
                     "serve.queue_wait_ms", "serve.ping_p50_ms"):
            values = self.samples.get(name)
            out[name] = statistics.median(values) if values else 0.0
        hits = self.samples.get("serve.hit_ms")
        if hits:
            out["serve.hit_p50_ms"] = statistics.median(hits)
            out["serve.hit_p90_ms"] = statistics.quantiles(hits, n=10)[8]
        for layer, seconds in self.self_times().items():
            out[f"{layer}.self_s"] = seconds
        return out

    def write(self, path: str) -> None:
        """Write every span (Chrome trace-event JSON, Perfetto-loadable)."""
        origin = min((span[4] for span in self.spans), default=0.0)
        events = [
            {
                "name": f"{layer}.{name}", "cat": layer, "ph": "X",
                "ts": 1e6 * (start - origin), "dur": 1e6 * (end - start),
                "pid": 1, "tid": thread,
                "args": {"id": span_id, "parent": parent},
            }
            for span_id, parent, layer, name, start, end, thread in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events}, handle)
