"""The three benchmark workloads: set-up, timed units, output checks.

Every workload is a closed loop driven from one process: the next
operation starts when the previous one has returned.  The amount of work
is fixed by ``--seconds`` and the nominal unit costs below (measured on a
2-vCPU Xeon), so the parent and a change always run the same work; inputs
are derived from ``--seed`` alone.

Each workload exposes:

* ``prepare(directory)`` — the set-up that precedes the first timed
  request (each set-up sample is a fresh interpreter that constructs the
  workload and calls this);
* ``prepare_replay(directory)`` — the extra set-up a traced run needs to
  replay a unit on the same inputs (only ``serve-mix`` needs one: a
  second, equally primed server, because a resubmitted spec would be a
  cache hit);
* ``units`` — how many timed units the plan holds;
* ``run_unit(index, tally, replay=False)`` — one unit; every operation in
  it is timed into ``tally`` and its output checked right after, outside
  the timed interval, keeping only the verdict (holding every response
  would grow the heap and let garbage collection leak into the
  latencies);
* ``check()`` — the end-of-run checks; returns the :class:`Checks`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import time
from dataclasses import dataclass, field

#: The policy mix of the ``fleet_scale`` bench case: every policy is in
#: the vector kernel's envelope, so ``kernel="auto"`` picks the vector
#: kernel at full width.
BASELINE_POLICIES = ("NA", "AD", "TH50", "CN", "PZO", "PZI")
#: A mix that includes Quetzal, so ``kernel="auto"`` picks the scalar engine.
QUETZAL_POLICIES = ("QZ", "NA", "AD", "TH50")

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


@dataclass
class Tally:
    """What the timed operations of a stretch of units did."""

    devices: int = 0                 #: device simulations completed
    elapsed: float = 0.0             #: seconds inside timed operations
    requests: list = field(default_factory=list)  #: request latencies, ms
    hits: list = field(default_factory=list)      #: cache-hit latencies, ms

    def time(self, fn, *args, **kwargs):
        """``(fn(*args, **kwargs), milliseconds)``, adding to ``elapsed``."""
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        seconds = time.perf_counter() - start
        self.elapsed += seconds
        return result, 1000.0 * seconds


class Checks:
    """Operations attempted, and those that failed or returned wrong bytes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def expect(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_golden() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# fleet-baselines
# ---------------------------------------------------------------------------


def golden_fleet_spec():
    """The fixed fleet whose rollup digest is committed in golden.json."""
    from repro.fleet.spec import FleetSpec

    return FleetSpec(
        name="perfbench-golden", devices=64, seed=0, n_events=10,
        policies=BASELINE_POLICIES, cells=(4, 6, 8),
    )


def golden_fleet_json(store) -> str:
    from repro.fleet import service
    from repro.serve.cache import canonical_rollup_json

    spec = golden_fleet_spec()
    store.build_for_spec(spec, jobs=1)
    result = service.run_fleet(spec, kernel="auto", jobs=1, trace_store=store)
    return canonical_rollup_json(result.rollup.to_dict())


class FleetBaselines:
    """Wide vector-kernel fleet requests against a prebuilt trace store.

    Each unit is one request: ``run_fleet`` over a 1024-device fleet
    (checkpoint journal on, trace store attached) plus the
    ``--metrics-out`` export of its registry.  Requests alternate between
    ``fleets`` distinct fleets whose traces the set-up stores; every
    request simulates its fleet afresh into a new journal (``run_fleet``
    keeps no results between calls).  A store entry per request would make
    the set-up grow by about 2 s per request.
    """

    name = "fleet-baselines"
    devices = 1024
    n_events = 4
    fleets = 2
    nominal_unit_s = 2.3
    recorder = None

    def __init__(self, seed: int, seconds: float, workdir: str) -> None:
        from repro.fleet.spec import FleetSpec

        self.workdir = workdir
        self.units = self.fleets * max(1, round(seconds / (self.fleets * self.nominal_unit_s)))
        self.specs = [
            FleetSpec(
                name="perfbench-fleet", devices=self.devices,
                seed=seed * 1000 + index, n_events=self.n_events,
                policies=BASELINE_POLICIES, cells=(4, 6, 8),
            )
            for index in range(self.fleets)
        ]
        self.store = None
        self.store_build_s = 0.0
        self.journals = itertools.count()
        self.checks = Checks()

    def prepare(self, directory: str) -> None:
        from repro.trace.store import TraceStore

        start = time.perf_counter()
        store = TraceStore.create(directory)
        for spec in self.specs:
            store.build_for_spec(spec, jobs=1)
        self.store_build_s = time.perf_counter() - start
        self.store = store

    def prepare_replay(self, directory: str) -> None:
        pass

    def _request(self, spec, checkpoint: str):
        from repro.fleet import service
        from repro.obs import metrics

        result = service.run_fleet(
            spec, kernel="auto", jobs=1, checkpoint=checkpoint,
            trace_store=self.store,
        )
        registry = metrics.fleet_registry(result.rollup)
        with open(f"{checkpoint}.prom", "w") as handle:
            handle.write(registry.to_prometheus())
        return result, json.dumps(registry.to_dict(), sort_keys=True)

    def run_unit(self, index: int, tally: Tally, replay: bool = False) -> None:
        spec = self.specs[index % self.fleets]
        checkpoint = os.path.join(self.workdir, f"journal-{next(self.journals)}")
        (result, exported), ms = tally.time(self._request, spec, checkpoint)
        tally.requests.append(ms)
        tally.devices += result.rollup.devices
        rollup = result.rollup
        exported_devices = json.loads(exported)["repro_fleet_devices"]["series"][0]
        self.checks.expect(
            result.complete and rollup.devices == self.devices
            and rollup.failure_count == 0
            and exported_devices["value"] == self.devices,
            f"request {index}: {rollup.failure_count} device failures, "
            f"{rollup.devices} devices",
        )

    def check(self) -> Checks:
        self.checks.expect(
            sha256_text(golden_fleet_json(self.store)) == load_golden()["fleet"],
            "golden fleet rollup digest mismatch",
        )
        return self.checks

    def layer_extras(self, recorder) -> dict:
        return {
            "trace.store_build_s": self.store_build_s,
            "trace.store_entries": len(self.store),
        }

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------


def figure_metric(name: str) -> str:
    """``Figure 2a`` -> ``experiments.fig2a_s``; ``Section 5.1`` -> ``...section5_1_s``."""
    slug = name.lower().replace("figure ", "fig").replace(" ", "").replace(".", "_")
    return f"experiments.{slug}_s"


def figure_json(results) -> str:
    return json.dumps([result.to_dict() for result in results], sort_keys=True)


#: The fixed figure set whose ``to_dict()`` digests are committed.
GOLDEN_FIGURE_EVENTS = 12
GOLDEN_FIGURE_SEEDS = (0,)


def golden_figures() -> dict:
    """Figure id -> sha256 of its canonical ``to_dict()`` JSON."""
    from repro.experiments.__main__ import RUNNERS

    return {
        name: sha256_text(
            figure_json(runner(GOLDEN_FIGURE_EVENTS, GOLDEN_FIGURE_SEEDS, 1))
        )
        for name, runner in RUNNERS.items()
    }


class Figures:
    """Every figure runner of ``python -m repro.experiments``, ``jobs=1``.

    Each unit regenerates the whole figure set (the request) at
    ``events`` events for one seed.  The seeds are the command's own,
    ``0 .. units-1`` (``--seeds units``), and ``--seed`` only orders
    the passes: one figure seed can cost 2x another, so figure seeds drawn
    per run made whole runs differ by a third in cost.
    """

    name = "figures"
    events = 10
    nominal_unit_s = 1.8
    recorder = None

    def __init__(self, seed: int, seconds: float, workdir: str) -> None:
        from repro.experiments import figures
        from repro.experiments.__main__ import RUNNERS

        self.runners = RUNNERS
        self.units = max(2, round(seconds / self.nominal_unit_s))
        self.seeds = [(unit,) for unit in range(self.units)]
        random.Random(seed).shuffle(self.seeds)
        self.checks = Checks()
        # Count grid runs and failures at the runners' ``run_grid`` call.
        self._figures = figures
        self._run_grid = run_grid = figures.run_grid
        self.grid_runs = 0

        def counted(config, policies, seeds=(0, 1, 2), *args, **kwargs):
            results = run_grid(config, policies, seeds, *args, **kwargs)
            runs = len(policies) * len(seeds)
            self.grid_runs += runs
            self.checks.attempted += runs - len(results.failures)
            for failure in results.failures:
                self.checks.expect(False, str(failure))
            return results

        figures.run_grid = counted

    def prepare(self, directory: str) -> None:
        """Nothing beyond the imports: ``python -m repro.experiments`` prepares nothing."""

    def prepare_replay(self, directory: str) -> None:
        pass

    def run_unit(self, index: int, tally: Tally, replay: bool = False) -> None:
        seeds = self.seeds[index]
        before = self.grid_runs
        request_ms = 0.0
        for name, runner in self.runners.items():
            if self.recorder is None:
                _, ms = tally.time(runner, self.events, seeds, 1)
            else:
                _, ms = tally.time(
                    self.recorder.call, "experiments", name, runner,
                    self.events, seeds, 1,
                )
            request_ms += ms
        tally.requests.append(request_ms)
        tally.devices += self.grid_runs - before

    def check(self) -> Checks:
        expected = load_golden()["figures"]
        for name, digest in golden_figures().items():
            self.checks.expect(expected.get(name) == digest,
                               f"{name}: golden digest mismatch")
        return self.checks

    def layer_extras(self, recorder) -> dict:
        return {
            figure_metric(name): recorder.span_seconds("experiments", name)
            for name in self.runners
        }

    def close(self) -> None:
        self._figures.run_grid = self._run_grid


# ---------------------------------------------------------------------------
# serve-mix
# ---------------------------------------------------------------------------


class _Server:
    """One in-process server with a connected client and primed cache."""

    def __init__(self, directory: str, hit_specs) -> None:
        from repro.serve import FleetClient, ServeConfig, start_background
        from repro.serve.cache import canonical_rollup_json

        self.directory = directory
        self.handle = start_background(
            ServeConfig(data_dir=directory, workers=1, jobs=1)
        )
        self.client = FleetClient(port=self.handle.port)
        self.primed = []
        for spec in hit_specs:
            response = self.client.submit(spec, wait=True)
            if not response.get("ok"):
                raise RuntimeError(f"priming failed: {response}")
            self.primed.append(canonical_rollup_json(response["rollup"]))

    def close(self) -> None:
        try:
            self.client.close()
        finally:
            self.handle.stop()


class ServeMix:
    """Cache hits interleaved with cold submissions on one connection.

    Each unit is one cold submission (a distinct spec, alternating an
    all-baseline 64-device fleet — vector kernel at 64 lanes — and a
    128-device fleet that includes Quetzal — scalar engine — sized so both
    kinds take about as long), then ``hits_per_cold`` submissions of specs
    primed during set-up, answered from the result cache, then
    ``pings_per_cold`` pings.

    The cold specs are the same in every run (every run starts a fresh
    server, so they are cold each time); ``--seed`` rotates their order
    and draws the primed specs.  A small fleet's cost depends on its seed
    (one 64-device spec can take twice as long as another), so cold specs
    drawn per run made whole runs differ in cost.
    """

    name = "serve-mix"
    n_events = 5
    hit_specs = 8
    hits_per_cold = 100
    pings_per_cold = 10
    nominal_unit_s = 1.3
    recorder = None

    def __init__(self, seed: int, seconds: float, workdir: str) -> None:
        from repro.fleet.spec import FleetSpec

        self.units = max(4, 2 * round(seconds / (2 * self.nominal_unit_s)))
        shift = 2 * (seed % (self.units // 2))  # keeps the two kinds alternating
        self.cold_specs = [
            FleetSpec(
                name="perfbench-cold", seed=(index + shift) % self.units,
                n_events=self.n_events,
                **(
                    {"devices": 64, "policies": BASELINE_POLICIES}
                    if index % 2 == 0
                    else {"devices": 128, "policies": QUETZAL_POLICIES}
                ),
            )
            for index in range(self.units)
        ]
        self.primed_specs = [
            FleetSpec(name="perfbench-hit", devices=4, seed=seed * 100 + index,
                      n_events=5)
            for index in range(self.hit_specs)
        ]
        # The cold spec checked three ways; the traced run runs only the
        # first half of the plan, so it is picked from there.
        self.sampled = seed % (self.units // 2)
        self.sampled_response = None
        self.server: _Server | None = None
        self.replay_server: _Server | None = None
        self.checks = Checks()

    def prepare(self, directory: str) -> None:
        self.server = _Server(directory, self.primed_specs)

    def prepare_replay(self, directory: str) -> None:
        self.replay_server = _Server(directory, self.primed_specs)
        self.replay_stats_before = self.replay_server.client.stats()

    def run_unit(self, index: int, tally: Tally, replay: bool = False) -> None:
        from repro.serve.cache import canonical_rollup_json

        server = self.replay_server if replay else self.server
        client = server.client
        spec = self.cold_specs[index]
        response, ms = tally.time(client.submit, spec, wait=True)
        tally.requests.append(ms)
        rollup = response.get("rollup") or {}
        tally.devices += rollup.get("devices", 0)
        self.checks.expect(
            response.get("ok") and not response.get("cached")
            and rollup.get("devices") == spec.devices
            and rollup.get("failure_count") == 0,
            f"cold {index}: {response.get('error', 'bad rollup')}",
        )
        if index == self.sampled and self.sampled_response is None:
            self.sampled_response = (server, canonical_rollup_json(rollup))
        for step in range(self.hits_per_cold):
            hit = step % self.hit_specs
            reply, ms = tally.time(client.submit, self.primed_specs[hit], wait=True)
            tally.hits.append(ms)
            if self.recorder is not None:
                self.recorder.sample("serve.hit_ms", ms)
            self.checks.expect(
                reply.get("ok") and reply.get("cached")
                and canonical_rollup_json(reply["rollup"]) == server.primed[hit],
                f"hit {hit}: not served from the cache intact",
            )
        for _ in range(self.pings_per_cold):
            reply, ms = tally.time(client.ping)
            if self.recorder is not None:
                self.recorder.sample("serve.ping_p50_ms", ms)
            self.checks.expect(reply.get("ok"), "ping failed")

    def check(self) -> Checks:
        """Served bytes, cached bytes and a direct ``run_fleet`` must match."""
        from repro.fleet import service
        from repro.serve.cache import ResultCache, canonical_rollup_json

        server, served = self.sampled_response
        spec = self.cold_specs[self.sampled]
        cached = ResultCache(os.path.join(server.directory, "cache")).get(
            spec.fingerprint()
        )
        direct = service.run_fleet(spec, kernel="auto", jobs=1)
        self.checks.expect(
            cached is not None
            and served == canonical_rollup_json(cached)
            == canonical_rollup_json(direct.rollup.to_dict()),
            f"cold {self.sampled}: served, cached and direct bytes differ",
        )
        return self.checks

    def layer_extras(self, recorder) -> dict:
        """Cache counters of the replay server, which only traced units use."""
        after = self.replay_server.client.stats()
        before = self.replay_stats_before
        return {
            "serve.hits": after["cache"]["hits"] - before["cache"]["hits"],
            "serve.misses": after["cache"]["misses"] - before["cache"]["misses"],
            "trace.store_entries": after["store_entries"],
        }

    def close(self) -> None:
        for server in (self.server, self.replay_server):
            if server is not None:
                server.close()
        self.server = self.replay_server = None


WORKLOADS = {cls.name: cls for cls in (FleetBaselines, Figures, ServeMix)}
