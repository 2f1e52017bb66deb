"""Same-run ratio gates for the fleet kernel, the trace store and the runner.

``perfbench/run.py`` measures end-to-end speed.  This harness guards the
ratios a CI runner can measure even though its wall clock cannot be
compared with any other machine's: both sides of each ratio are timed in
this process as interleaved pairs (the side that goes first alternates),
and the gate is the median pair ratio against a constant floor.  The one
case, ``fleet_scale``, has three ratios:

* ``vector_vs_scalar``: ms/device of the scalar engine over the vector
  fleet kernel on one baseline-policy fleet (floor 3.14, 0.8x the 3.93x
  measured at 2048 devices).  The vector side includes the scalar
  continuation of migrated lanes and the rerun of fallback lanes, exactly
  the work ``run_shard(kernel="vector")`` does after input setup; the
  scalar side runs a leading 3/128 of the devices.
* ``setup``: lane build plus batch init with regenerated traces and
  schedules over the same with a memory-mapped trace-store attach (floor
  2.0).  Batch init counts because that is where the kernel first reads
  every trace.
* ``parallel``: a Crowded-environment grid of every standard policy at
  ``jobs=1`` over ``jobs=4``, each leg from an empty run memo (floor 2.0;
  reported but not gated below 4 CPUs).  The two grids must be equal.

One more ratio is a ceiling, not a floor:

* ``store_growth``: a cold 128-device ``TraceStore.build_for_spec`` into
  a store that already holds 16,384 entries over the same-sized cold
  build into an empty store (ceiling 1.5).  A build writes records only
  for the segments it adds, so what a long-lived server's cold submit
  pays must not grow with what the store holds.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py [--devices N] [--output PATH]

Exit status 1 when a gated median falls below its floor or above its
ceiling.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import tempfile
import time

from repro.experiments.configs import apollo_simulation_config
from repro.experiments.harness import run_grid, standard_policies
from repro.experiments.runner import RunSpec, _attempt_spec, clear_run_memo
from repro.fleet import kernel
from repro.fleet.spec import FleetSpec
from repro.trace.store import TraceStore

#: Interleaved pairs timed per ratio.
PAIRS = 5

#: Median pair ratio each gate must reach.
FLOORS = {"vector_vs_scalar": 3.14, "setup": 2.0, "parallel": 2.0}

#: Median pair ratio each gate must not exceed.
CEILINGS = {"store_growth": 1.5}

#: Entries the large store of the ``store_growth`` gate holds before its
#: legs, and the width of each leg's cold build.
GROWTH_ENTRIES = 16_384
GROWTH_DEVICES = 128

#: Workers of the parallel leg; below this many CPUs it is not gated.
PARALLEL_JOBS = 4


def paired_ratios(slow, fast) -> list[float]:
    """``slow() / fast()`` over :data:`PAIRS` interleaved pairs; each side
    returns its own timed seconds (untimed preparation stays inside it)."""
    ratios = []
    for pair in range(PAIRS):
        legs = (slow, fast) if pair % 2 == 0 else (fast, slow)
        seconds = {leg: leg() for leg in legs}
        ratios.append(seconds[slow] / seconds[fast])
    return ratios


def fleet_ratios(devices: int) -> dict:
    """Pair ratios of the vector-vs-scalar and setup gates."""
    spec = FleetSpec(
        name="bench-fleet", devices=devices, seed=3, n_events=50,
        policies=("NA", "AD", "TH50", "CN", "PZO", "PZI"), cells=(4, 6, 8),
    )
    factories = standard_policies()
    kinds = kernel._vector_kernel_policies(factories)
    scalar_devices = max(1, devices * 3 // 128)
    perf = time.perf_counter

    def build(store=None):
        lanes, scalar_lanes, _ = kernel._build_lanes(
            spec, range(devices), kinds, store=store
        )
        if scalar_lanes or len(lanes) != devices:
            raise RuntimeError("every bench device must be vector-eligible")
        return lanes

    def init_batches(lanes):
        for group in kernel._lane_groups(lanes):
            kernel._VectorBatch(group, factories)

    lanes = build()
    # A batch takes over its lanes' traces and drops finished lanes' ones,
    # so every leg starts again from these built inputs.
    inputs = [(lane.trace, lane.schedule) for lane in lanes]

    def restore():
        for lane, (trace, schedule) in zip(lanes, inputs):
            lane.trace, lane.schedule = trace, schedule

    def rerun_scalar(lane):
        run_spec = RunSpec(policy=lane.policy_name, seed=0, config=lane.config)
        _attempt_spec(run_spec, factories[lane.policy_name], lane.trace,
                      lane.schedule, 0)

    def vector():
        restore()
        start = perf()
        for lane, metrics in kernel._run_lane_groups(
                lanes, factories, kernel.KernelStats()):
            if metrics is None:
                rerun_scalar(lane)
        return (perf() - start) / devices

    def scalar():
        restore()
        start = perf()
        for lane in lanes[:scalar_devices]:
            rerun_scalar(lane)
        return (perf() - start) / scalar_devices

    with tempfile.TemporaryDirectory(prefix="bench-trace-store-") as tmp:
        store = TraceStore.create(tmp)
        for lane in lanes:  # the built inputs: nothing is regenerated
            store.put_for_config(lane.config, trace=lane.trace, schedule=lane.schedule)

        def regenerate():
            start = perf()
            init_batches(build())
            return perf() - start

        def attach():
            store = TraceStore.open(tmp)  # no memo carried between legs
            start = perf()
            init_batches(build(store))
            return perf() - start

        ratios = {"setup": paired_ratios(regenerate, attach)}
    ratios["vector_vs_scalar"] = paired_ratios(scalar, vector)
    return ratios


def parallel_ratios() -> list[float]:
    """Pair ratios of the ``jobs=1`` grid over the ``jobs=4`` one."""
    config = apollo_simulation_config("crowded", 80)
    grids = []

    def sweep(jobs):
        clear_run_memo()  # else the second leg is all memo hits
        start = time.perf_counter()
        grids.append(run_grid(config, standard_policies(), seeds=(0, 1), jobs=jobs))
        return time.perf_counter() - start

    ratios = paired_ratios(lambda: sweep(1), lambda: sweep(PARALLEL_JOBS))
    if any(grid != grids[0] for grid in grids):
        raise RuntimeError("the jobs=1 and jobs=4 grids differ")
    return ratios


def store_growth_ratios() -> list[float]:
    """Pair ratios of a cold build into a full store over one into an
    empty store; every leg builds a spec no store holds yet."""
    perf = time.perf_counter
    seeds = itertools.count(1)

    def cold_build(store) -> float:
        spec = FleetSpec(name="bench-growth", devices=GROWTH_DEVICES,
                         seed=next(seeds), n_events=5)
        start = perf()
        counts = store.build_for_spec(spec)
        seconds = perf() - start
        if counts["reused"]:
            raise RuntimeError("a store_growth leg found its spec already stored")
        return seconds

    with tempfile.TemporaryDirectory(prefix="bench-store-growth-") as tmp:
        full = TraceStore.create(os.path.join(tmp, "full"))
        full.build_for_spec(FleetSpec(name="bench-growth-fill",
                                      devices=GROWTH_ENTRIES // 2, n_events=5))
        if len(full) < GROWTH_ENTRIES:
            raise RuntimeError(f"the full store holds only {len(full)} entries")
        empties = itertools.count()
        return paired_ratios(
            lambda: cold_build(full),
            lambda: cold_build(
                TraceStore.create(os.path.join(tmp, f"empty-{next(empties)}"))
            ),
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--devices", type=int, default=2048,
        help="fleet width of the kernel ratios (default 2048)",
    )
    parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="also write every pair ratio and the gate outcomes as JSON",
    )
    args = parser.parse_args(argv)

    cpus = os.cpu_count() or 1
    ratios = fleet_ratios(args.devices)
    ratios["parallel"] = parallel_ratios()
    ratios["store_growth"] = store_growth_ratios()
    gates = {}
    for name, bound in [*FLOORS.items(), *CEILINGS.items()]:
        median = statistics.median(ratios[name])
        gated = name != "parallel" or cpus >= PARALLEL_JOBS
        side = "ceiling" if name in CEILINGS else "floor"
        within = median <= bound if side == "ceiling" else median >= bound
        ok = within or not gated
        gates[name] = {
            "pairs": [round(ratio, 3) for ratio in ratios[name]],
            "median": round(median, 3),
            side: bound,
            "gated": gated,
            "ok": ok,
        }
        status = ("ok" if ok else f"OUTSIDE {side.upper()}") if gated else (
            f"not gated: {cpus} CPUs < {PARALLEL_JOBS}"
        )
        pairs = " ".join(f"{ratio:.2f}" for ratio in ratios[name])
        print(f"fleet_scale.{name:17s} median {median:5.2f}x  "
              f"{side} {bound:.2f}  pairs [{pairs}]  {status}")
    if args.output:
        case = {"devices": args.devices, "cpus": cpus, **gates}
        with open(args.output, "w") as handle:
            json.dump({"fleet_scale": case}, handle, indent=2)
            handle.write("\n")
    failed = [name for name, gate in gates.items() if not gate["ok"]]
    if failed:
        print(f"FAILED: {', '.join(failed)} outside its bound")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
