"""Engine hot-path benchmarks and the perf-regression harness.

Two ways to run this module:

1. As pytest benchmarks (micro + paper-scale cases)::

       PYTHONPATH=src python -m pytest benchmarks/bench_engine.py --benchmark-only

2. As the standalone regression harness (what ``make bench`` and CI run)::

       PYTHONPATH=src python benchmarks/bench_engine.py --check
       PYTHONPATH=src python benchmarks/bench_engine.py --record --label "my change"

The harness times the named cases below (best-of-``--repeats`` wall clock)
and compares against the latest entry committed in ``BENCH_engine.json``
at the repository root.  The JSON file is a *trajectory*: each ``--record``
appends an entry, so the history of engine throughput (simulated seconds
per wall second, jobs per second) rides along with the code.  ``--check``
fails when any case regresses past ``--tolerance`` (default 2.0 — generous
on purpose, so only real regressions trip CI, not machine noise).

Case sizes honour ``BENCH_ENGINE_EVENTS`` / ``BENCH_ENGINE_DENSE_EVENTS``
so smoke runs can shrink them; recorded entries carry the sizes used.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import pytest

from repro.core.runtime import QuetzalRuntime
from repro.env.activity import CROWDED
from repro.policies.noadapt import NoAdaptPolicy
from repro.sim.engine import SimulationConfig, simulate
from repro.trace.solar import SolarTraceConfig, SolarTraceGenerator
from repro.workload.pipelines import build_apollo_app

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

#: Paper-scale event count (the acceptance workload) and dense-trace count.
PAPER_EVENTS = int(os.environ.get("BENCH_ENGINE_EVENTS", "1000"))
DENSE_EVENTS = int(os.environ.get("BENCH_ENGINE_DENSE_EVENTS", "200"))


def _solar_trace():
    return SolarTraceGenerator(seed=1).generate()


def _dense_trace():
    # 50 ms samples: ~20x the segment density of the default solar trace,
    # stressing the fused multi-segment span integration.
    return SolarTraceGenerator(SolarTraceConfig(sample_period_s=0.05), seed=1).generate()


#: name -> (trace factory, schedule events, policy factory)
CASES = {
    "paper_scale_noadapt": (_solar_trace, PAPER_EVENTS, NoAdaptPolicy),
    "paper_scale_quetzal": (_solar_trace, PAPER_EVENTS, QuetzalRuntime),
    "dense_trace_noadapt": (_dense_trace, DENSE_EVENTS, NoAdaptPolicy),
    # Dense segments *and* the full decision path: the policy is invoked
    # with the same frequency as paper_scale_quetzal but every
    # true_input_power_w read lands on a different 50 ms trace segment,
    # so the estimator cache token churns and the score tables rebuild
    # far more often — the worst case for the cached decision path.
    "dense_trace_quetzal": (_dense_trace, DENSE_EVENTS, QuetzalRuntime),
}


#: Fleet-scale case sizes.  The vector kernel's fixed per-iteration cost
#: amortizes over the batch, so ``BENCH_FLEET_DEVICES`` must be in the
#: thousands for the recorded speedup to be representative; the scalar
#: baseline is timed on a leading subset (its cost is linear in devices)
#: and normalized per device.
FLEET_DEVICES = int(os.environ.get("BENCH_FLEET_DEVICES", "8192"))
FLEET_SCALAR_DEVICES = int(os.environ.get("BENCH_FLEET_SCALAR_DEVICES", "192"))

#: The shrunken scale hosted CI runs the fleet case at (must match the
#: ``BENCH_FLEET_*`` values in ``.github/workflows/ci.yml``).  The
#: speedup does *not* transfer across scales — the kernel's fixed
#: per-iteration cost amortizes with batch width (measured ~8x at 8192
#: devices but ~5x at 2048) — so ``--record`` measures the ratio at this
#: scale too (stored under ``fleet_scale.ci_scale``) and ``--check``
#: gates against whichever recorded scale matches its own device count.
FLEET_CI_DEVICES = 2048
FLEET_CI_SCALAR_DEVICES = 48

#: ``--check`` gate for the fleet case: the measured ``speedup_vs_scalar``
#: must retain at least this fraction of the committed baseline's at the
#: same device count.  The speedup ratio is used instead of ``wall_s``
#: because CI runners are not speed-comparable to the recording machine
#: (the vector/scalar ratio is the invariant worth guarding) and both
#: sides of the ratio ride the same machine, cancelling most load noise.
FLEET_SPEEDUP_RETENTION = float(os.environ.get("BENCH_FLEET_RETENTION", "0.8"))

#: Self-contained ``--check`` gate for fleet input setup: lane build plus
#: batch init from the memory-mapped trace store must beat the same work
#: with regenerated traces/schedules by at least this factor.  Both sides
#: are timed in the same run on the same machine, so no committed
#: baseline is needed and the threshold can sit well below the measured
#: ratio without tripping on noise.
FLEET_SETUP_SPEEDUP = float(os.environ.get("BENCH_FLEET_SETUP_SPEEDUP", "2.0"))


def build_case(name):
    """(trace, schedule, policy factory) for a named case."""
    trace_factory, n_events, policy_factory = CASES[name]
    return trace_factory(), CROWDED.schedule(n_events, seed=2), policy_factory


def run_fleet_scale_case(
    repeats: int = 2,
    devices: int | None = None,
    scalar_devices: int | None = None,
) -> dict:
    """Shard throughput: the vector fleet kernel vs the per-device engine.

    Methodology matches the engine cases above — inputs (traces,
    schedules, apps) are prebuilt outside the timed region — so the
    numbers isolate simulation throughput.  Two measurements:

    * ``vector``: one lockstep :class:`~repro.fleet.kernel._VectorBatch`
      pass over all ``FLEET_DEVICES`` baseline-policy devices, *including*
      the scalar-engine continuation of its migrated straggler lanes and
      the scalar rerun of any anomalous lane, i.e. exactly the work
      ``run_shard(kernel="vector")`` does after input setup;
    * ``scalar``: the per-device engine over a leading subset,
      normalized per device.

    Vector *and* scalar walls are best-of-``repeats`` (both sides see the
    same machine noise), and the winning vector repeat's per-phase
    :class:`~repro.fleet.kernel.KernelStats` breakdown rides along in the
    result under ``"phases"`` (lane build is reported there too, but it
    stays outside ``wall_s`` — inputs are prebuilt, as in every case).

    The result's ``"setup"`` block times the input-setup path itself:
    generator-backed lane build vs attaching a
    :class:`~repro.trace.store.TraceStore` populated from the already
    built lanes (no regeneration), with the store's build cost reported
    alongside.  Each side is lane build *plus* batch init, because batch
    init is where the kernel reads every trace into its tables (for a
    store, the first touch of the mapped pages).  The store/generator
    ratio is self-contained — both sides ride this run's machine — and
    ``--check`` gates it against ``FLEET_SETUP_SPEEDUP``.
    """
    import tempfile

    from repro.experiments.harness import standard_policies
    from repro.experiments.runner import RunSpec, _attempt_spec
    from repro.fleet import kernel
    from repro.fleet.spec import FleetSpec
    from repro.trace.store import TraceStore

    devices = FLEET_DEVICES if devices is None else devices
    scalar_devices = (
        FLEET_SCALAR_DEVICES if scalar_devices is None else scalar_devices
    )
    spec = FleetSpec(
        name="bench-fleet", devices=devices, seed=3, n_events=50,
        policies=("NA", "AD", "TH50", "CN", "PZO", "PZI"), cells=(4, 6, 8),
    )
    factories = standard_policies()
    kinds = kernel._vector_kernel_policies(factories)

    def init_batches(lanes):
        for group in kernel._lane_groups(lanes):
            kernel._VectorBatch(group, factories)

    build_start = time.perf_counter()
    lanes, scalar_lanes, _ = kernel._build_lanes(spec, range(spec.devices), kinds)
    lane_build_s = time.perf_counter() - build_start
    # A batch takes over its lanes' traces (it builds cumulative-energy
    # rows on first use and releases finished rows), so every later pass
    # starts again from the built inputs.
    inputs = [(lane.trace, lane.schedule) for lane in lanes]
    init_batches(lanes)
    setup_s = time.perf_counter() - build_start

    def restore_inputs():
        for lane, (trace, schedule) in zip(lanes, inputs):
            lane.trace, lane.schedule = trace, schedule

    restore_inputs()
    if scalar_lanes:
        raise RuntimeError(
            f"bench spec produced {len(scalar_lanes)} ineligible lane(s)"
        )

    # Input-setup comparison: persist the prebuilt lanes' traces and
    # schedules into a store (no regeneration — put_for_config reuses the
    # built objects), then rebuild the lanes by memory-mapped attach.
    with tempfile.TemporaryDirectory(prefix="bench-trace-store-") as tmp:
        store = TraceStore.create(tmp)
        store_start = time.perf_counter()
        for lane in lanes:
            store.put_for_config(lane.config, trace=lane.trace, schedule=lane.schedule)
        store.save()
        store_build_s = time.perf_counter() - store_start
        attach_start = time.perf_counter()
        store_lanes, _, store_attach_s = kernel._build_lanes(
            spec, range(spec.devices), kinds, store=store
        )
        lane_build_store_s = time.perf_counter() - attach_start
        init_batches(store_lanes)
        setup_store_s = time.perf_counter() - attach_start
        if len(store_lanes) != len(lanes):
            raise RuntimeError("store-backed lane build lost lanes")
        del store_lanes, store

    def rerun_scalar(lane):
        run_spec = RunSpec(policy=lane.policy_name, seed=0, config=lane.config)
        return _attempt_spec(
            run_spec, factories[lane.policy_name], lane.trace, lane.schedule, 0
        )

    best_vector = None
    best_stats = None
    for _ in range(repeats):
        restore_inputs()
        stats = kernel.KernelStats(lanes=len(lanes))
        start = time.perf_counter()
        for lane, metrics in kernel._run_lane_groups(lanes, factories, stats):
            if metrics is None:
                stats.fallback_lanes += 1
                t0 = time.perf_counter()
                rerun_scalar(lane)
                stats.fallback_s += time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        if best_vector is None or elapsed < best_vector:
            best_vector = elapsed
            best_stats = stats

    # The scalar side is just as exposed to machine noise as the vector
    # side, so it gets the same best-of-repeats treatment.
    restore_inputs()
    scalar_s = None
    for _ in range(repeats):
        start = time.perf_counter()
        for lane in lanes[:scalar_devices]:
            rerun_scalar(lane)
        elapsed = time.perf_counter() - start
        if scalar_s is None or elapsed < scalar_s:
            scalar_s = elapsed


    vector_ms = 1000 * best_vector / devices
    scalar_ms = 1000 * scalar_s / scalar_devices
    best_stats.lane_build_s = lane_build_s  # informational: outside wall_s
    return {
        "devices": devices,
        "scalar_devices_timed": scalar_devices,
        "fallback_lanes": best_stats.fallback_lanes,
        "migrated_lanes": best_stats.migrated_lanes,
        "wall_s": round(best_vector, 4),
        "ms_per_device_vector": round(vector_ms, 3),
        "ms_per_device_scalar": round(scalar_ms, 3),
        "speedup_vs_scalar": round(scalar_ms / vector_ms, 2),
        "setup": {
            "lane_build_s": round(lane_build_s, 4),
            "setup_s": round(setup_s, 4),
            "store_build_s": round(store_build_s, 4),
            "lane_build_store_s": round(lane_build_store_s, 4),
            "setup_store_s": round(setup_store_s, 4),
            "store_attach_s": round(store_attach_s, 4),
            "lane_build_speedup": round(lane_build_s / lane_build_store_s, 2),
            "speedup": round(setup_s / setup_store_s, 2),
        },
        "phases": {
            key: round(value, 4) if isinstance(value, float) else value
            for key, value in best_stats.as_dict().items()
        },
    }


def run_obs_overhead_case(repeats: int = 3) -> dict:
    """Tracing overhead on the paper-scale NoAdapt workload (informational).

    Two interleaved measurements of the same run (best-of-``repeats``
    each, so both sides of the ratio see the same machine noise):

    * ``baseline``: plain ``simulate()`` — no tracer;
    * ``enabled``: ``simulate(tracer=RingBufferTracer())`` — the full
      per-event recording cost, reported for the docs/FAQ.

    That the untraced path stays on the inlined capture loops is pinned
    by a call-count test (``tests/obs/test_engine_tracing.py``,
    ``TestUntracedCaptureFastPath``), not by timing.
    """
    from repro.obs import RingBufferTracer

    trace, schedule, policy_factory = build_case("paper_scale_noadapt")
    config = SimulationConfig(seed=3)

    def timed(tracer=None):
        policy = policy_factory()
        start = time.perf_counter()
        simulate(
            build_apollo_app(), policy, trace, schedule, config=config,
            tracer=tracer,
        )
        return time.perf_counter() - start

    best = {"baseline": None, "enabled": None}
    for _ in range(repeats):
        for name, tracer in (("baseline", None), ("enabled", RingBufferTracer())):
            elapsed = timed(tracer)
            if best[name] is None or elapsed < best[name]:
                best[name] = elapsed

    return {
        "events": len(schedule.events),
        "wall_s": round(best["baseline"], 4),
        "wall_s_enabled": round(best["enabled"], 4),
        "enabled_overhead_pct": round(
            100.0 * (best["enabled"] / best["baseline"] - 1.0), 2
        ),
    }


#: Extra harness-only cases (not in the pytest-benchmark parametrization:
#: they time cross-engine comparisons, not a single simulate() call).
EXTRA_CASES = {
    "fleet_scale": run_fleet_scale_case,
    "obs_overhead": run_obs_overhead_case,
}


def run_case(name: str, repeats: int = 3) -> dict:
    """Time one case: best-of-``repeats`` wall clock plus throughput rates."""
    trace, schedule, policy_factory = build_case(name)
    best = None
    metrics = None
    for _ in range(repeats):
        policy = policy_factory()
        start = time.perf_counter()
        metrics = simulate(
            build_apollo_app(), policy, trace, schedule, config=SimulationConfig(seed=3)
        )
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return {
        "events": len(schedule.events),
        "wall_s": round(best, 4),
        "sim_end_s": metrics.sim_end_s,
        "jobs_completed": metrics.jobs_completed,
        "sim_seconds_per_wall_second": round(metrics.sim_end_s / best, 1),
        "jobs_per_second": round(metrics.jobs_completed / best, 1),
    }


# ---------------------------------------------------------------------------
# pytest-benchmark entry points
# ---------------------------------------------------------------------------


def _bench(benchmark, trace, schedule, policy_factory, rounds=3):
    app = build_apollo_app()
    config = SimulationConfig(seed=3)

    def _run():
        return simulate(app, policy_factory(), trace, schedule, config=config)

    metrics = benchmark.pedantic(_run, rounds=rounds, iterations=1)
    assert metrics.jobs_completed > 0


def test_engine_throughput_noadapt(benchmark):
    _bench(benchmark, _solar_trace(), CROWDED.schedule(30, seed=2), NoAdaptPolicy)


def test_engine_throughput_quetzal(benchmark):
    _bench(benchmark, _solar_trace(), CROWDED.schedule(30, seed=2), QuetzalRuntime)


@pytest.mark.parametrize("case", sorted(CASES))
def test_engine_paper_scale(benchmark, case):
    trace, schedule, policy_factory = build_case(case)
    _bench(benchmark, trace, schedule, policy_factory, rounds=2)


# ---------------------------------------------------------------------------
# Standalone regression harness
# ---------------------------------------------------------------------------


def _load_trajectory(path: Path) -> dict:
    if path.exists():
        with open(path) as fh:
            return json.load(fh)
    return {
        "schema": 1,
        "workload": "CROWDED.schedule(seed=2) + solar trace seed=1, SimulationConfig(seed=3)",
        "entries": [],
    }


def _latest_baseline(trajectory: dict) -> dict | None:
    entries = trajectory.get("entries", [])
    return entries[-1] if entries else None


def cmd_record(args) -> int:
    trajectory = _load_trajectory(BASELINE_PATH)
    results = {name: run_case(name, repeats=args.repeats) for name in CASES}
    # Extra cases run once: each repeat is a whole fleet-vs-engine sweep.
    results.update({name: fn() for name, fn in EXTRA_CASES.items()})
    fleet = results.get("fleet_scale")
    if fleet is not None and fleet["devices"] != FLEET_CI_DEVICES:
        # Also record the vector/scalar ratio at the CI scale: speedup
        # does not transfer across device counts, so the CI gate needs a
        # baseline measured at its own width ("phases" is dropped — the
        # canonical entry already carries the breakdown).
        ci = run_fleet_scale_case(
            devices=FLEET_CI_DEVICES,
            scalar_devices=FLEET_CI_SCALAR_DEVICES,
        )
        ci.pop("phases", None)
        fleet["ci_scale"] = ci
    entry = {
        "label": args.label,
        "date": time.strftime("%Y-%m-%d"),
        "results": results,
    }
    first = trajectory["entries"][0] if trajectory["entries"] else None
    trajectory["entries"].append(entry)
    with open(BASELINE_PATH, "w") as fh:
        json.dump(trajectory, fh, indent=2)
        fh.write("\n")
    print(f"recorded entry {len(trajectory['entries']) - 1} -> {BASELINE_PATH}")
    for name, res in results.items():
        if "speedup_vs_scalar" in res:
            print(
                f"  {name:24s} {res['wall_s']:8.4f}s  "
                f"{res['ms_per_device_vector']:>7.3f} ms/dev  "
                f"{res['speedup_vs_scalar']:.2f}x vs scalar"
            )
            setup = res.get("setup")
            if setup is not None:
                print(
                    f"  {name + '.setup':24s} {setup['setup_store_s']:8.4f}s"
                    f" store-backed lane build + batch init vs "
                    f"{setup['setup_s']:.4f}s generated ({setup['speedup']:.2f}x;"
                    f" lane build alone {setup['lane_build_speedup']:.2f}x)"
                )
            continue
        if "enabled_overhead_pct" in res:
            print(
                f"  {name:24s} {res['wall_s']:8.4f}s  enabled "
                f"{res['enabled_overhead_pct']:+.2f}%"
            )
            continue
        line = (
            f"  {name:24s} {res['wall_s']:8.4f}s  "
            f"{res['sim_seconds_per_wall_second']:>9.1f} sim-s/s  "
            f"{res['jobs_per_second']:>8.1f} jobs/s"
        )
        if first and name in first["results"]:
            line += f"  ({first['results'][name]['wall_s'] / res['wall_s']:.2f}x vs entry 0)"
        print(line)
    return 0


def cmd_check(args) -> int:
    trajectory = _load_trajectory(BASELINE_PATH)
    baseline = _latest_baseline(trajectory)
    if baseline is None:
        print(f"no baseline entries in {BASELINE_PATH}; run --record first", file=sys.stderr)
        return 2
    print(
        f"checking against baseline {baseline['label']!r} ({baseline['date']}), "
        f"tolerance {args.tolerance}x"
    )
    results = {}
    failed = []
    for name in list(CASES) + list(EXTRA_CASES):
        if name in EXTRA_CASES:
            res = EXTRA_CASES[name]()
        else:
            res = run_case(name, repeats=args.repeats)
        results[name] = res
        if "enabled_overhead_pct" in res:
            print(
                f"  {name:24s} tracing enabled "
                f"{res['enabled_overhead_pct']:+.2f}% vs plain engine "
                f"(informational)"
            )
            continue
        base = baseline["results"].get(name)
        if base is None:
            print(f"  {name:24s} {res['wall_s']:8.4f}s  (no baseline; informational)")
            continue
        if "speedup_vs_scalar" in res and "speedup_vs_scalar" in base:
            # Fleet case: wall_s is not runner-comparable, so gate on the
            # vector-vs-scalar speedup — against the recorded baseline at
            # the *same* device count (speedup amortizes with width).
            ref = base
            if res.get("devices") != base.get("devices"):
                ci = base.get("ci_scale")
                ref = ci if ci and ci.get("devices") == res.get("devices") else None
            if ref is None:
                ok = True
                print(
                    f"  {name:24s} {res['speedup_vs_scalar']:.2f}x vs "
                    f"scalar at {res.get('devices')} devices (no "
                    f"matching-scale baseline; informational)"
                )
            else:
                retained = res["speedup_vs_scalar"] / ref["speedup_vs_scalar"]
                ok = retained >= FLEET_SPEEDUP_RETENTION
                status = "ok" if ok else "REGRESSION"
                print(
                    f"  {name:24s} {res['speedup_vs_scalar']:.2f}x vs scalar "
                    f"(baseline {ref['speedup_vs_scalar']:.2f}x at "
                    f"{ref.get('devices')} devices, retained "
                    f"{retained:.2f}, floor {FLEET_SPEEDUP_RETENTION:.2f})  {status}"
                )
            setup = res.get("setup")
            if setup is not None:
                # Self-contained gate: both sides of the setup ratio were
                # timed in this run.
                setup_ok = setup["speedup"] >= FLEET_SETUP_SPEEDUP
                setup_status = "ok" if setup_ok else "REGRESSION"
                print(
                    f"  {name + '.setup':24s} {setup['speedup']:.2f}x store "
                    f"attach vs regenerate ({setup['setup_store_s']:.3f}s "
                    f"vs {setup['setup_s']:.3f}s, floor "
                    f"{FLEET_SETUP_SPEEDUP:.1f})  {setup_status}"
                )
                ok = ok and setup_ok
        else:
            ratio = res["wall_s"] / base["wall_s"]
            ok = ratio <= args.tolerance
            status = "ok" if ok else "REGRESSION"
            print(
                f"  {name:24s} {res['wall_s']:8.4f}s vs {base['wall_s']:.4f}s "
                f"baseline ({ratio:.2f}x)  {status}"
            )
        if not ok:
            failed.append(name)
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(
                {
                    "baseline": baseline["label"],
                    "tolerance": args.tolerance,
                    "results": results,
                    "regressions": failed,
                },
                fh,
                indent=2,
            )
            fh.write("\n")
        print(f"wrote results -> {args.output}")
    if failed:
        print(
            f"FAILED: {', '.join(failed)} regressed past {args.tolerance}x",
            file=sys.stderr,
        )
        return 1
    print("all cases within tolerance")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--record",
        action="store_true",
        help="append a trajectory entry to BENCH_engine.json",
    )
    mode.add_argument(
        "--check",
        action="store_true",
        help="compare against the latest committed entry",
    )
    parser.add_argument(
        "--label", default="unlabelled", help="label stored with --record entries"
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats per case (best is kept)"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("BENCH_TOLERANCE", "2.0")),
        help="max allowed wall_s ratio vs baseline (default 2.0)",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="also write --check results to this JSON file (CI artifact)",
    )
    args = parser.parse_args(argv)
    return cmd_record(args) if args.record else cmd_check(args)


if __name__ == "__main__":
    raise SystemExit(main())
