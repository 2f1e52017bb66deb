"""Benchmark of the Quetzal reproduction: three workloads, end to end.

Run from the repository root::

    python3 perfbench/run.py --workload fleet-baselines --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload figures --seed 1 --seconds 15 --trace 1
    python3 perfbench/run.py --compare old.jsonl new.jsonl

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` runs each unit of the first half of the same plan twice,
untraced and then traced with spans installed (see ``spans.py``), and
reports the per-layer metrics plus the tracing overhead (the median over
those pairs of traced against untraced time); the spans are written to
``.perfbench/spans-<workload>-seed<n>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every run also
appends its full record (environment, set-up samples, problems, result)
to ``.perfbench/results.jsonl`` or to ``--result PATH``; ``--compare``
prints the per-workload deltas between two such files.  ``--write-golden``
recomputes ``golden.json``, the committed output digests the checks
compare against; run it only when an intended output change lands.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from workloads import WORKLOADS, Tally

OUT_DIR = ".perfbench"
SETUP_REPEATS = 3


def metric_units(section: str) -> dict:
    """Metric name -> unit, as declared in the root ``BENCHMARK.json``."""
    with open("BENCHMARK.json") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"),
                        help="'all' runs every workload, each in a fresh interpreter")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", metavar="PATH", default=None,
                        help="append the full run record to PATH "
                        f"(default {OUT_DIR}/results.jsonl)")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="print metric deltas between two result files")
    parser.add_argument("--write-golden", action="store_true",
                        help="recompute the committed output digests")
    parser.add_argument("--setup-sample", metavar="DIR", default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare is None and not args.write_golden and args.workload is None:
        parser.error("--workload is required")
    return args


def use_repo_source() -> str:
    """Import ``repro`` from ``src/`` under the working directory, or exit 2."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("error: no src/repro here; run from the repository root",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"error: imported repro from {repro.__file__}, not {src}",
              file=sys.stderr)
        raise SystemExit(2)
    return src


def environment() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
    }


def setup_sample(args, directory: str) -> tuple:
    """Seconds from starting a fresh interpreter to the end of its set-up.

    The child imports the program, constructs the workload and prepares
    it, reports the monotonic clock (shared by every process on the host)
    and only then tears down, so teardown is not timed.  Returns the
    seconds and the host slowness read just before and after the child.
    """
    import hostprobe  # not at module level: the child must not pay for it

    command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--setup-sample", directory]
    before = hostprobe.slowness()
    start = time.monotonic()
    child = subprocess.run(command, check=True, stdout=subprocess.PIPE, text=True)
    ready = float(child.stdout.split()[-1])
    after = hostprobe.slowness()
    shutil.rmtree(directory, ignore_errors=True)
    return ready - start, (before + after) / 2.0


def prepare_only(args) -> int:
    """The child side of :func:`setup_sample`."""
    os.makedirs(args.setup_sample)
    workload = WORKLOADS[args.workload](args.seed, args.seconds, args.setup_sample)
    try:
        workload.prepare(os.path.join(args.setup_sample, "setup"))
        print(time.monotonic(), flush=True)
    finally:
        workload.close()
    return 0


def timed_plan(workload) -> tuple:
    """Run every unit between two host-speed readings (``hostprobe.py``).

    Returns the tally and, per unit, ``(devices, seconds, request ms,
    slowness)``; ``slowness`` is the mean of the readings around the unit.
    """
    import hostprobe

    tally = Tally()
    units = []
    hostprobe.slowness()  # warm-up
    before = hostprobe.slowness()
    for index in range(workload.units):
        devices, elapsed, requests = tally.devices, tally.elapsed, len(tally.requests)
        workload.run_unit(index, tally)
        after = hostprobe.slowness()
        units.append((tally.devices - devices, tally.elapsed - elapsed,
                      tally.requests[requests:], (before + after) / 2.0))
        before = after
    return tally, units


def end_to_end(units, setup_samples) -> dict:
    """The gated metrics, every time divided by the host slowness around it."""
    return {
        "setup_s": statistics.median(seconds / slow for seconds, slow in setup_samples),
        "runs_per_s": (sum(unit[0] for unit in units)
                       / sum(seconds / slow for _, seconds, _, slow in units)),
        "request_p50_ms": statistics.median(
            ms / slow for _, _, requests, slow in units for ms in requests
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def wall_clock(tally, setup_samples) -> dict:
    """The same timings unscaled, and the cache-hit latency: printed, not gated."""
    out = {
        "wall_setup_s": statistics.median(seconds for seconds, _ in setup_samples),
        "wall_runs_per_s": tally.devices / tally.elapsed,
        "wall_request_p50_ms": statistics.median(tally.requests),
    }
    if len(tally.hits) >= 100:
        out["hit_p50_ms"] = statistics.median(tally.hits)
        out["hit_p90_ms"] = statistics.quantiles(tally.hits, n=10)[8]
    return out


def traced_pairs(workload, recorder) -> tuple:
    """Run the first half of the plan as untraced/traced pairs (ABAB).

    Each unit runs untraced, then again on the same inputs with the spans
    installed, so both halves of a pair see the same host state.  Returns
    the traced tally and the per-pair ratios of traced to untraced time.
    """
    traced = Tally()
    ratios = []
    for index in range(max(1, workload.units // 2)):
        untraced = Tally()
        workload.run_unit(index, untraced)
        before = traced.elapsed
        recorder.install()
        workload.recorder = recorder
        try:
            workload.run_unit(index, traced, replay=True)
        finally:
            recorder.uninstall()
            workload.recorder = None
        ratios.append((traced.elapsed - before) / untraced.elapsed)
    return traced, ratios


def run_workload(args, src: str) -> dict:
    from spans import SpanRecorder

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"tmp-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    workload = None
    try:
        setup_samples = [
            setup_sample(args, os.path.join(workdir, f"setup-{repeat}"))
            for repeat in range(SETUP_REPEATS)
        ]
        record["setup_samples"] = setup_samples
        workload = WORKLOADS[args.workload](args.seed, args.seconds, workdir)
        workload.prepare(os.path.join(workdir, "main"))
        if args.trace == 0:
            tally, units = timed_plan(workload)
            metrics = end_to_end(units, setup_samples)
            declared = metric_units("end_to_end")
            record["informational"] = wall_clock(tally, setup_samples)
            record["unit_slowness"] = [unit[3] for unit in units]
        else:
            workload.prepare_replay(os.path.join(workdir, "replay"))
            recorder = SpanRecorder()
            traced, ratios = traced_pairs(workload, recorder)
            declared = metric_units("per_layer")
            metrics = dict.fromkeys(declared, 0.0)
            metrics.update(recorder.layer_metrics())
            metrics.update(workload.layer_extras(recorder))
            metrics["bench.traced_runs_per_s"] = traced.devices / traced.elapsed
            metrics["bench.tracing_overhead_pct"] = 100.0 * (statistics.median(ratios) - 1.0)
            undeclared = sorted(set(metrics) - set(declared))
            if undeclared:
                raise RuntimeError(f"metrics missing from BENCHMARK.json: {undeclared}")
            spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
            recorder.write(spans_path)
            record["spans"] = spans_path
        checks = workload.check()
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    record["problems"] = checks.problems
    record["result"] = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()
        },
    }
    return record


def write_golden() -> None:
    from repro.trace.store import TraceStore
    from workloads import GOLDEN_PATH, golden_figures, golden_fleet_json, sha256_text

    store_dir = os.path.join(OUT_DIR, f"golden-store-{os.getpid()}")
    try:
        fleet = sha256_text(golden_fleet_json(TraceStore.create(store_dir)))
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    with open(GOLDEN_PATH, "w") as handle:
        json.dump({"fleet": fleet, "figures": golden_figures()}, handle,
                  indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare is not None:
        from compare import compare

        return compare(*args.compare)
    src = use_repo_source()
    if args.write_golden:
        os.makedirs(OUT_DIR, exist_ok=True)
        write_golden()
        return 0
    if args.setup_sample is not None:
        return prepare_only(args)
    if args.workload == "all":
        status = 0
        for workload in WORKLOADS:
            command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
            if args.result is not None:
                command += ["--result", args.result]
            status = max(status, subprocess.run(command).returncode)
        return status
    env = environment()
    try:
        record = run_workload(args, src)
    except Exception:
        traceback.print_exc()
        return 1
    record["env"] = env
    with open(args.result or os.path.join(OUT_DIR, "results.jsonl"), "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")

    result = record["result"]
    print(f"[perfbench] {args.workload} seed={args.seed} trace={args.trace} "
          f"python={env['python']} numpy={env['numpy']} nproc={env['nproc']} "
          f"cpu={env['cpu']!r} loadavg={env['loadavg'][0]:.2f}")
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")
    for name, value in record.get("informational", {}).items():
        unit = {"wall_setup_s": "s", "wall_runs_per_s": "1/s"}.get(name, "ms")
        print(f"  {name:32s} {value:14.6g} {unit} (not gated)")
    print(f"  {'error_rate':32s} {result['failed'] / result['attempted']:14.6g} "
          f"({result['failed']} of {result['attempted']} operations failed or wrong)")
    for problem in record["problems"][:20]:
        print(f"  problem: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
