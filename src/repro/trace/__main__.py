"""Trace command-line utilities.

Usage::

    python -m repro.trace summarize <trace.csv>
    python -m repro.trace generate <out.csv> [--cells N] [--seed S] [--days D]
    python -m repro.trace store build DIR --devices N [fleet-spec flags]
    python -m repro.trace store ls DIR
    python -m repro.trace store verify DIR

``summarize`` prints the statistics of a recorded trace CSV;
``generate`` synthesises a solar trace and writes it as CSV, so users can
inspect, edit, or post-process the exact power profile an experiment uses.
``store`` manages the memory-mapped columnar trace store
(:mod:`repro.trace.store`): ``build`` generates every trace/schedule a
fleet spec's devices need into one shared library, ``ls`` prints the
manifest summary, and ``verify`` re-checks every payload against its
recorded SHA-256.  Fleet runs then attach the library with
``python -m repro.fleet ... --trace-store DIR`` instead of regenerating
per process.
"""

from __future__ import annotations

import argparse
import sys

from repro.cli import add_fleet_spec_flags, fleet_spec_from_args
from repro.trace.io import load_trace_csv, save_trace_csv
from repro.trace.solar import SolarTraceConfig, SolarTraceGenerator
from repro.trace.stats import summarize


def _add_store_parser(sub) -> None:
    p_store = sub.add_parser(
        "store", help="manage the memory-mapped columnar trace store"
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)

    p_build = store_sub.add_parser(
        "build", help="populate a store with every entry a fleet spec needs"
    )
    p_build.add_argument("directory", metavar="DIR")
    p_build.add_argument("--devices", type=int, required=True, metavar="N",
                         help="fleet size (mirrors python -m repro.fleet)")
    add_fleet_spec_flags(p_build)
    p_build.add_argument("--jobs", type=int, default=1, metavar="J",
                         help="parallel generator workers (0 = one per CPU)")
    p_build.add_argument("--quiet", action="store_true")

    p_ls = store_sub.add_parser("ls", help="print the store manifest summary")
    p_ls.add_argument("directory", metavar="DIR")
    p_ls.add_argument("--entries", action="store_true",
                      help="also list every entry (kind, seed, shape, file)")

    p_verify = store_sub.add_parser(
        "verify", help="re-check every payload against the manifest digests"
    )
    p_verify.add_argument("directory", metavar="DIR")


def _run_store(args: argparse.Namespace) -> int:
    from repro.trace.store import TraceStore

    if args.store_command == "build":
        spec = fleet_spec_from_args(args)
        store = TraceStore.create(args.directory)
        counts = store.build_for_spec(
            spec, jobs=args.jobs, progress=None if args.quiet else print
        )
        print(
            f"built {counts['traces']} traces + {counts['schedules']} "
            f"schedules ({counts['reused']} reused)"
        )
        print(store.render())
        return 0

    store = TraceStore.open(args.directory)
    if args.store_command == "ls":
        print(store.render())
        if args.entries:
            for fingerprint, entry in sorted(store._entries.items()):
                key = entry["key"]
                print(
                    f"  {entry['kind']:<7} seed={key['seed']:<10} "
                    f"shape={'x'.join(map(str, entry['shape'])):<9} "
                    f"{entry['file']}"
                )
        return 0

    problems = store.verify()
    if problems:
        for problem in problems:
            print(f"CORRUPT: {problem}", file=sys.stderr)
        return 1
    print(f"verified {len(store)} entries: all digests match")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.trace")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser("summarize", help="print statistics of a trace CSV")
    p_sum.add_argument("path")
    p_sum.add_argument("--duration", type=float, default=None)

    p_gen = sub.add_parser("generate", help="synthesise a solar trace CSV")
    p_gen.add_argument("path")
    p_gen.add_argument("--cells", type=int, default=6)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--days", type=int, default=1)

    _add_store_parser(sub)

    args = parser.parse_args(argv)

    if args.command == "store":
        return _run_store(args)

    if args.command == "summarize":
        trace = load_trace_csv(args.path)
        print(summarize(trace, duration_s=args.duration).render())
        return 0

    config = SolarTraceConfig(cells=args.cells)
    trace = SolarTraceGenerator(config, seed=args.seed).generate(days=args.days)
    save_trace_csv(trace, args.path, sample_period_s=config.sample_period_s)
    print(f"wrote {args.path}")
    print(summarize(trace).render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
