"""Fleet-scale batch simulation CLI.

Usage::

    python -m repro.fleet --devices 1000 --shards 16 --jobs 0 \\
        --checkpoint runs/fleet-1k            # journal as shards finish
    python -m repro.fleet --devices 1000 --shards 16 --jobs 0 \\
        --checkpoint runs/fleet-1k --resume   # pick up after a kill
    python -m repro.fleet --devices 1000 --trace-store runs/store \\
        --kernel vector                       # attach prebuilt traces

Shares ``--jobs`` / ``--profile`` / ``--profile-dir`` / ``--kernel`` /
``--trace-store`` / ``--metrics-out`` semantics with
``python -m repro.experiments`` and ``python -m repro.serve`` (one
helper: :mod:`repro.cli`); ``--jobs`` defaults to 1 and ``--jobs 0`` is
one worker per CPU.  Results are bit-identical at any
``--shards``/``--jobs`` setting, and a ``--resume`` after a kill matches
an uninterrupted run exactly (``make smoke`` checks this).

Instead of spelling the fleet out in flags, ``--spec spec.json`` loads a
versioned :meth:`FleetSpec.to_json` file — the same codec the serve
protocol and checkpoint manifests use.

Exit codes: ``0`` complete, ``2`` bad arguments, ``3`` incomplete
(``--stop-after`` cut the run short; resume to finish).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.cli import (
    add_core_flags,
    add_fleet_spec_flags,
    fleet_spec_from_args,
    jobs_from_args,
    profiled,
)
from repro.errors import ConfigurationError, TraceError
from repro.fleet.service import run_fleet
from repro.fleet.spec import FleetSpec


def build_parser() -> argparse.ArgumentParser:
    """The fleet CLI parser (exposed so tests can pin its flags)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description="Batch-simulate a fleet of heterogeneous energy-harvesting "
        "devices with streaming rollups and checkpoint/resume.",
    )
    parser.add_argument("--devices", type=int, default=None, metavar="N",
                        help="fleet size (or load the whole spec via --spec)")
    parser.add_argument("--spec", type=str, default=None, metavar="PATH",
                        help="load the fleet spec from a versioned JSON file "
                        "(FleetSpec.to_json); mutually exclusive with the "
                        "spec-shaping flags")
    parser.add_argument("--shards", type=int, default=1, metavar="K",
                        help="work units the fleet is split into (default 1; "
                        "results are shard-invariant)")
    add_fleet_spec_flags(parser)
    parser.add_argument("--kernel-stats", action="store_true",
                        help="print the vector kernel's per-phase timing "
                        "breakdown (setup / CTRL / ADV / RECHG / fallback) "
                        "after the run")
    parser.add_argument("--checkpoint", type=str, default=None, metavar="DIR",
                        help="journal completed shards into DIR")
    parser.add_argument("--resume", action="store_true",
                        help="reuse journaled shards from --checkpoint")
    parser.add_argument("--stop-after", type=int, default=None, metavar="K",
                        help="simulate a kill: run only K more shards, then exit 3")
    parser.add_argument("--json", type=str, default=None, metavar="PATH",
                        help="dump the exact fleet rollup as JSON (add "
                        "--kernel-stats to append a kernel_stats key)")
    parser.add_argument("--trace-out", type=str, default=None, metavar="PREFIX",
                        help="record the device timeline and write "
                        "PREFIX.chrome.json (Perfetto-loadable) plus "
                        "PREFIX.jsonl")
    parser.add_argument("--trace-capacity", type=int, default=None, metavar="N",
                        help="per-shard trace ring capacity in events "
                        "(default 65536; oldest events drop first)")
    parser.add_argument("--telemetry-out", type=str, default=None, metavar="PATH",
                        help="append streaming JSONL progress records to PATH "
                        "('-' = stdout)")
    parser.add_argument("--telemetry-every", type=float, default=0.0,
                        metavar="SECONDS",
                        help="throttle heartbeats to one per SECONDS "
                        "(default 0 = every shard)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-shard progress lines")
    add_core_flags(parser)
    return parser


def _spec_from_args(args, parser) -> FleetSpec:
    """Build the FleetSpec from either ``--spec`` or the shaping flags."""
    if args.spec is not None:
        if args.devices is not None:
            parser.error("--spec and --devices are mutually exclusive "
                         "(the spec file fixes the fleet size)")
        with open(args.spec) as handle:
            return FleetSpec.from_json(handle.read())
    if args.devices is None:
        parser.error("either --devices or --spec is required")
    return fleet_spec_from_args(args)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    jobs = jobs_from_args(args, parser)

    try:
        spec = _spec_from_args(args, parser)
        progress = None if args.quiet else print
        tracer = None
        if args.trace_out is not None:
            from repro.obs import RingBufferTracer

            tracer = (
                RingBufferTracer() if args.trace_capacity is None
                else RingBufferTracer(args.trace_capacity)
            )
        heartbeat = None
        telemetry_handle = None
        if args.telemetry_out is not None:
            from repro.obs import HeartbeatPublisher

            if args.telemetry_out == "-":
                stream = sys.stdout
            else:
                stream = telemetry_handle = open(args.telemetry_out, "a")
            heartbeat = HeartbeatPublisher(stream, every_s=args.telemetry_every)
        start = time.time()
        try:
            with profiled(args.profile, "fleet", args.profile_dir):
                result = run_fleet(
                    spec,
                    shards=args.shards,
                    jobs=jobs,
                    checkpoint=args.checkpoint,
                    resume=args.resume,
                    kernel=args.kernel,
                    stop_after=args.stop_after,
                    progress=progress,
                    trace=tracer,
                    heartbeat=heartbeat,
                    trace_store=args.trace_store,
                )
        finally:
            if telemetry_handle is not None:
                telemetry_handle.close()
    except (ConfigurationError, TraceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(result.render())
    # Kernel timing is wall-clock (never reproducible), so it reaches the
    # output only under --kernel-stats.
    kernel_stats = result.kernel_stats if args.kernel_stats else None
    if args.kernel_stats:
        if kernel_stats is None:
            print("[kernel-stats: no vector-kernel shards ran "
                  "(scalar kernel, or all shards resumed)]")
        else:
            print(kernel_stats.render())
    print(f"[fleet finished in {time.time() - start:.1f} s]")
    if args.json is not None:
        payload = result.rollup.to_dict()
        if args.kernel_stats:
            # Opt-in: the key appears only under --kernel-stats, so plain
            # --json files stay byte-identical across kernel choices.
            payload["kernel_stats"] = (
                None if kernel_stats is None else kernel_stats.as_dict()
            )
        with open(args.json, "w") as handle:
            json.dump(payload, handle, sort_keys=True)
        print(f"[wrote {args.json}]")
    if tracer is not None:
        from repro.obs import write_chrome_trace, write_jsonl

        events = tracer.events()
        write_chrome_trace(events, f"{args.trace_out}.chrome.json")
        write_jsonl(events, f"{args.trace_out}.jsonl")
        print(f"[wrote {args.trace_out}.chrome.json and {args.trace_out}.jsonl:"
              f" {len(events)} events retained, {tracer.dropped} dropped]")
    if args.metrics_out is not None:
        from repro.obs import fleet_registry

        # Without --kernel-stats the registry output is bit-identical
        # across shards/jobs/kernel choices.
        registry = fleet_registry(result.rollup, kernel_stats=kernel_stats)
        with open(f"{args.metrics_out}.prom", "w") as handle:
            handle.write(registry.to_prometheus())
        with open(f"{args.metrics_out}.json", "w") as handle:
            json.dump(registry.to_dict(), handle, sort_keys=True)
        print(f"[wrote {args.metrics_out}.prom and {args.metrics_out}.json]")
    return 0 if result.complete else 3


if __name__ == "__main__":
    sys.exit(main())
