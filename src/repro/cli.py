"""Shared command-line plumbing for every repro CLI.

``python -m repro.experiments``, ``python -m repro.fleet``, and
``python -m repro.serve`` expose the same execution knobs, and they must
mean the same thing on all three.  This module is the single source of
that flag group:

* ``--jobs N`` — worker processes (default 1; ``0`` = one per CPU, as
  in :func:`repro.experiments.runner.resolve_jobs`).
* ``--profile`` — wrap the work in :mod:`cProfile` and print the top
  hotspots; forces serial execution (child processes would escape the
  profiler).
* ``--profile-dir DIR`` — additionally dump ``.pstats`` files (CI uploads
  these as artifacts; inspect with ``python -m pstats``).
* ``--kernel`` — simulation kernel choice (``auto``/``scalar``/
  ``vector``); grids run on the reference scalar engine, fleets resolve
  ``auto`` per :func:`repro.fleet.service.resolve_kernel`.
* ``--trace-store DIR`` — attach a prebuilt memory-mapped
  :class:`~repro.trace.store.TraceStore` instead of regenerating inputs;
  results are byte-identical either way.
* ``--metrics-out PREFIX`` — write a :class:`~repro.obs.MetricsRegistry`
  projection of the run as ``PREFIX.prom`` + ``PREFIX.json``.

``tests/test_cli_flags.py`` pins that all three parsers accept exactly
this core set, so the CLIs cannot drift apart again.

The fleet-shaping flags (``--seed``, ``--name``, ``--events``,
``--policies``, ``--environments``, ``--mcus``, ``--cells``, ``--buffer``)
and their :class:`~repro.fleet.spec.FleetSpec` builder are shared the
same way by ``python -m repro.fleet`` and ``python -m repro.trace store
build``; each declares its own ``--devices``.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import sys

from repro.experiments.runner import resolve_jobs

__all__ = [
    "CORE_FLAGS",
    "add_core_flags",
    "add_execution_flags",
    "add_fleet_spec_flags",
    "fleet_spec_from_args",
    "jobs_from_args",
    "profiled",
]

#: The option strings every repro CLI must accept — the drift-proof
#: contract checked by tests/test_cli_flags.py.
CORE_FLAGS = frozenset({
    "--jobs",
    "--profile",
    "--profile-dir",
    "--kernel",
    "--trace-store",
    "--metrics-out",
})


def add_execution_flags(parser: argparse.ArgumentParser) -> None:
    """Install the shared ``--jobs`` / ``--profile`` / ``--profile-dir`` flags."""
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (0 = one per CPU; default 1)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="cProfile the run and print its top hotspots (forces --jobs 1)",
    )
    parser.add_argument(
        "--profile-dir",
        type=str,
        default=None,
        metavar="DIR",
        help="with --profile, also dump pstats files into DIR "
        "(inspect with `python -m pstats`)",
    )


def add_core_flags(parser: argparse.ArgumentParser) -> None:
    """Install the full shared flag group (:data:`CORE_FLAGS`).

    Execution flags plus the kernel / trace-store / metrics knobs that
    had drifted apart between the experiments and fleet CLIs.  Each CLI
    wires the values into its own machinery (grids run scalar-only and
    reject ``--kernel vector``), but the *surface* is identical.
    """
    add_execution_flags(parser)
    parser.add_argument(
        "--kernel",
        choices=("auto", "scalar", "vector"),
        default="auto",
        help="simulation kernel: 'scalar' runs the reference engine per "
        "device, 'vector' advances covered devices in numpy lockstep "
        "(bit-identical results; uncovered devices fall back to scalar), "
        "'auto' (default) picks vector when every policy is covered and "
        "every shard has at least 128 devices",
    )
    parser.add_argument(
        "--trace-store",
        type=str,
        default=None,
        metavar="DIR",
        help="attach a prebuilt memory-mapped trace store "
        "(python -m repro.trace store build) instead of regenerating "
        "traces/schedules; missing entries fall back to the generators, "
        "and results are byte-identical either way",
    )
    parser.add_argument(
        "--metrics-out",
        type=str,
        default=None,
        metavar="PREFIX",
        help="write the run's metrics registry as PREFIX.prom "
        "(Prometheus text) plus PREFIX.json",
    )


def _csv(text: str) -> tuple:
    return tuple(item.strip() for item in text.split(",") if item.strip())


def _int_csv(text: str) -> tuple:
    return tuple(int(item) for item in _csv(text))


def add_fleet_spec_flags(parser: argparse.ArgumentParser) -> None:
    """Install the eight fleet-shaping flags read by :func:`fleet_spec_from_args`."""
    parser.add_argument("--seed", type=int, default=0, help="fleet seed")
    parser.add_argument("--name", type=str, default="fleet", help="fleet label")
    parser.add_argument("--events", type=int, default=50, metavar="N",
                        help="events per device schedule (default 50)")
    parser.add_argument("--policies", type=_csv, default=None, metavar="CSV",
                        help="policy mix, e.g. QZ,NA,TH50 (standard-grid names)")
    parser.add_argument("--environments", type=_csv, default=None, metavar="CSV",
                        help='environment mix, e.g. "crowded,less crowded"')
    parser.add_argument("--mcus", type=_csv, default=None, metavar="CSV",
                        help="MCU mix, e.g. apollo4,msp430")
    parser.add_argument("--cells", type=_int_csv, default=None, metavar="CSV",
                        help="harvester cell-count mix, e.g. 4,6,8")
    parser.add_argument("--buffer", type=int, default=10, metavar="N",
                        help="input-buffer capacity (0 = unbounded Ideal buffer)")


def fleet_spec_from_args(args: argparse.Namespace):
    """The :class:`~repro.fleet.spec.FleetSpec` of ``args.devices`` and the
    shaping flags; an unset mix flag keeps the spec's default mix."""
    from repro.fleet.spec import FleetSpec

    overrides = {
        key: value
        for key, value in (
            ("policies", args.policies),
            ("environments", args.environments),
            ("mcus", args.mcus),
            ("cells", args.cells),
        )
        if value is not None
    }
    return FleetSpec(
        devices=args.devices,
        seed=args.seed,
        name=args.name,
        n_events=args.events,
        buffer_capacity=None if args.buffer == 0 else args.buffer,
        **overrides,
    )


def jobs_from_args(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    """Resolve ``args.jobs`` to a concrete worker count (0/None = per CPU).

    ``--profile`` forces 1 so all simulation work stays in the profiled
    process.  Negative values are an argparse error.
    """
    if args.jobs < 0:
        parser.error(f"--jobs must be >= 0 (0 = one per CPU), got {args.jobs}")
    if args.profile:
        return 1
    return resolve_jobs(args.jobs)


@contextlib.contextmanager
def profiled(enabled: bool, label: str, profile_dir: str | None = None, top: int = 15):
    """Optionally cProfile a block, printing hotspots (and dumping pstats).

    A no-op context manager when ``enabled`` is false, so call sites can
    wrap their work unconditionally.
    """
    if not enabled:
        yield
        return
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        print(f"[profile] {label}: top hotspots by total time")
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.sort_stats("tottime").print_stats(top)
        if profile_dir is not None:
            os.makedirs(profile_dir, exist_ok=True)
            slug = re.sub(r"[^a-z0-9]+", "_", label.lower()).strip("_")
            out = os.path.join(profile_dir, f"{slug}.pstats")
            profiler.dump_stats(out)
            print(f"[profile] wrote {out}")
