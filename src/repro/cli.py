"""Shared command-line plumbing for every repro CLI.

``python -m repro.experiments``, ``python -m repro.fleet``, and
``python -m repro.serve`` expose the same execution knobs, and they must
mean the same thing on all three.  This module is the single source of
that flag group:

* ``--jobs N`` — worker processes (``0`` = one per CPU, matching
  ``BENCH_JOBS`` and :func:`repro.experiments.runner.resolve_jobs`);
  the default comes from the ``BENCH_JOBS`` environment variable (1 when
  unset), so the benchmarks' knob drives the CLIs too.
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


def _default_jobs_flag() -> int:
    """The ``--jobs`` default: the ``BENCH_JOBS`` env var, else 1 (serial)."""
    try:
        return int(os.environ.get("BENCH_JOBS", "1"))
    except ValueError:
        return 1


def add_execution_flags(parser: argparse.ArgumentParser) -> None:
    """Install the shared ``--jobs`` / ``--profile`` / ``--profile-dir`` flags."""
    parser.add_argument(
        "--jobs",
        type=int,
        default=_default_jobs_flag(),
        metavar="N",
        help="worker processes (0 = one per CPU; default from BENCH_JOBS, else 1)",
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
        "every shard has at least 192 devices",
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
