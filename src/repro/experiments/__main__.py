"""Regenerate the reproduced tables and figures.

Usage::

    python -m repro.experiments [--events N] [--seeds K] [--jobs N] [--figure ID]

``--events`` scales the per-run event count (default 120; the paper uses
1000) and ``--seeds`` the number of seed replicas averaged per bar.
``--jobs`` fans the runs of each figure out over that many worker
processes (default 1; ``0`` = one per CPU); results are bit-identical to
a serial run.  ``--figure`` selects figures by substring of their id
(e.g. ``9``, ``11``, ``Table``); only the selected figures are computed.

``--profile`` wraps each figure in :mod:`cProfile` and prints its top
hotspots (by total time) after the figure renders — the quickest way to
see where simulation wall-clock goes before reaching for
``perfbench/run.py``.  Profiling forces ``--jobs 1``: child processes
would escape the profiler.  ``--profile-dir DIR`` additionally dumps one
``.pstats`` file per figure (CI uploads these as artifacts).

The execution flags (``--jobs``/``--profile``/``--profile-dir`` plus the
``--kernel``/``--trace-store``/``--metrics-out`` group) are shared with
``python -m repro.fleet`` and ``python -m repro.serve`` through
:mod:`repro.cli`.  Grids always run on the reference scalar engine, so
``--kernel vector`` is rejected here; ``--trace-store`` attaches a
prebuilt store as the grid runners' read-through input cache, and
``--metrics-out`` writes the figure batch as a Prometheus/JSON registry.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.cli import add_core_flags, jobs_from_args, profiled
from repro.experiments import figures

#: Figure id -> runner.  Runners returning multiple results are wrapped.
RUNNERS = {
    "Figure 2a": lambda n, s, j: [figures.fig2a_processing_rate_dynamics(min(n, 60))],
    "Figure 2b": lambda n, s, j: [figures.fig2b_capture_rate_sweep(n, s, jobs=j)],
    "Figure 3": lambda n, s, j: [figures.fig3_naive_solutions(n, s, jobs=j)],
    "Figure 8": lambda n, s, j: [
        figures.fig8_hardware_experiment(min(n, 100), s, jobs=j)
    ],
    "Figure 9": lambda n, s, j: [figures.fig9_vs_nonadaptive(n, s, jobs=j)],
    "Figure 10": lambda n, s, j: [figures.fig10_vs_prior_work(n, s, jobs=j)],
    "Figure 11": lambda n, s, j: list(figures.fig11_vs_fixed_thresholds(n, s, jobs=j)),
    "Figure 12": lambda n, s, j: [figures.fig12_scheduler_ablation(n, s, jobs=j)],
    "Figure 13": lambda n, s, j: [figures.fig13_msp430(n, s, jobs=j)],
    "Figure 14": lambda n, s, j: [figures.fig14_sensitivity(n, s, jobs=j)],
    "Table 1": lambda n, s, j: [figures.table1_configurations()],
    "Section 5.1": lambda n, s, j: [figures.section51_hardware_costs()],
}


def build_parser() -> argparse.ArgumentParser:
    """The experiments CLI parser (exposed so tests can pin its flags)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the Quetzal paper's tables and figures.",
    )
    parser.add_argument("--events", type=int, default=figures.DEFAULT_EVENTS)
    parser.add_argument("--seeds", type=int, default=len(figures.DEFAULT_SEEDS))
    parser.add_argument("--figure", type=str, default=None)
    parser.add_argument(
        "--json",
        type=str,
        default=None,
        metavar="PATH",
        help="also dump the results as a JSON file",
    )
    add_core_flags(parser)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    seeds = tuple(range(args.seeds))
    jobs = jobs_from_args(args, parser)
    if args.kernel == "vector":
        parser.error(
            "experiment grids run on the reference scalar engine; "
            "--kernel vector applies to `python -m repro.fleet` and "
            "`python -m repro.serve`"
        )
    if args.trace_store is not None:
        from repro.experiments.runner import set_default_trace_store
        from repro.trace.store import TraceStore

        set_default_trace_store(TraceStore.open(args.trace_store))
    selected = {
        name: runner
        for name, runner in RUNNERS.items()
        if args.figure is None or args.figure.lower() in name.lower()
    }
    if not selected:
        print(f"no figure matches {args.figure!r}; known: {sorted(RUNNERS)}")
        return 1

    start = time.time()
    collected = []
    for name, runner in selected.items():
        results: list = []
        with profiled(args.profile, name, args.profile_dir):
            results = runner(args.events, seeds, jobs)
            for result in results:
                print(result.render())
                print()
                collected.append(result)
    if args.json is not None:
        import json

        with open(args.json, "w") as handle:
            json.dump([r.to_dict() for r in collected], handle, indent=2)
        print(f"[wrote {args.json}]")
    if args.metrics_out is not None:
        import json

        from repro.obs.metrics import figures_registry

        registry = figures_registry(collected)
        with open(f"{args.metrics_out}.prom", "w") as handle:
            handle.write(registry.to_prometheus())
        with open(f"{args.metrics_out}.json", "w") as handle:
            json.dump(registry.to_dict(), handle, sort_keys=True)
        print(f"[wrote {args.metrics_out}.prom and {args.metrics_out}.json]")
    print(f"[regenerated {len(selected)} figure(s) in {time.time() - start:.1f} s]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
