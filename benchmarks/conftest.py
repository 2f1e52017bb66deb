"""Benchmark configuration.

Each benchmark regenerates one of the paper's tables/figures through the
``repro.experiments.figures`` runners and prints the resulting rows, so
``pytest benchmarks/ --benchmark-only`` doubles as the full reproduction
run.  Runs are scaled via ``BENCH_EVENTS``/``BENCH_SEEDS`` (environment
variables) — the defaults keep the whole suite around several minutes; the
paper-scale setting is 1000 events.  ``BENCH_JOBS`` fans each figure's
runs over worker processes (``0`` = one per CPU, like ``--jobs 0``;
results are identical at any setting).
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.runner import clear_run_memo, resolve_jobs

#: Events per run (paper: 1000 for simulations, 100 for the hardware rig).
BENCH_EVENTS = int(os.environ.get("BENCH_EVENTS", "80"))

#: Seed replicas averaged per bar.
BENCH_SEEDS = tuple(range(int(os.environ.get("BENCH_SEEDS", "2"))))

#: Worker processes per figure grid (0 = one per CPU; jobs-invariant results).
BENCH_JOBS = resolve_jobs(int(os.environ.get("BENCH_JOBS", "1")))


@pytest.fixture(autouse=True)
def cold_run_memo():
    """Empty the per-process run memo, so each bench times its own runs."""
    clear_run_memo()


@pytest.fixture
def figure_printer(capsys):
    """Print a FigureResult outside of pytest's capture so it lands in logs."""

    def emit(result) -> None:
        with capsys.disabled():
            print()
            print(result.render())

    return emit


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    Figure regenerations are long deterministic simulations — repeating
    them for statistical timing would multiply minutes for no insight.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
