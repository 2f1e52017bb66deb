"""The experiment runner: parallel speedup and input-cache reuse.

The speedup check needs real cores: a 4-worker sweep of independent
simulations should finish at least ~2x faster than the serial sweep once
4 CPUs are available.  On smaller machines (CI runners included) the
assertion is skipped — the *equivalence* of the results is what
``tests/experiments/test_runner.py`` guarantees everywhere.
"""

from __future__ import annotations

import os
import time

import pytest
from conftest import BENCH_EVENTS, BENCH_SEEDS, run_once

from repro.experiments.configs import apollo_simulation_config
from repro.experiments.harness import quetzal_factory, run_grid, standard_policies
from repro.experiments.runner import ExperimentRunner, clear_run_memo, grid_specs
from repro.policies.noadapt import NoAdaptPolicy

#: Workers used for the parallel leg of the speedup measurement.
SPEEDUP_JOBS = 4

#: Required wall-clock ratio (serial / parallel) when the cores exist.
SPEEDUP_FLOOR = 2.0


def sweep(jobs: int):
    cfg = apollo_simulation_config("crowded", BENCH_EVENTS)
    return run_grid(cfg, standard_policies(), seeds=BENCH_SEEDS, jobs=jobs)


def test_parallel_speedup(benchmark):
    """jobs=4 must beat jobs=1 by >= 2x wall clock (given >= 4 CPUs)."""
    cores = os.cpu_count() or 1
    clear_run_memo()
    serial_start = time.perf_counter()
    serial = sweep(jobs=1)
    serial_s = time.perf_counter() - serial_start

    clear_run_memo()  # else the parallel leg is all memo hits
    parallel_start = time.perf_counter()
    parallel = run_once(benchmark, sweep, jobs=SPEEDUP_JOBS)
    parallel_s = time.perf_counter() - parallel_start

    # Regardless of the machine, the grids must agree exactly.
    assert parallel == serial
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    print(f"\n[runner] serial {serial_s:.2f}s, "
          f"{SPEEDUP_JOBS} workers {parallel_s:.2f}s -> {speedup:.2f}x "
          f"({cores} CPUs)")
    if cores < SPEEDUP_JOBS:
        pytest.skip(f"speedup floor needs >= {SPEEDUP_JOBS} CPUs, have {cores}")
    assert speedup >= SPEEDUP_FLOOR


def test_input_cache_builds_each_trace_once(benchmark):
    """The shared-input cache does P*S runs from 1 trace + S schedules."""
    cfg = apollo_simulation_config("crowded", BENCH_EVENTS)
    grid = {"NA": NoAdaptPolicy, "QZ": quetzal_factory()}
    specs = grid_specs(cfg, grid, seeds=BENCH_SEEDS)
    traces, schedules = run_once(benchmark, ExperimentRunner.build_caches, specs)
    assert len(traces) == 1
    assert len(schedules) == len(BENCH_SEEDS)
