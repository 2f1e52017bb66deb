"""Reproduction runners for every table and figure in the evaluation.

Each ``figN_*`` function regenerates the data behind one paper figure and
returns a :class:`~repro.experiments.reporting.FigureResult` whose rows
mirror the bars/series the paper plots.  All runners accept ``n_events``
and ``seeds`` so benchmarks can scale the runs; the paper-scale setting is
``n_events=1000`` (simulation) / ``100`` (hardware experiment) per
section 6.4.

Run ``python -m repro.experiments`` to regenerate everything at the
default scale.  EXPERIMENTS.md records paper-vs-measured values.

Every grid-shaped runner accepts ``jobs`` and fans its runs out over the
parallel :mod:`repro.experiments.runner` (``jobs=1`` stays serial; results
are bit-identical either way).  Runs that keep failing after a retry are
reported as notes on the figure instead of aborting it.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.runtime import QuetzalRuntime
from repro.device.mcu import APOLLO4, MSP430FR5994
from repro.env.activity import APOLLO_ENVIRONMENTS, HARDWARE_ENVIRONMENTS
from repro.experiments.configs import (
    ExperimentConfig,
    apollo_simulation_config,
    hardware_experiment_config,
    msp430_simulation_config,
)
from repro.experiments.harness import (
    AggregateMetrics,
    GridResults,
    quetzal_factory,
    run_grid,
    standard_policies,
)
from repro.experiments.reporting import FigureResult
from repro.hardware.costs import (
    quetzal_memory_layout,
    ratio_energy_saving,
    scheduler_overhead_fraction,
)
from repro.hardware.ratio import exponent_coefficient_error
from repro.policies.noadapt import NoAdaptPolicy

__all__ = [
    "fig2a_processing_rate_dynamics",
    "fig2b_capture_rate_sweep",
    "fig3_naive_solutions",
    "fig8_hardware_experiment",
    "fig9_vs_nonadaptive",
    "fig10_vs_prior_work",
    "fig11_vs_fixed_thresholds",
    "fig12_scheduler_ablation",
    "fig13_msp430",
    "fig14_sensitivity",
    "table1_configurations",
    "section51_hardware_costs",
    "run_all",
]

#: Default scale for figure regeneration: large enough for stable ratios,
#: small enough that the full suite runs in a few minutes.
DEFAULT_EVENTS = 120
DEFAULT_SEEDS: tuple[int, ...] = (0, 1, 2)


def _grid_rows(
    results: dict[str, AggregateMetrics], env_name: str
) -> list[dict]:
    rows = []
    for name, agg in results.items():
        row = {"environment": env_name, **agg.as_row()}
        rows.append(row)
    return rows


def _subset(names: Sequence[str]) -> dict:
    all_policies = standard_policies()
    return {name: all_policies[name] for name in names}


def _ratio_note(
    result: FigureResult,
    results: dict[str, AggregateMetrics],
    env_name: str,
    baseline: str,
) -> None:
    qz = results["QZ"].discarded_fraction
    other = results[baseline].discarded_fraction
    if qz > 0:
        result.add_note(
            f"{env_name}: QZ discards {other / qz:.2f}x fewer interesting "
            f"inputs than {baseline}"
        )


def _note_failures(result: FigureResult, results: GridResults) -> None:
    """Surface fault-tolerant-runner failures on the figure, if any."""
    for failure in getattr(results, "failures", ()):
        result.add_note(f"RUN FAILED: {failure}")


# ---------------------------------------------------------------------------
# Figure 2a — processing rate varies with input power and event activity.
# ---------------------------------------------------------------------------


def fig2a_processing_rate_dynamics(
    n_events: int = 40,
    window_s: float = 120.0,
    max_windows: int = 18,
) -> FigureResult:
    """The motivating time series: processing rate vs power and activity.

    Runs the NoAdapt pipeline with a telemetry recorder attached and
    reports windowed averages of harvested power, event activity, buffer
    occupancy, and processing rate — the dynamics the paper sketches in
    Figure 2a ("processing rate dynamically varies with Input-Power and
    Event-Activity").
    """
    from repro.sim.engine import SimulationEngine
    from repro.sim.telemetry import TelemetryRecorder

    cfg = apollo_simulation_config("crowded", n_events)
    telemetry = TelemetryRecorder()
    engine = SimulationEngine(
        app=cfg.build_app(),
        policy=NoAdaptPolicy(),
        trace=cfg.build_trace(),
        schedule=cfg.build_schedule(),
        mcu=cfg.mcu,
        storage=cfg.build_storage(),
        config=cfg.build_sim_config(),
        tracer=telemetry,
    )
    engine.run()

    result = FigureResult(
        "Figure 2a",
        "Processing rate varies with input power and event activity (NoAdapt)",
    )
    times, rates = telemetry.windowed_processing_rate(window_s)
    samples = telemetry.buffer_samples
    for t_end, rate in zip(times[:max_windows], rates[:max_windows]):
        in_window = [s for s in samples if t_end - window_s <= s.t < t_end]
        if not in_window:
            continue
        result.rows.append(
            {
                "window end (s)": t_end,
                "mean power (mW)": 1e3
                * sum(s.input_power_w for s in in_window)
                / len(in_window),
                "activity %": 100
                * sum(s.event_active for s in in_window)
                / len(in_window),
                "processing rate (jobs/s)": rate,
                "mean occupancy": sum(s.occupancy for s in in_window)
                / len(in_window),
            }
        )
    rate_values = [row["processing rate (jobs/s)"] for row in result.rows]
    if rate_values:
        result.add_note(
            f"processing rate spans {min(rate_values):.2f}-"
            f"{max(rate_values):.2f} jobs/s across windows — the dynamic "
            "variation that defeats static IBO provisioning (section 2.2)"
        )
    return result


# ---------------------------------------------------------------------------
# Figure 2b — reducing the capture rate still misses events.
# ---------------------------------------------------------------------------


def fig2b_capture_rate_sweep(
    n_events: int = DEFAULT_EVENTS,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    periods_s: Sequence[float] = (1, 2, 4, 6, 8, 10),
    jobs: int | None = 1,
) -> FigureResult:
    """NoAdapt with capture-rate degradation (capture periods 1-10 s).

    Longer capture periods relieve buffer pressure but fail to even
    *capture* a large fraction of interesting data (section 2.3).  Missed
    fraction is measured against the 1 s baseline's interesting captures.
    """
    result = FigureResult(
        "Figure 2b",
        "Interesting inputs missed vs capture period (NoAdapt)",
    )
    base_cfg = apollo_simulation_config("crowded", n_events)
    baseline_interesting: float | None = None
    for period in periods_s:
        name = f"NA@{period}s"
        cfg = ExperimentConfig(
            **{**base_cfg.__dict__, "capture_period_s": float(period)}
        )
        results = run_grid(cfg, {name: NoAdaptPolicy}, seeds, jobs=jobs)
        _note_failures(result, results)
        agg = results[name]
        if baseline_interesting is None:
            baseline_interesting = agg.captures_interesting
        not_captured = max(0.0, baseline_interesting - agg.captures_interesting)
        missed = (
            not_captured
            + agg.discarded_fraction * agg.captures_interesting
        ) / baseline_interesting
        result.rows.append(
            {
                "capture period (s)": period,
                "interesting captured": agg.captures_interesting,
                "not captured %": 100 * not_captured / baseline_interesting,
                "discarded %": 100 * agg.discarded_fraction,
                "total missed % of 1s baseline": 100 * missed,
            }
        )
    result.add_note(
        "Reducing capture rate trades IBO losses for never-captured events; "
        "total missed inputs stay high (paper section 2.3)."
    )
    return result


# ---------------------------------------------------------------------------
# Figure 3 — naive solutions are ineffective.
# ---------------------------------------------------------------------------


def fig3_naive_solutions(
    n_events: int = DEFAULT_EVENTS,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    jobs: int | None = 1,
) -> FigureResult:
    """Ideal / NA / AD / CN / PZO vs Quetzal on the Crowded environment."""
    result = FigureResult(
        "Figure 3",
        "Naive solutions discard many interesting inputs (Crowded env)",
    )
    cfg = apollo_simulation_config("crowded", n_events)
    grid = _subset(["QZ", "NA", "AD", "CN", "PZO"])
    results = run_grid(cfg, grid, seeds, jobs=jobs)
    # The Ideal bar: NoAdapt on an infinite buffer.
    ideal = run_grid(
        cfg.with_ideal_buffer(), {"Ideal": NoAdaptPolicy}, seeds, jobs=jobs
    )
    results["Ideal"] = ideal["Ideal"]
    _note_failures(result, results)
    _note_failures(result, ideal)
    result.rows = _grid_rows(results, "Crowded")
    for baseline in ("NA", "AD", "CN", "PZO"):
        _ratio_note(result, results, "Crowded", baseline)
    return result


# ---------------------------------------------------------------------------
# Figure 8 — end-to-end "hardware" experiment.
# ---------------------------------------------------------------------------


def fig8_hardware_experiment(
    n_events: int = 100,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    jobs: int | None = 1,
) -> FigureResult:
    """Quetzal vs NoAdapt, two sensing environments, 100 events.

    Mirrors the paper's hardware rig (section 6.2) at simulation fidelity:
    same pipeline, same event-pin methodology, 100-event schedules.
    """
    result = FigureResult(
        "Figure 8",
        "End-to-end experiment: QZ vs NA across two environments (100 events)",
    )
    for env in HARDWARE_ENVIRONMENTS:
        cfg = hardware_experiment_config(env, n_events)
        results = run_grid(cfg, _subset(["QZ", "NA"]), seeds, jobs=jobs)
        _note_failures(result, results)
        result.rows.extend(_grid_rows(results, env.name))
        _ratio_note(result, results, env.name, "NA")
        qz, na = results["QZ"], results["NA"]
        if na.reported_interesting > 0:
            gain = qz.reported_interesting / na.reported_interesting - 1
            result.add_note(
                f"{env.name}: QZ reports {100 * gain:.0f}% more interesting inputs"
            )
    return result


# ---------------------------------------------------------------------------
# Figure 9 — vs non-adaptive baselines, three environments.
# ---------------------------------------------------------------------------


def fig9_vs_nonadaptive(
    n_events: int = DEFAULT_EVENTS,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    jobs: int | None = 1,
) -> FigureResult:
    """QZ vs NA / AD / Ideal across the three sensing environments."""
    result = FigureResult(
        "Figure 9",
        "Interesting inputs discarded and radio packets vs non-adaptive systems",
    )
    for env in APOLLO_ENVIRONMENTS:
        cfg = apollo_simulation_config(env, n_events)
        results = run_grid(cfg, _subset(["QZ", "NA", "AD"]), seeds, jobs=jobs)
        ideal = run_grid(
            cfg.with_ideal_buffer(), {"Ideal": NoAdaptPolicy}, seeds, jobs=jobs
        )
        results["Ideal"] = ideal["Ideal"]
        _note_failures(result, results)
        _note_failures(result, ideal)
        rows = _grid_rows(results, env.name)
        ideal_reported = results["Ideal"].reported_interesting
        for row, agg in zip(rows, results.values()):
            row["reported / ideal %"] = (
                100 * agg.reported_interesting / ideal_reported
                if ideal_reported
                else 0.0
            )
        result.rows.extend(rows)
        _ratio_note(result, results, env.name, "NA")
        _ratio_note(result, results, env.name, "AD")
        qz_share = (
            100 * results["QZ"].reported_interesting / ideal_reported
            if ideal_reported
            else 0.0
        )
        result.add_note(
            f"{env.name}: QZ high-quality share "
            f"{100 * results['QZ'].high_quality_fraction:.1f}%, reports "
            f"{qz_share:.0f}% of the infinite-memory baseline"
        )
    return result


# ---------------------------------------------------------------------------
# Figure 10 — vs prior work (CatNap, Protean/Zygarde).
# ---------------------------------------------------------------------------


def fig10_vs_prior_work(
    n_events: int = DEFAULT_EVENTS,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    jobs: int | None = 1,
) -> FigureResult:
    """QZ vs CN / PZO / PZI across the three environments."""
    result = FigureResult(
        "Figure 10",
        "Quetzal vs prior-work adaptation policies",
    )
    for env in APOLLO_ENVIRONMENTS:
        cfg = apollo_simulation_config(env, n_events)
        results = run_grid(cfg, _subset(["QZ", "CN", "PZO", "PZI"]), seeds, jobs=jobs)
        _note_failures(result, results)
        result.rows.extend(_grid_rows(results, env.name))
        for baseline in ("CN", "PZI"):
            _ratio_note(result, results, env.name, baseline)
        qz, pzi = results["QZ"], results["PZI"]
        if pzi.reported_hq > 0:
            result.add_note(
                f"{env.name}: QZ reports "
                f"{qz.reported_hq / pzi.reported_hq:.1f}x more high-quality "
                "interesting inputs than PZI"
            )
    return result


# ---------------------------------------------------------------------------
# Figure 11 — vs fixed buffer thresholds (and the full sweep).
# ---------------------------------------------------------------------------


def fig11_vs_fixed_thresholds(
    n_events: int = DEFAULT_EVENTS,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    sweep: Sequence[float] = (0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0),
    jobs: int | None = 1,
) -> tuple[FigureResult, FigureResult]:
    """(a,b): QZ vs 25/50/75 % thresholds; (c): the full threshold sweep."""
    highlighted = FigureResult(
        "Figure 11a/b",
        "Quetzal vs fixed buffer-occupancy thresholds (25/50/75%)",
    )
    for env in APOLLO_ENVIRONMENTS:
        cfg = apollo_simulation_config(env, n_events)
        results = run_grid(cfg, _subset(["QZ", "TH25", "TH50", "TH75"]), seeds, jobs=jobs)
        _note_failures(highlighted, results)
        highlighted.rows.extend(_grid_rows(results, env.name))
        geo = 1.0
        for name in ("TH25", "TH50", "TH75"):
            geo *= results[name].discarded_fraction / max(
                results["QZ"].discarded_fraction, 1e-9
            )
        highlighted.add_note(
            f"{env.name}: geomean discard advantage over the three "
            f"thresholds = {geo ** (1 / 3):.2f}x"
        )

    from repro.policies.buffer_threshold import BufferThresholdPolicy

    sweep_result = FigureResult(
        "Figure 11c",
        "Full fixed-threshold sweep (0-100%) vs Quetzal",
    )
    for env in APOLLO_ENVIRONMENTS:
        cfg = apollo_simulation_config(env, n_events)
        grid = {"QZ": QuetzalRuntime}
        names = []
        for threshold in sweep:
            name = f"TH{int(100 * threshold)}"
            names.append(name)
            grid[name] = lambda t=threshold: BufferThresholdPolicy(t)
        results = run_grid(cfg, grid, seeds, jobs=jobs)
        _note_failures(sweep_result, results)
        qz = results["QZ"]
        for threshold, name in zip(sweep, names):
            agg = results[name]
            sweep_result.rows.append(
                {
                    "environment": env.name,
                    "threshold %": 100 * threshold,
                    "discarded %": 100 * agg.discarded_fraction,
                    "hq share %": 100 * agg.high_quality_fraction,
                    "QZ discarded %": 100 * qz.discarded_fraction,
                    "QZ hq share %": 100 * qz.high_quality_fraction,
                }
            )
    sweep_result.add_note(
        "Quetzal outperforms every static threshold: low thresholds degrade "
        "unnecessarily, high thresholds adapt too late (paper Figure 11c)."
    )
    return highlighted, sweep_result


# ---------------------------------------------------------------------------
# Figure 12 — scheduler / estimator ablation.
# ---------------------------------------------------------------------------


def fig12_scheduler_ablation(
    n_events: int = DEFAULT_EVENTS,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    jobs: int | None = 1,
) -> FigureResult:
    """Energy-aware SJF vs Avg-S_e2e / FCFS / LCFS (all with the IBO engine)."""
    result = FigureResult(
        "Figure 12",
        "Quetzal with different scheduling policies (all with IBO engine)",
    )
    for env in APOLLO_ENVIRONMENTS:
        cfg = apollo_simulation_config(env, n_events)
        results = run_grid(
            cfg, _subset(["QZ", "QZ-AVG", "QZ-FCFS", "QZ-LCFS"]), seeds, jobs=jobs
        )
        _note_failures(result, results)
        result.rows.extend(_grid_rows(results, env.name))
        for baseline in ("QZ-AVG", "QZ-FCFS", "QZ-LCFS"):
            _ratio_note(result, results, env.name, baseline)
    return result


# ---------------------------------------------------------------------------
# Figure 13 — MSP430 versatility study.
# ---------------------------------------------------------------------------


def fig13_msp430(
    n_events: int = DEFAULT_EVENTS,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    jobs: int | None = 1,
) -> FigureResult:
    """The full policy grid on the MSP430FR5994 (int16/int8 LeNet app)."""
    result = FigureResult(
        "Figure 13",
        "Quetzal and baselines on the MSP430 microcontroller",
    )
    cfg = msp430_simulation_config(n_events)
    grid = _subset(["QZ", "NA", "AD", "CN", "PZO", "PZI", "TH25", "TH50", "TH75"])
    results = run_grid(cfg, grid, seeds, jobs=jobs)
    _note_failures(result, results)
    rows = _grid_rows(results, "MSP430")
    for row, agg in zip(rows, results.values()):
        row["uninteresting pkts"] = agg.packets_uninteresting
    result.rows = rows
    _ratio_note(result, results, "MSP430", "NA")
    best_hq = max(
        (agg for name, agg in results.items() if name != "QZ"),
        key=lambda a: a.reported_hq,
    )
    if best_hq.reported_hq > 0:
        result.add_note(
            "QZ sends "
            f"{100 * (results['QZ'].reported_hq / best_hq.reported_hq - 1):.0f}% "
            f"more high-quality interesting inputs than the best baseline "
            f"({best_hq.policy})"
        )
    return result


# ---------------------------------------------------------------------------
# Figure 14 — sensitivity to system parameters.
# ---------------------------------------------------------------------------


def fig14_sensitivity(
    n_events: int = DEFAULT_EVENTS,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    cells: Sequence[int] = (2, 4, 6, 8, 10),
    arrival_windows: Sequence[int] = (32, 64, 128, 256, 512, 1024),
    task_windows: Sequence[int] = (8, 16, 32, 64, 128, 256),
    jobs: int | None = 1,
) -> FigureResult:
    """Quetzal vs harvester cells, <arrival-window>, and <task-window>.

    Vertical-dashed-line defaults in the paper: 6 cells, 256, 64.
    """
    result = FigureResult(
        "Figure 14",
        "Sensitivity to harvester cells and tracker windows (More Crowded)",
    )
    base = apollo_simulation_config("more crowded", n_events)

    def record(parameter: str, value, factory) -> None:
        cfg = base
        if parameter == "harvester cells":
            cfg = ExperimentConfig(**{**base.__dict__, "cells": int(value)})
        name = f"{parameter}={value}"
        results = run_grid(cfg, {name: factory}, seeds, jobs=jobs)
        _note_failures(result, results)
        agg = results[name]
        result.rows.append(
            {
                "parameter": parameter,
                "value": value,
                "discarded %": 100 * agg.discarded_fraction,
                "hq pkts": agg.reported_hq,
                "hq share %": 100 * agg.high_quality_fraction,
            }
        )

    for n in cells:
        record("harvester cells", n, quetzal_factory())
    for w in arrival_windows:
        record("arrival-window", w, quetzal_factory(arrival_window=w))
    for w in task_windows:
        record("task-window", w, quetzal_factory(task_window=w))
    result.add_note("Paper defaults: 6 cells, <arrival-window>=256, <task-window>=64")
    return result


# ---------------------------------------------------------------------------
# Table 1 — experiment details.
# ---------------------------------------------------------------------------


def table1_configurations() -> FigureResult:
    """The resolved experiment configurations (paper Table 1)."""
    result = FigureResult("Table 1", "Experiment details")
    for cfg, events in (
        (hardware_experiment_config(), 100),
        (apollo_simulation_config("more crowded"), 1000),
        (msp430_simulation_config(), 1000),
    ):
        app = cfg.build_app()
        ml = app.jobs.job("detect").degradable_task
        radio = app.jobs.job("transmit").degradable_task
        result.rows.append(
            {
                "config": cfg.name,
                "mcu": cfg.mcu.name,
                "buffer (imgs)": cfg.buffer_capacity,
                "capture rate": f"{1 / cfg.capture_period_s:g} FPS",
                "max interesting dur (s)": cfg.environment.max_interesting_duration_s,
                "paper events": events,
                "high-Q ML": ml.options[0].name,
                "low-Q ML": ml.options[-1].name,
                "high-Q radio": radio.options[0].name,
                "low-Q radio": radio.options[-1].name,
            }
        )
    result.add_note(
        "Quetzal params: <task-window>=64, <arrival-window>=256, "
        "PID Kp=5e-6 Ki=1e-6 Kd=1 (Table 1)"
    )
    return result


# ---------------------------------------------------------------------------
# Section 5.1 — hardware-module costs and overheads.
# ---------------------------------------------------------------------------


def section51_hardware_costs() -> FigureResult:
    """Ratio error, per-ratio energy savings, CPU overheads, footprint."""
    result = FigureResult(
        "Section 5.1",
        "Power-measurement module: costs and overheads",
    )
    worst_error = max(
        abs(exponent_coefficient_error(t)) for t in range(25, 51)
    )
    result.rows.append(
        {
            "quantity": "max exponent-coefficient error, 25-50 C",
            "measured": f"{100 * worst_error:.1f}%",
            "paper": "<= 5.5%",
        }
    )
    for mcu in (MSP430FR5994, APOLLO4):
        result.rows.append(
            {
                "quantity": f"per-ratio energy saving ({mcu.name})",
                "measured": f"{100 * ratio_energy_saving(mcu):.1f}%",
                "paper": "92.5%" if mcu is MSP430FR5994 else "62%",
            }
        )
    for mcu, use_module, paper in (
        (MSP430FR5994, False, "6.2%"),
        (MSP430FR5994, True, "0.4%"),
        (APOLLO4, True, "0.02%"),
    ):
        overhead = scheduler_overhead_fraction(mcu, use_module=use_module)
        label = "module" if use_module else "division"
        result.rows.append(
            {
                "quantity": f"scheduler CPU overhead ({mcu.name}, {label})",
                "measured": f"{100 * overhead:.2f}%",
                "paper": paper,
            }
        )
    layout = quetzal_memory_layout()
    result.rows.append(
        {
            "quantity": "library memory footprint (32 tasks x 4 options)",
            "measured": f"{layout.total_bytes} bytes",
            "paper": "2,360 bytes",
        }
    )
    return result


# ---------------------------------------------------------------------------
# Everything.
# ---------------------------------------------------------------------------


def run_all(
    n_events: int = DEFAULT_EVENTS,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    jobs: int | None = 1,
) -> list[FigureResult]:
    """Regenerate every table and figure; returns results in paper order."""
    fig11a, fig11c = fig11_vs_fixed_thresholds(n_events, seeds, jobs=jobs)
    return [
        fig2a_processing_rate_dynamics(min(n_events, 60)),
        fig2b_capture_rate_sweep(n_events, seeds, jobs=jobs),
        fig3_naive_solutions(n_events, seeds, jobs=jobs),
        fig8_hardware_experiment(min(n_events, 100), seeds, jobs=jobs),
        fig9_vs_nonadaptive(n_events, seeds, jobs=jobs),
        fig10_vs_prior_work(n_events, seeds, jobs=jobs),
        fig11a,
        fig11c,
        fig12_scheduler_ablation(n_events, seeds, jobs=jobs),
        fig13_msp430(n_events, seeds, jobs=jobs),
        fig14_sensitivity(n_events, seeds, jobs=jobs),
        table1_configurations(),
        section51_hardware_costs(),
    ]
