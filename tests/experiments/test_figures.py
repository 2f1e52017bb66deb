"""Smoke and shape tests for every figure runner.

Each runner executes at a tiny scale (few events, one seed) to verify it
produces well-formed rows.  The paper's orderings are gated at the
documented scale in ``tests/test_paper_claims.py``.
"""

import json

import pytest

from repro.experiments import figures
from repro.experiments.__main__ import RUNNERS
from repro.experiments.runner import clear_run_memo
from repro.sim.engine import SimulationEngine

TINY = dict(n_events=8, seeds=(0,))


class TestSmoke:
    def test_fig2a(self):
        result = figures.fig2a_processing_rate_dynamics(n_events=10, window_s=60.0)
        assert result.rows
        assert "processing rate (jobs/s)" in result.rows[0]
        assert all(row["mean power (mW)"] >= 0 for row in result.rows)

    def test_fig2b(self):
        result = figures.fig2b_capture_rate_sweep(periods_s=(1, 5), **TINY)
        assert len(result.rows) == 2
        assert result.rows[0]["capture period (s)"] == 1

    def test_fig3(self):
        result = figures.fig3_naive_solutions(**TINY)
        policies = {row["policy"] for row in result.rows}
        assert {"QZ", "NA", "AD", "CN", "PZO", "Ideal"} == policies

    def test_fig8(self):
        result = figures.fig8_hardware_experiment(n_events=8, seeds=(0,))
        assert len(result.rows) == 4  # 2 envs x 2 policies
        assert {row["environment"] for row in result.rows} == {
            "More Crowded", "Crowded",
        }

    def test_fig9(self):
        result = figures.fig9_vs_nonadaptive(**TINY)
        assert len(result.rows) == 12  # 3 envs x 4 systems
        assert all("reported / ideal %" in row for row in result.rows)

    def test_fig9_with_no_ideal_reports(self):
        # At 4 events seed 4 the infinite-memory baseline reports nothing
        # in some environment; its notes must not divide by that zero.
        result = figures.fig9_vs_nonadaptive(n_events=4, seeds=(4,))
        assert any(row["reported / ideal %"] == 0.0 for row in result.rows)
        assert any("0% of the infinite-memory baseline" in n for n in result.notes)

    def test_fig10(self):
        result = figures.fig10_vs_prior_work(**TINY)
        assert len(result.rows) == 12

    def test_fig11(self):
        highlighted, sweep = figures.fig11_vs_fixed_thresholds(
            sweep=(0.25, 0.75), **TINY
        )
        assert len(highlighted.rows) == 12
        assert len(sweep.rows) == 6

    def test_fig12(self):
        result = figures.fig12_scheduler_ablation(**TINY)
        assert len(result.rows) == 12

    def test_fig13(self):
        result = figures.fig13_msp430(**TINY)
        assert len(result.rows) == 9
        assert all("uninteresting pkts" in row for row in result.rows)

    def test_fig14(self):
        result = figures.fig14_sensitivity(
            cells=(4, 6), arrival_windows=(64,), task_windows=(64,), **TINY
        )
        assert len(result.rows) == 4
        parameters = {row["parameter"] for row in result.rows}
        assert parameters == {"harvester cells", "arrival-window", "task-window"}

    def test_table1(self):
        result = figures.table1_configurations()
        assert len(result.rows) == 3
        assert result.rows[0]["capture rate"] == "1 FPS"

    def test_section51(self):
        result = figures.section51_hardware_costs()
        quantities = [row["quantity"] for row in result.rows]
        assert any("5.5" in row["paper"] for row in result.rows)
        assert any("footprint" in q for q in quantities)


@pytest.mark.slow
class TestShape:
    """Figure 14's cells trend with no slack: fewer cells never discard less
    (``tests/test_paper_claims.py`` allows one point at 80 events)."""

    def test_fig14_fewer_cells_hurt(self):
        result = figures.fig14_sensitivity(
            n_events=60, seeds=(0,), cells=(2, 10),
            arrival_windows=(), task_windows=(),
        )
        two, ten = result.rows
        assert two["discarded %"] >= ten["discarded %"]


class TestRunMemoFigureSet:
    def test_warm_regeneration_is_byte_identical_without_simulating(
        self, monkeypatch
    ):
        """The whole figure set, cold then warm in reverse order, same bytes.

        Figure 2a drives its telemetry engine directly rather than through
        the runner, so it is the one figure that simulates again when warm.
        """
        runs, current = [], [None]
        real_run = SimulationEngine.run

        def counted(self, *args, **kwargs):
            runs.append(current[0])
            return real_run(self, *args, **kwargs)

        monkeypatch.setattr(SimulationEngine, "run", counted)

        def regenerate(names):
            out = {}
            for name in names:
                current[0] = name
                results = RUNNERS[name](4, (0,), 1)
                out[name] = json.dumps([r.to_dict() for r in results], sort_keys=True)
            return out

        clear_run_memo()
        cold = regenerate(list(RUNNERS))
        cold_runs = len(runs)
        runs.clear()
        warm = regenerate(list(reversed(RUNNERS)))
        assert warm == cold
        assert cold_runs > 1
        assert runs == ["Figure 2a"]
