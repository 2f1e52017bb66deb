"""The paper's figure claims, gated at the scale EXPERIMENTS.md documents.

One module-scoped pass regenerates the figure set in one process: 80
events per run averaged over seeds 0 and 1, with Figure 8 at the hardware
rig's 100 events and Figure 2a at 40.  The run memo is cleared once before
the pass, so runs that several figures share (Figure 9's Crowded runs
repeat Figure 3's, for example) simulate once.  Each test then asserts one
of the paper's orderings or approximate factors on the rows.  The absolute
percentages are synthetic (see EXPERIMENTS.md); the orderings are the
claim.
"""

from __future__ import annotations

import pytest

from repro.core.runtime import QuetzalRuntime
from repro.core.service_time import ExactServiceTimeEstimator
from repro.experiments import extensions, figures
from repro.experiments.configs import apollo_simulation_config
from repro.experiments.harness import run_grid
from repro.experiments.runner import clear_run_memo

EVENTS = 80
SEEDS = (0, 1)

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def figs():
    """Every figure of the evaluation, keyed by its number."""
    clear_run_memo()
    fig11a, fig11c = figures.fig11_vs_fixed_thresholds(EVENTS, SEEDS)
    return {
        "2a": figures.fig2a_processing_rate_dynamics(n_events=40),
        "2b": figures.fig2b_capture_rate_sweep(EVENTS, SEEDS),
        "3": figures.fig3_naive_solutions(EVENTS, SEEDS),
        "8": figures.fig8_hardware_experiment(100, SEEDS),
        "9": figures.fig9_vs_nonadaptive(EVENTS, SEEDS),
        "10": figures.fig10_vs_prior_work(EVENTS, SEEDS),
        "11a": fig11a,
        "11c": fig11c,
        "12": figures.fig12_scheduler_ablation(EVENTS, SEEDS),
        "13": figures.fig13_msp430(EVENTS, SEEDS),
        "14": figures.fig14_sensitivity(EVENTS, SEEDS),
        "table1": figures.table1_configurations(),
        "5.1": figures.section51_hardware_costs(),
        "buffer": extensions.buffer_capacity_study(n_events=EVENTS, seeds=SEEDS),
        "supercap": extensions.supercap_size_study(n_events=EVENTS, seeds=SEEDS),
        "pid": extensions.pid_gain_study(n_events=EVENTS, seeds=SEEDS),
    }


def by_policy(result):
    return {row["policy"]: row for row in result.rows}


def by_env(result):
    """environment -> policy -> row."""
    envs: dict = {}
    for row in result.rows:
        envs.setdefault(row["environment"], {})[row["policy"]] = row
    return envs


class TestMotivation:
    def test_fig2a_processing_rate_varies(self, figs):
        # The motivating observation: processing rate is not constant, it
        # varies substantially across power/activity windows.
        rates = [row["processing rate (jobs/s)"] for row in figs["2a"].rows]
        assert len(rates) >= 3
        assert max(rates) > 1.5 * max(min(rates), 1e-9)

    def test_fig2b_longer_periods_capture_less(self, figs):
        captured = [row["interesting captured"] for row in figs["2b"].rows]
        assert captured[0] > captured[-1]

    def test_fig2b_missed_fraction_never_zero(self, figs):
        rows = figs["2b"].rows
        assert all(row["total missed % of 1s baseline"] > 0 for row in rows)

    def test_fig3_quetzal_beats_naive_systems(self, figs):
        rows = by_policy(figs["3"])
        for baseline in ("NA", "CN", "PZO"):
            assert rows["QZ"]["discarded %"] < rows[baseline]["discarded %"], baseline

    def test_fig3_ideal_loses_only_to_false_negatives(self, figs):
        assert by_policy(figs["3"])["Ideal"]["ibo %"] == 0.0


class TestEvaluation:
    def test_fig8_quetzal_beats_noadapt(self, figs):
        # Paper: QZ discards 6.4x / 5x fewer interesting inputs.
        for env, rows in by_env(figs["8"]).items():
            assert rows["QZ"]["discarded %"] < rows["NA"]["discarded %"], env

    def test_fig9_quetzal_beats_noadapt_everywhere(self, figs):
        # Paper: QZ discards 2.9x / 3.5x / 4.2x fewer than NA.
        for env, rows in by_env(figs["9"]).items():
            assert rows["QZ"]["discarded %"] < rows["NA"]["discarded %"], env

    def test_fig9_packet_quality_of_fixed_systems(self, figs):
        for env, rows in by_env(figs["9"]).items():
            assert rows["AD"]["hq pkts"] == 0.0, env
            assert rows["NA"]["lq pkts"] == 0.0, env

    def test_fig9_quetzal_reports_most_of_ideal(self, figs):
        # Paper: QZ reports 92 / 96 / 98 % of the infinite-memory baseline.
        for env, rows in by_env(figs["9"]).items():
            assert rows["QZ"]["reported / ideal %"] > 60.0, env

    def test_fig10_quetzal_beats_catnap_everywhere(self, figs):
        # CatNap adapts too late: strictly more discards than QZ.
        for env, rows in by_env(figs["10"]).items():
            assert rows["QZ"]["discarded %"] < rows["CN"]["discarded %"], env

    def test_fig10_power_thresholds_degrade_more(self, figs):
        for env, rows in by_env(figs["10"]).items():
            assert rows["PZO"]["hq share %"] <= rows["QZ"]["hq share %"], env

    def test_fig11_geomean_note_per_environment(self, figs):
        assert len(figs["11a"].notes) == 3

    def test_fig11c_quetzal_beats_best_threshold(self, figs):
        # Figure 11c; small-scale noise allows one environment to tie.
        envs: dict = {}
        for row in figs["11c"].rows:
            envs.setdefault(row["environment"], []).append(row)
        wins = sum(
            rows[0]["QZ discarded %"] <= min(row["discarded %"] for row in rows)
            for rows in envs.values()
        )
        assert wins >= 2

    @pytest.mark.parametrize("baseline", ["QZ-LCFS", "QZ-AVG"])
    def test_fig12_energy_aware_sjf_wins(self, figs, baseline):
        # Our margins are smaller than the paper's (EXPERIMENTS.md), so
        # EASJF must win (within 0.5 points) in 2 of 3 environments.
        wins = sum(
            rows["QZ"]["discarded %"] <= rows[baseline]["discarded %"] + 0.5
            for rows in by_env(figs["12"]).values()
        )
        assert wins >= 2

    def test_fig13_quetzal_beats_baselines_on_msp430(self, figs):
        # Paper: QZ discards 2.8x fewer interesting inputs than NA.
        rows = by_policy(figs["13"])
        for baseline in ("NA", "CN", "TH25", "TH50"):
            assert rows["QZ"]["discarded %"] < rows[baseline]["discarded %"], baseline
        assert rows["AD"]["hq pkts"] == 0.0

    def test_fig14_more_cells_report_better(self, figs):
        cells = [row for row in figs["14"].rows if row["parameter"] == "harvester cells"]
        assert cells[-1]["hq pkts"] >= cells[0]["hq pkts"]
        assert cells[0]["discarded %"] >= cells[-1]["discarded %"] - 1.0
        assert {row["parameter"] for row in figs["14"].rows} == {
            "harvester cells", "arrival-window", "task-window",
        }

    def test_table1_configurations(self, figs):
        rows = {row["config"]: row for row in figs["table1"].rows}
        assert rows["msp430"]["mcu"] == "MSP430FR5994"
        assert all(row["buffer (imgs)"] == 10 for row in rows.values())
        assert all(row["capture rate"] == "1 FPS" for row in rows.values())
        assert rows["apollo-more-crowded"]["max interesting dur (s)"] == 600.0

    def test_section51_ratio_error_bound(self, figs):
        rows = {row["quantity"]: row for row in figs["5.1"].rows}
        error = rows["max exponent-coefficient error, 25-50 C"]["measured"]
        assert float(error.rstrip("%")) <= 5.5


class TestExtensions:
    def test_buffer_capacity(self, figs):
        rows = figs["buffer"].rows
        na = [row for row in rows if row["policy"] == "NA"]
        qz = [row for row in rows if row["policy"] == "QZ"]
        # NoAdapt's IBO losses shrink with capacity; QZ keeps its advantage.
        assert na[-1]["ibo %"] <= na[0]["ibo %"]
        wins = sum(q["discarded %"] < n["discarded %"] for q, n in zip(qz, na))
        assert wins >= len(qz) - 1

    def test_bigger_supercaps_fail_less(self, figs):
        failures = [row["power failures"] for row in figs["supercap"].rows]
        assert failures[-1] <= failures[0]

    def test_pid_gains_are_robust(self, figs):
        discards = [row["discarded %"] for row in figs["pid"].rows]
        assert max(discards) < 3 * max(min(discards), 1e-9)

    def test_quantised_estimator_is_affordable(self):
        # The circuit's <= 5.5 % exponent error costs little against an
        # exact floating-point Eq. 1.
        results = run_grid(apollo_simulation_config("crowded", EVENTS), {
            "full": QuetzalRuntime,
            "exact": lambda: QuetzalRuntime(
                estimator=ExactServiceTimeEstimator(), name="quetzal-exact"
            ),
        }, SEEDS)
        full, exact = results["full"], results["exact"]
        assert full.discarded_fraction <= exact.discarded_fraction * 1.6 + 0.02
