"""Tests of the top-level public API surface."""

import importlib

import pytest

import repro


class TestExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_key_entry_points(self):
        assert callable(repro.simulate)
        assert callable(repro.build_apollo_app)
        assert callable(repro.build_msp430_app)
        assert repro.QuetzalRuntime is not None

    def test_policies_lazy_reexport(self):
        from repro import policies

        assert policies.QuetzalRuntime is repro.QuetzalRuntime
        with pytest.raises(AttributeError):
            policies.DoesNotExist  # noqa: B018

    def test_subpackages_importable(self):
        for module in (
            "repro.core",
            "repro.core.analysis",
            "repro.device",
            "repro.env",
            "repro.hardware",
            "repro.policies",
            "repro.sim",
            "repro.trace",
            "repro.workload",
            "repro.workload.variability",
            "repro.experiments",
            "repro.experiments.figures",
        ):
            importlib.import_module(module)

    def test_docstring_quickstart_runs(self):
        """The README/package docstring example must actually work."""
        from repro import (
            QuetzalRuntime,
            SimulationConfig,
            SolarTraceGenerator,
            build_apollo_app,
            environment_by_name,
            simulate,
        )

        app = build_apollo_app()
        trace = SolarTraceGenerator(seed=1).generate()
        schedule = environment_by_name("crowded").schedule(n_events=5, seed=2)
        metrics = simulate(
            app, QuetzalRuntime(), trace, schedule, config=SimulationConfig(seed=3)
        )
        assert 0.0 <= metrics.interesting_discarded_fraction <= 1.0


class TestExperimentsCLI:
    def test_main_single_figure(self, capsys):
        from repro.experiments.__main__ import main

        rc = main(["--events", "5", "--seeds", "1", "--figure", "Table"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Table 1" in out
        assert "MSP430FR5994" in out

    def test_main_section51(self, capsys):
        from repro.experiments.__main__ import main

        rc = main(["--figure", "5.1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "exponent-coefficient" in out

    def test_main_unknown_figure(self, capsys):
        from repro.experiments.__main__ import main

        rc = main(["--figure", "Figure 99"])
        assert rc == 1
