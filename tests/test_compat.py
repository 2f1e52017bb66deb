"""Keyword-only config constructors; variants come from dataclasses.replace."""

import dataclasses

import pytest

from repro.env.activity import environment_by_name
from repro.experiments.configs import ExperimentConfig
from repro.fleet.spec import FleetSpec
from repro.serve.server import ServeConfig
from repro.sim.engine import SimulationConfig


class TestKeywordOnlyConfigs:
    def test_keyword_construction_is_silent(self, recwarn):
        SimulationConfig(seed=3)
        ExperimentConfig(name="x", environment=environment_by_name("crowded"))
        assert not [w for w in recwarn if w.category is DeprecationWarning]

    @pytest.mark.parametrize(
        "cls", [SimulationConfig, ExperimentConfig, FleetSpec, ServeConfig],
        ids=lambda cls: cls.__name__,
    )
    def test_positional_construction_raises(self, cls):
        with pytest.raises(TypeError, match="positional"):
            cls(1)

    def test_replace_derives_variant(self):
        base = SimulationConfig(seed=3)
        variant = dataclasses.replace(base, seed=4)
        assert variant.seed == 4
        assert base.seed == 3
        assert type(variant) is SimulationConfig

    def test_replace_on_experiment_config(self):
        base = ExperimentConfig(name="grid", n_events=5,
                                environment=environment_by_name("crowded"))
        variant = dataclasses.replace(base, n_events=9)
        assert variant.n_events == 9
        assert variant.name == "grid"

    def test_replace_rejects_unknown_field(self):
        with pytest.raises(TypeError):
            dataclasses.replace(SimulationConfig(seed=1), not_a_field=2)
