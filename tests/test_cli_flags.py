"""The shared CLI flag contract (:mod:`repro.cli`).

``python -m repro.experiments``, ``python -m repro.fleet``, and
``python -m repro.serve`` must accept the identical core execution flag
set — :data:`repro.cli.CORE_FLAGS` — with the same types and defaults.
These flags drifted apart once (three hand-rolled ``--jobs`` copies);
this test makes the drift a failure instead of a code review hazard.
"""

import argparse

import pytest

from repro.cli import CORE_FLAGS, add_core_flags, jobs_from_args

import repro.experiments.__main__ as experiments_main
import repro.fleet.__main__ as fleet_main
import repro.serve.__main__ as serve_main
import repro.trace.__main__ as trace_main
from repro.trace.store import TraceStore

PARSERS = {
    "experiments": experiments_main.build_parser,
    "fleet": fleet_main.build_parser,
    "serve": serve_main.build_parser,
}


def option_strings(parser: argparse.ArgumentParser) -> set:
    return {opt for action in parser._actions for opt in action.option_strings}


def action_for(parser: argparse.ArgumentParser, flag: str) -> argparse.Action:
    for action in parser._actions:
        if flag in action.option_strings:
            return action
    raise AssertionError(f"{flag} not found")


class TestCoreFlagUniformity:
    @pytest.mark.parametrize("name", sorted(PARSERS))
    def test_parser_accepts_every_core_flag(self, name):
        missing = CORE_FLAGS - option_strings(PARSERS[name]())
        assert not missing, f"{name} CLI is missing core flags: {sorted(missing)}"

    @pytest.mark.parametrize("flag", sorted(CORE_FLAGS))
    def test_flag_semantics_match_across_parsers(self, flag):
        actions = {name: action_for(build(), flag)
                   for name, build in PARSERS.items()}
        kinds = {name: type(a).__name__ for name, a in actions.items()}
        assert len(set(kinds.values())) == 1, kinds
        defaults = {name: a.default for name, a in actions.items()}
        assert len({repr(d) for d in defaults.values()}) == 1, defaults
        choices = {name: a.choices for name, a in actions.items()}
        assert len({repr(c) for c in choices.values()}) == 1, choices

    def test_kernel_choices_are_the_shared_triple(self):
        for name, build in PARSERS.items():
            assert tuple(action_for(build(), "--kernel").choices) == \
                ("auto", "scalar", "vector"), name


class TestJobsResolution:
    def _parser(self):
        parser = argparse.ArgumentParser()
        add_core_flags(parser)
        return parser

    def test_default_is_serial(self):
        parser = self._parser()
        args = parser.parse_args([])
        assert jobs_from_args(args, parser) == 1

    def test_profile_forces_serial(self):
        parser = self._parser()
        args = parser.parse_args(["--jobs", "8", "--profile"])
        assert jobs_from_args(args, parser) == 1

    def test_negative_jobs_is_an_argparse_error(self):
        parser = self._parser()
        args = parser.parse_args(["--jobs", "-2"])
        with pytest.raises(SystemExit):
            jobs_from_args(args, parser)


class TestPerCliWiring:
    def test_experiments_rejects_vector_kernel(self, capsys):
        with pytest.raises(SystemExit):
            experiments_main.main(["--kernel", "vector"])
        assert "scalar" in capsys.readouterr().err

    def test_fleet_accepts_vector_kernel(self, tmp_path, capsys):
        assert fleet_main.main([
            "--devices", "4", "--events", "10", "--kernel", "vector", "--quiet",
        ]) == 0


class TestFleetSpecFlags:
    """``python -m repro.fleet`` and ``python -m repro.trace store build``
    read the fleet-shaping flags through one helper."""

    ARGV = [
        "--devices", "12", "--seed", "7", "--name", "probe", "--events", "9",
        "--policies", "QZ,NA", "--environments", "crowded,less crowded",
        "--mcus", "apollo4,msp430", "--cells", "4,8", "--buffer", "0",
    ]

    def test_both_clis_build_the_same_spec(self, tmp_path, monkeypatch):
        parser = fleet_main.build_parser()
        fleet_spec = fleet_main._spec_from_args(parser.parse_args(self.ARGV), parser)
        assert fleet_spec.cells == (4, 8)
        assert fleet_spec.buffer_capacity is None

        built = []

        def capture(store, spec, **kwargs):
            built.append(spec)
            return {"traces": 0, "schedules": 0, "reused": 0}

        monkeypatch.setattr(TraceStore, "build_for_spec", capture)
        argv = ["store", "build", str(tmp_path / "store"), *self.ARGV, "--quiet"]
        assert trace_main.main(argv) == 0
        assert built == [fleet_spec]
        assert built[0].to_json() == fleet_spec.to_json()
