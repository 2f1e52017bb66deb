"""The versioned FleetSpec wire codec (to_json/from_json, schema v1).

The golden file ``data/fleetspec_v1.json`` pins the on-disk byte format:
if the codec ever changes what it writes for the same spec, these tests
fail and force an explicit ``SPEC_SCHEMA_VERSION`` decision.  The serve
protocol, the fleet CLI's ``--spec``, and the checkpoint manifest all
ride on this one codec.
"""

import json
import os

import pytest

from repro.errors import ConfigurationError
from repro.fleet.spec import SPEC_SCHEMA_VERSION, FleetSpec

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "fleetspec_v1.json")

GOLDEN_SPEC = FleetSpec(
    devices=100, seed=7, name="golden", n_events=40,
    policies=("QZ", "NA", "TH50"),
    environments=("crowded", "less crowded"),
    mcus=("apollo4", "msp430"),
    cells=(4, 8),
    buffer_capacity=10,
)


class TestWireCodec:
    def test_schema_version_is_one(self):
        assert SPEC_SCHEMA_VERSION == 1

    def test_to_wire_carries_version_plus_fields(self):
        wire = GOLDEN_SPEC.to_wire()
        assert wire["schema_version"] == SPEC_SCHEMA_VERSION
        without = dict(wire)
        del without["schema_version"]
        assert without == GOLDEN_SPEC.to_dict()

    def test_round_trip_json(self):
        assert FleetSpec.from_json(GOLDEN_SPEC.to_json()) == GOLDEN_SPEC

    def test_round_trip_wire(self):
        assert FleetSpec.from_wire(GOLDEN_SPEC.to_wire()) == GOLDEN_SPEC

    def test_json_bytes_are_deterministic(self):
        assert GOLDEN_SPEC.to_json() == GOLDEN_SPEC.to_json()
        # Sorted keys: the encoding is canonical, not dict-order-dependent.
        lines = [l.strip().split(":")[0] for l in GOLDEN_SPEC.to_json().splitlines()
                 if ":" in l]
        assert lines == sorted(lines)

    def test_fingerprint_ignores_schema_version(self):
        # Identity is over the fields alone, so a schema bump does not
        # orphan caches and checkpoint journals.
        by_fields = GOLDEN_SPEC.fingerprint()
        assert FleetSpec.from_wire(GOLDEN_SPEC.to_wire()).fingerprint() == by_fields


class TestGoldenFile:
    def test_golden_file_parses_to_the_golden_spec(self):
        with open(GOLDEN) as handle:
            assert FleetSpec.from_json(handle.read()) == GOLDEN_SPEC

    def test_codec_still_writes_the_golden_bytes(self):
        with open(GOLDEN) as handle:
            assert handle.read() == GOLDEN_SPEC.to_json()

    def test_golden_file_declares_v1(self):
        with open(GOLDEN) as handle:
            assert json.load(handle)["schema_version"] == 1


class TestRejection:
    def test_missing_schema_version(self):
        payload = GOLDEN_SPEC.to_wire()
        del payload["schema_version"]
        with pytest.raises(ConfigurationError, match="schema_version"):
            FleetSpec.from_wire(payload)

    def test_foreign_schema_version(self):
        payload = GOLDEN_SPEC.to_wire()
        payload["schema_version"] = 99
        with pytest.raises(ConfigurationError, match="99"):
            FleetSpec.from_wire(payload)

    def test_unknown_key_rejected(self):
        payload = GOLDEN_SPEC.to_wire()
        payload["sneaky_extra"] = 1
        with pytest.raises(ConfigurationError, match="sneaky_extra"):
            FleetSpec.from_wire(payload)

    def test_not_json(self):
        with pytest.raises(ConfigurationError, match="unreadable"):
            FleetSpec.from_json("{nope")

    def test_not_an_object(self):
        with pytest.raises(ConfigurationError, match="mapping"):
            FleetSpec.from_json("[1, 2]")

    def test_from_dict_rejects_unknown_keys_too(self):
        with pytest.raises(ConfigurationError, match="bogus"):
            FleetSpec.from_dict({**GOLDEN_SPEC.to_dict(), "bogus": 0})


class TestConsumers:
    """One codec everywhere: CLI --spec and the checkpoint manifest."""

    def test_cli_spec_flag_loads_wire_file(self, tmp_path, capsys):
        from repro.fleet.__main__ import main

        spec = FleetSpec(devices=4, seed=1, name="wire-cli", n_events=10)
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        out = tmp_path / "rollup.json"
        assert main(["--spec", str(path), "--json", str(out), "--quiet"]) == 0
        direct = tmp_path / "direct.json"
        assert main([
            "--devices", "4", "--seed", "1", "--name", "wire-cli",
            "--events", "10", "--json", str(direct), "--quiet",
        ]) == 0
        assert out.read_bytes() == direct.read_bytes()

    def test_cli_spec_and_devices_conflict(self, tmp_path, capsys):
        from repro.fleet.__main__ import main

        path = tmp_path / "spec.json"
        path.write_text(GOLDEN_SPEC.to_json())
        with pytest.raises(SystemExit):
            main(["--spec", str(path), "--devices", "4"])

    def test_cli_rejects_foreign_version_spec(self, tmp_path, capsys):
        from repro.fleet.__main__ import main

        payload = GOLDEN_SPEC.to_wire()
        payload["schema_version"] = 99
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        assert main(["--spec", str(path), "--quiet"]) == 2
        assert "99" in capsys.readouterr().err

    def test_checkpoint_manifest_uses_wire_encoding(self, tmp_path):
        from repro.fleet.checkpoint import FleetCheckpoint

        spec = FleetSpec(devices=4, seed=1, name="wire-ckpt", n_events=10)
        journal = FleetCheckpoint(str(tmp_path / "ckpt"), spec, shards=2)
        journal.initialize(resume=False)
        with open(tmp_path / "ckpt" / "manifest.json") as handle:
            written = handle.read()
        manifest = json.loads(written)
        assert FleetSpec.from_wire(manifest["spec"]) == spec
        # Byte-identical to what json.dump with the same arguments writes.
        expected = tmp_path / "expected.json"
        with open(expected, "w") as handle:
            json.dump(manifest, handle, sort_keys=True)
        assert written == expected.read_text()
