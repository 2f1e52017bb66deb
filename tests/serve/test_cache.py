"""ResultCache unit behavior: addressing, atomicity, accounting."""

import json
import os

import pytest

from repro.errors import ConfigurationError
from repro.fleet.spec import FleetSpec
from repro.serve.cache import CACHE_VERSION, ResultCache, canonical_rollup_json

SPEC = FleetSpec(devices=4, seed=5, name="cache-unit", n_events=10)
ROLLUP = {"devices": 4, "failures": 0, "payload": [1, 2, 3]}


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.get(SPEC.fingerprint()) is None
        fingerprint = cache.put(SPEC, ROLLUP)
        assert fingerprint == SPEC.fingerprint()
        assert cache.get(fingerprint) == ROLLUP
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}

    def test_entry_is_self_describing(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(SPEC, ROLLUP)
        assert cache.peek_spec(SPEC.fingerprint()) == SPEC

    def test_entry_bytes_match_json_dump(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        cache.put(SPEC, ROLLUP)
        with open(cache._path(SPEC.fingerprint())) as handle:
            written = handle.read()
        expected = tmp_path / "expected.json"
        with open(expected, "w") as handle:
            json.dump(json.loads(written), handle, sort_keys=True)
        assert written == expected.read_text()

    def test_reopen_sees_entries(self, tmp_path):
        ResultCache(str(tmp_path)).put(SPEC, ROLLUP)
        cache = ResultCache(str(tmp_path))
        assert cache.get(SPEC.fingerprint()) == ROLLUP

    @pytest.mark.parametrize(
        "payload", [b"{torn write", b"\xff\xfe\x00", b"[1]"],
        ids=["torn", "non-utf8", "non-object"],
    )
    def test_corrupt_entry_reads_as_miss(self, tmp_path, payload):
        cache = ResultCache(str(tmp_path))
        fingerprint = cache.put(SPEC, ROLLUP)
        path = os.path.join(str(tmp_path), f"{fingerprint}.json")
        with open(path, "wb") as handle:
            handle.write(payload)
        assert cache.get(fingerprint) is None

    def test_foreign_cache_version_reads_as_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        fingerprint = cache.put(SPEC, ROLLUP)
        path = os.path.join(str(tmp_path), f"{fingerprint}.json")
        with open(path) as handle:
            entry = json.load(handle)
        entry["cache_version"] = CACHE_VERSION + 1
        with open(path, "w") as handle:
            json.dump(entry, handle)
        assert cache.get(fingerprint) is None

    def test_fingerprint_mismatch_reads_as_miss(self, tmp_path):
        # An entry renamed onto the wrong address must not serve.
        cache = ResultCache(str(tmp_path))
        fingerprint = cache.put(SPEC, ROLLUP)
        other = "0" * 64
        os.rename(
            os.path.join(str(tmp_path), f"{fingerprint}.json"),
            os.path.join(str(tmp_path), f"{other}.json"),
        )
        assert cache.get(other) is None

    def test_malformed_fingerprint_rejected(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        for bad in ("", "../escape", ".hidden"):
            with pytest.raises(ConfigurationError, match="fingerprint"):
                cache.get(bad)

    def test_no_tmp_droppings_after_put(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(SPEC, ROLLUP)
        assert [n for n in os.listdir(str(tmp_path)) if n.endswith(".tmp")] == []


class TestCanonicalBytes:
    def test_matches_cli_json_convention(self):
        # json.dumps(..., sort_keys=True): exactly what --json writes.
        assert canonical_rollup_json({"b": 1, "a": 2}) == '{"a": 2, "b": 1}'

    def test_round_trip_through_cache_preserves_bytes(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(SPEC, ROLLUP)
        served = cache.get(SPEC.fingerprint())
        assert canonical_rollup_json(served) == canonical_rollup_json(ROLLUP)
