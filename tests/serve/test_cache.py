"""ResultCache unit behavior: addressing, atomicity, accounting."""

import json
import os
import signal
import subprocess
import sys
import textwrap
import threading

import pytest

from repro.errors import ConfigurationError
from repro.fleet.spec import FleetSpec
from repro.serve import cache as cache_module
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


    def test_hits_return_independent_dicts(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(SPEC, ROLLUP)
        # A reopened cache validates the entry on its first get, then
        # serves byte-verified hits; neither may hand out shared state.
        for reader in (cache, ResultCache(str(tmp_path))):
            for _ in range(3):
                got = reader.get(SPEC.fingerprint())
                assert got == ROLLUP
                got["devices"] = 99
                got["payload"].append(4)
        assert ROLLUP == {"devices": 4, "failures": 0, "payload": [1, 2, 3]}

    def test_changed_bytes_are_parsed_not_served_from_memory(self, tmp_path):
        # A same-length edit that still validates: the hit must carry the
        # bytes on disk, not the remembered ones.
        cache = ResultCache(str(tmp_path))
        fingerprint = cache.put(SPEC, ROLLUP)
        path = cache._path(fingerprint)
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data.replace(b"[1, 2, 3]", b"[1, 2, 7]"))
        assert cache.get(fingerprint)["payload"] == [1, 2, 7]
        edited = {**ROLLUP, "payload": [1, 2, 7]}
        assert cache.rollup_bytes(fingerprint, {}) == (
            canonical_rollup_json(edited).encode()
        )
        assert cache.stats() == {"hits": 1, "misses": 0, "entries": 1}

    def test_deleted_entry_is_a_miss_after_hits(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        fingerprint = cache.put(SPEC, ROLLUP)
        assert cache.get(fingerprint) == ROLLUP
        os.remove(cache._path(fingerprint))
        assert cache.get(fingerprint) is None
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 0}

    def test_rollup_bytes_are_the_canonical_encoding(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        fingerprint = cache.put(SPEC, ROLLUP)
        expected = canonical_rollup_json(ROLLUP).encode()
        assert cache.rollup_bytes(fingerprint, ROLLUP) == expected
        # Never written or validated here: encoded from the given dict.
        assert ResultCache(str(tmp_path)).rollup_bytes(fingerprint, ROLLUP) == expected

    def test_threads_share_the_remembered_map(self, tmp_path, monkeypatch):
        # Server puts run on executor threads while gets run on the loop.
        # With a two-entry map evicting constantly and a short switch
        # interval, every read still returns its own fingerprint's rollup.
        monkeypatch.setattr(cache_module, "_REMEMBERED", 2)
        cache = ResultCache(str(tmp_path))
        specs = [FleetSpec(devices=4, seed=seed, name="cache-stress", n_events=10)
                 for seed in range(6)]
        rollups = {spec.fingerprint(): {"seed": spec.seed, "payload": [spec.seed]}
                   for spec in specs}
        errors = []

        def worker(offset):
            try:
                for step in range(60):
                    spec = specs[(offset + step) % len(specs)]
                    fingerprint, rollup = spec.fingerprint(), rollups[spec.fingerprint()]
                    cache.put(spec, rollup)
                    got = cache.get(fingerprint)
                    if got != rollup or cache.rollup_bytes(fingerprint, got) != (
                        canonical_rollup_json(rollup).encode()
                    ):
                        errors.append(fingerprint)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(offset,))
                       for offset in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(cache._verified) <= 2 and len(cache) == len(specs)

    def test_sigkill_between_tmp_write_and_replace(self, tmp_path):
        """A writer killed after its temp file is complete but before
        ``os.replace`` leaves a ``*.tmp`` that reads as nothing."""
        directory = str(tmp_path / "cache")
        script = textwrap.dedent("""
            import os
            import sys
            import time

            from repro.fleet.spec import FleetSpec
            from repro.serve.cache import ResultCache

            def stall(src, dst):
                print("written", flush=True)
                time.sleep(600)

            os.replace = stall
            spec = FleetSpec(devices=4, seed=5, name="cache-unit", n_events=10)
            ResultCache(sys.argv[1]).put(spec, {"devices": 4, "failures": 0,
                                                "payload": [1, 2, 3]})
        """)
        src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath(src)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        child = subprocess.Popen([sys.executable, "-c", script, directory],
                                 env=env, stdout=subprocess.PIPE)
        try:
            assert child.stdout.readline() == b"written\n"
        finally:
            child.send_signal(signal.SIGKILL)
            child.wait()
            child.stdout.close()
        assert child.returncode == -signal.SIGKILL
        (leftover,) = os.listdir(directory)
        assert leftover.endswith(".tmp")
        with open(os.path.join(directory, leftover)) as handle:
            assert json.loads(handle.read())["rollup"] == ROLLUP  # complete

        cache = ResultCache(directory)
        assert cache.get(SPEC.fingerprint()) is None
        assert len(cache) == 0
        assert cache.stats() == {"hits": 0, "misses": 1, "entries": 0}
        cache.put(SPEC, ROLLUP)
        served = cache.get(SPEC.fingerprint())
        assert canonical_rollup_json(served) == canonical_rollup_json(ROLLUP)
        with open(cache._path(SPEC.fingerprint())) as handle:
            assert handle.read() == json.dumps({
                "cache_version": CACHE_VERSION, "fingerprint": SPEC.fingerprint(),
                "rollup": ROLLUP, "spec": SPEC.to_wire(),
            }, sort_keys=True)
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}


class TestCanonicalBytes:
    def test_matches_cli_json_convention(self):
        # json.dumps(..., sort_keys=True): exactly what --json writes.
        assert canonical_rollup_json({"b": 1, "a": 2}) == '{"a": 2, "b": 1}'

    def test_round_trip_through_cache_preserves_bytes(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(SPEC, ROLLUP)
        served = cache.get(SPEC.fingerprint())
        assert canonical_rollup_json(served) == canonical_rollup_json(ROLLUP)
