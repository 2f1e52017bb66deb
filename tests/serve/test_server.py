"""End-to-end fleet service tests: the cache-correctness contract.

The invariant under test (DESIGN.md §13): the rollup bytes a client
fetches are identical whether the result was computed fresh by the
server, computed by the fleet CLI path, resumed from a half-finished
checkpoint journal, or served from the content-addressed cache — for
either kernel and any shard count.
"""

import json
import os
import socket
import threading
import time

import pytest

from repro.errors import ConfigurationError
from repro.fleet.service import run_fleet
from repro.fleet.spec import FleetSpec
from repro.obs.heartbeat import validate_heartbeat_records
from repro.serve import (
    FleetClient,
    ServeConfig,
    canonical_rollup_json,
    protocol,
    start_background,
    submit,
)

SPEC = FleetSpec(devices=10, seed=11, name="serve-e2e", n_events=24)


def fresh_bytes(spec, kernel="scalar", shards=2):
    """The ground truth: an in-process run_fleet, canonical-encoded."""
    result = run_fleet(spec, shards=shards, jobs=1, kernel=kernel)
    return canonical_rollup_json(result.rollup.to_dict())


@pytest.fixture
def server(tmp_path):
    with start_background(ServeConfig(data_dir=str(tmp_path / "srv"))) as handle:
        yield handle


class TestCacheCorrectness:
    def test_served_fresh_and_cached_bytes_agree_across_kernels(self, tmp_path):
        data_dir = str(tmp_path / "srv")
        truth = fresh_bytes(SPEC, kernel="scalar", shards=2)
        with start_background(ServeConfig(data_dir=data_dir)) as handle:
            with FleetClient(port=handle.port) as client:
                first = client.submit(SPEC, shards=3, kernel="scalar", wait=True)
                assert first["ok"] and not first["cached"]
                assert canonical_rollup_json(first["rollup"]) == truth
                # Same spec again — different shard count AND kernel:
                # answered from the cache, byte-identically.
                second = client.submit(SPEC, shards=5, kernel="vector", wait=True)
                assert second["cached"]
                assert canonical_rollup_json(second["rollup"]) == truth
                stats = client.stats()
                assert stats["cache"]["hits"] == 1
                assert stats["cache"]["misses"] == 1
        # The vector kernel computing from scratch also lands on the
        # same bytes (fleet determinism), so the cache hit was sound.
        assert fresh_bytes(SPEC, kernel="vector", shards=4) == truth

    def test_cache_survives_server_restart(self, tmp_path):
        data_dir = str(tmp_path / "srv")
        with start_background(ServeConfig(data_dir=data_dir)) as handle:
            with FleetClient(port=handle.port) as client:
                first = client.submit(SPEC, wait=True)
        with start_background(ServeConfig(data_dir=data_dir)) as handle:
            with FleetClient(port=handle.port) as client:
                again = client.submit(SPEC, wait=True)
                assert again["cached"]
                assert again["rollup"] == first["rollup"]
                stats = client.stats()
                assert stats["cache"]["hits"] == 1
                assert stats["cache"]["misses"] == 0

    def test_mutated_spec_misses_the_cache(self, server):
        mutated = FleetSpec(devices=10, seed=12, name="serve-e2e", n_events=24)
        assert mutated.fingerprint() != SPEC.fingerprint()
        with FleetClient(port=server.port) as client:
            base = client.submit(SPEC, wait=True)
            other = client.submit(mutated, wait=True)
            assert not other["cached"]
            assert other["rollup"] != base["rollup"]
            stats = client.stats()
            assert stats["cache"] == {"hits": 0, "misses": 2, "entries": 2}

    def test_one_shot_submit_helper(self, server):
        rollup = submit(SPEC, port=server.port, shards=2)
        assert canonical_rollup_json(rollup) == fresh_bytes(SPEC)


def raw_lines(port, *requests):
    """Each request's response line, exactly as the server framed it."""
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        stream = sock.makefile("rb")
        lines = []
        for request in requests:
            sock.sendall(protocol.encode(
                {"schema_version": protocol.PROTOCOL_VERSION, **request}
            ))
            lines.append(stream.readline())
    return lines


def assert_canonical_frame(line, rollup_bytes):
    """``line`` is ``protocol.encode`` of its own decoding, and its rollup
    re-encodes to ``rollup_bytes``."""
    message = json.loads(line)
    assert line == protocol.encode(message)
    assert canonical_rollup_json(message["rollup"]) == rollup_bytes
    return message


SMALL = FleetSpec(devices=4, seed=3, name="serve-bytes", n_events=8)
OTHER = FleetSpec(devices=2, seed=4, name="serve-bytes", n_events=8)


def _truncate(data, other):
    return data[: len(data) // 2]


def _flip_fingerprint_byte(data, other):
    at = data.index(SMALL.fingerprint().encode())
    return data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]


def _swap_in_other_entry(data, other):
    return other


def _bump_cache_version(data, other):
    entry = json.loads(data)
    entry["cache_version"] += 1
    return json.dumps(entry, sort_keys=True).encode()


class TestServedBytes:
    """Rollup-bearing frames splice each job's stored canonical bytes;
    they must equal ``protocol.encode`` of the dict response."""

    def test_cold_hit_and_result_frames(self, tmp_path):
        truth = fresh_bytes(SMALL)
        wire = {"spec": SMALL.to_wire()}
        data_dir = str(tmp_path / "srv")
        with start_background(ServeConfig(data_dir=data_dir)) as handle:
            cold, hit, result = raw_lines(
                handle.port,
                {"op": "submit", "wait": True, **wire},
                {"op": "submit", "wait": True, **wire},
                {"op": "result", **wire},
            )
        assert not assert_canonical_frame(cold, truth)["cached"]
        assert assert_canonical_frame(hit, truth)["cached"]
        assert assert_canonical_frame(result, truth)["state"] == "done"
        # A restarted server knows no jobs: `result` reads the journal on
        # disk, and a hit builds its job from the cache entry.
        with start_background(ServeConfig(data_dir=data_dir)) as handle:
            result, hit = raw_lines(
                handle.port,
                {"op": "result", **wire},
                {"op": "submit", "wait": True, **wire},
            )
            with FleetClient(port=handle.port) as client:
                stats = client.stats()
        assert assert_canonical_frame(result, truth)["cached"]
        assert assert_canonical_frame(hit, truth)["cached"]
        assert stats["cache"] == {"hits": 2, "misses": 0, "entries": 1}

    @pytest.mark.parametrize("corrupt", [
        _truncate, _flip_fingerprint_byte, _swap_in_other_entry,
        _bump_cache_version, None,
    ], ids=["truncate", "flip-byte", "foreign-entry", "cache-version", "deleted"])
    def test_damaged_entry_is_a_miss_that_recomputes(self, server, corrupt):
        cache = server.server.cache
        with FleetClient(port=server.port) as client:
            client.submit(OTHER, wait=True)
            first = client.submit(SMALL, wait=True)
            assert client.submit(SMALL, wait=True)["cached"]  # remembered
            assert client.stats()["cache"]["misses"] == 2
            path = cache._path(SMALL.fingerprint())
            if corrupt is None:
                os.remove(path)
            else:
                with open(path, "rb") as handle:
                    data = handle.read()
                with open(cache._path(OTHER.fingerprint()), "rb") as handle:
                    other = handle.read()
                with open(path, "wb") as handle:
                    handle.write(corrupt(data, other))
            again = client.submit(SMALL, wait=True)
            assert again["ok"] and not again["cached"]
            assert again["rollup"] == first["rollup"]
            assert client.stats()["cache"] == {"hits": 1, "misses": 3, "entries": 2}
            assert client.submit(SMALL, wait=True)["cached"]
            assert client.stats()["cache"]["hits"] == 2

    def test_mutating_a_get_result_leaves_hits_intact(self, server):
        with FleetClient(port=server.port) as client:
            first = client.submit(SMALL, wait=True)
            for _ in range(2):
                got = server.server.cache.get(SMALL.fingerprint())
                got["devices"] = -1
                got.clear()
            assert server.server.cache.get(SMALL.fingerprint()) == first["rollup"]
            hit = client.submit(SMALL, wait=True)
        assert hit["cached"] and hit["rollup"] == first["rollup"]


class TestResumeWhileServing:
    def test_submission_resumes_a_killed_jobs_journal(self, tmp_path):
        """A job killed mid-run leaves its completion-ordered journal;
        resubmitting the spec to a new server finishes only the missing
        shards and still produces the fresh-run bytes."""
        data_dir = str(tmp_path / "srv")
        journal = os.path.join(data_dir, "jobs", SPEC.fingerprint(), "journal")
        # Simulate the kill: run 2 of 4 shards through the *same* journal
        # path the server will use, then abandon the run.
        partial = run_fleet(
            SPEC, shards=4, jobs=1, checkpoint=journal, stop_after=2
        )
        assert not partial.complete
        with start_background(ServeConfig(data_dir=data_dir)) as handle:
            with FleetClient(port=handle.port) as client:
                response = client.submit(SPEC, shards=4, wait=True)
                assert response["ok"] and not response["cached"]
                assert canonical_rollup_json(response["rollup"]) == fresh_bytes(SPEC)
                # The heartbeat stream proves shards were resumed, not
                # recomputed: progress starts past the journaled ones.
                beats = [b for b in client.watch(SPEC) if b["type"] == "heartbeat"]
        assert beats[0]["shards_done"] > 2
        assert beats[-1]["shards_done"] == 4

    def test_shard_count_mismatch_starts_fresh_but_agrees(self, tmp_path):
        data_dir = str(tmp_path / "srv")
        journal = os.path.join(data_dir, "jobs", SPEC.fingerprint(), "journal")
        run_fleet(SPEC, shards=4, jobs=1, checkpoint=journal, stop_after=2)
        with start_background(ServeConfig(data_dir=data_dir)) as handle:
            with FleetClient(port=handle.port) as client:
                response = client.submit(SPEC, shards=3, wait=True)
                assert canonical_rollup_json(response["rollup"]) == fresh_bytes(SPEC)


class TestStreaming:
    def test_watch_replays_and_validates(self, server):
        with FleetClient(port=server.port) as client:
            client.submit(SPEC, shards=3, wait=True)
            beats = list(client.watch(SPEC))
        kinds = [b["type"] for b in beats]
        assert kinds[0] == "start" and kinds[-1] == "end"
        assert kinds.count("heartbeat") >= 1
        assert validate_heartbeat_records(beats) == []
        done = [b for b in beats if b["type"] == "heartbeat"]
        assert done[-1]["shards_done"] == 3
        assert done[-1]["devices_done"] == SPEC.devices

    def test_watcher_disconnecting_mid_stream(self, server, monkeypatch):
        """A watcher that drops its socket while the job streams costs
        nothing: other clients are served, the job finishes and is cached,
        and the dropped watcher is unsubscribed.  Every wait is bounded."""
        from repro.serve import server as server_module

        released = threading.Event()
        real_write = server_module._TelemetryBridge.write

        def held_write(bridge, text):
            real_write(bridge, text)
            released.wait(timeout=30)  # the job streams no further for now

        def wait_for(condition):
            deadline = time.monotonic() + 30
            while not condition() and time.monotonic() < deadline:
                time.sleep(0.01)
            return condition()

        monkeypatch.setattr(server_module._TelemetryBridge, "write", held_write)
        wire = {"schema_version": protocol.PROTOCOL_VERSION, "spec": SPEC.to_wire()}
        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            stream = sock.makefile("rb")
            sock.sendall(protocol.encode({"op": "submit", **wire}))
            assert json.loads(stream.readline())["ok"]
            sock.sendall(protocol.encode({"op": "watch", **wire}))
            assert json.loads(stream.readline())["type"] == "start"
            job = server.server._jobs[SPEC.fingerprint()]
            assert wait_for(lambda: job.watchers) and not job.done.is_set()
        released.set()
        with FleetClient(port=server.port, timeout=30) as client:
            assert client.ping()["ok"]
            done = client.submit(SPEC, wait=True)
            assert done["ok"] and not done["cached"]
            assert canonical_rollup_json(done["rollup"]) == fresh_bytes(SPEC)
            assert client.submit(SPEC, wait=True)["cached"]
            assert client.stats()["cache"]["entries"] == 1
        assert wait_for(lambda: not job.watchers)

    def test_watch_unknown_job_errors(self, server):
        with FleetClient(port=server.port) as client:
            with pytest.raises(ConfigurationError, match="submit the spec"):
                list(client.watch("f" * 64))


class TestProtocolOverTheWire:
    def test_ping_and_stats(self, server):
        with FleetClient(port=server.port) as client:
            assert client.ping() == {"ok": True, "protocol": 1}
            stats = client.stats()
            assert stats["submitted"] == 0
            assert stats["jobs"] == {}

    def test_foreign_protocol_version_rejected(self, server):
        import socket

        from repro.serve import protocol

        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            sock.sendall(protocol.encode({"schema_version": 99, "op": "ping"}))
            response = protocol.decode_line(sock.makefile("rb").readline())
        assert response["ok"] is False
        assert "99" in response["error"]

    def test_bad_spec_payload_is_a_clean_error(self, server):
        import socket

        from repro.serve import protocol

        wire = SPEC.to_wire()
        wire["bogus_field"] = 1
        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            sock.sendall(protocol.encode({
                "schema_version": protocol.PROTOCOL_VERSION,
                "op": "submit", "spec": wire,
            }))
            response = protocol.decode_line(sock.makefile("rb").readline())
        assert response["ok"] is False
        assert "bogus_field" in response["error"]

    def test_oversized_frame_is_a_clean_error(self, server):
        import socket

        from repro.serve import protocol

        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            sock.sendall(b"x" * (70 * 1024))  # no newline, past the limit
            stream = sock.makefile("rb")
            response = protocol.decode_line(stream.readline())
            assert stream.readline() == b""  # then the server hangs up
        assert response["ok"] is False
        assert "64 KiB" in response["error"]
        with FleetClient(port=server.port) as client:
            assert client.ping()["ok"] is True

    def test_unknown_result_errors(self, server):
        with FleetClient(port=server.port) as client:
            response = client.result("a" * 64, wait=False)
            assert response["ok"] is False


class TestArtifactReuse:
    def test_store_shared_across_distinct_specs(self, tmp_path):
        """Two different specs with overlapping device configs build the
        shared (trace, schedule) artifacts once, ever."""
        data_dir = str(tmp_path / "srv")
        # Same devices, different buffer capacity: a different result
        # (and fingerprint), but identical (trace, schedule) inputs.
        twin = FleetSpec(devices=10, seed=11, name="serve-e2e", n_events=24,
                         buffer_capacity=5)
        assert twin.fingerprint() != SPEC.fingerprint()
        with start_background(ServeConfig(data_dir=data_dir)) as handle:
            with FleetClient(port=handle.port) as client:
                client.submit(SPEC, wait=True)
                after_first = client.stats()["store_entries"]
                client.submit(twin, wait=True)
                stats = client.stats()
        assert after_first > 0
        assert stats["store_entries"] == after_first  # zero new artifacts
        assert stats["cache"] == {"hits": 0, "misses": 2, "entries": 2}
