"""The trace store contract: round-trip bit-identity, integrity, sharing.

A store-attached trace or schedule must be indistinguishable — bit for
bit, query for query — from the freshly generated object it was built
from; anything less would silently break the fleet kernel's parity
guarantee.  The store must also detect payload corruption (``verify``),
and attached arrays must stay file-backed so forked workers share one
page-cache copy instead of duplicating the library per process.
"""

import errno
import gc
import hashlib
import json
import os
import signal
import subprocess
import sys
import textwrap
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.env.events import EventSchedule
from repro.errors import TraceError
from repro.experiments.configs import apollo_simulation_config
from repro.fleet.spec import FleetSpec
from repro.trace.power_trace import PiecewiseConstantTrace
from repro.trace.store import (
    _SEGMENT_ENTRIES,
    _VERSION,
    TraceStore,
    fingerprint_key,
    solar_store_key,
)
from repro.trace.solar import SolarTraceConfig, SolarTraceGenerator


def small_config(trace_seed=7, schedule_seed=70, cells=6, n_events=4):
    config = apollo_simulation_config(n_events=n_events)
    import dataclasses

    return dataclasses.replace(
        config, trace_seed=trace_seed, schedule_seed=schedule_seed, cells=cells
    )


def assert_attaches_identically(store, config):
    built, attached = config.build_trace(), store.trace_for(config)
    assert np.array_equal(attached._times, built._times)
    assert np.array_equal(attached._powers, built._powers)
    assert np.array_equal(attached._cum_energy, built._cum_energy)
    assert attached.period == built.period
    assert attached._energy_per_period == built._energy_per_period
    for got, want in zip(store.schedule_for(config).arrays(),
                         config.build_schedule().arrays()):
        assert np.array_equal(got, want)


def populated(tmp_path, config):
    store = TraceStore.create(tmp_path / "store")
    store.put_for_config(config)
    store.save()
    return store


def shared_segment(tmp_path):
    """A built store and the fingerprints of its one multi-entry segment."""
    spec = FleetSpec(devices=6, seed=5, n_events=4)
    store = TraceStore.create(tmp_path / "store")
    store.build_for_spec(spec)
    (segment,) = store._segments
    fingerprints = [fp for fp, entry in store._entries.items()
                    if entry["file"] == segment]
    assert len(fingerprints) == len(store) > 1
    return spec, store, segment, fingerprints


class TestRoundTrip:
    def test_trace_round_trip_is_bit_identical(self, tmp_path):
        config = small_config()
        store = populated(tmp_path, config)
        built = config.build_trace()
        attached = store.trace_for(config)
        assert type(attached) is PiecewiseConstantTrace
        assert np.array_equal(attached._times, built._times)
        assert np.array_equal(attached._powers, built._powers)
        assert np.array_equal(attached._cum_energy, built._cum_energy)
        assert attached.period == built.period
        assert attached._energy_per_period == built._energy_per_period

    def test_trace_queries_match_generated(self, tmp_path):
        config = small_config()
        store = populated(tmp_path, config)
        built = config.build_trace()
        attached = store.trace_for(config)
        for t in (0.0, 1.0, 4999.5, 86_399.0, 100_000.0, 250_000.25):
            assert attached.power(t) == built.power(t)
        for t0, t1 in ((0.0, 10.0), (100.0, 90_000.0), (86_000.0, 86_500.0)):
            assert attached.integrate(t0, t1) == built.integrate(t0, t1)
            assert attached.span_at(t0) == built.span_at(t0)

    def test_schedule_round_trip_is_bit_identical(self, tmp_path):
        config = small_config()
        store = populated(tmp_path, config)
        built = config.build_schedule()
        attached = store.schedule_for(config)
        assert type(attached) is EventSchedule
        for got, want in zip(attached.arrays(), built.arrays()):
            assert np.array_equal(got, want)
        assert attached.end_time == built.end_time
        assert attached.diff_probability == built.diff_probability
        assert attached.events == built.events

    def test_missing_entries_return_none(self, tmp_path):
        store = populated(tmp_path, small_config())
        other = small_config(trace_seed=999, schedule_seed=998)
        assert store.trace_for(other) is None
        assert store.schedule_for(other) is None

    def test_attach_is_cached(self, tmp_path):
        config = small_config()
        store = populated(tmp_path, config)
        assert store.trace_for(config) is store.trace_for(config)
        assert store.schedule_for(config) is store.schedule_for(config)

    def test_put_is_idempotent(self, tmp_path):
        config = small_config()
        store = populated(tmp_path, config)
        before = len(store)
        store.put_for_config(config)
        assert len(store) == before

    def test_reopened_store_attaches_identically(self, tmp_path):
        config = small_config()
        populated(tmp_path, config)
        reopened = TraceStore.open(tmp_path / "store")
        built = config.build_trace()
        attached = reopened.trace_for(config)
        assert np.array_equal(attached._powers, built._powers)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**30), cells=st.integers(1, 10))
    def test_any_solar_trace_round_trips(self, tmp_path_factory, seed, cells):
        tmp = tmp_path_factory.mktemp("prop-store")
        solar = SolarTraceConfig(cells=cells)
        built = SolarTraceGenerator(solar, seed=seed).generate()
        key = solar_store_key(solar, seed)
        store = TraceStore.create(tmp)
        store.put_trace(key, built)
        attached = store.get_trace(key)
        assert np.array_equal(attached._powers, built._powers)
        assert np.array_equal(attached._cum_energy, built._cum_energy)
        assert np.array_equal(attached._times, built._times)
        assert attached.period == built.period


class TestIntegrity:
    def test_verify_clean_store(self, tmp_path):
        store = populated(tmp_path, small_config())
        assert store.verify() == []

    def test_verify_catches_flipped_byte(self, tmp_path):
        _, store, segment, fingerprints = shared_segment(tmp_path)
        entry = max((store._entries[fp] for fp in fingerprints),
                    key=lambda entry: entry["offset"])
        path = os.path.join(store.directory, segment)
        with open(path, "r+b") as handle:
            handle.seek(entry["offset"] + 8)
            byte = handle.read(1)
            handle.seek(entry["offset"] + 8)
            handle.write(bytes([byte[0] ^ 0xFF]))
        problems = store.verify()
        # Only the flipped entry is flagged, not its segment neighbours.
        assert problems == [f"{segment}@{entry['offset']}: payload sha256 mismatch"]

    def test_verify_catches_missing_file(self, tmp_path):
        store = populated(tmp_path, small_config())
        entry = next(iter(store._entries.values()))
        os.remove(os.path.join(store.directory, entry["file"]))
        problems = store.verify()
        assert any("missing" in problem for problem in problems)

    def test_attach_rejects_truncated_file(self, tmp_path):
        spec, store, segment, _ = shared_segment(tmp_path)
        path = os.path.join(store.directory, segment)
        with open(path, "r+b") as handle:
            handle.truncate(store._segments[segment] - 16)
        # The whole segment is refused, including entries whose bytes
        # survived the cut.
        _, config = spec.device_config(0)
        with pytest.raises(TraceError, match="truncated"):
            store.trace_for(config)
        with pytest.raises(TraceError, match="truncated"):
            store.schedule_for(config)
        assert any("size does not match" in p for p in store.verify())

    def test_open_requires_manifest(self, tmp_path):
        with pytest.raises(TraceError, match="no trace store"):
            TraceStore.open(tmp_path / "nowhere")

    def test_version_mismatch_rejected(self, tmp_path):
        store = populated(tmp_path, small_config())
        manifest = os.path.join(store.directory, "manifest.json")
        with open(manifest) as handle:
            payload = json.load(handle)
        payload["version"] = 999
        with open(manifest, "w") as handle:
            json.dump(payload, handle)
        with pytest.raises(TraceError, match="version"):
            TraceStore.open(store.directory)

    @pytest.mark.parametrize("payload", [b"{torn", b"\xff\xfe\x00", b"[1]"],
                             ids=["torn", "non-utf8", "non-object"])
    def test_unreadable_manifest_rejected(self, tmp_path, payload):
        store = populated(tmp_path, small_config())
        with open(os.path.join(store.directory, "manifest.json"), "wb") as handle:
            handle.write(payload)
        with pytest.raises(TraceError, match="manifest"):
            TraceStore.open(store.directory)

    def test_non_repeating_trace_rejected(self, tmp_path):
        store = TraceStore.create(tmp_path / "store")
        trace = PiecewiseConstantTrace([0.0, 5.0], [1.0, 2.0], period=None)
        with pytest.raises(TraceError, match="repeating"):
            store.put_trace(solar_store_key(SolarTraceConfig(), 1), trace)


def store_files(directory) -> dict[str, bytes]:
    files = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            files[name] = handle.read()
    return files


class TestBuildForSpec:
    SPEC = FleetSpec(devices=12, seed=5, n_events=4, cells=(4, 6))

    def test_rebuild_leaves_manifest_untouched(self, tmp_path):
        store = TraceStore.create(tmp_path / "store")
        first = store.build_for_spec(self.SPEC)
        assert first["traces"] > 0 and first["reused"] == 0
        manifest = os.path.join(store.directory, "manifest.json")
        stat = os.stat(manifest)
        before = (stat.st_mtime_ns, stat.st_ino)  # a rewrite replaces the inode
        with open(manifest, "rb") as handle:
            data = handle.read()
        again = TraceStore.open(store.directory).build_for_spec(self.SPEC)
        assert again == {
            "traces": 0,
            "schedules": 0,
            "reused": first["traces"] + first["schedules"],
        }
        stat = os.stat(manifest)
        assert (stat.st_mtime_ns, stat.st_ino) == before
        with open(manifest, "rb") as handle:
            assert handle.read() == data

    def test_forked_build_is_byte_identical(self, tmp_path):
        # Two segments, so jobs=2 really forks one writer per segment.
        spec = TestSegments.SPEC
        serial = TraceStore.create(tmp_path / "serial")
        forked = TraceStore.create(tmp_path / "forked")
        assert serial.build_for_spec(spec, jobs=1) == forked.build_for_spec(
            spec, jobs=2
        )
        assert len(serial._segments) == 2
        assert store_files(serial.directory) == store_files(forked.directory)
        assert forked.verify() == []

    def test_manifest_bytes_match_json_dump(self, tmp_path):
        store = TraceStore.create(tmp_path / "store")
        store.build_for_spec(self.SPEC)
        with open(os.path.join(store.directory, "manifest.json")) as handle:
            text = handle.read()
        expected = tmp_path / "expected.json"
        with open(expected, "w", encoding="utf-8") as handle:
            json.dump(
                {"version": _VERSION, "entries": store._entries,
                 "segments": store._segments},
                handle, sort_keys=True, indent=None,
            )
        assert text == expected.read_text(encoding="utf-8")


def src_env() -> dict:
    """The environment for a child interpreter that imports ``repro``."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(src)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return env


class TestSegments:
    SPEC = FleetSpec(devices=150, seed=9, n_events=2)

    def test_entries_pack_into_fixed_segments(self, tmp_path):
        store = TraceStore.create(tmp_path / "store")
        store.build_for_spec(self.SPEC)
        assert sorted(os.listdir(store.directory)) == sorted(
            ["manifest.json", *store._segments]
        )
        per_segment = {}
        for entry in store._entries.values():
            per_segment[entry["file"]] = per_segment.get(entry["file"], 0) + 1
            assert entry["offset"] % 64 == 0
        assert len(store) > _SEGMENT_ENTRIES
        assert sorted(per_segment.values()) == [
            len(store) - _SEGMENT_ENTRIES, _SEGMENT_ENTRIES
        ]
        for name, size in store._segments.items():
            assert os.path.getsize(os.path.join(store.directory, name)) == size

    def test_one_fd_per_live_segment(self, tmp_path):
        store = TraceStore.create(tmp_path / "store")
        store.build_for_spec(self.SPEC)
        configs = [self.SPEC.device_config(i)[1] for i in range(self.SPEC.devices)]
        gc.collect()
        before = open_fds()
        held = [store.trace_for(c) for c in configs]
        held += [store.schedule_for(c) for c in configs]
        assert None not in held
        if before is not None:
            assert open_fds() - before == len(store._segments) == 2
        del held
        gc.collect()
        assert open_fds() == before


def write_v1_store(directory, configs) -> None:
    """A store as written before segments: one ``.npy`` file per entry,
    its payload offset recorded in a version-1 manifest."""
    os.makedirs(directory)
    entries = {}
    for config in configs:
        trace_key, schedule_key = config.trace_store_key(), config.schedule_store_key()
        for key, (data, meta) in (
            (trace_key, TraceStore._trace_payload(trace_key, config.build_trace())),
            (schedule_key,
             TraceStore._schedule_payload(schedule_key, config.build_schedule())),
        ):
            fingerprint = fingerprint_key(key)
            filename = f"{key['kind']}-{fingerprint[:20]}.npy"
            with open(os.path.join(directory, filename), "wb") as handle:
                np.lib.format.write_array(handle, data, allow_pickle=False)
                offset = handle.tell() - data.nbytes
            entries[fingerprint] = {
                "kind": key["kind"], "key": key, "file": filename,
                "shape": list(data.shape), "offset": offset,
                "bytes": data.nbytes, "sha256": hashlib.sha256(data).hexdigest(),
                "meta": meta,
            }
    with open(os.path.join(directory, "manifest.json"), "w") as handle:
        json.dump({"version": 1, "entries": entries}, handle, sort_keys=True)


class TestManifestV1:
    SPEC = FleetSpec(devices=6, seed=5, n_events=4)

    def test_v1_store_attaches_and_verifies(self, tmp_path):
        configs = [self.SPEC.device_config(i)[1] for i in range(3)]
        write_v1_store(tmp_path / "v1", configs)
        store = TraceStore.open(tmp_path / "v1")
        assert len(store) == 6
        assert store.verify() == []
        for config in configs:
            assert_attaches_identically(store, config)

    def test_build_appends_segments_and_saves_v2(self, tmp_path):
        directory = tmp_path / "v1"
        old = [self.SPEC.device_config(i)[1] for i in range(2)]
        write_v1_store(directory, old)
        npy = sorted(name for name in os.listdir(directory) if name.endswith(".npy"))
        counts = TraceStore.open(directory).build_for_spec(self.SPEC)
        assert counts["reused"] == len(npy) == 4
        with open(os.path.join(directory, "manifest.json")) as handle:
            manifest = json.load(handle)
        assert manifest["version"] == _VERSION
        assert [name for name in manifest["segments"] if name.endswith(".npy")] == npy
        reopened = TraceStore.open(directory)
        assert reopened.verify() == []
        for index in range(self.SPEC.devices):
            assert_attaches_identically(reopened, self.SPEC.device_config(index)[1])


class TestKilledBuild:
    SPEC = FleetSpec(devices=600, seed=13, n_events=2, policies=("NA", "AD", "TH50"))

    def test_sigkill_mid_build_leaves_a_usable_store(self, tmp_path):
        from repro.fleet import run_fleet

        directory = str(tmp_path / "store")
        script = textwrap.dedent("""
            import sys
            from repro.fleet.spec import FleetSpec
            from repro.trace.store import TraceStore

            spec = FleetSpec(devices=600, seed=13, n_events=2,
                             policies=("NA", "AD", "TH50"))
            TraceStore.create(sys.argv[1]).build_for_spec(spec)
        """)
        child = subprocess.Popen([sys.executable, "-c", script, directory],
                                 env=src_env())
        deadline = time.monotonic() + 120
        try:
            while not any(name.startswith("seg-") for name in
                          (os.listdir(directory) if os.path.isdir(directory) else ())):
                assert child.poll() is None, "build ended before any segment"
                assert time.monotonic() < deadline, "no segment appeared"
                time.sleep(0.001)
        finally:
            child.send_signal(signal.SIGKILL)
            child.wait()
        assert child.returncode == -signal.SIGKILL
        leftovers = set(os.listdir(directory)) - {"manifest.json"}
        assert leftovers

        store = TraceStore.create(directory)
        assert len(store) == 0 and store.verify() == []
        counts = store.build_for_spec(self.SPEC)
        assert counts["reused"] == 0
        assert counts["traces"] + counts["schedules"] == len(store)
        assert store.verify() == []
        stale = {name for name in leftovers if ".tmp." in name}
        assert not stale & set(store._segments)
        assert not any(".tmp." in entry["file"] for entry in store._entries.values())

        def rollup(**kwargs):
            result = run_fleet(self.SPEC, **kwargs)
            return json.dumps(result.rollup.to_dict(), sort_keys=True)

        assert rollup(trace_store=TraceStore.open(directory)) == rollup()


class TestSharedMapping:
    def test_forked_workers_share_pages(self, tmp_path):
        """Attaching + reading a stored trace must not grow anonymous RSS
        by the payload size — the arrays are file-backed mappings, shared
        across forked workers through the page cache."""
        if not os.path.exists("/proc/self/smaps_rollup"):
            pytest.skip("smaps_rollup not available on this platform")

        def anonymous_kb() -> int:
            with open("/proc/self/smaps_rollup") as handle:
                for line in handle:
                    if line.startswith("Anonymous:"):
                        return int(line.split()[1])
            raise AssertionError("no Anonymous line in smaps_rollup")

        config = small_config()
        store = populated(tmp_path, config)
        # Pad the store with distinct-seed traces so the mapped payload
        # is comfortably larger than allocator noise.
        import dataclasses

        variants = [
            dataclasses.replace(config, trace_seed=1000 + i) for i in range(24)
        ]
        for variant in variants:
            store.put_for_config(variant)
        store.save()
        payload_kb = store.nbytes() // 1024
        assert payload_kb > 512

        from repro.experiments.runner import map_indexed

        reader = TraceStore.open(store.directory)

        def worker(index: int) -> tuple[float, int]:
            before = anonymous_kb()
            total = 0.0
            for variant in variants:
                trace = reader.trace_for(variant)
                total += float(np.sum(trace._powers))  # touch every page
            return total, anonymous_kb() - before

        results = map_indexed(worker, 2, jobs=2)
        totals = {round(total, 6) for total, _ in results}
        assert len(totals) == 1  # both workers read identical data
        for _, grown_kb in results:
            assert grown_kb < payload_kb / 2


def open_fds() -> int | None:
    """Open fd count of this process (``None`` off Linux)."""
    if not os.path.isdir("/proc/self/fd"):
        return None
    return len(os.listdir("/proc/self/fd"))


class TestAttachmentLifetime:
    """Attachments are run-scoped: held while a lane or engine uses them,
    released (mapping, fd and lazy list mirrors) when the run drops them."""

    def test_memo_dedupes_while_held(self, tmp_path):
        config = small_config()
        store = populated(tmp_path, config)
        trace = store.trace_for(config)
        schedule = store.schedule_for(config)
        gc.collect()
        assert store.trace_for(config) is trace
        assert store.schedule_for(config) is schedule
        ref = weakref.ref(trace)
        del trace
        gc.collect()
        assert ref() is None
        assert store.trace_for(config) is not None  # re-attaches on demand

    @pytest.mark.parametrize("kernel", ["scalar", "vector"])
    def test_run_releases_attachments(self, kernel, tmp_path):
        from repro.fleet import run_fleet

        spec = FleetSpec(devices=8, seed=11, n_events=2,
                         policies=("NA", "AD", "TH50"))
        store = TraceStore.create(tmp_path / "store")
        store.build_for_spec(spec)
        refs = []
        trace_for = store.trace_for

        def spy(config):
            trace = trace_for(config)
            refs.append(weakref.ref(trace))
            return trace

        store.trace_for = spy
        gc.collect()
        before = open_fds()
        run_fleet(spec, kernel=kernel, trace_store=store)
        gc.collect()
        assert len(refs) == spec.devices
        assert all(ref() is None for ref in refs)
        assert open_fds() == before

    def test_fd_exhaustion_is_a_miss(self, tmp_path, monkeypatch):
        config = small_config()
        store = populated(tmp_path, config)

        def exhausted(*args):
            raise OSError(errno.EMFILE, "Too many open files")

        monkeypatch.setattr(os, "open", exhausted)
        assert store.trace_for(config) is None
        assert store.schedule_for(config) is None

    def test_other_os_errors_still_raise(self, tmp_path, monkeypatch):
        config = small_config()
        store = populated(tmp_path, config)

        def denied(*args):
            raise OSError(errno.EACCES, "Permission denied")

        monkeypatch.setattr(os, "open", denied)
        with pytest.raises(TraceError, match="unreadable"):
            store.trace_for(config)

    def test_vector_fleet_survives_a_low_fd_limit(self, tmp_path):
        pytest.importorskip("resource")
        if open_fds() is None:
            pytest.skip("needs /proc/self/fd to count open fds")
        script = textwrap.dedent("""
            import gc, json, os, resource, sys
            from repro.fleet import FleetSpec, run_fleet
            from repro.trace.store import TraceStore

            spec = FleetSpec(devices=64, seed=5, n_events=2,
                             policies=("NA", "AD", "TH50"))
            store = TraceStore.create(sys.argv[1])
            store.build_for_spec(spec)
            misses = []
            trace_for = store.trace_for

            def spy(config):
                trace = trace_for(config)
                misses.append(trace is None)
                return trace

            store.trace_for = spy

            def rollup(**kwargs):
                result = run_fleet(spec, kernel="vector", **kwargs)
                return json.dumps(result.rollup.to_dict(), sort_keys=True)

            plain = rollup()
            soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)

            def limited(limit):
                misses.clear()
                resource.setrlimit(resource.RLIMIT_NOFILE, (limit, hard))
                try:
                    backed = rollup(trace_store=store)
                finally:
                    resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
                return {"same": backed == plain, "misses": sum(misses)}

            roomy = limited(64)
            gc.collect()
            # The listing's own directory fd is closed again before the run.
            tight = limited(len(os.listdir("/proc/self/fd")) - 1)
            print(json.dumps({"entries": len(store),
                              "segments": len(store._segments),
                              "roomy": roomy, "tight": tight}))
        """)
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "store")],
            capture_output=True, text=True, env=src_env(), timeout=300,
        )
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout.strip().splitlines()[-1])
        # More entries than the 64-fd limit, packed in one segment: one fd
        # maps them all, so nothing is refused.
        assert report["entries"] == 128 and report["segments"] == 1
        assert report["roomy"] == {"same": True, "misses": 0}
        # With no fd to spare the segment mapping itself is refused, and
        # every device regenerates the same bytes.
        assert report["tight"]["misses"] > 0
        assert report["tight"]["same"]


class TestCli:
    def test_build_ls_verify(self, tmp_path, capsys):
        from repro.trace.__main__ import main

        store_dir = str(tmp_path / "cli-store")
        assert main([
            "store", "build", store_dir,
            "--devices", "6", "--seed", "3", "--events", "4", "--quiet",
        ]) == 0
        assert main(["store", "ls", store_dir, "--entries"]) == 0
        listing = capsys.readouterr().out
        assert main(["store", "verify", store_dir]) == 0
        out = capsys.readouterr().out
        assert "entries" in listing and "all digests match" in out
        # Every listed entry lives in the one segment beside the manifest.
        (segment,) = set(os.listdir(store_dir)) - {"manifest.json"}
        assert segment.startswith("seg-") and segment.endswith(".bin")
        rows = [line for line in listing.splitlines() if line.startswith("  ")]
        assert rows and all(row.endswith(segment) for row in rows)
        assert f"verified {len(rows)} entries" in out

    def test_verify_reports_corruption(self, tmp_path, capsys):
        from repro.trace.__main__ import main

        store_dir = str(tmp_path / "cli-store")
        main([
            "store", "build", store_dir,
            "--devices", "2", "--seed", "3", "--events", "4", "--quiet",
        ])
        store = TraceStore.open(store_dir)
        entry = next(iter(store._entries.values()))
        path = os.path.join(store_dir, entry["file"])
        with open(path, "r+b") as handle:
            handle.seek(entry["offset"])
            handle.write(b"\xff" * 8)
        assert main(["store", "verify", store_dir]) == 1
        assert "CORRUPT" in capsys.readouterr().err
