"""The trace store contract: round-trip bit-identity, integrity, sharing.

A store-attached trace or schedule must be indistinguishable — bit for
bit, query for query — from the freshly generated object it was built
from; anything less would silently break the fleet kernel's parity
guarantee.  The store must also detect payload corruption (``verify``),
and attached arrays must stay file-backed so forked workers share one
page-cache copy instead of duplicating the library per process.
"""

import dataclasses
import errno
import gc
import hashlib
import json
import os
import shutil
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

from repro.env.activity import APOLLO_ENVIRONMENTS
from repro.env.events import EventSchedule
from repro.errors import TraceError
from repro.experiments.configs import apollo_simulation_config
from repro.fleet.spec import FleetSpec
from repro.trace import store as store_module
from repro.trace.power_trace import PiecewiseConstantTrace
from repro.trace.store import (
    _SEGMENT_ENTRIES,
    KeyTemplate,
    TraceStore,
    fingerprint_key,
    schedule_store_key,
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

        def snapshot():
            # A rewrite replaces the inode, so (mtime, inode, bytes) of
            # every file shows any write.
            out = {}
            for name in sorted(os.listdir(store.directory)):
                path = os.path.join(store.directory, name)
                stat = os.stat(path)
                with open(path, "rb") as handle:
                    out[name] = (stat.st_mtime_ns, stat.st_ino, handle.read())
            return out

        before = snapshot()
        again = TraceStore.open(store.directory).build_for_spec(self.SPEC)
        assert again == {
            "traces": 0,
            "schedules": 0,
            "reused": first["traces"] + first["schedules"],
        }
        assert snapshot() == before

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
        """Every record is the canonical (sorted-keys, compact) JSON of its
        content, and holds each distinct params value once."""
        store = TraceStore.create(tmp_path / "store")
        store.build_for_spec(self.SPEC)
        records = sorted(name for name in os.listdir(store.directory)
                         if name.endswith(".json") and name != "manifest.json")
        assert records == sorted(f"{name[:-4]}.json" for name in store._segments)
        for name in records:
            with open(os.path.join(store.directory, name), "rb") as handle:
                data = handle.read()
            record = json.loads(data)
            assert data == json.dumps(
                record, sort_keys=True, separators=(",", ":")
            ).encode()
            params = [json.dumps(p, sort_keys=True) for p in record["params"]]
            assert len(set(params)) == len(params) < len(record["entries"])
        with open(os.path.join(store.directory, "manifest.json")) as handle:
            assert json.load(handle) == {"version": 3}

    def test_build_encodes_only_the_records_it_adds(self, tmp_path, monkeypatch):
        store = TraceStore.create(tmp_path / "store")
        store.build_for_spec(TestSegments.SPEC)
        before = set(store._entries)
        encoded = []
        record_bytes = store_module._record_bytes

        def spy(size, entries):
            encoded.extend(fingerprint for fingerprint, _ in entries)
            return record_bytes(size, entries)

        monkeypatch.setattr(store_module, "_record_bytes", spy)
        # The first 150 devices' entries are stored already.
        wider = dataclasses.replace(TestSegments.SPEC, devices=170)
        counts = store.build_for_spec(wider)
        added = set(store._entries) - before
        assert counts["traces"] + counts["schedules"] == len(added) > 0
        assert sorted(encoded) == sorted(added)
        assert len(TraceStore.open(store.directory)) == len(store)


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
        records = [f"{name[:-4]}.json" for name in store._segments]
        assert sorted(os.listdir(store.directory)) == sorted(
            ["manifest.json", *store._segments, *records]
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


#: The manifest.json of a version-2 store (one manifest listing every
#: entry with its full key), as the version-2 code wrote it for
#: ``FleetSpec(devices=1, seed=5, n_events=4)``.
V2_MANIFEST = os.path.join(os.path.dirname(__file__), "data", "store_v2_manifest.json")


class TestOldManifests:
    @pytest.mark.parametrize("opener", [TraceStore.open, TraceStore.create])
    def test_v2_store_is_refused(self, tmp_path, opener):
        directory = tmp_path / "v2"
        directory.mkdir()
        shutil.copy(V2_MANIFEST, directory / "manifest.json")
        before = store_files(directory)
        with pytest.raises(TraceError, match="manifest version 2; .*fresh store"):
            opener(directory)
        assert store_files(directory) == before

    def test_v1_store_is_refused(self, tmp_path):
        directory = tmp_path / "v1"
        directory.mkdir()
        (directory / "manifest.json").write_text(
            json.dumps({"version": 1, "entries": {}}, sort_keys=True)
        )
        with pytest.raises(TraceError, match="manifest version 1"):
            TraceStore.open(directory)


class TestDamagedRecords:
    """A record that is torn or names a missing segment costs a rebuild of
    its entries, never a crash and never wrong bytes."""

    SPEC = TestSegments.SPEC

    @staticmethod
    def rollup(spec, **kwargs) -> str:
        from repro.fleet import run_fleet

        result = run_fleet(spec, **kwargs)
        return json.dumps(result.rollup.to_dict(), sort_keys=True)

    def built(self, tmp_path):
        store = TraceStore.create(tmp_path / "store")
        store.build_for_spec(self.SPEC)
        # Segments are written in build order, so the last entry's
        # segment holds the final record.
        final = list(store._entries.values())[-1]["file"]
        lost = {fp for fp, entry in store._entries.items() if entry["file"] == final}
        assert 0 < len(lost) < len(store)
        return store, final, lost

    def test_torn_final_record(self, tmp_path):
        store, segment, lost = self.built(tmp_path)
        record = os.path.join(store.directory, f"{segment[:-4]}.json")
        with open(record, "rb") as handle:
            intact = handle.read()
        with open(record, "r+b") as handle:
            handle.truncate(len(intact) // 2)

        reopened = TraceStore.open(store.directory)
        assert set(reopened._entries) == set(store._entries) - lost
        assert segment not in reopened._segments
        assert [p for p in reopened.verify() if "unreadable record" in p]
        plain = self.rollup(self.SPEC)
        assert self.rollup(self.SPEC, trace_store=reopened) == plain

        counts = reopened.build_for_spec(self.SPEC)
        assert counts["traces"] + counts["schedules"] == len(lost)
        assert counts["reused"] == len(store) - len(lost)
        with open(record, "rb") as handle:
            assert handle.read() == intact
        rebuilt = TraceStore.open(store.directory)
        assert set(rebuilt._entries) == set(store._entries)
        assert rebuilt.verify() == []
        assert self.rollup(self.SPEC, trace_store=rebuilt) == plain

    def test_record_naming_a_missing_segment_is_a_miss(self, tmp_path):
        store, segment, lost = self.built(tmp_path)
        configs = [self.SPEC.device_config(i)[1] for i in range(self.SPEC.devices)]
        # The final segment holds schedules (traces are built first).
        missing = [c for c in configs if c.schedule_store_fingerprint() in lost]
        assert missing
        os.remove(os.path.join(store.directory, segment))
        # Removed under an open store: the attach is a miss.
        assert store.schedule_for(missing[0]) is None
        # Reopened: the record is skipped, and only it.
        reopened = TraceStore.open(store.directory)
        assert set(reopened._entries) == set(store._entries) - lost
        assert reopened.schedule_for(missing[0]) is None
        assert any("data file missing" in p for p in reopened.verify())
        counts = reopened.build_for_spec(self.SPEC)
        assert counts["traces"] + counts["schedules"] == len(lost)
        assert TraceStore.open(store.directory).verify() == []
        assert_attaches_identically(reopened, missing[0])


#: SHA-256 fingerprints of solar keys ``(cells, seed)`` and 40-event
#: schedule keys ``(environment, seed)``, recorded from the version-2
#: store code: a fingerprint names an entry in every store ever written.
GOLDEN_SOLAR_FINGERPRINTS = {
    (1, 3): "3e0ed5d15186daa496dd6d4df81577aa7fbd3a33da19d59d79a727d9e5ad1af0",
    (1, 1234567): "0c047fab7903cbb16a31c4213284fa222e4bdacc40862ed28a873f3db6c1e9da",
    (6, 3): "5c3f8364bd4e808b1ea579e5a4ca95436cef144c9d70d44c68ca852b8558d69e",
    (6, 1234567): "6db032d0e5ed76df55030494708de12080dbaf443086ec33263accc4d1fa882f",
    (10, 3): "9d64f1e8d6170ca2ef25cf550889dbaf53349f513d5021d8b635ae49bbb3ab54",
    (10, 1234567): "72aaa5e66f4ec52eb285cc5eaa83fafbb7f909ed414030d50db7e0ef363ba5bb",
}
GOLDEN_EVENT_FINGERPRINTS = {
    ("More Crowded", 10): "4dbdabd0bcd7ede85ef8dcd06975ff3199bd9f042a370523195c69f7fef52620",
    ("More Crowded", 99): "34f464af62a9c2a5e3023093295fa8243b5717da634128627881ef244449c864",
    ("Crowded", 10): "1953555c13f61e5712f18f75e2bb1e79d34aeb444aa44134b881d9943bf03780",
    ("Crowded", 99): "a5203d1be2d84a10b7eb6eb315bc19b66bdfc3c7727ac734326c317dc9b71e5f",
    ("Less Crowded", 10): "5eedfef482cd3ff16e3d482089a9257b5f6ef778c84fd2413aaa7e4f08f338f3",
    ("Less Crowded", 99): "77994357c3f561923ab024de0ddeb230304dce1489374667a15c0b6360303008",
}
#: SHA-256 of each segment file ``TestSegments.SPEC`` builds, recorded
#: from the version-2 store code: the payload bytes never move.
GOLDEN_SEGMENTS = {
    "seg-e9c702365c9cac50a517.bin": "0753379b5663c2cb94dddf97537d4ebdcaca0fa1dc162c76d562f070c65b9b5a",
    "seg-f7d7c688d9c071580023.bin": "b963d893dfe8c78b5c7c4317c09e95c37763e558a8237cf3723bb5bbc1a477c8",
}


class TestGoldenIdentity:
    @pytest.mark.parametrize("cells,seed", sorted(GOLDEN_SOLAR_FINGERPRINTS))
    def test_solar_fingerprint(self, cells, seed):
        solar = SolarTraceConfig(cells=cells)
        want = GOLDEN_SOLAR_FINGERPRINTS[(cells, seed)]
        assert fingerprint_key(solar_store_key(solar, seed)) == want
        assert KeyTemplate(solar_store_key(solar, 0)).fingerprint(seed) == want
        config = dataclasses.replace(small_config(), cells=cells, trace_seed=seed)
        assert config.trace_store_fingerprint() == want
        assert fingerprint_key(config.trace_store_key()) == want

    @pytest.mark.parametrize("env,seed", sorted(GOLDEN_EVENT_FINGERPRINTS))
    def test_event_fingerprint(self, env, seed):
        (environment,) = [e for e in APOLLO_ENVIRONMENTS if e.name == env]
        want = GOLDEN_EVENT_FINGERPRINTS[(env, seed)]
        key = schedule_store_key(environment.generator, 40, seed)
        assert fingerprint_key(key) == want
        template = KeyTemplate(schedule_store_key(environment.generator, 40, 0))
        assert template.fingerprint(seed) == want
        assert template.key(seed) == key
        config = dataclasses.replace(
            small_config(), environment=environment, n_events=40, schedule_seed=seed
        )
        assert config.schedule_store_fingerprint() == want

    def test_segment_bytes(self, tmp_path):
        store = TraceStore.create(tmp_path / "store")
        store.build_for_spec(TestSegments.SPEC)
        digests = {
            name: hashlib.sha256(data).hexdigest()
            for name, data in store_files(store.directory).items()
            if name.endswith(".bin")
        }
        assert digests == GOLDEN_SEGMENTS


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
    released (mapping and fd) when the run drops them."""

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
        # Every listed entry lives in the one segment beside the manifest
        # and the segment's record.
        segment, record = sorted(set(os.listdir(store_dir)) - {"manifest.json"})
        assert segment.startswith("seg-") and segment.endswith(".bin")
        assert record == f"{segment[:-4]}.json"
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
