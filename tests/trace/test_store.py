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
import json
import os
import subprocess
import sys
import textwrap
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
from repro.trace.store import TraceStore, fingerprint_key, solar_store_key
from repro.trace.solar import SolarTraceConfig, SolarTraceGenerator


def small_config(trace_seed=7, schedule_seed=70, cells=6, n_events=4):
    config = apollo_simulation_config(n_events=n_events)
    import dataclasses

    return dataclasses.replace(
        config, trace_seed=trace_seed, schedule_seed=schedule_seed, cells=cells
    )


def populated(tmp_path, config):
    store = TraceStore.create(tmp_path / "store")
    store.put_for_config(config)
    store.save()
    return store


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
        store = populated(tmp_path, small_config())
        entry = next(iter(store._entries.values()))
        path = os.path.join(store.directory, entry["file"])
        with open(path, "r+b") as handle:
            handle.seek(entry["offset"] + 8)
            byte = handle.read(1)
            handle.seek(entry["offset"] + 8)
            handle.write(bytes([byte[0] ^ 0xFF]))
        problems = store.verify()
        assert problems and "sha256 mismatch" in problems[0]

    def test_verify_catches_missing_file(self, tmp_path):
        store = populated(tmp_path, small_config())
        entry = next(iter(store._entries.values()))
        os.remove(os.path.join(store.directory, entry["file"]))
        problems = store.verify()
        assert any("missing" in problem for problem in problems)

    def test_attach_rejects_truncated_file(self, tmp_path):
        config = small_config()
        store = populated(tmp_path, config)
        key = config.trace_store_key()
        entry = store._entries[fingerprint_key(key)]
        path = os.path.join(store.directory, entry["file"])
        with open(path, "r+b") as handle:
            handle.truncate(entry["offset"] + entry["bytes"] - 16)
        with pytest.raises(TraceError, match="truncated"):
            store.get_trace(key)
        assert store.verify()  # size check or load failure flags it

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
        serial = TraceStore.create(tmp_path / "serial")
        forked = TraceStore.create(tmp_path / "forked")
        assert serial.build_for_spec(self.SPEC, jobs=1) == forked.build_for_spec(
            self.SPEC, jobs=2
        )
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
                {"version": 1, "entries": store._entries},
                handle, sort_keys=True, indent=None,
            )
        assert text == expected.read_text(encoding="utf-8")


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
        script = textwrap.dedent("""
            import json, resource, sys
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
            resource.setrlimit(resource.RLIMIT_NOFILE, (64, hard))
            try:
                backed = rollup(trace_store=store)
            finally:
                resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
            print(json.dumps({"same": backed == plain, "entries": len(store),
                              "misses": sum(misses)}))
        """)
        src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath(src)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "store")],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout.strip().splitlines()[-1])
        assert report["entries"] == 128  # more entries than the fd limit
        assert report["misses"] > 0      # the limit really refused mappings
        assert report["same"]


class TestCli:
    def test_build_ls_verify(self, tmp_path, capsys):
        from repro.trace.__main__ import main

        store_dir = str(tmp_path / "cli-store")
        assert main([
            "store", "build", store_dir,
            "--devices", "6", "--seed", "3", "--events", "4", "--quiet",
        ]) == 0
        assert main(["store", "ls", store_dir, "--entries"]) == 0
        assert main(["store", "verify", store_dir]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "all digests match" in out

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
