"""End-to-end byte-identity gate (the `make smoke` / CI gate).

Writes one :class:`FleetSpec` JSON — 24 devices, 2 shards, policies
NA,AD,QZ,TH50 (QZ exercises the vector kernel's scalar-fallback lanes
and ``pid_update`` trace events) — and drives every leg from that file:
the CLI legs through ``--spec``, the serve leg through
``FleetSpec.from_json``.  One scalar, store-less, unobserved reference
rollup is computed first, and every other leg must reproduce it byte for
byte:

1. kill/resume: ``--stop-after 1`` journals one shard and exits 3, then
   ``--resume`` finishes the run;
2. ``--kernel vector`` (also writing ``--metrics-out``);
3. ``--shards``/``--jobs`` varied (also writing ``--metrics-out``): the
   ``.prom`` text and metrics ``.json`` must match leg 2's byte for byte;
4. ``--trace-store`` on both kernels, after ``python -m repro.trace
   store build`` / ``ls`` / ``verify``; the store must hold one segment
   file per 256 entries beside its manifest, and a second ``store build
   --jobs 2`` must write a byte-identical manifest and segment files; the
   vector leg reruns with the soft ``RLIMIT_NOFILE`` 16 above the open
   fds, below the store's 48 entries, and must still match;
5. the fully observed run (``--trace-out``, ``--metrics-out``,
   ``--telemetry-out``, ``--kernel-stats``), minus its ``kernel_stats``
   key; its Chrome trace, JSONL events and heartbeats must schema-validate,
   its Prometheus text must parse, and the ``end`` heartbeat's
   ``phase_seconds`` must equal the ``--json`` ``kernel_stats`` phases
   exactly;
6. the fleet service: a cache miss, then a cache hit; a mutated spec must
   miss; the hit and a ``result`` response, read as raw lines, must each
   equal ``protocol.encode`` of their decoding and carry the reference
   bytes verbatim; the watched telemetry runs start/heartbeat/end; the
   final stats are exactly 3 submissions, 1 hit, 2 misses, 2 entries;
7. figure regeneration (``python -m repro.experiments --events 6
   --seeds 1``), each leg from an empty run memo: ``--jobs 1`` and
   ``--jobs 2`` must write byte-identical ``--json``, so memoized repeats
   read the same whether forked workers or the parent simulated them;
8. straggler migration: a second, 200-device all-baseline spec (the
   24-device spec's batches are too narrow to migrate) must give the
   same ``--json`` under ``--kernel vector`` as under ``--kernel scalar``,
   and its ``--kernel-stats`` must report migrated lanes.

Exits non-zero with a diagnostic on any deviation.  Artifacts are
written under ``SMOKE_DIR`` (default: a temp dir), which must be empty
or absent; CI uploads it.
"""

import contextlib
import dataclasses
import filecmp
import gc
import io
import json
import os
import resource
import socket
import sys
import tempfile

from repro.experiments.__main__ import main as experiments_main
from repro.experiments.runner import clear_run_memo
from repro.fleet.__main__ import main as fleet_main
from repro.fleet.spec import FleetSpec
from repro.obs import validate_chrome_trace, validate_jsonl_events
from repro.obs.heartbeat import validate_heartbeat_records
from repro.serve import (
    FleetClient,
    ServeConfig,
    ServerHandle,
    canonical_rollup_json,
    protocol,
)
from repro.trace.__main__ import main as trace_main

SPEC = FleetSpec(devices=24, seed=3, name="smoke", n_events=5,
                 policies=("NA", "AD", "QZ", "TH50"))
SHARDS = 2
#: Wide enough that the vector kernel migrates its straggler tail.
MIGRATION_SPEC = FleetSpec(devices=200, seed=3, name="smoke-migration",
                           n_events=5,
                           policies=("NA", "AD", "TH50", "CN", "PZO", "PZI"))
CLIS = {"repro.experiments": experiments_main, "repro.fleet": fleet_main,
        "repro.trace": trace_main}


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run(module: str, *args: str, expect: int = 0) -> None:
    print(f"$ python -m {module} {' '.join(args)}")
    code = CLIS[module](list(args))
    if code != expect:
        fail(f"exit code {code}, expected {expect}")


def read(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def check_prometheus(text: str) -> str | None:
    """A light parse of the text exposition format; None when it holds."""
    families = set()
    for i, line in enumerate(text.splitlines()):
        where = f".prom line {i + 1}"
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            families.add(line.split()[2])
            continue
        if not line:
            return f"{where}: empty line"
        name, _, value = line.rpartition(" ")
        name = name.split("{")[0]
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix):
                base = name[: -len(suffix)]
        if base not in families and name not in families:
            return f"{where}: sample {name!r} has no HELP/TYPE header"
        try:
            float(value)
        except ValueError:
            return f"{where}: unparsable value {value!r}"
    if "repro_captures_total" not in families:
        return "repro_captures_total family missing"
    return None


def check_heartbeats(beats: list, what: str) -> None:
    problems = validate_heartbeat_records(beats)
    if problems:
        fail(f"{what} invalid: {problems[:3]}")
    kinds = [beat["type"] for beat in beats]
    if kinds[0] != "start" or kinds[-1] != "end" or "heartbeat" not in kinds:
        fail(f"{what} does not run start/heartbeat/end: {kinds}")


def jsonl(path: str) -> list:
    return [json.loads(line) for line in read(path).splitlines()]


def smoke(out: str) -> None:
    def path(name: str) -> str:
        return os.path.join(out, name)

    spec_path = path("spec.json")
    with open(spec_path, "w") as handle:
        handle.write(SPEC.to_json())

    def fleet(*args: str, expect: int = 0) -> None:
        run("repro.fleet", "--spec", spec_path, "--quiet", *args, expect=expect)

    fleet("--kernel", "scalar", "--json", path("reference.json"))
    reference = read(path("reference.json"))

    def same(text: str, leg: str) -> None:
        if text != reference:
            fail(f"{leg} rollup differs from the scalar reference")

    # 1. Kill after one shard, then resume.
    journal = ("--shards", str(SHARDS), "--checkpoint", path("journal"))
    fleet(*journal, "--stop-after", "1", expect=3)
    fleet(*journal, "--resume", "--json", path("resumed.json"))
    same(read(path("resumed.json")), "kill/resume")

    # 2-3. Vector kernel; shards and jobs varied.  Metrics are invariant.
    fleet("--kernel", "vector", "--json", path("vector.json"),
          "--metrics-out", path("metrics-vector"))
    same(read(path("vector.json")), "--kernel vector")
    fleet("--kernel", "scalar", "--shards", "3", "--jobs", "2",
          "--json", path("varied.json"), "--metrics-out", path("metrics-varied"))
    same(read(path("varied.json")), "--shards 3 --jobs 2")
    for ext in (".prom", ".json"):
        if read(path("metrics-vector" + ext)) != read(path("metrics-varied" + ext)):
            fail(f"metrics{ext} differs across run configurations")

    # 4. Trace store on both kernels; entries pack 256 to a segment file
    # with one record each, and a forked (--jobs 2) build must write the
    # same manifest, segments and records, byte for byte.
    store, forked = path("store"), path("store-forked")
    for directory, jobs in ((store, "1"), (forked, "2")):
        run("repro.trace", "store", "build", directory,
            "--devices", str(SPEC.devices), "--seed", str(SPEC.seed),
            "--name", SPEC.name, "--events", str(SPEC.n_events),
            "--policies", ",".join(SPEC.policies), "--jobs", jobs, "--quiet")
    names = sorted(os.listdir(store))
    segments = [name for name in names if name.endswith(".bin")]
    records = [name for name in names if name.startswith("seg-") and name.endswith(".json")]
    entries = sum(len(json.loads(read(os.path.join(store, name)))["entries"])
                  for name in records)
    if (len(segments) != -(-entries // 256)
            or records != [f"{name[:-4]}.json" for name in segments]
            or len(names) != 2 * len(segments) + 1):
        fail(f"store holds {len(names)} files for {entries} entries; expected "
             "one segment and one record per 256 entries plus manifest.json")
    if names != sorted(os.listdir(forked)):
        fail("--jobs 2 store holds different files than the --jobs 1 store")
    _, mismatch, errors = filecmp.cmpfiles(store, forked, names, shallow=False)
    if mismatch or errors:
        fail(f"--jobs 2 store files {(mismatch + errors)[:3]} differ from the "
             "--jobs 1 build")
    run("repro.trace", "store", "ls", store)
    run("repro.trace", "store", "verify", store)
    for kernel in ("scalar", "vector"):
        fleet("--kernel", kernel, "--trace-store", store,
              "--json", path(f"store-{kernel}.json"))
        same(read(path(f"store-{kernel}.json")), f"--trace-store --kernel {kernel}")
    # A soft fd limit below the store's entry count: the run must still
    # match (any refused mapping regenerates instead of failing the fleet).
    gc.collect()
    limit = len(os.listdir("/dev/fd")) + 16
    if limit >= entries:
        fail(f"fd-limited leg needs more than {limit} store entries, has {entries}")
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    resource.setrlimit(resource.RLIMIT_NOFILE, (limit, hard))
    try:
        fleet("--kernel", "vector", "--trace-store", store,
              "--json", path("store-fd-limited.json"))
    finally:
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
    same(read(path("store-fd-limited.json")),
         f"--trace-store --kernel vector under a {limit}-fd limit")

    # 5. Fully observed: artifacts validate and the rollup is unchanged.
    fleet("--shards", str(SHARDS), "--kernel", "vector", "--kernel-stats",
          "--json", path("observed.json"), "--trace-out", path("trace"),
          "--metrics-out", path("metrics"),
          "--telemetry-out", path("telemetry.jsonl"))
    problems = validate_chrome_trace(json.loads(read(path("trace.chrome.json"))))
    if problems:
        fail(f"chrome trace invalid: {problems[:3]}")
    rows = jsonl(path("trace.jsonl"))
    if not rows:
        fail("trace.jsonl is empty")
    problems = validate_jsonl_events(rows)
    if problems:
        fail(f"trace.jsonl invalid: {problems[:3]}")
    beats = jsonl(path("telemetry.jsonl"))
    check_heartbeats(beats, "telemetry.jsonl")
    problem = check_prometheus(read(path("metrics.prom")))
    if problem:
        fail(f"metrics.prom invalid: {problem}")
    json.loads(read(path("metrics.json")))
    observed = json.loads(read(path("observed.json")))
    stats = observed.pop("kernel_stats")  # wall clock, opt-in, not a result
    same(canonical_rollup_json(observed), "observed")
    # One telemetry record: the end heartbeat's phases are the result's.
    phases = {key: stats[key] for key in
              ("setup_s", "ctrl_s", "adv_s", "rech_s", "fallback_s")}
    if beats[-1]["phase_seconds"] != phases:
        fail(f"end heartbeat phase_seconds {beats[-1]['phase_seconds']} "
             f"differ from --json kernel_stats {phases}")

    # 6. Served (miss), cached (hit), mutated (miss).
    spec = FleetSpec.from_json(read(spec_path))
    mutated = dataclasses.replace(spec, seed=spec.seed + 1)
    config = ServeConfig(data_dir=path("server"))
    print("$ python -m repro.serve  # in-process, ephemeral port")
    with ServerHandle(config) as server, FleetClient(port=server.port) as client:
        first = client.submit(spec, shards=SHARDS, wait=True)
        if not first["ok"] or first["cached"]:
            fail(f"first submission should compute, got {first}")
        def raw(request: dict) -> bytes:
            """One response line exactly as the server framed it."""
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=300) as sock:
                sock.sendall(protocol.encode(
                    {"schema_version": protocol.PROTOCOL_VERSION, **request}
                ))
                return sock.makefile("rb").readline()

        hit_line = raw({"op": "submit", "spec": spec.to_wire(), "shards": 4,
                        "wait": True})
        result_line = raw({"op": "result", "spec": spec.to_wire()})
        for line, leg in ((hit_line, "cache-hit"), (result_line, "result")):
            if line != protocol.encode(json.loads(line)):
                fail(f"{leg} frame is not protocol.encode of its own decoding")
            if b'"rollup": ' + reference.encode("utf-8") + b"," not in line:
                fail(f"{leg} frame does not carry the reference rollup bytes")
        second = json.loads(hit_line)
        if not second["ok"] or not second["cached"]:
            fail(f"identical resubmission should hit the cache, got "
                 f"{ {k: second[k] for k in ('ok', 'state', 'cached')} }")
        third = client.submit(mutated, shards=SHARDS, wait=True)
        if not third["ok"] or third["cached"]:
            fail("mutated spec (seed changed) must miss the cache")
        same(canonical_rollup_json(first["rollup"]), "served")
        same(canonical_rollup_json(second["rollup"]), "cached")
        if canonical_rollup_json(third["rollup"]) == reference:
            fail("mutated spec produced the base spec's rollup")

        beats = list(client.watch(spec))
        check_heartbeats(beats, "served telemetry")
        stats = client.stats()
        expected = {"hits": 1, "misses": 2, "entries": 2}
        if stats["cache"] != expected:
            fail(f"cache stats {stats['cache']}, expected {expected}")
        if stats["submitted"] != 3:
            fail(f"expected 3 submissions, got {stats['submitted']}")
        client.shutdown()
    with open(path("serve-telemetry.jsonl"), "w") as handle:
        for beat in beats:
            handle.write(json.dumps(beat, sort_keys=True) + "\n")
    with open(path("serve-stats.json"), "w") as handle:
        json.dump(stats, handle, sort_keys=True, indent=2)

    # 7. Figures, serial and forked, each from an empty run memo.
    for jobs in ("1", "2"):
        args = ("--events", "6", "--seeds", "1", "--jobs", jobs,
                "--json", path(f"figures-jobs{jobs}.json"))
        print(f"$ python -m repro.experiments {' '.join(args)}  # renders hidden")
        clear_run_memo()
        with contextlib.redirect_stdout(io.StringIO()):
            run("repro.experiments", *args)
    if read(path("figures-jobs1.json")) != read(path("figures-jobs2.json")):
        fail("--jobs 2 figure JSON differs from the --jobs 1 regeneration")

    # 8. Straggler migration: vector continues lanes on the scalar engine.
    wide = path("spec-migration.json")
    with open(wide, "w") as handle:
        handle.write(MIGRATION_SPEC.to_json())
    run("repro.fleet", "--spec", wide, "--quiet", "--kernel", "scalar",
        "--json", path("migration-scalar.json"))
    run("repro.fleet", "--spec", wide, "--quiet", "--kernel", "vector",
        "--kernel-stats", "--json", path("migration-vector.json"))
    migrated = json.loads(read(path("migration-vector.json")))
    stats = migrated.pop("kernel_stats")
    if canonical_rollup_json(migrated) != read(path("migration-scalar.json")):
        fail("--kernel vector rollup of the migration spec differs from scalar")
    if not stats["migrated_lanes"]:
        fail(f"the migration spec migrated no lanes: {stats}")


def main() -> int:
    keep = os.environ.get("SMOKE_DIR")
    if keep:
        os.makedirs(keep, exist_ok=True)
        if os.listdir(keep):
            fail(f"SMOKE_DIR {keep!r} is not empty")
        smoke(keep)
    else:
        with tempfile.TemporaryDirectory(prefix="smoke-") as tmp:
            smoke(tmp)
    print("smoke OK: kill/resume, vector, varied shards/jobs, trace-store "
          "(serial and forked builds byte-identical), "
          "observed, served and cached rollups are byte-identical to the "
          "scalar reference; metrics are run-configuration-invariant; "
          "every artifact validates; the end heartbeat's phases equal "
          "--kernel-stats; 1 cache hit in 3 submissions; "
          "figure JSON is byte-identical at --jobs 1 and --jobs 2; "
          "migrated vector lanes match the scalar engine")
    return 0


if __name__ == "__main__":
    sys.exit(main())
