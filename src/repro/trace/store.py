"""Memory-mapped columnar trace store.

Synthetic solar traces and event schedules are deterministic functions of
``(generator params, seed)``, yet every fleet worker used to regenerate
them in-process — ~11 s of the 8192-device ``fleet_scale`` setup was
spent re-running the cloud Markov chain and the event draw loops.  This
module turns that recompute into a *read*: a directory holding

* immutable segment files, ``seg-<sha256 of their entry fingerprints>
  [:20].bin``, each packing up to 256 ``(trace-kind, params, seed)``
  entries as raw ``float64`` payloads back to back (64-byte aligned), in
  exactly the columnar layout the consumers bind —

  - ``solar``  : ``(2, N)`` rows ``[powers, cum_energy]``
    (``times`` is the implied uniform grid ``arange(N) * sample_period``
    and is rebuilt, once, shared across every attached trace);
  - ``events`` : ``(3, E)`` rows ``[starts, durations, interesting]``
    (the ``EventSchedule.arrays()`` columns);

* one record per segment, ``seg-<same digest>.json``, written (tmp +
  ``os.replace``) only after its segment is in place: the segment's size
  and, per entry in offset order, the SHA-256 fingerprint of its
  canonical key, offset, shape, payload digest and the scalar metadata
  needed to re-attach without recomputation (``period``,
  ``energy_per_period``, …).  An entry's key names its generator params
  by position in the record's params table, so each distinct params
  object is stored once per segment, not once per entry;

* a ``manifest.json`` holding only the store's format version (3).

A build therefore writes records only for the segments it adds and never
rewrites what is there, so its cost does not grow with the store
(DESIGN.md §10, "The memory-mapped trace store", has the measured costs).  Opening
a store reads every record; entries that appear in several records (two
writers that stored the same entry) resolve to the first by file name.
A record that does not parse (say, one cut short by a crash before the
file system flushed it) or that names a missing segment is skipped: its entries are misses, the generators rebuild the same bytes,
and the next ``build_for_spec`` writes them back.  ``verify`` reports
both.  Stores of earlier versions (one ``manifest.json`` listing every
entry) are refused with a ``TraceError``; build a fresh store instead.

Attach is zero-copy: each segment is mapped once, while any of its
entries is attached, and :meth:`PiecewiseConstantTrace._attach` /
:meth:`EventSchedule._from_arrays` bind row views of it directly, so N
fleet workers (forked or independent) share one page-cache copy of a
GB-scale trace library.  Entries are immutable once written — a
fingerprint never changes meaning — which is what makes the store safe
to share between concurrent runs and to reuse across specs (any config
whose ``(params, seed)`` matches hits the same entry).  A writer killed
mid-build leaves at worst segments without a record or ``*.tmp.<pid>``
files, which no record names; a rebuild rewrites the same entries under
the same segment name.

CLI::

    python -m repro.trace store build DIR --devices N [fleet-spec flags]
    python -m repro.trace store ls DIR
    python -m repro.trace store verify DIR
"""

from __future__ import annotations

import dataclasses
import errno
import hashlib
import json
import mmap
import os
import weakref
from typing import TYPE_CHECKING

import numpy as np

from repro.env.events import EventSchedule, EventScheduleGenerator
from repro.errors import TraceError
from repro.trace.power_trace import PiecewiseConstantTrace
from repro.trace.solar import SolarTraceConfig, SolarTraceGenerator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (experiments -> trace)
    from repro.experiments.configs import ExperimentConfig
    from repro.fleet.spec import FleetSpec

__all__ = [
    "KeyTemplate",
    "TraceStore",
    "fingerprint_key",
    "schedule_store_key",
    "solar_store_key",
]

_MANIFEST = "manifest.json"
_VERSION = 3
# Entries per segment file, in build order.  A constant, so the files a
# build writes never depend on ``jobs``.
_SEGMENT_ENTRIES = 256
_ALIGN = 64


# -- entry keys ---------------------------------------------------------------
#
# A store key is a plain JSON-able dict naming everything the generator
# reads: the kind, the full generator params, and the seed (plus the
# generate() call arguments).  Fingerprints are SHA-256 over the
# canonical (sorted-keys, compact) JSON encoding, mirroring
# FleetSpec.fingerprint() so the identity survives process restarts and
# dict ordering.


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def fingerprint_key(key: dict) -> str:
    """Stable SHA-256 identity of a store key dict."""
    return hashlib.sha256(_canonical(key).encode()).hexdigest()


class KeyTemplate:
    """Store keys that differ only in their ``seed``.

    The canonical JSON of a key is the template's, with the seed's JSON in
    the middle: the text around it (kind, full generator params, call
    arguments) is encoded once here, so :meth:`fingerprint` hashes the
    same bytes as :func:`fingerprint_key` of :meth:`key` without
    re-encoding the params per seed.
    """

    __slots__ = ("template", "_head", "_tail")

    def __init__(self, template: dict):
        self.template = template
        mark = '"seed":' + _canonical("\0")
        parts = _canonical({**template, "seed": "\0"}).split(mark)
        if len(parts) != 2:
            raise TraceError(f"cannot template store key {template!r}")
        self._head = parts[0] + '"seed":'
        self._tail = parts[1]

    def key(self, seed) -> dict:
        key = dict(self.template)
        key["seed"] = seed
        return key

    def fingerprint(self, seed) -> str:
        seed_json = repr(seed) if type(seed) is int else _canonical(seed)
        return hashlib.sha256(
            f"{self._head}{seed_json}{self._tail}".encode()
        ).hexdigest()


def solar_store_key(config: SolarTraceConfig, seed: int, days: int = 1) -> dict:
    """Store key for ``SolarTraceGenerator(config, seed).generate(days)``."""
    return {
        "kind": "solar",
        "params": dataclasses.asdict(config),
        "seed": int(seed),
        "days": int(days),
    }


def schedule_store_key(
    generator: EventScheduleGenerator,
    n_events: int,
    seed: int,
    start_time: float = 0.0,
) -> dict:
    """Store key for ``generator.generate(n_events, seed, start_time)``."""
    return {
        "kind": "events",
        "params": dataclasses.asdict(generator),
        "n_events": int(n_events),
        "seed": int(seed),
        "start_time": float(start_time),
    }


def _record_bytes(size: int, entries: list) -> bytes:
    """The record of one segment: its size, then its ``(fingerprint,
    entry)`` pairs in offset order, each key naming its params by position
    in a table that holds every distinct params value once."""
    slots: dict[int, int] = {}  # id(params) -> table position
    positions: dict[str, int] = {}  # canonical params JSON -> position
    table = []
    records = []
    for fingerprint, entry in entries:
        key = entry["key"]
        params = key["params"]
        slot = slots.get(id(params))
        if slot is None:
            slot = positions.setdefault(_canonical(params), len(table))
            if slot == len(table):
                table.append(params)
            slots[id(params)] = slot
        records.append({
            "fingerprint": fingerprint, "key": {**key, "params": slot},
            "shape": entry["shape"], "offset": entry["offset"],
            "bytes": entry["bytes"], "meta": entry["meta"],
            "sha256": entry["sha256"],
        })
    return _canonical({"entries": records, "params": table, "size": size}).encode()


def _parse_record(data: bytes, segment: str) -> tuple[int, list]:
    """``(size, [(fingerprint, entry), ...])`` of one record's bytes;
    raises ``ValueError``/``LookupError``/``TypeError`` on a damaged one."""
    record = json.loads(data)
    table = record["params"]
    entries = []
    for item in record["entries"]:
        key = item["key"]
        key["params"] = table[key["params"]]
        entries.append((item["fingerprint"], {
            "kind": key["kind"], "key": key, "file": segment,
            "shape": item["shape"], "offset": item["offset"],
            "bytes": item["bytes"], "meta": item["meta"],
            "sha256": item["sha256"],
        }))
    return int(record["size"]), entries


def _write_atomic(path: str, data: bytes) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as handle:
        handle.write(data)
    os.replace(tmp, path)


class TraceStore:
    """A directory of fingerprinted, memory-mapped trace/schedule entries.

    Open an existing store with :meth:`open` (raises if the directory has
    no manifest) or :meth:`create` (makes the directory and its manifest,
    or opens an existing store for appending).  Writers call
    :meth:`put_trace` / :meth:`put_schedule` / :meth:`put_for_config` or
    :meth:`build_for_spec`, each of which leaves its entries durable on
    return; readers call :meth:`trace_for` / :meth:`schedule_for` with an
    :class:`ExperimentConfig` (or :meth:`get_trace` / :meth:`get_schedule`
    with a raw key) and receive attached, memmap-backed objects — ``None``
    when the entry is absent, so callers can fall back to the generators.

    Attached objects are shared per fingerprint while anything holds
    them (they are immutable) and released with their mapping when the
    last holder drops them; config-level lookups memoize the fingerprint
    on the config's cheap ``trace_key()`` / ``schedule_key()`` tuples so
    the per-device hot path never re-hashes.
    """

    def __init__(self, directory: str | os.PathLike, *, create: bool = False):
        self.directory = os.fspath(directory)
        self._entries: dict[str, dict] = {}
        self._segments: dict[str, int] = {}  # segment file -> size in bytes
        # Attachments live exactly as long as a lane or engine holds them,
        # and a segment's mapping as long as any of its attachments: a
        # forever-memo would pin every mmap, its fd and the lazily built
        # list mirrors for the store's lifetime.
        self._attached: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
        self._maps: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
        self._times_cache: dict[tuple, np.ndarray] = {}
        # trace_key()/schedule_key() -> entry fingerprint.
        self._trace_memo: dict[tuple, str] = {}
        self._schedule_memo: dict[tuple, str] = {}
        manifest = os.path.join(self.directory, _MANIFEST)
        if os.path.exists(manifest):
            try:
                with open(manifest, encoding="utf-8") as handle:
                    data = json.load(handle)
            except (OSError, ValueError) as exc:
                raise TraceError(
                    f"trace store {self.directory} has an unreadable "
                    f"manifest: {exc}"
                ) from exc
            version = data.get("version") if isinstance(data, dict) else None
            if version != _VERSION:
                raise TraceError(
                    f"trace store {self.directory} has manifest version "
                    f"{version!r}; this build reads only version {_VERSION} "
                    "(build a fresh store with `python -m repro.trace store "
                    "build`)"
                )
            self._entries, self._segments, _ = self._read_records()
        elif create:
            os.makedirs(self.directory, exist_ok=True)
            _write_atomic(manifest, json.dumps({"version": _VERSION}).encode())
        else:
            raise TraceError(
                f"no trace store at {self.directory} (missing {_MANIFEST}); "
                "build one with `python -m repro.trace store build`"
            )

    # -- constructors ---------------------------------------------------------

    @classmethod
    def open(cls, directory: str | os.PathLike) -> "TraceStore":
        """Open an existing store (raises ``TraceError`` if absent)."""
        return cls(directory)

    @classmethod
    def create(cls, directory: str | os.PathLike) -> "TraceStore":
        """Create an empty store, or open an existing one for appending."""
        return cls(directory, create=True)

    # -- introspection --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: dict) -> bool:
        return fingerprint_key(key) in self._entries

    def counts(self) -> dict[str, int]:
        """Entry counts by kind."""
        out: dict[str, int] = {}
        for entry in self._entries.values():
            out[entry["kind"]] = out.get(entry["kind"], 0) + 1
        return out

    def nbytes(self) -> int:
        """Total payload bytes across all entries (per the records)."""
        return sum(entry["bytes"] for entry in self._entries.values())

    def render(self) -> str:
        counts = self.counts()
        kinds = ", ".join(f"{kind}={counts[kind]}" for kind in sorted(counts))
        return (
            f"trace store {self.directory}: {len(self._entries)} entries "
            f"({kinds or 'empty'}), {self.nbytes() / 1e6:.1f} MB payload"
        )

    # -- records --------------------------------------------------------------

    def _read_records(self) -> tuple[dict, dict, list[str]]:
        """Every usable record on disk: ``(entries, segment sizes,
        problems)``, where a problem names a record that was skipped."""
        names = set(os.listdir(self.directory))
        entries: dict[str, dict] = {}
        segments: dict[str, int] = {}
        problems: list[str] = []
        for name in sorted(names):
            if not (name.startswith("seg-") and name.endswith(".json")):
                continue
            segment = f"{name[:-5]}.bin"
            if segment not in names:
                problems.append(f"{segment}: data file missing (record {name} skipped)")
                continue
            try:
                with open(os.path.join(self.directory, name), "rb") as handle:
                    size, parsed = _parse_record(handle.read(), segment)
            except (OSError, ValueError, LookupError, TypeError) as exc:
                problems.append(f"{name}: unreadable record, skipped ({exc!r})")
                continue
            segments[segment] = size
            for fingerprint, entry in parsed:
                entries.setdefault(fingerprint, entry)
        return entries, segments, problems

    # -- writing --------------------------------------------------------------

    def _write_segment(self, fingerprints: list[str], payloads) -> tuple:
        """Write one segment and then its record: ``payloads`` yields
        ``(key, data, meta)`` per fingerprint, in order.  Returns ``(file,
        size, entries)``.

        The file names hash the fingerprints, so the same entries always
        make the same files; each payload is written as it is produced, so
        a segment's payloads never sit in memory together.
        """
        digest = hashlib.sha256("".join(fingerprints).encode()).hexdigest()
        name = f"seg-{digest[:20]}"
        filename = f"{name}.bin"
        path = os.path.join(self.directory, filename)
        tmp = f"{path}.tmp.{os.getpid()}"
        entries = []
        with open(tmp, "wb") as handle:
            for fingerprint, (key, data, meta) in zip(fingerprints, payloads):
                handle.write(bytes(-handle.tell() % _ALIGN))
                entries.append((fingerprint, {
                    "kind": key["kind"], "key": key, "file": filename,
                    "shape": list(data.shape), "offset": handle.tell(),
                    "bytes": int(data.nbytes), "meta": meta,
                    "sha256": hashlib.sha256(data).hexdigest(),
                }))
                handle.write(data)
            size = handle.tell()
        os.replace(tmp, path)
        _write_atomic(
            os.path.join(self.directory, f"{name}.json"), _record_bytes(size, entries)
        )
        return filename, size, entries

    def _add_segment(self, segment: tuple) -> None:
        filename, size, entries = segment
        self._segments[filename] = size
        self._entries.update(entries)

    def _put(self, fingerprint: str, key: dict, data, meta: dict) -> None:
        self._add_segment(self._write_segment([fingerprint], [(key, data, meta)]))

    @staticmethod
    def _solar_data(powers, cum_energy, sample_period, period, energy) -> tuple:
        data = np.empty((2, powers.shape[0]), dtype=np.float64)
        data[0] = powers
        data[1] = cum_energy
        meta = {
            "n": powers.shape[0],
            "sample_period": sample_period,
            "period": float(period),
            "energy_per_period": float(energy),
        }
        return data, meta

    @staticmethod
    def _trace_payload(key: dict, trace: PiecewiseConstantTrace) -> tuple:
        if key.get("kind") != "solar":
            raise TraceError(f"put_trace expects a 'solar' key, got {key!r}")
        if trace.period is None:
            raise TraceError("trace store only holds repeating traces")
        times = trace._times
        n = times.shape[0]
        sample_period = float(times[1]) if n > 1 else float(trace.period)
        # The store persists only powers/cum_energy; times is rebuilt as
        # arange(n) * sample_period on attach, so it must equal that grid
        # bit-for-bit (from_samples builds it exactly this way).
        if not np.array_equal(times, np.arange(n, dtype=float) * sample_period):
            raise TraceError("trace store requires a uniform sample grid")
        return TraceStore._solar_data(
            trace._powers, trace._cum_energy, sample_period, trace.period,
            trace._energy_per_period,
        )

    @staticmethod
    def _generated_payload(generator: SolarTraceGenerator, days: int) -> tuple:
        """The payload of ``generator.generate(days)``, computed from its
        samples by ``from_samples``'s own checks and float ops, without
        building the trace."""
        sample_period = generator.config.sample_period_s
        times, powers, period = PiecewiseConstantTrace._sample_grid(
            generator.samples(days), sample_period, repeat=True
        )
        cum_energy, energy = PiecewiseConstantTrace._energy_tables(
            times, powers, period
        )
        # The grid is arange(n) * sample_period, so the sample period that
        # _trace_payload reads off a built trace (times[1], or the period
        # of a one-sample trace) is exactly sample_period.
        return TraceStore._solar_data(
            powers, cum_energy, float(sample_period), period, energy
        )

    @staticmethod
    def _schedule_payload(key: dict, schedule: EventSchedule) -> tuple:
        if key.get("kind") != "events":
            raise TraceError(f"put_schedule expects an 'events' key, got {key!r}")
        starts, durations, interesting = schedule.arrays()
        data = np.empty((3, starts.shape[0]), dtype=np.float64)
        data[0] = starts
        data[1] = durations
        data[2] = interesting
        meta = {
            "n_events": int(starts.shape[0]),
            "diff_probability": float(schedule.diff_probability),
            "background_diff_probability": float(
                schedule.background_diff_probability
            ),
        }
        return data, meta

    @classmethod
    def _config_payload(cls, kind: str, config: "ExperimentConfig") -> tuple:
        """``(key, data, meta)`` of the ``kind`` entry ``config`` needs,
        generated."""
        if kind == "solar":
            key = config.trace_store_key()
            return key, *cls._generated_payload(config.trace_generator(), key["days"])
        key = config.schedule_store_key()
        return key, *cls._schedule_payload(key, config.build_schedule())

    def put_trace(self, key: dict, trace: PiecewiseConstantTrace) -> str:
        """Persist a trace under ``key``; returns its fingerprint.

        Idempotent: an existing entry is left untouched (entries are
        immutable — same key, same params, same data).
        """
        fingerprint = fingerprint_key(key)
        if fingerprint not in self._entries:
            self._put(fingerprint, key, *self._trace_payload(key, trace))
        return fingerprint

    def put_schedule(self, key: dict, schedule: EventSchedule) -> str:
        """Persist an event schedule under ``key``; returns its fingerprint."""
        fingerprint = fingerprint_key(key)
        if fingerprint not in self._entries:
            self._put(fingerprint, key, *self._schedule_payload(key, schedule))
        return fingerprint

    def put_for_config(
        self,
        config: "ExperimentConfig",
        trace: PiecewiseConstantTrace | None = None,
        schedule: EventSchedule | None = None,
    ) -> tuple[str, str]:
        """Persist the trace and schedule one config needs.

        ``trace``/``schedule`` short-circuit regeneration when the caller
        already holds the built objects (the bench stores from prebuilt
        lanes this way); otherwise missing entries are generated from the
        config's generators.
        """
        trace_fp = config.trace_store_fingerprint()
        if trace_fp not in self._entries:
            key = config.trace_store_key()
            self._put(trace_fp, key, *(
                self._generated_payload(config.trace_generator(), key["days"])
                if trace is None else self._trace_payload(key, trace)
            ))
        schedule_fp = config.schedule_store_fingerprint()
        if schedule_fp not in self._entries:
            key = config.schedule_store_key()
            self._put(schedule_fp, key, *self._schedule_payload(
                key, config.build_schedule() if schedule is None else schedule
            ))
        return trace_fp, schedule_fp

    # -- attaching ------------------------------------------------------------

    def _mapped(self, entry: dict) -> np.ndarray | None:
        filename = entry["file"]
        try:
            # One mapping per segment, shared by its live entries.  Mapping
            # through os.open + mmap + frombuffer (rather than np.memmap or
            # a buffered open()) trims the per-mapping overhead.
            mapping = self._maps.get(filename)
            if mapping is None:
                fd = os.open(os.path.join(self.directory, filename), os.O_RDONLY)
                try:
                    mapping = mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
                finally:
                    os.close(fd)
                if len(mapping) != self._segments.get(filename):
                    raise TraceError(f"trace store segment {filename} is truncated")
                self._maps[filename] = mapping
            data = np.frombuffer(
                mapping, dtype=np.float64, count=entry["bytes"] // 8,
                offset=entry["offset"],
            ).reshape(entry["shape"])
        except (OSError, ValueError) as exc:
            # Each live mapping holds one dup'ed fd, so a wide batch can
            # exhaust the fd limit, and a segment can vanish under an open
            # store; either way the generator rebuilds the same bytes.
            if getattr(exc, "errno", None) in (errno.EMFILE, errno.ENFILE, errno.ENOENT):
                return None
            raise TraceError(
                f"trace store entry {filename} unreadable: {exc}"
            ) from exc
        return data

    def _times(self, n: int, sample_period: float) -> np.ndarray:
        cache_key = (n, sample_period)
        times = self._times_cache.get(cache_key)
        if times is None:
            times = np.arange(n, dtype=float) * sample_period
            times.setflags(write=False)
            self._times_cache[cache_key] = times
        return times

    def _attach(self, fingerprint: str, kind: str):
        """The live attachment for ``fingerprint``, mapping it if needed.

        ``None`` when the store lacks the entry or the fd limit refused
        the mapping; callers then fall back to the generators.
        """
        attached = self._attached.get(fingerprint)
        if attached is not None:
            return attached
        entry = self._entries.get(fingerprint)
        if entry is None:
            return None
        if entry["kind"] != kind:
            raise TraceError(
                f"entry for {entry['key']!r} is {entry['kind']}, not {kind}"
            )
        data = self._mapped(entry)
        if data is None:
            return None
        meta = entry["meta"]
        if kind == "solar":
            attached = PiecewiseConstantTrace._attach(
                self._times(entry["shape"][1], meta["sample_period"]),
                data[0],
                data[1],
                meta["period"],
                meta["energy_per_period"],
            )
        else:
            attached = EventSchedule._from_arrays(
                data[0],
                data[1],
                data[2] != 0.0,
                meta["diff_probability"],
                meta["background_diff_probability"],
            )
        self._attached[fingerprint] = attached
        return attached

    def get_trace(self, key: dict) -> PiecewiseConstantTrace | None:
        """Attach the stored trace for ``key`` (``None`` on a miss)."""
        return self._attach(fingerprint_key(key), "solar")

    def get_schedule(self, key: dict) -> EventSchedule | None:
        """Attach the stored schedule for ``key`` (``None`` on a miss)."""
        return self._attach(fingerprint_key(key), "events")

    def trace_for(self, config: "ExperimentConfig") -> PiecewiseConstantTrace | None:
        """The stored trace for a config, memoized on ``trace_key()``."""
        key = config.trace_key()
        fingerprint = self._trace_memo.get(key)
        if fingerprint is None:
            fingerprint = config.trace_store_fingerprint()
            self._trace_memo[key] = fingerprint
        return self._attach(fingerprint, "solar")

    def schedule_for(self, config: "ExperimentConfig") -> EventSchedule | None:
        """The stored schedule for a config, memoized on ``schedule_key()``."""
        key = config.schedule_key()
        fingerprint = self._schedule_memo.get(key)
        if fingerprint is None:
            fingerprint = config.schedule_store_fingerprint()
            self._schedule_memo[key] = fingerprint
        return self._attach(fingerprint, "events")

    # -- bulk build -----------------------------------------------------------

    def build_for_spec(
        self,
        spec: "FleetSpec",
        jobs: int | None = 1,
        progress=None,
    ) -> dict:
        """Generate and persist every entry ``spec``'s devices need.

        Deduplicates by config cache key first (devices sharing a trace
        or schedule cost one generation), fans generation over forked
        workers when ``jobs`` allows (each worker writes whole segments
        of ``_SEGMENT_ENTRIES`` and their records; the parent merges the
        entries), and returns ``{"traces": ..., "schedules": ...,
        "reused": ...}`` counts.  Nothing already stored is rewritten.
        """
        trace_work: dict[tuple, "ExperimentConfig"] = {}
        schedule_work: dict[tuple, "ExperimentConfig"] = {}
        for index in range(spec.devices):
            _, config = spec.device_config(index)
            trace_work.setdefault(config.trace_key(), config)
            schedule_work.setdefault(config.schedule_key(), config)

        wanted = [("solar", c.trace_store_fingerprint(), c) for c in trace_work.values()]
        wanted += [
            ("events", c.schedule_store_fingerprint(), c)
            for c in schedule_work.values()
        ]
        items = [item for item in wanted if item[1] not in self._entries]

        from repro.experiments.runner import map_indexed

        # One segment (and one forked task: ~0.25 s of generator work) per
        # fixed-size chunk, so the files never depend on ``jobs``.
        chunks = [
            items[lo:lo + _SEGMENT_ENTRIES]
            for lo in range(0, len(items), _SEGMENT_ENTRIES)
        ]

        def build_chunk(index: int) -> tuple:
            chunk = chunks[index]
            return self._write_segment(
                [fingerprint for _, fingerprint, _ in chunk],
                (self._config_payload(kind, config) for kind, _, config in chunk),
            )

        done = 0

        def on_result(index: int, segment) -> None:
            nonlocal done
            done += len(chunks[index])
            if progress is not None:
                progress(f"trace store: {done}/{len(items)} entries built")

        for segment in map_indexed(build_chunk, len(chunks), jobs, on_result=on_result):
            self._add_segment(segment)
        traces = sum(item[0] == "solar" for item in items)
        return {
            "traces": traces,
            "schedules": len(items) - traces,
            "reused": len(wanted) - len(items),
        }

    # -- integrity ------------------------------------------------------------

    def verify(self) -> list[str]:
        """Re-read the records and re-check every segment and entry they
        name; returns problems (skipped records among them)."""
        entries, segments, problems = self._read_records()
        intact = set()
        for filename, size in sorted(segments.items()):
            path = os.path.join(self.directory, filename)
            if not os.path.exists(path):
                problems.append(f"{filename}: data file missing")
            elif os.path.getsize(path) != size:
                problems.append(
                    f"{filename}: size does not match the record's "
                    f"{size} bytes (attach would refuse it)"
                )
            else:
                intact.add(filename)
        for fingerprint, entry in sorted(entries.items()):
            where = f"{entry['file']}@{entry['offset']}"
            expected = fingerprint_key(entry["key"])
            if expected != fingerprint:
                problems.append(
                    f"{where}: record fingerprint {fingerprint[:12]} "
                    f"does not match its key ({expected[:12]})"
                )
            if entry["file"] not in intact:
                continue
            if int(np.prod(entry["shape"])) * 8 != entry["bytes"]:
                problems.append(
                    f"{where}: shape {entry['shape']} does not fill "
                    f"{entry['bytes']} float64 bytes"
                )
                continue
            with open(os.path.join(self.directory, entry["file"]), "rb") as handle:
                handle.seek(entry["offset"])
                digest = hashlib.sha256(handle.read(entry["bytes"]))
            if digest.hexdigest() != entry["sha256"]:
                problems.append(f"{where}: payload sha256 mismatch")
        return problems
