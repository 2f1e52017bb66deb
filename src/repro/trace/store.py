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

* a ``manifest.json`` (version 2) keyed by the SHA-256 fingerprint of the
  entry's canonical key (same construction as ``FleetCheckpoint``
  manifests: sorted-keys JSON, atomic tmp + ``os.replace`` writes),
  recording each entry's segment, offset, shape, data digest, and the
  scalar metadata needed to re-attach without recomputation (``period``,
  ``energy_per_period``, …), plus each segment's size.  A version-1
  manifest (one ``.npy`` file per entry) still loads: each of its files
  is a one-entry segment of size ``offset + bytes``, and the next save
  writes version 2.

Attach is zero-copy: each segment is mapped once, while any of its
entries is attached, and :meth:`PiecewiseConstantTrace._attach` /
:meth:`EventSchedule._from_arrays` bind row views of it directly, so N
fleet workers (forked or independent) share one page-cache copy of a
GB-scale trace library.  Entries are immutable once written — a
fingerprint never changes meaning — which is what makes the store safe
to share between concurrent runs and to reuse across specs (any config
whose ``(params, seed)`` matches hits the same entry).  The manifest is
saved only after the segments it names are in place, so a writer killed
mid-build leaves at worst unnamed segments or ``*.tmp.<pid>`` files: no
manifest references them, and a rebuild rewrites the same entries under
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
from repro.trace.solar import SolarTraceConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (experiments -> trace)
    from repro.experiments.configs import ExperimentConfig
    from repro.fleet.spec import FleetSpec

__all__ = [
    "TraceStore",
    "fingerprint_key",
    "schedule_store_key",
    "solar_store_key",
]

_MANIFEST = "manifest.json"
_VERSION = 2
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


class TraceStore:
    """A directory of fingerprinted, memory-mapped trace/schedule entries.

    Open an existing store with :meth:`open` (raises if the directory has
    no manifest) or :meth:`create` (makes the directory and an empty
    manifest, or opens an existing one for appending).  Writers call
    :meth:`put_trace` / :meth:`put_schedule` / :meth:`put_for_config` and
    then :meth:`save`; readers call :meth:`trace_for` /
    :meth:`schedule_for` with an :class:`ExperimentConfig` (or
    :meth:`get_trace` / :meth:`get_schedule` with a raw key) and receive
    attached, memmap-backed objects — ``None`` when the entry is absent,
    so callers can fall back to the generators.

    Attached objects are shared per fingerprint while anything holds
    them (they are immutable) and released with their mapping when the
    last holder drops them; config-level lookups memoize the fingerprint
    on the config's cheap ``trace_key()`` / ``schedule_key()`` tuples so
    the per-device hot path never re-hashes JSON.
    """

    def __init__(self, directory: str | os.PathLike, *, create: bool = False):
        self.directory = os.fspath(directory)
        self._entries: dict[str, dict] = {}
        self._segments: dict[str, int] = {}  # segment file -> size in bytes
        self._dirty = False
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
            if version not in (1, _VERSION):
                raise TraceError(
                    f"trace store {self.directory} has manifest version "
                    f"{version!r}; this build reads 1 and {_VERSION}"
                )
            self._entries = data["entries"]
            # A v1 entry is its own .npy file whose payload ends the file.
            self._segments = data["segments"] if version == _VERSION else {
                e["file"]: e["offset"] + e["bytes"] for e in self._entries.values()
            }
        elif create:
            os.makedirs(self.directory, exist_ok=True)
            self.save()
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
        """Total payload bytes across all entries (per the manifest)."""
        return sum(entry["bytes"] for entry in self._entries.values())

    def render(self) -> str:
        counts = self.counts()
        kinds = ", ".join(f"{kind}={counts[kind]}" for kind in sorted(counts))
        return (
            f"trace store {self.directory}: {len(self._entries)} entries "
            f"({kinds or 'empty'}), {self.nbytes() / 1e6:.1f} MB payload"
        )

    # -- manifest -------------------------------------------------------------

    def save(self) -> None:
        """Atomically write the manifest (tmp + ``os.replace``)."""
        path = os.path.join(self.directory, _MANIFEST)
        tmp = f"{path}.tmp.{os.getpid()}"
        payload = {"version": _VERSION, "entries": self._entries,
                   "segments": self._segments}
        # json.dumps runs the C encoder; json.dump streams through the
        # pure-Python one.  Same arguments, same bytes.
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, sort_keys=True, indent=None))
        os.replace(tmp, path)
        self._dirty = False

    # -- writing --------------------------------------------------------------

    def _write_segment(self, fingerprints: list[str], payloads) -> tuple:
        """Write one segment: ``payloads`` yields ``(key, data, meta)`` per
        fingerprint, in order.  Returns ``(file, size, entries)``.

        The file name hashes the fingerprints, so the same entries always
        make the same file; each payload is written as it is produced, so
        a segment's payloads never sit in memory together.
        """
        digest = hashlib.sha256("".join(fingerprints).encode()).hexdigest()
        filename = f"seg-{digest[:20]}.bin"
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
        return filename, size, entries

    def _add_segment(self, segment: tuple) -> None:
        filename, size, entries = segment
        self._segments[filename] = size
        self._entries.update(entries)
        self._dirty = True

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
        data = np.empty((2, n), dtype=np.float64)
        data[0] = trace._powers
        data[1] = trace._cum_energy
        meta = {
            "n": n,
            "sample_period": sample_period,
            "period": float(trace.period),
            "energy_per_period": float(trace._energy_per_period),
        }
        return data, meta

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

    def put_trace(self, key: dict, trace: PiecewiseConstantTrace) -> str:
        """Persist a trace under ``key``; returns its fingerprint.

        Idempotent: an existing entry is left untouched (entries are
        immutable — same key, same params, same data).
        """
        fingerprint = fingerprint_key(key)
        if fingerprint not in self._entries:
            payload = (key, *self._trace_payload(key, trace))
            self._add_segment(self._write_segment([fingerprint], [payload]))
        return fingerprint

    def put_schedule(self, key: dict, schedule: EventSchedule) -> str:
        """Persist an event schedule under ``key``; returns its fingerprint."""
        fingerprint = fingerprint_key(key)
        if fingerprint not in self._entries:
            payload = (key, *self._schedule_payload(key, schedule))
            self._add_segment(self._write_segment([fingerprint], [payload]))
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
        lanes this way); otherwise missing entries are generated via the
        config's builders.
        """
        trace_key = config.trace_store_key()
        trace_fp = fingerprint_key(trace_key)
        if trace_fp not in self._entries:
            trace_fp = self.put_trace(
                trace_key, trace if trace is not None else config.build_trace()
            )
        schedule_key = config.schedule_store_key()
        schedule_fp = fingerprint_key(schedule_key)
        if schedule_fp not in self._entries:
            schedule_fp = self.put_schedule(
                schedule_key,
                schedule if schedule is not None else config.build_schedule(),
            )
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
            # exhaust the fd limit; the generator rebuilds the same bytes.
            if getattr(exc, "errno", None) in (errno.EMFILE, errno.ENFILE):
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
        memo_key = config.trace_key()
        fingerprint = self._trace_memo.get(memo_key)
        if fingerprint is None:
            fingerprint = fingerprint_key(config.trace_store_key())
            self._trace_memo[memo_key] = fingerprint
        return self._attach(fingerprint, "solar")

    def schedule_for(self, config: "ExperimentConfig") -> EventSchedule | None:
        """The stored schedule for a config, memoized on ``schedule_key()``."""
        memo_key = config.schedule_key()
        fingerprint = self._schedule_memo.get(memo_key)
        if fingerprint is None:
            fingerprint = fingerprint_key(config.schedule_store_key())
            self._schedule_memo[memo_key] = fingerprint
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
        of ``_SEGMENT_ENTRIES``; the parent merges manifest entries and
        saves once, and only when the manifest has unsaved entries), and
        returns ``{"traces": ..., "schedules": ..., "reused": ...}``
        counts.
        """
        trace_work: dict[tuple, "ExperimentConfig"] = {}
        schedule_work: dict[tuple, "ExperimentConfig"] = {}
        for index in range(spec.devices):
            _, config = spec.device_config(index)
            trace_work.setdefault(config.trace_key(), config)
            schedule_work.setdefault(config.schedule_key(), config)

        wanted = [("solar", c.trace_store_key(), c) for c in trace_work.values()]
        wanted += [
            ("events", c.schedule_store_key(), c) for c in schedule_work.values()
        ]
        items: list[tuple[str, str, dict, "ExperimentConfig"]] = []
        reused = 0
        for kind, key, config in wanted:
            fingerprint = fingerprint_key(key)
            if fingerprint in self._entries:
                reused += 1
            else:
                items.append((kind, fingerprint, key, config))

        def payloads(chunk):
            for kind, _, key, config in chunk:
                if kind == "solar":
                    yield key, *self._trace_payload(key, config.build_trace())
                else:
                    yield key, *self._schedule_payload(key, config.build_schedule())

        from repro.experiments.runner import map_indexed

        # One segment (and one forked task: ~0.25 s of generator work) per
        # fixed-size chunk, so the files never depend on ``jobs``.
        chunks = [
            items[lo:lo + _SEGMENT_ENTRIES]
            for lo in range(0, len(items), _SEGMENT_ENTRIES)
        ]

        def build_chunk(index: int) -> tuple:
            chunk = chunks[index]
            return self._write_segment([item[1] for item in chunk], payloads(chunk))

        done = 0

        def on_result(index: int, segment) -> None:
            nonlocal done
            done += len(chunks[index])
            if progress is not None:
                progress(f"trace store: {done}/{len(items)} entries built")

        for segment in map_indexed(build_chunk, len(chunks), jobs, on_result=on_result):
            self._add_segment(segment)
        traces = sum(item[0] == "solar" for item in items)
        # The server calls this on every cold submit; rewriting an
        # unchanged (and ever-growing) shared manifest would be wasted I/O.
        if self._dirty:
            self.save()
        return {"traces": traces, "schedules": len(items) - traces, "reused": reused}

    # -- integrity ------------------------------------------------------------

    def verify(self) -> list[str]:
        """Re-check segments and entries against the manifest; returns problems."""
        problems: list[str] = []
        intact = set()
        for filename, size in sorted(self._segments.items()):
            path = os.path.join(self.directory, filename)
            if not os.path.exists(path):
                problems.append(f"{filename}: data file missing")
            elif os.path.getsize(path) != size:
                problems.append(
                    f"{filename}: size does not match the manifest's "
                    f"{size} bytes (attach would refuse it)"
                )
            else:
                intact.add(filename)
        for fingerprint, entry in sorted(self._entries.items()):
            where = f"{entry['file']}@{entry['offset']}"
            expected = fingerprint_key(entry["key"])
            if expected != fingerprint:
                problems.append(
                    f"{where}: manifest fingerprint {fingerprint[:12]} "
                    f"does not match its key ({expected[:12]})"
                )
            if entry["file"] not in self._segments:
                problems.append(f"{where}: segment size not in the manifest")
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
