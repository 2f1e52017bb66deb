"""Content-addressed result cache for served fleet rollups.

The cache is keyed on :meth:`FleetSpec.fingerprint` — the sha256 of the
spec's canonical field JSON — and nothing else, because the determinism
contract (``tests/fleet/``) guarantees the rollup is bit-identical at
any ``shards``/``jobs``/kernel setting.  Two submissions that agree on
the spec therefore agree on the answer, and the second one returns the
journaled bytes with zero recompute even if it asked for a different
shard count or kernel.

Entries are single JSON files written atomically (tmp + ``os.replace``,
the checkpoint journal's pattern), storing the wire-encoded spec next to
the rollup so an entry is self-describing and auditable::

    <dir>/<fingerprint>.json
    {"cache_version": 1, "fingerprint": ..., "spec": {...to_wire...},
     "rollup": {...FleetRollup.to_dict...}}

``canonical_rollup_json`` defines the byte form served to clients:
``json.dumps(rollup_dict, sort_keys=True)`` — exactly what the fleet
CLI's ``--json`` flag writes, so cached, fresh, resumed, and CLI-written
rollups are comparable with ``cmp``.

Hits are byte-verified: ``get`` reads the file every time, and bytes
equal to those this cache last wrote or validated for the fingerprint
skip ``json.loads``; any difference takes the full parse-and-validate
path, so a bad entry is still a miss.
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile
import threading
from collections import OrderedDict

from repro.errors import ConfigurationError
from repro.fleet.spec import FleetSpec

__all__ = ["CACHE_VERSION", "ResultCache", "canonical_rollup_json"]

#: Entry-format version; foreign versions read as misses, never as junk.
CACHE_VERSION = 1

#: Entries remembered for byte-compared hits (least recently verified out).
_REMEMBERED = 128


def canonical_rollup_json(rollup_dict: dict) -> str:
    """The one byte form of a rollup dict (matches the fleet CLI ``--json``)."""
    return json.dumps(rollup_dict, sort_keys=True)


class ResultCache:
    """Fingerprint-addressed store of completed fleet rollups.

    Single-writer-per-entry safe: entries are immutable once written
    (same fingerprint ⇒ same bytes, so a concurrent double-write is
    idempotent), and reads see either the complete file or nothing —
    never a torn entry — thanks to the atomic replace.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.hits = 0
        self.misses = 0
        # fingerprint -> (entry bytes, canonical rollup bytes, pickled rollup)
        self._verified: OrderedDict[str, tuple[bytes, bytes, bytes]] = OrderedDict()
        self._lock = threading.Lock()  # guards eviction; puts run on executor threads

    def _path(self, fingerprint: str) -> str:
        if not fingerprint or "/" in fingerprint or fingerprint.startswith("."):
            raise ConfigurationError(f"malformed cache fingerprint {fingerprint!r}")
        return os.path.join(self.directory, f"{fingerprint}.json")

    # -- reads -------------------------------------------------------------------

    def get(self, fingerprint: str) -> dict | None:
        """The cached rollup dict for ``fingerprint``, or ``None`` (a miss).

        Counts toward ``hits``/``misses``.  Unreadable or foreign-version
        entries are misses — the caller recomputes and overwrites.  Every
        hit returns a fresh dict the caller may mutate.
        """
        data = self._read(fingerprint)
        known = self._verified.get(fingerprint)
        if known is not None and data == known[0]:
            self.hits += 1
            return pickle.loads(known[2])
        entry = self._parse(fingerprint, data)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        rollup = entry["rollup"]
        self._remember(fingerprint, data, canonical_rollup_json(rollup), rollup)
        return rollup

    def rollup_bytes(self, fingerprint: str, rollup_dict: dict) -> bytes:
        """``rollup_dict``'s canonical bytes: the encoding made when this
        cache last wrote or validated the entry, unless since evicted."""
        known = self._verified.get(fingerprint)
        if known is not None:
            return known[1]
        return canonical_rollup_json(rollup_dict).encode("utf-8")

    def peek_spec(self, fingerprint: str) -> FleetSpec | None:
        """The spec an entry was computed from (no hit/miss accounting)."""
        entry = self._parse(fingerprint, self._read(fingerprint))
        if entry is None:
            return None
        return FleetSpec.from_wire(entry["spec"])

    def _read(self, fingerprint: str) -> bytes:
        """The entry's bytes; a missing or unreadable file reads as empty."""
        try:
            with open(self._path(fingerprint), "rb") as handle:
                return handle.read()
        except OSError:
            return b""

    def _parse(self, fingerprint: str, data: bytes) -> dict | None:
        try:
            entry = json.loads(data.decode("utf-8"))
        except ValueError:
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("cache_version") != CACHE_VERSION
            or entry.get("fingerprint") != fingerprint
            or "rollup" not in entry
        ):
            return None
        return entry

    def _remember(self, fingerprint: str, data: bytes, text: str, rollup: dict) -> None:
        record = (data, text.encode("utf-8"), pickle.dumps(rollup, -1))
        with self._lock:
            self._verified[fingerprint] = record
            self._verified.move_to_end(fingerprint)
            if len(self._verified) > _REMEMBERED:
                self._verified.popitem(last=False)

    # -- writes ------------------------------------------------------------------

    def put(self, spec: FleetSpec, rollup_dict: dict) -> str:
        """Journal ``rollup_dict`` under ``spec``'s fingerprint; returns it."""
        fingerprint = spec.fingerprint()
        path = self._path(fingerprint)
        rollup_json = canonical_rollup_json(rollup_dict)
        # json.dumps(entry, sort_keys=True) with the rollup's one encoding
        # spliced in (the keys sort cache_version, fingerprint, rollup, spec).
        spec_json = json.dumps(spec.to_wire(), sort_keys=True)
        data = (
            f'{{"cache_version": {CACHE_VERSION}, "fingerprint": "{fingerprint}", '
            f'"rollup": {rollup_json}, "spec": {spec_json}}}'
        ).encode("utf-8")
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
            raise
        self._remember(fingerprint, data, rollup_json, rollup_dict)
        return fingerprint

    # -- introspection -----------------------------------------------------------

    def __len__(self) -> int:
        return sum(
            1 for name in os.listdir(self.directory) if name.endswith(".json")
        )

    def stats(self) -> dict:
        """Hit/miss counters plus the on-disk entry count."""
        return {"hits": self.hits, "misses": self.misses, "entries": len(self)}
