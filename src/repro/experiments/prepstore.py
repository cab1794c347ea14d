"""Cross-campaign, cross-process preparation store (disk L2).

The per-process :class:`~repro.experiments.harness.PrepCache` amortizes
locked-circuit preparation *within* one worker; this module adds the
layer below it: a **content-addressed, disk-backed store** shared across
worker processes and across campaigns.  Prepared (host, locked,
resynthesized) triples are keyed by a canonical SHA-256 over every
parameter that determines the output — qualified circuit id and content
digest (see :mod:`repro.corpus`), technique and its extra parameters,
nominal key width, scale, lock seed, synthesis seed, and the resynthesis
recipe — and persisted as one JSON entry per preparation under
``benchmarks/results/prepstore/`` (override with ``REPRO_PREP_STORE_DIR``).

Design points:

* **Atomic entries.**  Writes go to ``<entry>.tmp.<pid>`` and are
  published with ``os.replace``, so a concurrent (or killed) worker can
  never observe a torn entry; a truncated file from an exotic filesystem
  reads as a miss and is recomputed.
* **Canonical round-trip.**  A *miss* serializes the freshly computed
  preparation and returns the **deserialized** form — the same object a
  later warm hit deserializes.  Cold and warm runs therefore hand
  byte-identical netlists (down to gate-dict iteration order) to the
  attacks, which is what makes warm-store campaign aggregates
  bit-identical to cold ones by construction.
* **LRU size bound.**  Entries carry their last-use time in the file
  mtime (hits re-touch it); once the store exceeds ``capacity`` entries
  (:data:`DEFAULT_CAPACITY` unless passed), the least-recently-used
  entries are evicted at publish time.
* **Determinism contract.**  The content hash covers inputs, not bytes:
  it relies on :func:`repro.synth.resynth.resynthesize` being bit-
  deterministic in (circuit, recipe, synth_seed) across processes and
  fork/spawn contexts — enforced by ``tests/test_resynth_determinism.py``.

Disable the layer entirely with ``REPRO_PREP_STORE=0`` (the per-process
L1 keeps working).
"""

from __future__ import annotations

import hashlib
import json
import os
import time

__all__ = [
    "PrepStore",
    "prep_store",
    "configure_prep_store",
    "prep_store_info",
    "clear_prep_store",
    "store_key",
    "serialize_prepared",
    "deserialize_prepared",
    "DEFAULT_STORE_ROOT",
    "DEFAULT_CAPACITY",
    "FORMAT_VERSION",
]

#: Bumped whenever the payload layout (or anything that changes the
#: meaning of stored entries) changes; part of the content hash, so old
#: entries simply stop matching instead of deserializing garbage.
#: v2: qualified circuit ids + source/digest provenance (circuit-source
#: registry); ``params`` carries a per-technique extras dict instead of
#: a hardcoded ``h`` field.
FORMAT_VERSION = 2

#: Default landing zone, next to the campaign results.
DEFAULT_STORE_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))),
    "benchmarks", "results", "prepstore",
)

#: Entries kept before least-recently-used eviction.
DEFAULT_CAPACITY = 64


def store_key(params):
    """Canonical content hash (hex) of one preparation's parameters.

    Besides :data:`FORMAT_VERSION`, the package version is folded in so
    a release that changes the generation/locking/resynthesis pipeline
    automatically stops matching entries produced by older code.  A
    *development* change to those algorithms with an unchanged version
    still requires bumping :data:`FORMAT_VERSION` (or wiping the store).
    """
    from .. import __version__

    payload = dict(params)
    payload["format"] = FORMAT_VERSION
    payload["repro_version"] = __version__
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# (De)serialization of PreparedCircuit triples.
#
# Circuits travel as .bench text: the writer emits gates in topological
# order and the parser rebuilds the gate dict in file order, so two
# loads of the same payload are structurally *identical* — same input/
# output order, same gate-dict iteration order, hence same topological
# tie-breaking downstream.  Everything else is plain JSON.
# ----------------------------------------------------------------------

def serialize_prepared(prepared, params):
    """JSON-safe payload for one :class:`PreparedCircuit`."""
    from ..netlist.bench import write_bench

    locked = prepared.locked
    return {
        "format": FORMAT_VERSION,
        "params": dict(params),
        "circuit_id": prepared.circuit_id,
        "source": prepared.source,
        "digest": prepared.digest,
        "scale": prepared.scale,
        "key_width": prepared.key_width,
        "prep_elapsed": prepared.prep_elapsed,
        "netlist": {"name": prepared.netlist.name,
                    "bench": write_bench(prepared.netlist)},
        "locked": {
            "technique": locked.technique,
            "key_inputs": list(locked.key_inputs),
            "correct_key": {k: int(bool(v))
                            for k, v in locked.correct_key.items()},
            "protected_inputs": list(locked.protected_inputs),
            "key_of_ppi": {p: list(ks) for p, ks in locked.key_of_ppi.items()},
            "critical_signal": locked.critical_signal,
            "metadata": locked.metadata,
            "circuit": {"name": locked.circuit.name,
                        "bench": write_bench(locked.circuit)},
            "original": {"name": locked.original.name,
                         "bench": write_bench(locked.original)},
        },
    }


def deserialize_prepared(payload):
    """Rebuild a :class:`PreparedCircuit` from :func:`serialize_prepared`.

    Raises ``KeyError``/``ValueError`` on malformed payloads — callers
    treat that as a store miss.
    """
    from ..corpus import find_spec
    from ..locking.base import LockedCircuit
    from ..netlist.bench import parse_bench
    from .harness import PreparedCircuit

    if payload.get("format") != FORMAT_VERSION:
        raise ValueError(f"unsupported prep payload format {payload.get('format')!r}")
    blob = payload["locked"]
    locked = LockedCircuit(
        circuit=parse_bench(blob["circuit"]["bench"], name=blob["circuit"]["name"]),
        key_inputs=tuple(blob["key_inputs"]),
        correct_key={k: bool(v) for k, v in blob["correct_key"].items()},
        original=parse_bench(blob["original"]["bench"],
                             name=blob["original"]["name"]),
        technique=blob["technique"],
        protected_inputs=tuple(blob["protected_inputs"]),
        key_of_ppi={p: tuple(ks) for p, ks in blob["key_of_ppi"].items()},
        critical_signal=blob["critical_signal"],
        metadata=blob["metadata"],
    )
    circuit_id = payload.get("circuit_id") or payload["params"].get("circuit")
    return PreparedCircuit(
        # A stored entry must stay loadable even when its circuit has
        # since left the registry/corpus, hence find_spec (None on miss).
        spec=find_spec(circuit_id) if circuit_id else None,
        locked=locked,
        netlist=parse_bench(payload["netlist"]["bench"],
                            name=payload["netlist"]["name"]),
        scale=payload["scale"],
        key_width=payload["key_width"],
        prep_elapsed=payload["prep_elapsed"],
        circuit_id=circuit_id,
        source=payload.get("source") or payload["params"].get("source"),
        digest=payload.get("digest") or payload["params"].get("digest"),
    )


class PrepStore:
    """Content-addressed directory of prepared-circuit entries.

    One JSON file per entry, named ``<sha256>.json``.  All operations are
    safe against concurrent readers/writers and killed processes; every
    failure mode degrades to a miss (recompute), never to corruption.
    """

    def __init__(self, root=None, capacity=None, enabled=None):
        if root is None:
            root = os.environ.get("REPRO_PREP_STORE_DIR") or DEFAULT_STORE_ROOT
        if capacity is None:
            capacity = DEFAULT_CAPACITY
        if enabled is None:
            enabled = os.environ.get("REPRO_PREP_STORE", "1") != "0"
        self.root = root
        self.capacity = max(1, capacity)
        self.enabled = enabled
        self._pid = None
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0

    # -- bookkeeping ---------------------------------------------------
    def _counters(self):
        """Reset counters on first touch in a new (forked) process."""
        pid = os.getpid()
        if pid != self._pid:
            self._pid = pid
            self.hits = self.misses = self.puts = self.evictions = 0

    def _path(self, digest):
        return os.path.join(self.root, f"{digest}.json")

    def entries(self):
        """Entry digests currently in the store, LRU-first."""
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        stamped = []
        for entry in names:
            if not entry.endswith(".json"):
                continue
            try:
                mtime = os.path.getmtime(os.path.join(self.root, entry))
            except OSError:
                continue  # evicted by a concurrent process
            stamped.append((mtime, entry[: -len(".json")]))
        stamped.sort()
        return [digest for _mtime, digest in stamped]

    def __len__(self):
        return len(self.entries())

    def info(self):
        self._counters()
        return {
            "root": self.root,
            "enabled": self.enabled,
            "entries": len(self),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
        }

    def stats(self):
        """Just the per-process counters (the cell-record delta source)."""
        self._counters()
        return {
            "store_hits": self.hits,
            "store_misses": self.misses,
            "store_puts": self.puts,
            "store_evictions": self.evictions,
        }

    # -- store operations ----------------------------------------------
    def get(self, digest):
        """The :class:`PreparedCircuit` for ``digest``, or ``None``."""
        from ..netlist.errors import NetlistError

        self._counters()
        if not self.enabled:
            return None
        path = self._path(digest)
        try:
            with open(path) as handle:
                payload = json.load(handle)
            prepared = deserialize_prepared(payload)
        except (OSError, ValueError, KeyError, TypeError, NetlistError):
            # Unreadable JSON *or* well-formed JSON around corrupt bench
            # text: both degrade to a miss.  Drop the poisoned entry so
            # the recompute's put() republishes a healthy one even if a
            # concurrent writer lost the race.
            self.misses += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        self.hits += 1
        try:
            now = time.time()
            os.utime(path, (now, now))  # refresh LRU stamp
        except OSError:
            pass
        return prepared

    def put(self, digest, prepared, params):
        """Persist one preparation; returns its canonical (reloaded) form.

        The canonical round-trip is the point: callers hand out the
        deserialized object so cold and warm paths are bit-identical.
        On any I/O failure the store stays silent and the *canonical*
        in-memory form is still returned.
        """
        self._counters()
        payload = serialize_prepared(prepared, params)
        canonical = deserialize_prepared(payload)
        if not self.enabled:
            return canonical
        path = self._path(digest)
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            os.makedirs(self.root, exist_ok=True)
            with open(tmp, "w") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(tmp, path)
            self.puts += 1
            self._evict()
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        return canonical

    def _evict(self):
        entries = self.entries()
        excess = len(entries) - self.capacity
        for digest in entries[:max(0, excess)]:
            try:
                os.unlink(self._path(digest))
                self.evictions += 1
            except OSError:
                pass  # another process got there first

    def clear(self):
        """Remove every entry (and stray tmp files) from the store."""
        removed = 0
        try:
            names = os.listdir(self.root)
        except OSError:
            return 0
        for entry in names:
            if entry.endswith(".json") or ".json.tmp." in entry:
                try:
                    os.unlink(os.path.join(self.root, entry))
                    removed += 1
                except OSError:
                    pass
        return removed


_STORE = None
_STORE_PINNED = False


def prep_store():
    """The process-wide default store (env-configured, built lazily).

    Tracks environment changes (tests monkeypatching
    ``REPRO_PREP_STORE_DIR``) unless a store was pinned explicitly via
    :func:`configure_prep_store`.
    """
    global _STORE
    if _STORE_PINNED and _STORE is not None:
        return _STORE
    root = os.environ.get("REPRO_PREP_STORE_DIR") or DEFAULT_STORE_ROOT
    enabled = os.environ.get("REPRO_PREP_STORE", "1") != "0"
    if _STORE is None or _STORE.root != root or _STORE.enabled != enabled:
        _STORE = PrepStore()
    return _STORE


def configure_prep_store(root=None, capacity=None, enabled=None):
    """Replace the default store (tests, benches); returns the new one.

    The configured store stays authoritative over later environment
    reads; calling with no arguments un-pins it and reverts to the
    env-driven default.
    """
    global _STORE, _STORE_PINNED
    _STORE = PrepStore(root=root, capacity=capacity, enabled=enabled)
    _STORE_PINNED = not (root is None and capacity is None and enabled is None)
    return _STORE


def prep_store_info():
    """Statistics of the default disk store."""
    return prep_store().info()


def clear_prep_store():
    """Wipe the default disk store; returns the number of entries removed."""
    return prep_store().clear()
