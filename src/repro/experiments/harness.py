"""Shared experiment harness: locked-circuit preparation and table output.

Every benchmark in ``benchmarks/`` regenerates one paper artifact (table
or figure) through the row-builder functions in
:mod:`repro.experiments.tables`; this module holds the common machinery —
deterministic preparation of (host, locked, resynthesized) triples,
wall-clock measurement, and paper-style row formatting.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from ..benchgen.registry import resolve_scale, scaled_key_width
from ..corpus import get_source, parse_circuit_id, qualify
from ..locking import TECHNIQUES, TECHNIQUE_EXTRA_PARAMS
from ..synth.resynth import resynthesize
from . import prepstore

__all__ = [
    "PreparedCircuit",
    "PrepCache",
    "prepare_locked",
    "technique_params",
    "prep_cache_info",
    "clear_prep_cache",
    "prep_stats",
    "format_table",
    "Timer",
]


@dataclass
class PreparedCircuit:
    """A host + locked + synthesized triple ready for attacks.

    ``circuit_id`` is the qualified id the host came from
    (``"gen:b14_C"``, ``"corpus:c432"``), ``source`` its registry prefix,
    and ``digest`` the host's content digest from :mod:`repro.corpus` —
    together the provenance triple that campaign cell records persist.
    ``scale`` is the resolved scale for scaled sources and ``None`` for
    fixed corpus netlists.
    """

    spec: object
    locked: object  # LockedCircuit ground truth
    netlist: object  # attack view: resynthesized locked netlist
    scale: str
    key_width: int
    prep_elapsed: float = 0.0
    circuit_id: str = None
    source: str = None
    digest: str = None

    def provenance(self):
        """JSON-safe circuit identity carried by cell records."""
        return {
            "id": self.circuit_id,
            "source": self.source,
            "digest": self.digest,
        }


class Timer:
    """Context manager measuring wall-clock seconds into ``.elapsed``."""

    def __enter__(self):
        self._start = time.monotonic()
        self.elapsed = 0.0
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self._start
        return False


class PrepCache:
    """Bounded per-process LRU cache for :class:`PreparedCircuit` triples.

    Replaces the old module-global dict, which had two problems once
    preparations started running inside campaign worker pools:

    * **Lifetime** — it grew without bound for the life of the process; a
      long campaign sweep over circuits x techniques x seeds kept every
      prepared netlist (plus its compiled engine) alive forever.
    * **Fork/spawn safety** — a ``fork``-started worker inherited the
      parent's whole cache (multiplying resident memory per worker), and
      the prepared objects carry lazily-mutated state (compiled-engine
      and refutation-stimulus caches) that should stay process-local.

    Entries are therefore keyed to ``os.getpid()``: the first access in a
    new process (forked child or spawn-fresh import) starts from an empty
    table, and the least-recently-used entry is evicted once ``capacity``
    is exceeded.
    """

    def __init__(self, capacity=16):
        self.capacity = max(1, capacity)
        self._pid = None
        self._data = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _entries(self):
        pid = os.getpid()
        if pid != self._pid:
            self._data = OrderedDict()
            self._pid = pid
            self.hits = self.misses = self.evictions = 0
        return self._data

    def get(self, key):
        data = self._entries()
        value = data.get(key)
        if value is None:
            self.misses += 1
            return None
        data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key, value):
        data = self._entries()
        data[key] = value
        data.move_to_end(key)
        while len(data) > self.capacity:
            data.popitem(last=False)
            self.evictions += 1

    def clear(self):
        self._entries().clear()

    def __len__(self):
        return len(self._entries())

    def info(self):
        return {
            "pid": os.getpid(),
            "size": len(self._entries()),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


_PREP_CACHE = PrepCache()

#: Resynthesis recipe applied by :func:`prepare_locked`; part of the
#: disk-store content hash so a recipe change invalidates old entries.
_RESYNTH_RECIPE = {"effort": 2}


def prep_cache_info():
    """Statistics of the process-local preparation cache."""
    return _PREP_CACHE.info()


def clear_prep_cache():
    _PREP_CACHE.clear()


def prep_stats():
    """Flat preparation-cache counters: per-process L1 + disk store.

    This is what campaign cells snapshot before/after execution to
    attach per-cell cache deltas to their persisted records.
    """
    l1 = _PREP_CACHE.info()
    stats = {
        "l1_hits": l1["hits"],
        "l1_misses": l1["misses"],
        "l1_evictions": l1["evictions"],
    }
    stats.update(prepstore.prep_store().stats())
    return stats


def technique_params(technique, h=None, params=None):
    """Normalize a technique's extra locking parameters to a full dict.

    Exactly the parameters declared in
    :data:`~repro.locking.TECHNIQUE_EXTRA_PARAMS` come back, each at its
    supplied value or its declared default; parameters a technique does
    not declare are dropped (so ``prepare_locked("...", "sarlock", h=3)``
    neither perturbs sarlock's cache key nor reaches its lock function).
    ``h`` is the legacy spelling of ``params={"h": ...}`` and loses to an
    explicit ``params`` entry.
    """
    declared = TECHNIQUE_EXTRA_PARAMS.get(technique, {})
    supplied = dict(params or {})
    if h is not None:
        supplied.setdefault("h", h)
    return {name: supplied.get(name, default) for name, default in declared.items()}


def _prep_key(circuit_name, technique, scale, seed, synth_seed, resynth, h,
              digest=None, params=None, key_width=None):
    """Canonical cache key covering every argument that changes the output.

    ``circuit_name`` is qualified (bare names alias to ``gen:``) as a
    pure string operation — no registry lookup happens here, so keys can
    be built for circuits that are not (yet) resolvable.  ``digest`` is
    the circuit's content digest when the caller has resolved one; extra
    locking parameters are normalized per technique via
    :func:`technique_params`, so equivalent preparations share one entry
    while *differing* ones (different ``resynth``, ``h``/``cubes``, or
    ``synth_seed``) can never alias.  ``key_width`` is the caller's
    explicit request (``None`` = derive from the spec + scale as always).
    """
    extras = tuple(sorted(technique_params(technique, h=h, params=params).items()))
    return (qualify(circuit_name), digest, technique, scale, seed, synth_seed,
            bool(resynth), extras, key_width)


def _store_params(key, key_width):
    """The JSON-safe parameter dict hashed into the disk-store key."""
    (qualified, digest, technique, scale, seed, synth_seed, resynth, extras,
     requested_width) = key
    params = {
        "circuit": qualified,
        "source": parse_circuit_id(qualified).source,
        "digest": digest,
        "technique": technique,
        "scale": scale,
        "seed": seed,
        "synth_seed": synth_seed,
        "resynth": resynth,
        "params": dict(extras),
        "key_width": key_width,
        "recipe": _RESYNTH_RECIPE,
    }
    # Only present when a caller overrode the derived width, so every
    # pre-existing store entry keeps its hash.
    if requested_width is not None:
        params["key_width_override"] = requested_width
    return params


def prepare_locked(
    circuit_name,
    technique,
    scale=None,
    seed=0,
    synth_seed=1,
    resynth=True,
    h=None,
    params=None,
    cache=True,
    store=None,
    key_width=None,
):
    """Resolve, lock, and resynthesize one benchmark circuit.

    Mirrors the paper's setup: hosts locked at RTL, then synthesized "to
    break the regular structure of the locking scheme".  ``circuit_name``
    is any :mod:`repro.corpus` reference — a qualified id
    (``"corpus:c432"``) or a bare name (``"c6288"``, aliased to
    ``gen:``).  Hosts come from the circuit-source registry; the source's
    content digest is part of both cache keys, so editing a corpus
    netlist (or changing the generator) invalidates its cached
    preparations.  Scale resolution applies to scaled (``gen:``) sources
    only; corpus netlists are fixed artifacts and prepare identically
    under every ``REPRO_SCALE``.

    Deterministic in all arguments; results are memoized per process in
    a bounded LRU (:class:`PrepCache`, the L1) over a cross-process,
    cross-campaign disk store (:mod:`repro.experiments.prepstore`, the
    L2).  ``params`` supplies technique-specific extras (``{"h": 2}``,
    ``{"cubes": 3}``; see :func:`technique_params`); ``h`` remains as the
    legacy spelling for SFLL-HD.

    ``store`` selects the L2: ``None`` uses the env-configured default,
    ``False`` disables it for this call, and a
    :class:`~repro.experiments.prepstore.PrepStore` instance pins one
    explicitly.  With the store active, even a cold compute is round-
    tripped through the store's canonical serialization, so cold and
    warm calls return structurally identical netlists.

    ``key_width`` explicitly requests a lock width (service jobs submit
    one); ``None`` derives it from the spec + scale as before.  Either
    way the width is clamped to the host's input count minus one and
    rounded down to even, so the effective width is on
    ``PreparedCircuit.key_width``, not necessarily the request.
    """
    cid = parse_circuit_id(circuit_name)
    source = get_source(cid.source)
    scale = resolve_scale(scale) if source.scaled else None
    circuit_digest = source.digest(cid.name, scale=scale, seed=seed)
    if key_width is not None:
        key_width = int(key_width)
        if key_width < 2:
            raise ValueError(f"key_width must be >= 2, got {key_width}")
    key = _prep_key(cid.qualified, technique, scale, seed, synth_seed, resynth,
                    h, digest=circuit_digest, params=params,
                    key_width=key_width)
    if cache:
        cached = _PREP_CACHE.get(key)
        if cached is not None:
            return cached

    if store is None:
        store = prepstore.prep_store()
    elif store is False:
        store = None
    spec = source.spec(cid.name)
    digest = None
    if store is not None and store.enabled:
        digest = prepstore.store_key(_store_params(key, spec.key_width))
        prepared = store.get(digest)
        if prepared is not None:
            if cache:
                _PREP_CACHE.put(key, prepared)
            return prepared

    start = time.monotonic()
    host = source.load(cid.name, scale=scale, seed=seed)
    if key_width is not None:
        width = key_width
    elif source.scaled and scale != "paper":
        width = scaled_key_width(spec, scale)
    else:
        width = spec.key_width
    width = min(width, len(host.inputs) - 1)
    width -= width % 2

    extras = technique_params(technique, h=h, params=params)
    locked = TECHNIQUES[technique](host, width, seed=seed, **extras)

    netlist = locked.circuit
    if resynth:
        netlist = resynthesize(netlist, seed=synth_seed, effort=2)
    prepared = PreparedCircuit(
        spec=spec,
        locked=locked,
        netlist=netlist,
        scale=scale,
        key_width=locked.key_width,
        prep_elapsed=time.monotonic() - start,
        circuit_id=cid.qualified,
        source=cid.source,
        digest=circuit_digest,
    )
    if digest is not None:
        # Publish and adopt the canonical round-tripped form, so this
        # cold path returns exactly what a warm hit will return.
        prepared = store.put(digest, prepared, _store_params(key, spec.key_width))
    if cache:
        _PREP_CACHE.put(key, prepared)
    return prepared


def format_table(title, header, rows, note=None):
    """Render rows as an aligned text table (paper-style)."""
    widths = [len(h) for h in header]
    str_rows = [[str(cell) for cell in row] for row in rows]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    if note:
        lines.append(note)
    return "\n".join(lines)
