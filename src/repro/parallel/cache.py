"""The one cache class, and content-keyed memoization on top of it.

Every long-lived keyed cache in the system is a :class:`TtlCache`: a
thread-safe LRU + TTL map with hit/miss counters whose time is always
injected (a :class:`~repro.resilience.clock.Clock` or a ``now``
argument), never read from the wall clock.  Its users differ only in
configuration:

* the :class:`AnalysisCache` feature store — bounded, no TTL (features
  are a pure function of content and never go stale);
* the serving engine's content-hash verdict memo (unbounded, no TTL)
  and its negative cache of recent upstream failures (TTL only);
* the add-on's URL-keyed verdict cache (1000 entries, one hour: a
  verdict must not outlive the phishing campaign it describes).

The module also provides:

* :func:`snapshot_fingerprint` — a stable content hash of a
  :class:`~repro.web.page.PageSnapshot` (its serialised form), so equal
  content maps to equal keys across processes and runs;
* :class:`AnalysisCache` — the store of full 212-dimension feature
  vectors, keyed by that hash.

Cached values are immutable or defensively copied, so a hit is
indistinguishable from a recomputation — bit-identical, by construction.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from collections.abc import Hashable
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.web.page import PageSnapshot

if TYPE_CHECKING:
    # Type-only: repro.resilience's package init imports this module.
    from repro.resilience.clock import Clock


def snapshot_fingerprint(snapshot: PageSnapshot) -> str:
    """Stable content hash of a snapshot (sha256 over canonical JSON).

    Two snapshots with equal serialised content (URLs, redirection
    chain, logged links, HTML, screenshot) share a fingerprint — even
    across processes, unlike ``id()``- or ``hash()``-based keys.  The
    JSON encodes with ``surrogatepass``, so text holding a lone
    surrogate (as ``PageSnapshot.from_dict`` of stored JSON may give)
    hashes too; any other text encodes as plain UTF-8.
    :attr:`~repro.web.page.PageSnapshot.fingerprint` caches this value
    on the snapshot.
    """
    payload = json.dumps(
        snapshot.to_dict(), sort_keys=True, ensure_ascii=False,
        separators=(",", ":"),
    )
    return hashlib.sha256(
        payload.encode("utf-8", "surrogatepass")
    ).hexdigest()


class TtlCache:
    """A thread-safe LRU + TTL map with counters and injected time.

    Entries can be *negative*: a cached recent failure that answers
    repeats instantly for its own, usually shorter, ``negative_ttl``;
    negative hits are tallied apart from positive ones.

    Parameters
    ----------
    capacity:
        Maximum entries (LRU eviction beyond it); ``None`` = unbounded.
    ttl:
        Maximum entry age in seconds; reads past it expire the entry
        and count as misses.  ``None`` = entries never expire.  An
        entry aged exactly ``ttl`` is still valid (strict ``>`` test).
    negative_ttl:
        Age bound for *negative* entries; defaults to ``ttl``.
    clock:
        Time source consulted when a call omits ``now``.  TTL
        semantics require one of the two; without a TTL, time is
        never read.
    """

    def __init__(
        self,
        capacity: int | None = None,
        ttl: float | None = None,
        negative_ttl: float | None = None,
        clock: Clock | None = None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if ttl is not None and ttl <= 0:
            raise ValueError(f"ttl must be > 0, got {ttl}")
        if negative_ttl is not None and negative_ttl <= 0:
            raise ValueError(f"negative_ttl must be > 0, got {negative_ttl}")
        self.capacity = capacity
        self.ttl = ttl
        self.negative_ttl = negative_ttl if negative_ttl is not None else ttl
        self.clock = clock
        # key -> (value, cached_at, negative)
        self._entries: OrderedDict[Hashable, tuple[Any, float, bool]] = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.negative_hits = 0
        self.expirations = 0
        self.evictions = 0

    def _now(self, now: float | None) -> float:
        if self.ttl is None and self.negative_ttl is None:
            return 0.0          # nothing expires, so an entry's age is moot
        if now is not None:
            return now
        if self.clock is not None:
            return self.clock.now()
        raise ValueError("a TTL cache needs a clock or an explicit `now`")

    def get(self, key: Hashable, now: float | None = None) -> Any:
        """The live value for ``key``, or ``None``.

        An expired entry is removed, counted as an expiration and read
        as a miss; a live read refreshes LRU recency.
        """
        instant = self._now(now)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            value, cached_at, negative = entry
            ttl = self.negative_ttl if negative else self.ttl
            if ttl is not None and instant - cached_at > ttl:
                del self._entries[key]
                self.expirations += 1
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            if negative:
                self.negative_hits += 1
            return value

    def put(
        self,
        key: Hashable,
        value: Any,
        now: float | None = None,
        negative: bool = False,
    ) -> None:
        """Insert or refresh an entry, evicting LRU entries beyond capacity."""
        entry = (value, self._now(now), negative)
        with self._lock:
            self._entries.pop(key, None)
            self._entries[key] = entry
            if self.capacity is not None:
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self.evictions += 1

    def invalidate(self, key: Hashable) -> bool:
        """Drop one key; True when it was present."""
        with self._lock:
            return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, int]:
        """JSON-safe counter snapshot for reports and spans."""
        with self._lock:
            return {
                "size": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "negative_hits": self.negative_hits,
                "expirations": self.expirations,
                "evictions": self.evictions,
            }

    # ------------------------------------------------------------------
    def counts(self) -> dict[str, int]:
        """The mergeable counters (a snapshot, safe to diff later)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def merge_counts(self, other: TtlCache | dict[str, int]) -> None:
        """Fold another cache's counters (or a delta dict) into this one.

        This is how process-backend workers report back: their pickled
        cache copy accumulates hits/misses/evictions that would
        otherwise be lost when the worker exits, so the caller merges
        the per-item counter *deltas* returned by
        :meth:`repro.parallel.WorkerPool.map_observed`.
        """
        delta = other.counts() if isinstance(other, TtlCache) else other
        with self._lock:
            self.hits += int(delta.get("hits", 0))
            self.misses += int(delta.get("misses", 0))
            self.evictions += int(delta.get("evictions", 0))

    # Locks do not pickle; drop the lock so process-pool workers can
    # receive a copy of a warm cache (their fills stay worker-local).
    def __getstate__(self) -> dict[str, Any]:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()


class AnalysisCache:
    """Memoization of full feature vectors by snapshot content.

    One bounded :class:`TtlCache` without a TTL, ``features``, maps a
    snapshot fingerprint to its 212-dimension feature vector.
    :meth:`counts`, :meth:`stats` and :meth:`fill_metrics` name that
    store, so their output keeps the per-store shape its readers (the
    process-pool probe, run reports) expect.

    One cache belongs to one extractor configuration: feature vectors
    depend on the Alexa ranking and term metric, so sharing a cache
    between differently-configured extractors yields wrong hits.

    Parameters
    ----------
    max_entries:
        Bound on the feature store.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        self.features = TtlCache(capacity=max_entries)

    # ------------------------------------------------------------------
    def get_features(self, key: str) -> np.ndarray | None:
        """Cached feature vector (a defensive copy) or ``None``."""
        hit = self.features.get(key)
        return None if hit is None else hit.copy()

    def put_features(self, key: str, vector: np.ndarray) -> None:
        """Store a feature vector (copied, so later mutation is safe)."""
        self.features.put(key, np.array(vector, dtype=np.float64, copy=True))

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, float]:
        """Flat hit/miss/eviction summary of the feature store."""
        store = self.features
        return {
            "features_entries": len(store),
            "features_hits": store.hits,
            "features_misses": store.misses,
            "features_evictions": store.evictions,
            "features_hit_rate": store.hit_rate,
        }

    def counts(self) -> dict[str, dict[str, int]]:
        """Per-store counter snapshot, diffable and mergeable."""
        return {"features": self.features.counts()}

    def merge_counts(
        self, other: "AnalysisCache | dict[str, dict[str, int]]"
    ) -> None:
        """Fold another cache's counters (or a delta dict) into this one."""
        deltas = (
            other.counts() if isinstance(other, AnalysisCache) else other
        )
        delta = deltas.get("features")
        if delta:
            self.features.merge_counts(delta)

    def fill_metrics(self, metrics: object) -> None:
        """Bridge current counters into a metrics registry.

        ``metrics`` follows the :class:`repro.obs.metrics.MetricsRegistry`
        API (duck-typed to keep this package import-light).  Called at
        export time: counters land as ``cache_*_total{store="features"}``.
        """
        inc = getattr(metrics, "inc")
        counts = self.features.counts()
        inc("cache_hits_total", counts["hits"], store="features")
        inc("cache_misses_total", counts["misses"], store="features")
        inc("cache_evictions_total", counts["evictions"], store="features")

    def clear(self) -> None:
        """Drop every entry."""
        self.features.clear()


class CacheCountsProbe:
    """A :meth:`~repro.parallel.WorkerPool.map_observed` probe for caches.

    Ships inside the task wrapper so that in a process-pool worker the
    probe's ``cache`` is the *same object* as the one the mapped
    function uses (pickle memoization preserves the shared reference);
    per-item counter deltas then merge back into the caller's cache,
    closing the hole where worker-side hits/misses were silently lost.
    """

    def __init__(self, cache: AnalysisCache) -> None:
        self.cache = cache

    def snapshot(self) -> dict[str, dict[str, int]]:
        """Counter state before the mapped call."""
        return self.cache.counts()

    def delta(
        self, before: dict[str, dict[str, int]]
    ) -> dict[str, dict[str, int]]:
        """Counter growth since ``before`` (one item's contribution)."""
        after = self.cache.counts()
        return {
            name: {
                key: after[name][key] - before[name].get(key, 0)
                for key in after[name]
            }
            for name in after
        }

    def merge(self, delta: dict[str, dict[str, int]]) -> None:
        """Fold a worker-side delta into the caller's cache."""
        self.cache.merge_counts(delta)
