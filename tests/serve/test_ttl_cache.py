"""TTL/LRU cache semantics under explicit, injected time.

Every test drives a :class:`~repro.parallel.cache.TtlCache` on a
:class:`~repro.resilience.clock.ManualClock` (or explicit ``now``
arguments), so expiry, eviction, and counters are fully deterministic:
the properties asserted here are exactly what the serving engine's
memo and negative cache and the add-on's verdict cache rely on.  The
cache's lock and pickling are tested in
``tests/parallel/test_analysis_cache.py``.
"""

import pytest

from repro.parallel.cache import TtlCache
from repro.resilience.clock import ManualClock


class TestTtlExpiry:
    def test_entry_aged_exactly_ttl_is_still_valid(self):
        clock = ManualClock()
        cache = TtlCache(ttl=10.0, clock=clock)
        cache.put("k", "v")
        clock.sleep(10.0)              # age == ttl: boundary inclusive
        assert cache.get("k") == "v"
        assert cache.stats()["expirations"] == 0

    def test_entry_strictly_past_ttl_expires_and_counts(self):
        clock = ManualClock()
        cache = TtlCache(ttl=10.0, clock=clock)
        cache.put("k", "v")
        clock.sleep(10.0 + 1e-9)
        assert cache.get("k") is None
        stats = cache.stats()
        assert stats["expirations"] == 1
        assert stats["misses"] == 1
        assert stats["size"] == 0      # expired entry was removed

    def test_refresh_restarts_the_clock(self):
        clock = ManualClock()
        cache = TtlCache(ttl=10.0, clock=clock)
        cache.put("k", "old")
        clock.sleep(8.0)
        cache.put("k", "new")          # re-put resets cached_at
        clock.sleep(8.0)               # 16 s after first put, 8 after second
        assert cache.get("k") == "new"

    def test_explicit_now_overrides_the_clock(self):
        cache = TtlCache(ttl=5.0)
        cache.put("k", "v", now=100.0)
        assert cache.get("k", now=105.0) == "v"
        assert cache.get("k", now=105.1) is None

    def test_ttl_without_time_source_is_an_error(self):
        cache = TtlCache(ttl=5.0)
        with pytest.raises(ValueError):
            cache.put("k", "v")        # no clock, no now

    def test_no_ttl_entries_never_expire(self):
        cache = TtlCache()
        cache.put("k", "v")
        assert cache.get("k") == "v"


class TestNegativeEntries:
    def test_negative_ttl_is_separate_from_positive(self):
        clock = ManualClock()
        cache = TtlCache(ttl=100.0, negative_ttl=5.0, clock=clock)
        cache.put("good", "verdict")
        cache.put("bad", "shed_upstream", negative=True)
        clock.sleep(6.0)               # past negative_ttl, within ttl
        assert cache.get("bad") is None
        assert cache.get("good") == "verdict"
        stats = cache.stats()
        assert stats["expirations"] == 1
        assert stats["hits"] == 1

    def test_negative_hits_are_tallied_apart(self):
        clock = ManualClock()
        cache = TtlCache(ttl=10.0, clock=clock)
        cache.put("bad", "reason", negative=True)
        cache.put("good", "verdict")
        assert cache.get("bad") == "reason"
        assert cache.get("good") == "verdict"
        stats = cache.stats()
        assert stats["hits"] == 2
        assert stats["negative_hits"] == 1

    def test_negative_ttl_defaults_to_ttl(self):
        cache = TtlCache(ttl=7.0)
        assert cache.negative_ttl == 7.0


class TestLruEviction:
    def test_capacity_bound_evicts_least_recently_used(self):
        cache = TtlCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1     # refresh a's recency
        cache.put("c", 3)              # evicts b, the LRU entry
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats()["evictions"] == 1

    def test_overwrite_refreshes(self):
        cache = TtlCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)      # re-put refreshes recency
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert cache.get("b") is None

    def test_eviction_under_pressure_is_deterministic(self):
        def run():
            cache = TtlCache(capacity=4)
            for i in range(100):
                cache.put(f"k{i % 7}", i)
                cache.get(f"k{(i + 3) % 7}")
            return cache.stats(), sorted(
                key for key in (f"k{i}" for i in range(7))
                if cache.get(key) is not None
            )

        assert run() == run()

    def test_clear_drops_entries_but_keeps_counters(self):
        cache = TtlCache(capacity=4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("zzz")
        cache.clear()
        assert len(cache) == 0
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_invalidate(self):
        cache = TtlCache()
        cache.put("a", 1)
        assert cache.invalidate("a") is True
        assert cache.invalidate("a") is False
        assert cache.get("a") is None

    def test_validation(self):
        with pytest.raises(ValueError):
            TtlCache(capacity=0)
        with pytest.raises(ValueError):
            TtlCache(ttl=0.0)
        with pytest.raises(ValueError):
            TtlCache(negative_ttl=-1.0)
