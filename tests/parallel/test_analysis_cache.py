"""Tests for the content-keyed analysis caches and the cache's lock.

The TTL, negative-entry and LRU semantics of :class:`TtlCache` are
covered in ``tests/serve/test_ttl_cache.py``.
"""

import json
import pickle
import random
import sys

import numpy as np

from repro.core.features import FeatureExtractor
from repro.core.pipeline import PageVerdict
from repro.parallel import (
    AnalysisCache,
    TtlCache,
    WorkerPool,
    snapshot_fingerprint,
)
from repro.resilience import ManualClock, ResilientBrowser, RetryPolicy
from repro.serve import (
    AdmissionController,
    ServingEngine,
    TokenBucket,
    build_requests,
)
from repro.serve.loadgen import _RawArrival
from repro.web.browser import Browser
from repro.web.faults import FaultPlan, FlakyWeb
from repro.web.page import PageSnapshot, Screenshot


def _snapshot(html="<body>hello world</body>", url="http://a.example.com/"):
    return PageSnapshot(
        starting_url=url, landing_url=url, html=html,
        screenshot=Screenshot(rendered_text="hello"),
    )


class TestFingerprint:
    def test_stable_across_instances(self):
        assert snapshot_fingerprint(_snapshot()) == \
            snapshot_fingerprint(_snapshot())

    def test_differs_on_any_content_change(self):
        base = snapshot_fingerprint(_snapshot())
        assert snapshot_fingerprint(_snapshot(html="<body>bye</body>")) != base
        assert snapshot_fingerprint(
            _snapshot(url="http://b.example.com/")
        ) != base

    def test_sensitive_to_screenshot(self):
        plain = _snapshot()
        with_image = _snapshot()
        with_image.screenshot = Screenshot(
            rendered_text="hello", image_texts=("login now",)
        )
        assert snapshot_fingerprint(plain) != snapshot_fingerprint(with_image)

    def test_survives_serialisation_round_trip(self):
        snapshot = _snapshot()
        clone = PageSnapshot.from_dict(snapshot.to_dict())
        assert snapshot_fingerprint(snapshot) == snapshot_fingerprint(clone)


class TestFingerprintMemo:
    """``PageSnapshot.fingerprint`` is read once per page, by the serving
    engine's memo and the feature store alike; whatever route built the
    snapshot, the kept value is the fresh hash of the finished page."""

    @staticmethod
    def _urls(world) -> list[str]:
        pages = world.dataset("phishTest")[:6] + world.dataset("english")[:6]
        return [page.snapshot.starting_url for page in pages]

    def test_memo_is_the_fresh_hash_on_every_load_route(self, tiny_world):
        clock = ManualClock()
        plain = Browser(tiny_world.web)
        resilient = ResilientBrowser(tiny_world.web)
        degraded = ResilientBrowser(
            FlakyWeb(
                tiny_world.web,
                FaultPlan(seed=1, truncate_rate=1.0, drop_screenshot_rate=1.0),
                clock=clock,
            ),
            policy=RetryPolicy(clock=clock), clock=clock,
        )
        routes = {
            "browser": plain.load,
            "resilient": lambda url: resilient.load(url).snapshot,
            "degraded": lambda url: degraded.load(url).snapshot,
            "stored": lambda url: PageSnapshot.from_dict(
                json.loads(json.dumps(plain.load(url).to_dict()))
            ),
        }
        extractor = FeatureExtractor(
            alexa=tiny_world.alexa, cache=AnalysisCache()
        )
        fingerprints = {}
        for name, load in routes.items():
            snapshots = [load(url) for url in self._urls(tiny_world)]
            extractor.extract_batch(snapshots)
            for snapshot in snapshots:
                assert snapshot.fingerprint == snapshot_fingerprint(snapshot)
                assert extractor.cache.get_features(
                    snapshot_fingerprint(snapshot)
                ) is not None
            fingerprints[name] = [s.fingerprint for s in snapshots]
        assert fingerprints["browser"] == fingerprints["resilient"] \
            == fingerprints["stored"]
        assert not set(fingerprints["degraded"]) & set(fingerprints["browser"])

    def test_serving_memo_keys_are_the_fresh_hash(self, tiny_world):
        clock = ManualClock()
        browser = ResilientBrowser(
            tiny_world.web, policy=RetryPolicy(clock=clock), clock=clock
        )
        loaded = []

        class RecordingBrowser:
            def load(self, url, deadline=None):
                result = browser.load(url, deadline=deadline)
                loaded.append(result.snapshot)
                return result

        class LegitimatePipeline:
            def analyze_batch(self, pages, deadlines=None):
                return [
                    PageVerdict(verdict="legitimate", confidence=0.1,
                                targets=[])
                    for _page in pages
                ]

        engine = ServingEngine(
            LegitimatePipeline(), RecordingBrowser(),
            AdmissionController(
                TokenBucket(rate=100.0, capacity=100.0), queue_limit=64
            ),
            clock=clock, analysis_cost=0.1,
        )
        urls = self._urls(tiny_world)
        engine.run(build_requests(
            [_RawArrival(time=float(t), url=url) for t, url in enumerate(urls)]
        ))
        assert len(loaded) == len(urls)
        for snapshot in loaded:
            assert snapshot.fingerprint == snapshot_fingerprint(snapshot)
            assert engine.memo.get(snapshot_fingerprint(snapshot)) is not None


class TestTtlCacheLock:
    def test_picklable_despite_lock(self):
        cache = TtlCache(capacity=8)
        cache.put("a", np.arange(3))
        clone = pickle.loads(pickle.dumps(cache))
        assert np.array_equal(clone.get("a"), np.arange(3))
        clone.put("b", 2)  # the restored lock works

    def test_shared_instance_under_thread_pool(self):
        capacity, workers, lookups = 4, 4, 20_000
        cache = TtlCache(capacity=capacity)

        def worker(seed):
            rng = random.Random(seed)
            largest = 0
            for _ in range(lookups):
                key = f"k{rng.randrange(2 * capacity)}"
                if cache.get(key) is None:
                    cache.put(key, seed)
                largest = max(largest, len(cache))
            return largest

        # Switch threads as often as the interpreter allows, so that
        # unlocked LRU bookkeeping would interleave (without the lock a
        # hit's recency update races another thread's eviction).
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with WorkerPool(workers=workers, backend="thread") as pool:
                largest = pool.map(worker, range(workers))
        finally:
            sys.setswitchinterval(interval)
        assert cache.hits + cache.misses == workers * lookups
        assert max(largest) <= capacity
        assert len(cache) == capacity


class TestAnalysisCache:
    def test_feature_hits_are_copies(self):
        cache = AnalysisCache()
        vector = np.ones(212)
        cache.put_features("k", vector)
        vector[0] = 99.0            # mutating the original is safe
        hit = cache.get_features("k")
        assert hit[0] == 1.0
        hit[1] = 42.0               # and mutating the hit is safe too
        assert cache.get_features("k")[1] == 1.0

    def test_stats_shape(self):
        cache = AnalysisCache()
        cache.put_features("k", np.zeros(212))
        cache.get_features("k")
        cache.get_features("missing")
        stats = cache.stats()
        assert stats["features_entries"] == 1
        assert stats["features_hits"] == 1
        assert stats["features_misses"] == 1
        assert stats["features_hit_rate"] == 0.5

    def test_clear_empties_all_stores(self):
        cache = AnalysisCache()
        cache.put_features("k", np.zeros(212))
        cache.clear()
        assert cache.stats()["features_entries"] == 0
        assert cache.get_features("k") is None


class TestEvictionCounters:
    def test_overfill_counts_evictions(self):
        cache = TtlCache(capacity=3)
        for i in range(10):
            cache.put(i, i)
        assert len(cache) == 3
        assert cache.evictions == 7
        assert cache.counts() == {"hits": 0, "misses": 0, "evictions": 7}

    def test_replacing_a_key_is_not_an_eviction(self):
        cache = TtlCache(capacity=2)
        cache.put("a", 1)
        cache.put("a", 2)
        cache.put("b", 1)
        assert cache.evictions == 0

    def test_analysis_cache_stats_report_evictions(self):
        cache = AnalysisCache(max_entries=2)
        for i in range(5):
            cache.put_features(f"k{i}", np.zeros(212))
        stats = cache.stats()
        assert stats["features_evictions"] == 3
        assert stats["features_entries"] == 2


class TestMergeCounts:
    def test_lru_merge_from_cache_and_dict(self):
        ours = TtlCache()
        ours.put("a", 1)
        ours.get("a")
        theirs = TtlCache(capacity=1)
        theirs.get("missing")
        theirs.put("x", 1)
        theirs.put("y", 1)          # evicts x
        ours.merge_counts(theirs)
        assert ours.counts() == {"hits": 1, "misses": 1, "evictions": 1}
        ours.merge_counts({"hits": 2})
        assert ours.hits == 3

    def test_analysis_cache_merge_counts(self):
        ours = AnalysisCache()
        theirs = AnalysisCache()
        theirs.get_features("missing")
        theirs.put_features("k", np.zeros(212))
        theirs.get_features("k")
        ours.merge_counts(theirs)
        assert ours.features.hits == 1
        assert ours.features.misses == 1
        # merging a partial delta dict only touches the named stores
        ours.merge_counts({"features": {"hits": 4}})
        assert ours.features.hits == 5

    def test_fill_metrics_bridges_all_stores(self):
        from repro.obs import MetricsRegistry

        cache = AnalysisCache(max_entries=1)
        cache.get_features("missing")
        cache.put_features("a", np.zeros(212))
        cache.get_features("a")
        cache.put_features("b", np.zeros(212))   # evicts a
        metrics = MetricsRegistry()
        cache.fill_metrics(metrics)
        assert metrics.counter_value(
            "cache_hits_total", store="features") == 1.0
        assert metrics.counter_value(
            "cache_misses_total", store="features") == 1.0
        assert metrics.counter_value(
            "cache_evictions_total", store="features") == 1.0


class TestCacheCountsProbe:
    def test_snapshot_delta_merge_round_trip(self):
        from repro.parallel import CacheCountsProbe

        cache = AnalysisCache()
        probe = CacheCountsProbe(cache)
        before = probe.snapshot()
        cache.get_features("missing")
        cache.put_features("k", np.zeros(212))
        cache.get_features("k")
        delta = probe.delta(before)
        assert delta["features"] == {"hits": 1, "misses": 1, "evictions": 0}

        other = AnalysisCache()
        CacheCountsProbe(other).merge(delta)
        assert other.features.hits == 1
        assert other.features.misses == 1
