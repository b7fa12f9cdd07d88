"""Tests for the combined detection + target-identification pipeline."""

import json

import pytest

from repro.core.detector import PhishingDetector
from repro.core.features import FeatureExtractor
from repro.core.pipeline import KnowYourPhish, PageVerdict
from repro.core.target import TargetIdentifier
from repro.parallel import AnalysisCache, snapshot_fingerprint
from repro.web.ocr import SimulatedOcr
from repro.web.page import PageSnapshot


@pytest.fixture(scope="module")
def pipeline(tiny_world):
    extractor = FeatureExtractor(alexa=tiny_world.alexa)
    train = tiny_world.dataset("legTrain") + tiny_world.dataset("phishTrain")
    detector = PhishingDetector(extractor, n_estimators=40)
    detector.fit_snapshots([page.snapshot for page in train], train.labels())
    identifier = TargetIdentifier(
        tiny_world.search, ocr=SimulatedOcr(error_rate=0.02)
    )
    return KnowYourPhish(detector, identifier)


class TestPipeline:
    def test_phish_detected_with_target(self, pipeline, tiny_world):
        hits = 0
        pages = [
            page for page in tiny_world.dataset("phishTest")[:20]
            if page.target_mld
        ]
        for page in pages:
            verdict = pipeline.analyze(page.snapshot)
            if verdict.is_phish and page.target_mld in verdict.targets:
                hits += 1
        assert hits / len(pages) > 0.6

    def test_legit_mostly_passes(self, pipeline, tiny_world):
        passed = 0
        for page in tiny_world.dataset("english")[:30]:
            verdict = pipeline.analyze(page.snapshot)
            passed += verdict.verdict == "legitimate"
        assert passed >= 25

    def test_confidence_in_unit_interval(self, pipeline, tiny_world):
        verdict = pipeline.analyze(tiny_world.dataset("english")[0].snapshot)
        assert 0.0 <= verdict.confidence <= 1.0

    def test_low_confidence_short_circuits(self, pipeline, tiny_world):
        # Legitimate verdicts below threshold carry no identification.
        for page in tiny_world.dataset("english")[:30]:
            verdict = pipeline.analyze(page.snapshot)
            if verdict.confidence < pipeline.detector.threshold:
                assert verdict.identification is None
                break

    def test_without_identifier(self, tiny_world, pipeline):
        bare = KnowYourPhish(pipeline.detector, identifier=None)
        verdict = bare.analyze(tiny_world.dataset("phishTest")[0].snapshot)
        assert verdict.verdict in ("legitimate", "phish")

    def test_is_blocked_semantics(self, pipeline):
        phish = PageVerdict(verdict="phish", confidence=0.9, targets=["x"])
        suspicious = PageVerdict(verdict="suspicious", confidence=0.8,
                                 targets=[])
        legit = PageVerdict(verdict="legitimate", confidence=0.1, targets=[])
        assert pipeline.is_blocked(phish)
        assert pipeline.is_blocked(suspicious)
        assert not pipeline.is_blocked(legit)

    def test_suspicious_not_blocked_when_configured(self, pipeline):
        lenient = KnowYourPhish(
            pipeline.detector, pipeline.identifier,
            treat_suspicious_as_phish=False,
        )
        suspicious = PageVerdict(verdict="suspicious", confidence=0.8,
                                 targets=[])
        assert not lenient.is_blocked(suspicious)

    def test_analyze_batch_matches_per_page_analyze(
        self, pipeline, tiny_world
    ):
        pages = (
            tiny_world.dataset("phishTest")[:12]
            + tiny_world.dataset("english")[:12]
        )
        snapshots = [page.snapshot for page in pages]
        serial = [pipeline.analyze(snapshot) for snapshot in snapshots]
        batch = pipeline.analyze_batch(snapshots)
        assert [
            (v.verdict, v.confidence, tuple(v.targets),
             tuple(v.degradations), v.degraded)
            for v in batch
        ] == [
            (v.verdict, v.confidence, tuple(v.targets),
             tuple(v.degradations), v.degraded)
            for v in serial
        ]

    def test_batch_identification_equals_identify_alone(
        self, pipeline, tiny_world
    ):
        """Sharing the batch's memo leaves identification unchanged."""
        phish = tiny_world.dataset("phishTest")[:10]
        legit = tiny_world.dataset("english")[:10]
        snapshots = [
            page.snapshot for pair in zip(phish, legit) for page in pair
        ]
        verdicts = pipeline.analyze_batch(snapshots)
        flagged = [
            (snapshot, verdict.identification)
            for snapshot, verdict in zip(snapshots, verdicts)
            if verdict.identification is not None
        ]
        assert len(flagged) >= 5
        for snapshot, batch in flagged:
            # A fresh identifier per page: nothing carries over from
            # the batch or from the other pages.
            alone = TargetIdentifier(
                tiny_world.search, ocr=SimulatedOcr(error_rate=0.02)
            ).identify(snapshot)
            assert (batch.verdict, batch.step, batch.targets,
                    batch.keyterms) == (alone.verdict, alone.step,
                                        alone.targets, alone.keyterms)

    def test_analyze_batch_metrics_match_per_page(
        self, pipeline, tiny_world
    ):
        from repro.obs import MetricsRegistry

        snapshots = [
            page.snapshot
            for page in tiny_world.dataset("phishTest")[:8]
            + tiny_world.dataset("english")[:8]
        ]
        serial_metrics = MetricsRegistry()
        for snapshot in snapshots:
            pipeline.analyze(snapshot, metrics=serial_metrics)
        batch_metrics = MetricsRegistry()
        pipeline.analyze_batch(snapshots, metrics=batch_metrics)
        for name in ("verdicts_total", "verdicts_degraded_total",
                     "fp_filtered_total"):
            assert batch_metrics.counter_total(name) == \
                serial_metrics.counter_total(name), name

    def test_analyze_batch_empty(self, pipeline):
        assert pipeline.analyze_batch([]) == []

    def test_analyze_batch_carries_load_degradations(
        self, pipeline, tiny_world
    ):
        from repro.resilience.browser import LoadResult

        load = LoadResult(
            snapshot=tiny_world.dataset("english")[0].snapshot,
            attempts=2,
            degradations=["partial_content"],
        )
        serial = pipeline.analyze(load)
        [batch] = pipeline.analyze_batch([load])
        assert batch.degradations == serial.degradations
        assert "partial_content" in batch.degradations
        assert batch.degraded
        assert batch.verdict == serial.verdict

    def test_page_verdict_helpers(self):
        verdict = PageVerdict(verdict="phish", confidence=0.95,
                              targets=["paypal", "visa"])
        assert verdict.is_phish
        assert verdict.top_target == "paypal"
        assert PageVerdict("legitimate", 0.1, []).top_target is None


def _cached(pipeline) -> KnowYourPhish:
    """The fixture's pipeline over a fresh feature store."""
    detector = PhishingDetector(
        FeatureExtractor(
            alexa=pipeline.detector.extractor.alexa, cache=AnalysisCache()
        ),
        threshold=pipeline.detector.threshold,
    )
    detector.model = pipeline.detector.model
    return KnowYourPhish(detector, pipeline.identifier)


def _outcome(verdict: PageVerdict) -> tuple:
    identification = verdict.identification
    return (
        verdict.verdict, verdict.confidence, tuple(verdict.targets),
        tuple(verdict.degradations),
        identification.step if identification else None,
    )


class TestFeatureStore:
    def test_flagged_pages_over_a_warm_store_match_a_cold_run(
        self, pipeline, tiny_world
    ):
        """Identification reads a page's sources afresh when its
        features come from the store, and decides as a cold run does."""
        snapshots = [
            page.snapshot for page in tiny_world.dataset("phishTest")[:10]
        ]
        cold = pipeline.analyze_batch(snapshots)
        assert sum(v.identification is not None for v in cold) >= 5
        cached = _cached(pipeline)
        assert [_outcome(v) for v in cached.analyze_batch(snapshots)] \
            == [_outcome(v) for v in cold]
        store = cached.detector.extractor.cache.features
        hits = store.hits
        # New snapshot objects of the same content: the store answers
        # by fingerprint, and nothing else carries over.
        warm = cached.analyze_batch(
            [PageSnapshot.from_dict(s.to_dict()) for s in snapshots]
        )
        assert store.hits - hits == len(snapshots)
        assert [_outcome(v) for v in warm] == [_outcome(v) for v in cold]

    def test_lone_surrogate_page_is_analysed_with_a_store(
        self, pipeline, tiny_world
    ):
        data = tiny_world.dataset("phishTest")[0].snapshot.to_dict()
        data["html"] = "<p>log\ud800in</p>" + data["html"]
        data["logged_links"].append("http://cdn.example.com/a\ud800.js")
        # Stored JSON escapes the lone surrogate; loading gives it back.
        snapshot = PageSnapshot.from_dict(json.loads(json.dumps(data)))
        with pytest.raises(UnicodeEncodeError):
            snapshot.html.encode("utf-8")
        uncached = pipeline.analyze_batch([snapshot])
        cached = _cached(pipeline)
        assert [_outcome(v) for v in cached.analyze_batch([snapshot])] \
            == [_outcome(v) for v in uncached]
        assert cached.detector.extractor.cache.get_features(
            snapshot_fingerprint(snapshot)
        ) is not None
