"""End-to-end graceful degradation through the full pipeline."""

import pytest

from repro.core.detector import PhishingDetector
from repro.core.features import FeatureExtractor
from repro.core.pipeline import KnowYourPhish
from repro.core.target import TargetIdentifier
from repro.resilience import (
    CircuitBreaker,
    GuardedSearchEngine,
    ManualClock,
    ResilientBrowser,
    RetryPolicy,
    SearchUnavailableError,
)
from repro.resilience.retry import Deadline
from repro.web.faults import FaultPlan, FlakyOcr, FlakySearchEngine, FlakyWeb
from repro.web.ocr import SimulatedOcr
from tests.core.test_keyterms import _CountingOcr
from tests.resilience.test_deadline_propagation import _SlowSearch


@pytest.fixture(scope="module")
def detector(tiny_world):
    extractor = FeatureExtractor(alexa=tiny_world.alexa)
    train = tiny_world.dataset("legTrain") + tiny_world.dataset("phishTrain")
    model = PhishingDetector(extractor, n_estimators=40)
    model.fit_snapshots([page.snapshot for page in train], train.labels())
    return model


def _flagged_snapshot(detector, tiny_world):
    """A phishing snapshot the detector actually flags."""
    for page in tiny_world.dataset("phishTest"):
        vector = detector.extractor.extract(page.snapshot)
        if float(detector.predict_proba(vector.reshape(1, -1))[0]) \
                >= detector.threshold:
            return page.snapshot
    raise AssertionError("no flagged phishing page in tiny world")


class TestSearchOutageDegradation:
    def test_forced_outage_yields_degraded_detector_verdict(
        self, detector, tiny_world
    ):
        down = FlakySearchEngine(tiny_world.search, forced_down=True)
        pipeline = KnowYourPhish(
            detector, TargetIdentifier(down, ocr=SimulatedOcr(0.02))
        )
        verdict = pipeline.analyze(_flagged_snapshot(detector, tiny_world))
        assert verdict.verdict == "phish"
        assert verdict.degraded
        assert "search_unavailable" in verdict.degradations
        assert verdict.targets == []
        assert verdict.identification is None

    def test_open_circuit_also_degrades(self, detector, tiny_world):
        clock = ManualClock()
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_time=300.0, clock=clock,
            failure_types=(SearchUnavailableError,),
        )
        down = FlakySearchEngine(tiny_world.search, forced_down=True)
        guarded = GuardedSearchEngine(down, breaker=breaker)
        pipeline = KnowYourPhish(
            detector, TargetIdentifier(guarded, ocr=SimulatedOcr(0.02))
        )
        snapshot = _flagged_snapshot(detector, tiny_world)
        first = pipeline.analyze(snapshot)
        second = pipeline.analyze(snapshot)
        assert first.degraded and second.degraded
        # The second page never reached the engine: circuit open.
        assert breaker.stats["rejected"] > 0

    def test_healthy_search_not_degraded(self, detector, tiny_world):
        pipeline = KnowYourPhish(
            detector,
            TargetIdentifier(tiny_world.search, ocr=SimulatedOcr(0.02)),
        )
        verdict = pipeline.analyze(_flagged_snapshot(detector, tiny_world))
        assert not verdict.degraded
        assert verdict.identification is not None


def _broken_ocr():
    return _CountingOcr(FlakyOcr(SimulatedOcr(0.02), failure_rate=1.0))


def _run(detector, tiny_world, snapshot, ocr, deadline=None, clock=None):
    """``(verdict, queries)`` of one pipeline analysis of ``snapshot``,
    each query taking one second of ``clock``."""
    search = _SlowSearch(tiny_world.search, clock or ManualClock())
    pipeline = KnowYourPhish(detector, TargetIdentifier(search, ocr=ocr))
    return pipeline.analyze(snapshot, deadline=deadline), search.queries


def _step4_snapshot(detector, tiny_world):
    """A flagged page with screenshot text whose identification sends
    queries before it reaches step 4 and reads the screenshot."""
    for name in ("phishTest", "phishBrand", "phishTrain"):
        for page in tiny_world.dataset(name):
            if not page.snapshot.screenshot.full_text:
                continue
            ocr = _CountingOcr(SimulatedOcr(0.02))
            verdict, queries = _run(detector, tiny_world, page.snapshot, ocr)
            if verdict.identification and ocr.reads and len(queries) >= 2:
                return page.snapshot
    raise AssertionError("no flagged page reaching step 4 in tiny world")


class TestOcrFailureDegradation:
    """OCR is read only at step 4, so only such a page can fail on it."""

    def test_page_decided_at_step_2_never_reads_ocr(
        self, detector, tiny_world
    ):
        snapshot = _flagged_snapshot(detector, tiny_world)
        broken = _broken_ocr()
        verdict, queries = _run(detector, tiny_world, snapshot, broken)
        working, _ = _run(
            detector, tiny_world, snapshot, SimulatedOcr(0.02)
        )
        keyterms = verdict.identification.keyterms
        # The step-2 query (the prominent terms) was the last one sent.
        assert queries[-1] == keyterms.prominent
        assert broken.reads == 0
        assert "ocr_failed" not in verdict.degradations
        assert not verdict.degraded
        assert keyterms.ocr_prominent == []
        assert verdict == working

    def test_failed_ocr_at_step_4_tags_and_skips_the_query(
        self, detector, tiny_world
    ):
        snapshot = _step4_snapshot(detector, tiny_world)
        broken = _broken_ocr()
        verdict, queries = _run(detector, tiny_world, snapshot, broken)
        working, working_queries = _run(
            detector, tiny_world, snapshot, SimulatedOcr(0.02)
        )
        _, no_ocr_queries = _run(detector, tiny_world, snapshot, None)
        ocr_terms = working.identification.keyterms.ocr_prominent
        assert broken.reads == 1
        assert "ocr_failed" in verdict.degradations
        assert verdict.degraded
        assert verdict.identification.keyterms.ocr_prominent == []
        # A working OCR adds the step-4 query; a failed one sends the
        # queries of an OCR-less run.
        assert ocr_terms and working_queries[-1] == ocr_terms
        assert queries == working_queries[:-1] == no_ocr_queries

    def test_deadline_expired_at_step_4_reads_no_screenshot(
        self, detector, tiny_world
    ):
        snapshot = _step4_snapshot(detector, tiny_world)
        _, queries = _run(detector, tiny_world, snapshot, None)
        # One simulated second per query: the budget runs out after the
        # queries of steps 1-3, at step 4's deadline check.
        clock = ManualClock()
        ocr = _CountingOcr(SimulatedOcr(0.02))
        verdict, _ = _run(
            detector, tiny_world, snapshot, ocr,
            deadline=Deadline(len(queries) - 0.5, clock=clock), clock=clock,
        )
        assert ocr.reads == 0
        assert "deadline_exhausted" in verdict.degradations
        assert verdict.identification is None


class TestPartialSnapshotDegradation:
    def test_load_degradations_tag_the_verdict(self, detector, tiny_world):
        clock = ManualClock()
        plan = FaultPlan(seed=1, truncate_rate=1.0, drop_screenshot_rate=1.0)
        browser = ResilientBrowser(
            FlakyWeb(tiny_world.web, plan, clock=clock),
            policy=RetryPolicy(clock=clock), clock=clock,
        )
        pipeline = KnowYourPhish(
            detector,
            TargetIdentifier(tiny_world.search, ocr=SimulatedOcr(0.02)),
        )
        url = tiny_world.dataset("english")[0].snapshot.starting_url
        loaded = browser.load(url)
        verdict = pipeline.analyze(loaded)
        assert loaded.degraded
        assert verdict.degraded
        assert "truncated_html" in verdict.degradations


class TestBatchOverWorld:
    def test_analyze_many_quarantines_missing_pages(
        self, detector, tiny_world
    ):
        clock = ManualClock()
        browser = ResilientBrowser(
            tiny_world.web, policy=RetryPolicy(clock=clock), clock=clock
        )
        pipeline = KnowYourPhish(
            detector,
            TargetIdentifier(tiny_world.search, ocr=SimulatedOcr(0.02)),
        )
        urls = [
            page.snapshot.starting_url
            for page in tiny_world.dataset("english")[:5]
        ] + ["http://definitely-not-hosted.example/"]
        report = pipeline.analyze_many(urls, browser)
        assert len(report.analyzed) == 5
        assert len(report.quarantined) == 1
        assert report.quarantined[0].error_kind == "PageNotFound"
        assert report.quarantined[0].permanent
