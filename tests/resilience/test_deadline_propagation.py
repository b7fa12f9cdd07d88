"""End-to-end deadline propagation: budget flows load -> analyze -> search.

The serving engine threads one :class:`Deadline` through the whole
request path.  These tests pin each hop's contract on the real
pipeline over the tiny world: expired budgets degrade flagged pages to
detector-only verdicts, page budgets quarantine stalled loads, and the
leftover budget after a load squeezes target identification.
"""

import pytest

from repro.core.detector import PhishingDetector
from repro.core.features import FeatureExtractor
from repro.core.pipeline import KnowYourPhish
from repro.core.target import TargetIdentifier
from repro.resilience import (
    ManualClock,
    ResilientBrowser,
    RetryPolicy,
)
from repro.resilience.retry import Deadline
from repro.web.faults import FaultPlan, FlakyWeb
from repro.web.ocr import SimulatedOcr


@pytest.fixture(scope="module")
def detector(tiny_world):
    extractor = FeatureExtractor(alexa=tiny_world.alexa)
    train = tiny_world.dataset("legTrain") + tiny_world.dataset("phishTrain")
    model = PhishingDetector(extractor, n_estimators=40)
    model.fit_snapshots([page.snapshot for page in train], train.labels())
    return model


def _flagged(detector, snapshot) -> bool:
    vector = detector.extractor.extract(snapshot)
    return float(detector.predict_proba(vector.reshape(1, -1))[0]) \
        >= detector.threshold


def _flagged_snapshot(detector, tiny_world):
    for page in tiny_world.dataset("phishTest"):
        if _flagged(detector, page.snapshot):
            return page.snapshot
    raise AssertionError("no flagged phishing page in tiny world")


def _pipeline(detector, tiny_world, search=None):
    return KnowYourPhish(
        detector,
        TargetIdentifier(
            search or tiny_world.search, ocr=SimulatedOcr(0.02)
        ),
    )


class _SlowSearch:
    """The world's search engine, each query taking one simulated second.

    ``queries`` records the terms of every query sent.
    """

    def __init__(self, search, clock):
        self.search = search
        self.clock = clock
        self.queries: list[list[str]] = []

    def query(self, terms, top_k=10):
        self.queries.append(list(terms))
        self.clock.advance(1.0)
        return self.search.query(terms, top_k=top_k)

    def result_rdns(self, terms, top_k=10):
        return {result.rdn for result in self.query(terms, top_k=top_k)}


def _multi_query_snapshot(detector, tiny_world):
    """A flagged page whose identification sends two or more queries."""
    for page in tiny_world.dataset("phishTest"):
        if not _flagged(detector, page.snapshot):
            continue
        search = _SlowSearch(tiny_world.search, ManualClock())
        TargetIdentifier(search, ocr=SimulatedOcr(0.02)).identify(
            page.snapshot
        )
        if len(search.queries) >= 2:
            return page.snapshot
    raise AssertionError("no multi-query flagged page in tiny world")


class TestPipelineDeadline:
    def test_expired_deadline_degrades_to_detector_only(
        self, detector, tiny_world
    ):
        pipeline = _pipeline(detector, tiny_world)
        clock = ManualClock()
        deadline = Deadline(1.0, clock=clock)
        clock.advance(2.0)
        verdict = pipeline.analyze(
            _flagged_snapshot(detector, tiny_world), deadline=deadline
        )
        assert verdict.verdict == "phish"
        assert verdict.degraded
        assert "deadline_exhausted" in verdict.degradations
        assert verdict.targets == []
        assert verdict.identification is None

    def test_roomy_deadline_does_not_perturb_the_verdict(
        self, detector, tiny_world
    ):
        pipeline = _pipeline(detector, tiny_world)
        snapshot = _flagged_snapshot(detector, tiny_world)
        unlimited = pipeline.analyze(snapshot)
        budgeted = pipeline.analyze(
            snapshot, deadline=Deadline(3600.0, clock=ManualClock())
        )
        assert budgeted.verdict == unlimited.verdict
        assert budgeted.confidence == unlimited.confidence
        assert budgeted.targets == unlimited.targets
        assert not budgeted.degraded

    def test_legitimate_pages_ignore_the_deadline(
        self, detector, tiny_world
    ):
        # Classification is local compute; only identification searches.
        pipeline = _pipeline(detector, tiny_world)
        clock = ManualClock()
        deadline = Deadline(1.0, clock=clock)
        clock.advance(2.0)
        page = tiny_world.dataset("english")[0]
        verdict = pipeline.analyze(page.snapshot, deadline=deadline)
        if verdict.verdict == "legitimate":
            assert "deadline_exhausted" not in verdict.degradations


class TestAnalyzeIsABatchOfOne:
    """``analyze(page, deadline=d)`` is ``analyze_batch([page], [d])[0]``.

    Each side runs on its own fresh clock and slow search engine, so
    both see the same deadline trajectory.
    """

    @staticmethod
    def _both_ways(detector, tiny_world, snapshot, budget, spent=0.0):
        verdicts = []
        for batched in (False, True):
            clock = ManualClock()
            pipeline = _pipeline(
                detector, tiny_world, search=_SlowSearch(
                    tiny_world.search, clock
                ),
            )
            deadline = Deadline(budget, clock=clock)
            clock.advance(spent)
            if batched:
                [verdict] = pipeline.analyze_batch(
                    [snapshot], deadlines=[deadline]
                )
            else:
                verdict = pipeline.analyze(snapshot, deadline=deadline)
            verdicts.append(verdict)
        return verdicts

    def test_expired_deadline(self, detector, tiny_world):
        single, batched = self._both_ways(
            detector, tiny_world, _flagged_snapshot(detector, tiny_world),
            budget=1.0, spent=2.0,
        )
        assert single == batched
        assert single.degradations == ["deadline_exhausted"]

    def test_roomy_deadline(self, detector, tiny_world):
        single, batched = self._both_ways(
            detector, tiny_world, _flagged_snapshot(detector, tiny_world),
            budget=3600.0,
        )
        assert single == batched
        assert not single.degraded

    def test_deadline_expiring_during_identification(
        self, detector, tiny_world
    ):
        # The first query fits in the 0.5 s budget and takes 1 s; the
        # check before the second query finds the budget gone.
        single, batched = self._both_ways(
            detector, tiny_world,
            _multi_query_snapshot(detector, tiny_world), budget=0.5,
        )
        assert single == batched
        assert "deadline_exhausted" in single.degradations
        assert single.identification is None

    def test_mixed_batch_degrades_only_expired_pages(
        self, detector, tiny_world
    ):
        pipeline = _pipeline(detector, tiny_world)
        flagged = [
            page.snapshot for page in tiny_world.dataset("phishTest")
            if _flagged(detector, page.snapshot)
        ][:3]
        assert len(flagged) == 3, "tiny world flags too few phishing pages"
        legitimate = next(
            page.snapshot for page in tiny_world.dataset("english")
            if not _flagged(detector, page.snapshot)
        )
        pages = flagged + [legitimate]
        clock = ManualClock()
        expired = Deadline(1.0, clock=clock)
        roomy = Deadline(3600.0, clock=clock)
        clock.advance(2.0)
        budgeted = pipeline.analyze_batch(
            pages, deadlines=[roomy, expired, None, expired]
        )
        unbudgeted = pipeline.analyze_batch(pages)
        assert budgeted[1].degradations == ["deadline_exhausted"]
        assert budgeted[1].targets == []
        # The roomy, unlimited and legitimate pages are untouched.
        for index in (0, 2, 3):
            assert budgeted[index] == unbudgeted[index]

    def test_deadlines_must_match_pages(self, detector, tiny_world):
        pipeline = _pipeline(detector, tiny_world)
        snapshot = _flagged_snapshot(detector, tiny_world)
        with pytest.raises(ValueError):
            pipeline.analyze_batch([snapshot, snapshot], deadlines=[None])


class TestBatchPageBudget:
    def test_stalled_loads_quarantine_as_deadline_exceeded(
        self, detector, tiny_world
    ):
        clock = ManualClock()
        browser = ResilientBrowser(
            FlakyWeb(
                tiny_world.web,
                FaultPlan.latency(1.0, delay=30.0), clock=clock,
            ),
            policy=RetryPolicy(clock=clock), clock=clock,
        )
        pipeline = _pipeline(detector, tiny_world)
        urls = [
            page.snapshot.starting_url
            for page in tiny_world.dataset("english")[:3]
        ]
        report = pipeline.analyze_many(urls, browser, page_budget=5.0)
        assert len(report.quarantined) == 3
        assert report.error_kinds() == {"DeadlineExceeded": 3}
        assert report.summary()["error_kinds"] == {"DeadlineExceeded": 3}

    def test_error_kinds_split_navigation_from_deadline(
        self, detector, tiny_world
    ):
        clock = ManualClock()
        browser = ResilientBrowser(
            tiny_world.web, policy=RetryPolicy(clock=clock), clock=clock
        )
        pipeline = _pipeline(detector, tiny_world)
        urls = [
            tiny_world.dataset("english")[0].snapshot.starting_url,
            "http://definitely-not-hosted.example/",
            "http://also-not-hosted.example/",
        ]
        report = pipeline.analyze_many(urls, browser)
        assert report.error_kinds() == {"PageNotFound": 2}
        assert len(report.analyzed) == 1

    def test_leftover_budget_squeezes_identification(
        self, detector, tiny_world
    ):
        # Loads are instant on the manual clock, so the pages analyze
        # under a Deadline holding (budget - 0) seconds.  A generous
        # budget must reproduce the unbudgeted verdicts exactly.
        clock = ManualClock()
        browser = ResilientBrowser(
            tiny_world.web, policy=RetryPolicy(clock=clock), clock=clock
        )
        pipeline = _pipeline(detector, tiny_world)
        urls = [
            page.snapshot.starting_url
            for page in tiny_world.dataset("phishTest")[:4]
        ]
        unbudgeted = pipeline.analyze_many(urls, browser)
        budgeted = pipeline.analyze_many(urls, browser, page_budget=3600.0)
        assert [
            (p.url, p.verdict.verdict, p.verdict.targets)
            for p in budgeted.analyzed
        ] == [
            (p.url, p.verdict.verdict, p.verdict.targets)
            for p in unbudgeted.analyzed
        ]
