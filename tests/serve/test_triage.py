"""Tier-0 triage: model unit tests and engine-ladder integration.

The unit tests drive :class:`~repro.serve.triage.TriageModel` over a
score-table stub so every band edge is exact; the integration tests
run the full :class:`~repro.serve.engine.ServingEngine` ladder on the
same stub browser/pipeline idiom as ``test_engine.py`` and assert the
tentpole contract: tier-0 resolution consumes no page load, no queue
slot, and no token, while escalation leaves the classic path — and
its verdicts — byte-identical to an untriaged engine.
"""

import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.pipeline import PageVerdict
from repro.obs import MetricsRegistry, Tracer
from repro.resilience.clock import ManualClock
from repro.serve import (
    SHED_DEADLINE,
    SHED_UPSTREAM,
    TIER_FULL,
    TIER_NEGATIVE,
    TIER_TRIAGE,
    TRIAGE_ESCALATE,
    TRIAGE_LEGITIMATE,
    TRIAGE_PHISH,
    AdmissionController,
    ServeRequest,
    ServingEngine,
    TokenBucket,
    TriageDecision,
    TriageModel,
    build_requests,
)
from repro.serve.loadgen import _RawArrival
from repro.web.browser import PageNotFound
from repro.web.page import PageSnapshot


class ScoreTable:
    """Stub classifier: a fixed URL -> score lookup (default 0.5)."""

    def __init__(self, scores=None, default=0.5):
        self.scores = scores or {}
        self.default = default

    def predict_proba_urls(self, urls):
        return np.array(
            [self.scores.get(url, self.default) for url in urls],
            dtype=float,
        )


class TestTriageModel:
    def _model(self, **scores):
        return TriageModel(
            ScoreTable(scores), legit_threshold=0.2, phish_threshold=0.8
        )

    def test_band_edges_are_inclusive(self):
        model = self._model()
        table = model.classifier.scores
        table.update({"hi": 0.8, "lo": 0.2, "mid": 0.5})
        assert model.decide("hi").action == TRIAGE_PHISH      # >= phish
        assert model.decide("lo").action == TRIAGE_LEGITIMATE  # <= legit
        assert model.decide("mid").action == TRIAGE_ESCALATE

    def test_decide_batch_matches_decide(self):
        model = self._model()
        model.classifier.scores.update(
            {"a": 0.05, "b": 0.5, "c": 0.95}
        )
        batch = model.decide_batch(["a", "b", "c"])
        assert batch == [model.decide(url) for url in ("a", "b", "c")]

    def test_resolved_property(self):
        assert TriageDecision(TRIAGE_PHISH, 0.9).resolved
        assert TriageDecision(TRIAGE_LEGITIMATE, 0.1).resolved
        assert not TriageDecision(TRIAGE_ESCALATE, 0.5).resolved

    def test_escalation_rate(self):
        model = self._model()
        model.classifier.scores.update({"a": 0.5, "b": 0.9, "c": 0.5})
        assert model.escalation_rate(["a", "b", "c"]) \
            == pytest.approx(2 / 3)
        assert model.escalation_rate([]) == 0.0

    def test_calibrate_separable_scores_leave_empty_band(self):
        # Perfectly separated validation scores: with zero error
        # budgets the confident regions meet, the band is empty, and
        # nothing between the classes escapes unresolved.
        scores = {f"l{i}": 0.1 + 0.01 * i for i in range(5)}
        scores.update({f"p{i}": 0.8 + 0.01 * i for i in range(5)})
        urls = list(scores)
        labels = np.array([0] * 5 + [1] * 5)
        model = TriageModel.calibrate(ScoreTable(scores), urls, labels)
        assert model.legit_threshold < model.phish_threshold <= 0.8
        assert all(d.resolved for d in model.decide_batch(urls))

    def test_calibrate_overlapping_scores_escalate_the_overlap(self):
        scores = {"l0": 0.1, "l1": 0.6, "p0": 0.4, "p1": 0.9}
        model = TriageModel.calibrate(
            ScoreTable(scores), list(scores), np.array([0, 0, 1, 1])
        )
        # Zero budgets: confident-phish above every legit (0.6),
        # confident-legit below every phish (0.4).
        assert model.decide("l1").action == TRIAGE_ESCALATE
        assert model.decide("p0").action == TRIAGE_ESCALATE
        assert model.decide("l0").action == TRIAGE_LEGITIMATE
        assert model.decide("p1").action == TRIAGE_PHISH

    def test_validation(self):
        stub = ScoreTable()
        with pytest.raises(ValueError):
            TriageModel(stub, legit_threshold=-0.1, phish_threshold=0.5)
        with pytest.raises(ValueError):
            TriageModel(stub, legit_threshold=0.5, phish_threshold=1.1)
        with pytest.raises(ValueError):
            TriageModel(stub, legit_threshold=0.8, phish_threshold=0.2)

    def test_model_is_picklable(self):
        from repro.baselines.url_lexical import UrlLexicalClassifier

        urls = [f"http://safe{i}.com/home" for i in range(8)] + [
            f"http://paypal-verify{i}.bad/login" for i in range(8)
        ]
        labels = np.array([0] * 8 + [1] * 8)
        classifier = UrlLexicalClassifier(epochs=5).fit_urls(urls, labels)
        model = TriageModel.calibrate(classifier, urls, labels)
        clone = pickle.loads(pickle.dumps(model))
        assert clone.legit_threshold == model.legit_threshold
        assert clone.phish_threshold == model.phish_threshold
        assert clone.decide_batch(urls) == model.decide_batch(urls)


# -- engine integration ------------------------------------------------


class StubSnapshot:
    def __init__(self, content):
        self.content = content
        self.fingerprint = content


class StubLoaded:
    def __init__(self, content):
        self.snapshot = StubSnapshot(content)


class StubBrowser:
    def __init__(self, clock, dead=()):
        self.clock = clock
        self.dead = set(dead)
        self.loads = 0

    def load(self, url, deadline=None):
        self.loads += 1
        if url in self.dead:
            raise PageNotFound(url)
        return StubLoaded(url)


class StubPipeline:
    def __init__(self):
        self.analyzed = []

    def analyze_batch(self, pages, deadlines=None):
        self.analyzed.extend(page.snapshot.content for page in pages)
        return [
            PageVerdict(verdict="legitimate", confidence=0.1, targets=["mld"])
            for _page in pages
        ]


def _engine(clock=None, browser=None, workers=2, queue_limit=8, **kwargs):
    clock = clock or ManualClock()
    browser = browser or StubBrowser(clock)
    pipeline = StubPipeline()
    admission = AdmissionController(
        TokenBucket(rate=100.0, capacity=100.0), queue_limit=queue_limit
    )
    engine = ServingEngine(
        pipeline, browser, admission,
        clock=clock, workers=workers, analysis_cost=0.1, **kwargs,
    )
    return engine, browser, pipeline


def _arrivals(*specs):
    return [_RawArrival(time=t, url=u) for t, u in specs]


CONFIDENT = TriageModel(
    ScoreTable({"http://phish.bad/": 0.99, "http://ok.com/": 0.01},
               default=0.5),
    legit_threshold=0.2,
    phish_threshold=0.8,
)
ESCALATE_ALL = TriageModel(
    ScoreTable(default=0.5), legit_threshold=0.2, phish_threshold=0.8
)


class TestEngineTriage:
    def test_confident_urls_resolve_at_tier0_without_a_page_load(self):
        engine, browser, pipeline = _engine(triage=CONFIDENT)
        report = engine.run(build_requests(_arrivals(
            (0.0, "http://phish.bad/"), (0.1, "http://ok.com/"),
        )))
        assert browser.loads == 0
        assert pipeline.analyzed == []
        phish, legit = report.responses
        assert phish.tier == legit.tier == TIER_TRIAGE
        assert phish.verdict == TRIAGE_PHISH
        assert legit.verdict == TRIAGE_LEGITIMATE
        assert phish.latency == pytest.approx(engine.triage_cost)
        assert phish.targets == ()

    def test_tier0_consumes_no_queue_slot_or_token(self):
        # 50 simultaneous confident arrivals against queue_limit=1 and
        # one worker: untriaged this sheds heavily; at tier 0 every
        # request resolves because the ladder answers before admission.
        engine, _b, _p = _engine(
            triage=CONFIDENT, workers=1, queue_limit=1
        )
        report = engine.run(build_requests(_arrivals(
            *[(0.0, "http://ok.com/") for _ in range(50)]
        )))
        assert report.shed_count == 0
        assert report.completed_count == 50
        assert report.tier_counts() == {TIER_TRIAGE: 50}
        assert report.max_queue_depth == 0

    def test_escalated_run_is_byte_identical_to_untriaged(self):
        def responses(triage):
            engine, _b, _p = _engine(triage=triage, workers=1,
                                     queue_limit=2)
            arrivals = _arrivals(
                *[(0.05 * i, f"http://u{i % 3}.com/") for i in range(12)]
            )
            return engine.run(build_requests(arrivals, budget=0.6))

        triaged = responses(ESCALATE_ALL)
        untriaged = responses(None)
        assert triaged.responses == untriaged.responses
        assert all(r.tier == TIER_FULL for r in triaged.responses)

    def test_budget_below_triage_cost_sheds_at_tier0(self):
        engine, browser, _p = _engine(triage=CONFIDENT, triage_cost=0.05)
        report = engine.run([ServeRequest(
            request_id=0, url="http://ok.com/", arrival=0.0, budget=0.01,
        )])
        response = report.responses[0]
        assert response.shed
        assert response.shed_reason == SHED_DEADLINE
        assert response.tier == TIER_TRIAGE
        assert browser.loads == 0

    def test_triage_metrics_and_spans(self):
        metrics = MetricsRegistry()
        tracer = Tracer(clock=ManualClock())
        engine, _b, _p = _engine(
            triage=CONFIDENT, metrics=metrics, tracer=tracer,
        )
        engine.run(build_requests(_arrivals(
            (0.0, "http://phish.bad/"),
            (0.1, "http://ok.com/"),
            (0.2, "http://unsure.com/"),      # 0.5 -> escalates
        )))
        assert metrics.counter_value(
            "serve_triage_total", action=TRIAGE_PHISH) == 1
        assert metrics.counter_value(
            "serve_triage_total", action=TRIAGE_LEGITIMATE) == 1
        assert metrics.counter_value(
            "serve_triage_total", action=TRIAGE_ESCALATE) == 1
        assert metrics.counter_value(
            "serve_tier_total", tier=TIER_TRIAGE) == 2
        assert metrics.counter_value(
            "serve_tier_total", tier=TIER_FULL) == 1
        names = [span.name for span in tracer.iter_spans()]
        assert names.count("serve.triage") == 3
        assert names.count("cache.snapshot") == 1  # the memo's counters

    def test_report_tiers_block_only_when_ladder_is_on(self):
        engine, _b, _p = _engine()
        plain = engine.run(build_requests(_arrivals((0.0, "http://a.com/"))))
        assert "tiers" not in plain.summary()       # chaos byte-identity
        assert "tiers" in plain.as_dict()
        assert "cache" in plain.as_dict()

        engine, _b, _p = _engine(triage=ESCALATE_ALL)
        tiered = engine.run(
            build_requests(_arrivals((0.0, "http://a.com/")))
        )
        assert "tiers" in tiered.summary()
        assert tiered.summary()["tiers"][TIER_FULL]["count"] == 1


class TestNegativeCache:
    def _engine_with_dead_url(self, negative_ttl):
        clock = ManualClock()
        browser = StubBrowser(clock, dead={"http://gone.bad/"})
        return _engine(
            clock=clock, browser=browser, negative_ttl=negative_ttl
        )

    def test_repeat_failure_is_refused_from_the_negative_cache(self):
        metrics = MetricsRegistry()
        engine, browser, _p = self._engine_with_dead_url(10.0)
        engine.metrics = metrics
        report = engine.run(build_requests(_arrivals(
            (0.0, "http://gone.bad/"),
            (1.0, "http://gone.bad/"),        # within negative TTL
        )))
        first, second = report.responses
        assert first.shed_reason == SHED_UPSTREAM
        assert first.tier == TIER_FULL
        assert second.shed_reason == SHED_UPSTREAM
        assert second.tier == TIER_NEGATIVE
        assert browser.loads == 1             # repeat never hit the browser
        assert metrics.counter_value("serve_negative_hits_total") == 1

    def test_negative_entry_expires_and_the_url_is_retried(self):
        engine, browser, _p = self._engine_with_dead_url(0.5)
        report = engine.run(build_requests(_arrivals(
            (0.0, "http://gone.bad/"),
            (2.0, "http://gone.bad/"),        # past negative TTL
        )))
        assert browser.loads == 2
        assert all(r.tier == TIER_FULL for r in report.responses)

    def test_negative_cache_stats_reach_the_report(self):
        engine, _b, _p = self._engine_with_dead_url(10.0)
        report = engine.run(build_requests(_arrivals(
            (0.0, "http://gone.bad/"), (1.0, "http://gone.bad/"),
        )))
        cache = report.as_dict()["cache"]
        assert cache["negative"]["negative_hits"] == 1
        assert "memo" in cache


class TestLoneSurrogateUrl:
    """A URL ``parse_url`` accepts is scored and served, lone surrogate
    and all: the token hash and the content hash encode it with
    ``surrogatepass``."""

    URL = "http://a.com/log\ud800in"

    @staticmethod
    def _model(legit, phish):
        from repro.baselines.url_lexical import UrlLexicalClassifier

        urls = [f"http://safe{i}.com/home" for i in range(8)] + [
            f"http://paypal-verify{i}.bad/login" for i in range(8)
        ]
        classifier = UrlLexicalClassifier(epochs=5).fit_urls(
            urls, np.array([0] * 8 + [1] * 8)
        )
        return TriageModel(classifier, legit, phish)

    def test_decide_scores_the_url(self):
        model = self._model(0.2, 0.8)
        decision = model.decide(self.URL)
        assert 0.0 < decision.score < 1.0
        assert model.decide_batch([self.URL]) == [decision]

    @pytest.mark.parametrize("band, tier", [
        ((1.0, 1.0), TIER_TRIAGE),        # every score clears at tier 0
        ((0.0, 1.0), TIER_FULL),          # every score escalates
    ])
    def test_engine_serves_the_url_at_either_tier(self, band, tier):
        class SnapshotBrowser:
            """Loads a real snapshot whose content holds the URL."""

            def load(self, url, deadline=None):
                return SimpleNamespace(snapshot=PageSnapshot(
                    starting_url=url, landing_url=url, html=f"<p>{url}</p>",
                ))

        class LegitimatePipeline:
            def analyze_batch(self, pages, deadlines=None):
                return [
                    PageVerdict(verdict="legitimate", confidence=0.1,
                                targets=[])
                    for _page in pages
                ]

        engine = ServingEngine(
            LegitimatePipeline(), SnapshotBrowser(),
            AdmissionController(
                TokenBucket(rate=100.0, capacity=100.0), queue_limit=8
            ),
            clock=ManualClock(), analysis_cost=0.1,
            triage=self._model(*band),
        )
        report = engine.run(build_requests(_arrivals(
            (0.0, self.URL), (5.0, self.URL),
        )))
        assert [(r.url, r.tier, r.shed) for r in report.responses] == [
            (self.URL, tier, False), (self.URL, tier, False),
        ]
        if tier == TIER_FULL:
            assert engine.memo.hits == 1      # the content hash matched
