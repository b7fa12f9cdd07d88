"""Serving-engine unit tests over a stub pipeline and browser.

The stubs model exactly what the engine consumes: a browser with a
shared clock whose ``load`` can take simulated time or fail, and a
pipeline returning canned :class:`~repro.core.pipeline.PageVerdict`
objects.  Each test drives one defence in isolation.
"""

import pytest

from repro.core.pipeline import PageVerdict
from repro.obs import MetricsRegistry
from repro.resilience.clock import ManualClock
from repro.serve import (
    DEGRADED,
    SERVED,
    SHED_DEADLINE,
    SHED_DRAINING,
    SHED_QUEUE_FULL,
    SHED_RATE_LIMITED,
    SHED_UPSTREAM,
    AdmissionController,
    ServeRequest,
    ServingEngine,
    TokenBucket,
    build_requests,
    hot_key_storm,
    worker_loss,
)
from repro.serve.loadgen import _RawArrival
from repro.web.browser import PageNotFound


class StubSnapshot:
    """Duck-typed snapshot: the engine's memo reads only its fingerprint."""

    def __init__(self, content: str):
        self.content = content
        self.fingerprint = content


class StubLoaded:
    def __init__(self, content: str):
        self.snapshot = StubSnapshot(content)


class StubBrowser:
    """Loads take configurable simulated time; some URLs are dead."""

    def __init__(self, clock, delays=None, dead=(), content=None):
        self.clock = clock
        self.delays = delays or {}
        self.dead = set(dead)
        self.content = content or {}
        self.loads = 0

    def load(self, url, deadline=None):
        self.loads += 1
        delay = self.delays.get(url, 0.0)
        if delay:
            self.clock.sleep(delay)
        if deadline is not None:
            deadline.check("page load")
        if url in self.dead:
            raise PageNotFound(url)
        return StubLoaded(self.content.get(url, url))


class StubPipeline:
    """Returns canned verdicts; records each batch and its deadlines."""

    def __init__(self, degraded_urls=()):
        self.degraded_urls = set(degraded_urls)
        self.analyzed = []
        self.batches = []
        self.deadlines = []

    def analyze_batch(self, pages, deadlines=None):
        contents = [page.snapshot.content for page in pages]
        self.analyzed.extend(contents)
        self.batches.append(contents)
        self.deadlines.append(list(deadlines or [None] * len(pages)))
        return [self._verdict(content) for content in contents]

    def _verdict(self, content):
        if content in self.degraded_urls:
            return PageVerdict(
                verdict="phish", confidence=0.9, targets=[],
                degraded=True, degradations=["search_unavailable"],
            )
        return PageVerdict(
            verdict="legitimate", confidence=0.1, targets=["mld"]
        )


def _arrivals(*specs):
    """specs: (time, url) pairs -> one raw schedule."""
    return [_RawArrival(time=t, url=u) for t, u in specs]


def _engine(
    clock=None,
    browser=None,
    pipeline=None,
    workers=2,
    queue_limit=8,
    rate=100.0,
    capacity=100.0,
    analysis_cost=0.1,
    **kwargs,
):
    clock = clock or ManualClock()
    browser = browser or StubBrowser(clock)
    pipeline = pipeline or StubPipeline()
    admission = AdmissionController(
        TokenBucket(rate=rate, capacity=capacity), queue_limit=queue_limit
    )
    engine = ServingEngine(
        pipeline, browser, admission,
        clock=clock, workers=workers, analysis_cost=analysis_cost, **kwargs,
    )
    return engine, browser, pipeline


class TestHappyPath:
    def test_under_capacity_everything_is_served_on_time(self):
        engine, _browser, _pipeline = _engine()
        requests = build_requests(
            _arrivals((0.0, "http://a.com/"), (0.3, "http://b.com/")),
            budget=1.0,
        )
        report = engine.run(requests)
        assert report.total == 2
        assert report.served_count == 2
        assert report.shed_count == 0
        for response in report.responses:
            assert response.outcome == SERVED
            assert response.latency == pytest.approx(0.1)  # analysis only
            assert response.verdict == "legitimate"
            assert response.targets == ("mld",)

    def test_responses_come_back_in_request_order(self):
        engine, _browser, _pipeline = _engine(workers=1)
        requests = build_requests(
            _arrivals(*[(0.01 * i, f"http://u{i}.com/") for i in range(6)]),
        )
        report = engine.run(requests)
        assert [r.request_id for r in report.responses] == list(range(6))

    def test_load_time_counts_into_latency(self):
        clock = ManualClock()
        browser = StubBrowser(clock, delays={"http://slow.com/": 0.4})
        engine, _b, _p = _engine(clock=clock, browser=browser)
        report = engine.run(build_requests(
            _arrivals((0.0, "http://slow.com/")), budget=2.0,
        ))
        assert report.responses[0].latency == pytest.approx(0.5)

    def test_degraded_verdict_reports_degraded_outcome(self):
        engine, _b, _p = _engine(
            pipeline=StubPipeline(degraded_urls={"http://x.com/"})
        )
        report = engine.run(build_requests(_arrivals((0.0, "http://x.com/"))))
        response = report.responses[0]
        assert response.outcome == DEGRADED
        assert response.degradations == ("search_unavailable",)
        assert report.degradation_tags() == {"search_unavailable": 1}


class TestOverload:
    def test_queue_never_exceeds_its_bound(self):
        # 1 worker x 0.1 s/analysis; 30 simultaneous arrivals vs
        # queue_limit 4: the surplus sheds queue_full at admission.
        engine, _b, _p = _engine(workers=1, queue_limit=4)
        requests = build_requests(
            _arrivals(*[(0.0, f"http://u{i}.com/") for i in range(30)]),
        )
        report = engine.run(requests)
        assert report.total == 30
        assert report.max_queue_depth <= 4
        assert report.shed_reasons()[SHED_QUEUE_FULL] > 0
        assert report.served_count + report.shed_count == 30

    def test_sustained_over_rate_sheds_rate_limited(self):
        engine, _b, _p = _engine(rate=5.0, capacity=2.0, queue_limit=100)
        requests = build_requests(
            _arrivals(*[(0.01 * i, f"http://u{i}.com/") for i in range(20)]),
        )
        report = engine.run(requests)
        sheds = report.shed_reasons()
        assert sheds[SHED_RATE_LIMITED] > 0
        shed = next(r for r in report.responses if r.shed)
        assert shed.retry_after is not None and shed.retry_after > 0

    def test_every_request_terminates_exactly_once(self):
        engine, _b, _p = _engine(workers=1, queue_limit=3, rate=8.0,
                                 capacity=4.0)
        requests = build_requests(
            _arrivals(*[(0.02 * i, f"http://u{i % 5}.com/")
                        for i in range(40)]),
            budget=0.5,
        )
        report = engine.run(requests)
        assert report.total == 40
        assert {r.request_id for r in report.responses} == set(range(40))
        assert report.served_count + report.degraded_count \
            + report.shed_count == 40


class TestCoalescing:
    def test_storm_costs_one_analysis(self):
        engine, browser, pipeline = _engine(workers=1)
        report = engine.run(build_requests(
            hot_key_storm("http://viral.com/", at=0.0, count=10),
        ))
        assert browser.loads == 1
        assert len(pipeline.analyzed) == 1
        assert report.served_count == 10
        assert report.coalesced == 9
        followers = [r for r in report.responses if r.coalesced]
        assert len(followers) == 9
        assert all(r.verdict == "legitimate" for r in followers)

    def test_followers_join_while_leader_is_queued(self):
        # Worker busy with the first URL; storm arrivals coalesce onto
        # the queued leader instead of consuming queue slots.
        engine, _b, _p = _engine(workers=1, queue_limit=2)
        requests = build_requests(
            _arrivals((0.0, "http://first.com/")),
            hot_key_storm("http://viral.com/", at=0.01, count=8),
        )
        report = engine.run(requests)
        assert report.served_count == 9
        assert report.max_queue_depth <= 2

    def test_memo_hits_by_content_across_urls(self):
        clock = ManualClock()
        browser = StubBrowser(
            clock,
            content={"http://a.com/": "same", "http://mirror.com/": "same"},
        )
        engine, _b, pipeline = _engine(clock=clock, browser=browser)
        report = engine.run(build_requests(
            _arrivals((0.0, "http://a.com/"), (0.5, "http://mirror.com/")),
        ))
        assert len(pipeline.analyzed) == 1    # second run hit the memo
        assert report.memo_hits == 1
        assert report.served_count == 2
        # Memo hit is charged the cheap cost, not a full analysis.
        second = report.responses[1]
        assert second.latency == pytest.approx(engine.memo_cost)

    def test_follower_past_its_own_budget_is_shed(self):
        clock = ManualClock()
        browser = StubBrowser(clock, delays={"http://slow.com/": 0.5})
        engine, _b, _p = _engine(clock=clock, browser=browser, workers=1)
        # The unbudgeted leader can afford the 0.5 s load, but the
        # shared result lands past the follower's own tighter budget.
        requests = [
            ServeRequest(request_id=0, url="http://slow.com/", arrival=0.0),
            ServeRequest(request_id=1, url="http://slow.com/", arrival=0.1,
                         budget=0.3),
        ]
        report = engine.run(requests)
        leader, follower = report.responses
        assert leader.outcome == SERVED
        assert follower.shed
        assert follower.shed_reason == SHED_DEADLINE
        assert follower.coalesced


class TestDeadlines:
    def test_budget_dying_in_queue_sheds_without_work(self):
        # One 0.6 s analysis at a time: by the time the worker frees,
        # every queued budget (0.5 s) has already expired.
        engine, browser, _p = _engine(workers=1, analysis_cost=0.6)
        requests = [
            ServeRequest(request_id=0, url="http://u0.com/", arrival=0.0)
        ] + [
            ServeRequest(request_id=i, url=f"http://u{i}.com/", arrival=0.0,
                         budget=0.5)
            for i in range(1, 4)
        ]
        report = engine.run(requests)
        assert report.shed_reasons() == {SHED_DEADLINE: 3}
        # Shed-in-queue requests never reached the browser.
        assert browser.loads == report.completed_count == 1

    def test_slow_load_blowing_the_budget_sheds(self):
        clock = ManualClock()
        browser = StubBrowser(clock, delays={"http://stall.com/": 2.0})
        engine, _b, pipeline = _engine(clock=clock, browser=browser)
        report = engine.run(build_requests(
            _arrivals((0.0, "http://stall.com/")), budget=1.0,
        ))
        response = report.responses[0]
        assert response.shed
        assert response.shed_reason == SHED_DEADLINE
        assert pipeline.analyzed == []    # never analyzed

    def test_load_eating_the_budget_skips_analysis(self):
        clock = ManualClock()
        browser = StubBrowser(clock, delays={"http://slowish.com/": 0.45})
        engine, _b, pipeline = _engine(
            clock=clock, browser=browser, analysis_cost=0.1
        )
        report = engine.run(build_requests(
            _arrivals((0.0, "http://slowish.com/")), budget=0.5,
        ))
        # 0.05 s left < 0.1 s analysis: the verdict would land past the
        # deadline, so the engine sheds instead of wasting the worker.
        assert report.responses[0].shed_reason == SHED_DEADLINE
        assert pipeline.analyzed == []

    def test_unlimited_budget_never_sheds_on_deadline(self):
        clock = ManualClock()
        browser = StubBrowser(clock, delays={"http://slow.com/": 5.0})
        engine, _b, _p = _engine(clock=clock, browser=browser)
        report = engine.run(build_requests(
            _arrivals((0.0, "http://slow.com/")),
        ))
        assert report.responses[0].outcome == SERVED


class TestFailuresAndChaos:
    def test_dead_url_sheds_upstream_with_followers(self):
        clock = ManualClock()
        browser = StubBrowser(clock, dead={"http://gone.com/"})
        engine, _b, _p = _engine(clock=clock, browser=browser, workers=1)
        report = engine.run(build_requests(
            hot_key_storm("http://gone.com/", at=0.0, count=3),
        ))
        assert report.shed_count == 3
        assert report.shed_reasons() == {SHED_UPSTREAM: 3}
        assert browser.loads == 1    # followers shed without a retry

    def test_worker_loss_shrinks_capacity(self):
        engine, _b, _p = _engine(workers=3)
        engine.run(
            build_requests(_arrivals((0.0, "http://a.com/"))),
            chaos=worker_loss(at=0.0, count=5),
        )
        assert engine.workers == 1    # floor at one, never zero

    def test_drain_sheds_late_arrivals_and_finishes_admitted(self):
        engine, _b, _p = _engine(workers=1)
        requests = build_requests(
            _arrivals(*[(0.1 * i, f"http://u{i}.com/") for i in range(10)]),
        )
        report = engine.run(requests, drain_at=0.45)
        drained = [r for r in report.responses if
                   r.shed_reason == SHED_DRAINING]
        assert len(drained) == 5     # arrivals at 0.5..0.9
        assert report.served_count == 5   # everything admitted completed
        assert {r.request_id for r in drained} == {5, 6, 7, 8, 9}


class TestDeterminismAndObservability:
    def _scenario(self):
        clock = ManualClock()
        browser = StubBrowser(
            clock,
            delays={"http://slow.com/": 0.3},
            dead={"http://gone.com/"},
        )
        engine, _b, _p = _engine(
            clock=clock, browser=browser, workers=2, queue_limit=4,
            rate=10.0, capacity=5.0,
        )
        requests = build_requests(
            _arrivals(*[(0.05 * i, f"http://u{i % 3}.com/")
                        for i in range(20)]),
            hot_key_storm("http://slow.com/", at=0.2, count=6),
            hot_key_storm("http://gone.com/", at=0.4, count=3),
            budget=0.8,
        )
        return engine.run(requests, drain_at=1.2)

    def test_two_runs_are_byte_identical(self):
        assert self._scenario().summary() == self._scenario().summary()
        assert self._scenario().responses == self._scenario().responses

    def test_metrics_account_for_every_request(self):
        metrics = MetricsRegistry()
        engine, _b, _p = _engine(workers=1, queue_limit=2, metrics=metrics)
        report = engine.run(build_requests(
            _arrivals(*[(0.0, f"http://u{i}.com/") for i in range(8)]),
            hot_key_storm("http://u0.com/", at=0.0, count=2),
        ))
        assert metrics.counter_total("serve_requests_total") == report.total
        assert metrics.counter_total("serve_shed_total") == report.shed_count
        assert metrics.counter_value("serve_coalesced_total") \
            == report.coalesced

    def test_spans_cover_run_drain_and_requests(self):
        from repro.obs import Tracer

        tracer = Tracer(clock=ManualClock())
        engine, _b, _p = _engine(tracer=tracer)
        engine.run(build_requests(
            _arrivals((0.0, "http://a.com/"), (0.1, "http://b.com/")),
        ))
        names = [span.name for span in tracer.iter_spans()]
        assert "serve.run" in names
        assert "serve.drain" in names
        assert names.count("serve.request") == 2


class TestMicroBatching:
    """Tick-level batched analysis must be invisible to the simulation.

    Every analysis goes through ``analyze_batch``: unbudgeted requests
    dispatched in one tick share one batch, and budgeted requests are
    analysed as batches of one in clock order.  Every observable —
    responses, memo counters, latencies — must not depend on how the
    analyses were grouped, nor on whether the engine is traced.
    """

    WORKLOAD = (
        (0.0, "http://a.com/"),
        (0.0, "http://b.com/"),
        (0.0, "http://dup-of-a.com/"),   # same content as a.com
        (0.0, "http://dead.com/"),       # upstream failure
        (0.5, "http://a.com/"),          # warm memo hit, later tick
    )

    def _run(self, pipeline, budget=None, **kwargs):
        clock = ManualClock()
        browser = StubBrowser(
            clock,
            dead=("http://dead.com/",),
            content={"http://dup-of-a.com/": "http://a.com/"},
        )
        engine, _browser, _pipeline = _engine(
            clock=clock, browser=browser, pipeline=pipeline,
            workers=4, **kwargs,
        )
        report = engine.run(
            build_requests(_arrivals(*self.WORKLOAD), budget=budget)
        )
        return report, pipeline

    def test_batched_run_matches_per_request_run_exactly(self):
        batched, batch_pipeline = self._run(StubPipeline())
        # A budget this roomy sheds nothing but makes every analysis a
        # batch of one: the per-request reference.
        serial, serial_pipeline = self._run(StubPipeline(), budget=100.0)
        assert batched.responses == serial.responses
        assert batched.memo_hits == serial.memo_hits
        assert batched.memo_misses == serial.memo_misses
        assert batch_pipeline.analyzed == serial_pipeline.analyzed
        # ...and batching really engaged: one two-page batch (a, b).
        assert batch_pipeline.batches == [
            ["http://a.com/", "http://b.com/"]
        ]
        assert serial_pipeline.batches == [
            ["http://a.com/"], ["http://b.com/"]
        ]

    def test_within_tick_duplicate_and_warm_hit_take_memo_path(self):
        report, pipeline = self._run(StubPipeline())
        by_url = {}
        for response in report.responses:
            by_url.setdefault(response.url, response)
        assert report.memo_hits == 2          # dup-of-a + the 0.5s a.com
        assert report.memo_misses == 2        # a.com, b.com
        memo_latency = by_url["http://dup-of-a.com/"].latency
        assert memo_latency == pytest.approx(0.1 * 0.1)  # memo_cost
        assert by_url["http://dead.com/"].shed_reason == SHED_UPSTREAM

    def test_budgeted_requests_are_batches_of_one_in_clock_order(self):
        report, pipeline = self._run(StubPipeline(), budget=1.0)
        assert pipeline.batches == [["http://a.com/"], ["http://b.com/"]]
        assert report.completed_count == 4
        # Between unbudgeted requests of one tick, a budgeted request
        # flushes the stage before its load and is analysed, with its
        # deadline, right after it.
        engine, _browser, pipeline = _engine(workers=4)
        engine.run([
            ServeRequest(request_id=0, url="http://u0.com/", arrival=0.0),
            ServeRequest(request_id=1, url="http://b.com/", arrival=0.0,
                         budget=1.0),
            ServeRequest(request_id=2, url="http://u1.com/", arrival=0.0),
            ServeRequest(request_id=3, url="http://u2.com/", arrival=0.0),
        ])
        assert pipeline.batches == [
            ["http://u0.com/"],
            ["http://b.com/"],
            ["http://u1.com/", "http://u2.com/"],
        ]
        assert [
            [deadline is not None for deadline in batch]
            for batch in pipeline.deadlines
        ] == [[False], [True], [False, False]]

    def test_traced_engine_batches_like_an_untraced_one(self):
        from repro.obs import Tracer

        tracer = Tracer(clock=ManualClock())
        traced, traced_pipeline = self._run(StubPipeline(), tracer=tracer)
        plain, plain_pipeline = self._run(StubPipeline())
        assert traced_pipeline.batches == plain_pipeline.batches
        assert traced.responses == plain.responses
        names = [span.name for span in tracer.iter_spans()]
        assert names.count("serve.request") == 5  # sheds are spanned too


class TestValidation:
    def test_bad_parameters_rejected(self):
        admission = AdmissionController(
            TokenBucket(rate=1.0, capacity=1.0), queue_limit=4
        )
        with pytest.raises(ValueError):
            ServingEngine(StubPipeline(), StubBrowser(ManualClock()),
                          admission, workers=0)
        with pytest.raises(ValueError):
            ServingEngine(StubPipeline(), StubBrowser(ManualClock()),
                          admission, analysis_cost=0.0)
