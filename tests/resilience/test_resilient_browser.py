"""Tests for the resilient browser and batch quarantine API."""

import pytest

from repro.resilience.batch import BatchReport, QuarantinedPage, analyze_many
from repro.resilience.browser import LoadResult, ResilientBrowser
from repro.resilience.clock import ManualClock
from repro.resilience.errors import (
    DeadlineExceeded,
    FetchTimeout,
    PermanentFetchError,
    RetriesExhausted,
)
from repro.resilience.retry import RetryPolicy
from repro.web.browser import PageNotFound, RedirectLoopError
from repro.web.faults import FaultPlan, FlakyWeb
from repro.web.hosting import SyntheticWeb
from repro.web.page import Screenshot


@pytest.fixture()
def web():
    web = SyntheticWeb()
    web.host("http://a.com/", "<title>A</title>" + "y" * 500,
             Screenshot(rendered_text="A"))
    web.redirect("http://short.com/x", "http://a.com/")
    return web


def _browser(web, plan=None, max_attempts=6, page_budget=None):
    clock = ManualClock()
    flaky = FlakyWeb(web, plan or FaultPlan(), clock=clock)
    return ResilientBrowser(
        flaky,
        policy=RetryPolicy(max_attempts=max_attempts, clock=clock),
        page_budget=page_budget,
        clock=clock,
    )


class TestResilientBrowserLoad:
    def test_clean_load(self, web):
        result = _browser(web).load("http://a.com/")
        assert isinstance(result, LoadResult)
        assert result.snapshot.title == "A"
        assert result.attempts == 1
        assert not result.degraded

    def test_rides_out_transient_faults(self, web):
        plan = FaultPlan.transient(0.6, seed=2, max_consecutive_transient=3)
        result = _browser(web, plan, max_attempts=8).load("http://a.com/")
        assert result.snapshot.title == "A"

    def test_follows_redirects(self, web):
        result = _browser(web).load("http://short.com/x")
        assert result.snapshot.landing_url == "http://a.com/"

    def test_retries_exhausted(self, web):
        plan = FaultPlan.transient(
            0.999, seed=1, max_consecutive_transient=50
        )
        with pytest.raises(RetriesExhausted) as excinfo:
            _browser(web, plan, max_attempts=3).load("http://a.com/")
        assert excinfo.value.attempts == 3
        assert isinstance(excinfo.value.last_error, Exception)

    def test_permanent_failure_not_retried(self, web):
        clock = ManualClock()
        flaky = FlakyWeb(web, FaultPlan(seed=0, permanent_rate=1.0),
                         clock=clock)
        browser = ResilientBrowser(
            flaky, policy=RetryPolicy(max_attempts=5, clock=clock),
            clock=clock,
        )
        with pytest.raises(PermanentFetchError):
            browser.load("http://a.com/")
        assert flaky.stats["permanent"] == 1  # one attempt, no retries

    def test_page_not_found_propagates(self, web):
        with pytest.raises(PageNotFound):
            _browser(web).load("http://missing.com/")

    def test_redirect_loop_propagates(self, web):
        web.redirect("http://l1.com/", "http://l2.com/")
        web.redirect("http://l2.com/", "http://l1.com/")
        with pytest.raises(RedirectLoopError):
            _browser(web).load("http://l1.com/")

    def test_deadline_blown_by_slow_faulty_responses(self, web):
        # Each attempt burns 3 simulated seconds before timing out; the
        # 5-second page budget admits two attempts, then gives up even
        # though the retry policy would allow ten.
        clock = ManualClock()

        class SlowThenTimeout:
            def get(self, url):
                clock.sleep(3.0)
                raise FetchTimeout(url)

        browser = ResilientBrowser(
            SlowThenTimeout(),
            policy=RetryPolicy(max_attempts=10, base_delay=0.01,
                               clock=clock),
            page_budget=5.0,
            clock=clock,
        )
        with pytest.raises(DeadlineExceeded):
            browser.load("http://a.com/")
        assert clock.now() < 8.0  # gave up after ~2 attempts, not 10

    def test_degradations_reported(self, web):
        plan = FaultPlan(seed=0, truncate_rate=1.0, drop_screenshot_rate=1.0)
        result = _browser(web, plan).load("http://a.com/")
        assert result.degraded
        assert "truncated_html" in result.degradations
        assert "missing_screenshot" in result.degradations

    def test_stale_degradations_not_leaked_across_attempts(self, web):
        # A degradation recorded on a failed attempt must not leak into
        # the next attempt's result.
        plan = FaultPlan(
            seed=5, timeout_rate=0.4, truncate_rate=0.4,
            max_consecutive_transient=2,
        )
        browser = _browser(web, plan, max_attempts=8)
        for _ in range(10):
            result = browser.load("http://a.com/")
            full_html = len(result.snapshot.html) > 500
            assert full_html == ("truncated_html" not in result.degradations)

    def test_try_load(self, web):
        assert _browser(web).try_load("http://missing.com/") is None
        assert _browser(web).try_load("http://a.com/") is not None

    def test_works_over_plain_synthetic_web(self, web):
        clock = ManualClock()
        browser = ResilientBrowser(
            web, policy=RetryPolicy(clock=clock), clock=clock
        )
        result = browser.load("http://a.com/")
        assert result.snapshot.title == "A"
        assert result.degradations == []


class _FakeVerdict:
    def __init__(self, degraded):
        self.degraded = degraded
        self.verdict = "legitimate"


class _FakePipeline:
    """Calls every page legitimate; records each analysis batch's size."""

    def __init__(self):
        self.batches = []

    def analyze_batch(self, loads, deadlines=None):
        self.batches.append(len(loads))
        return [_FakeVerdict(bool(load.degradations)) for load in loads]


class TestAnalyzeMany:
    def test_quarantines_instead_of_raising(self, web):
        web.redirect("http://l1.com/", "http://l2.com/")
        web.redirect("http://l2.com/", "http://l1.com/")
        browser = _browser(web)
        report = analyze_many(
            _FakePipeline(), browser,
            ["http://a.com/", "http://missing.com/", "http://l1.com/"],
        )
        assert isinstance(report, BatchReport)
        assert len(report.analyzed) == 1
        assert len(report.quarantined) == 2
        kinds = {q.error_kind for q in report.quarantined}
        assert kinds == {"PageNotFound", "RedirectLoopError"}
        assert all(q.permanent for q in report.quarantined)

    def test_exhausted_retries_quarantined_as_transient(self, web):
        plan = FaultPlan.transient(
            0.999, seed=1, max_consecutive_transient=50
        )
        browser = _browser(web, plan, max_attempts=2)
        report = analyze_many(_FakePipeline(), browser, ["http://a.com/"])
        assert len(report.quarantined) == 1
        record = report.quarantined[0]
        assert record.error_kind == "RetriesExhausted"
        assert not record.permanent
        assert record.attempts == 2

    def test_summary_shape(self, web):
        report = analyze_many(_FakePipeline(), _browser(web),
                              ["http://a.com/", "http://missing.com/"])
        summary = report.summary()
        assert summary["total"] == 2
        assert summary["analyzed"] == 1
        assert summary["completion_rate"] == 0.5
        assert summary["quarantined_permanent"] == 1

    def test_plain_browser_supported(self, web):
        from repro.web.browser import Browser

        report = analyze_many(
            _FakePipeline(), Browser(web), ["http://a.com/"]
        )
        assert len(report.analyzed) == 1
        assert report.analyzed[0].attempts == 1

    def test_batch_pipeline_used_and_report_equivalent(self, web):
        from repro.parallel import WorkerPool

        urls = ["http://a.com/", "http://missing.com/", "http://short.com/x",
                "http://a.com/"]
        serial_pipeline = _FakePipeline()
        per_page = analyze_many(serial_pipeline, _browser(web), urls)
        batch_pipeline = _FakePipeline()
        with WorkerPool(workers=3, backend="thread") as pool:
            batched = analyze_many(
                batch_pipeline, _browser(web), urls, pool=pool
            )
        # serially each loadable page is a batch of one; pooled, the
        # three went through one columnar chunk, because the thread
        # backend gains nothing from fanning a GIL-bound pass out — and
        # the report is indistinguishable from the serial one
        assert serial_pipeline.batches == [1, 1, 1]
        assert batch_pipeline.batches == [3]
        assert [p.url for p in batched.analyzed] == \
            [p.url for p in per_page.analyzed]
        assert [p.verdict.verdict for p in batched.analyzed] == \
            [p.verdict.verdict for p in per_page.analyzed]
        assert [q.url for q in batched.quarantined] == \
            [q.url for q in per_page.quarantined]

    def test_quarantine_record_fields(self):
        record = QuarantinedPage.from_error(
            "http://x.com/", FetchTimeout("http://x.com/")
        )
        assert record.error_kind == "FetchTimeout"
        assert not record.permanent
        assert "x.com" in record.message
