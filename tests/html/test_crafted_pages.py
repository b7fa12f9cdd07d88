"""A crafted page cannot crash a page load, nor the loads beside it.

``html.parser`` raises ``AssertionError`` on a ``<![`` section with an
unknown keyword (``<![x]>``) or no name (``<![ 1]>``).  Before page load
read markup in one pass of its own, such a page made every entry point
that loads pages raise: a feed batch lost its other verdicts, an add-on
navigation crashed, and a serving window failed as a whole.  Each entry
point here gets the crafted page beside a normal neighbour: the call
returns, the crafted page gets a verdict, and the neighbour's verdict is
the one it gets without the crafted page.
"""

import itertools

import pytest

from repro.addon import PhishingPreventionAddon
from repro.core.detector import PhishingDetector
from repro.core.features import FeatureExtractor
from repro.core.pipeline import KnowYourPhish
from repro.core.target import TargetIdentifier
from repro.parallel.cache import TtlCache
from repro.resilience import ManualClock, ResilientBrowser, RetryPolicy
from repro.serve import AdmissionController, ServingEngine, TokenBucket, build_requests
from repro.serve.loadgen import _RawArrival
from repro.web.browser import Browser
from repro.web.hosting import SyntheticWeb
from repro.web.ocr import SimulatedOcr

CRAFTED_URL = "http://secure-login.example.com/verify"
CRAFTED = (
    "<html><head><title>Verify your account</title></head><body>"
    "<![x]><p>Sign in to continue</p><![ 1]>"
    "<a href='/login'>sign in</a></body></html>"
)


def _verdict(verdict):
    return (verdict.verdict, verdict.confidence, verdict.targets,
            verdict.degraded, verdict.degradations)


@pytest.fixture(scope="module")
def pipeline(tiny_world):
    extractor = FeatureExtractor(alexa=tiny_world.alexa)
    train = tiny_world.dataset("legTrain") + tiny_world.dataset("phishTrain")
    detector = PhishingDetector(extractor, n_estimators=40)
    detector.fit_snapshots([page.snapshot for page in train], train.labels())
    return KnowYourPhish(
        detector,
        TargetIdentifier(tiny_world.search, ocr=SimulatedOcr(error_rate=0.0)),
    )


@pytest.fixture(scope="module")
def hosted(tiny_world):
    """A web holding the crafted page and one normal page of the test
    world, and the normal page's URL."""
    neighbour = tiny_world.browser.load(tiny_world.dataset("english")[0].url)
    web = SyntheticWeb()
    web.host(CRAFTED_URL, CRAFTED)
    web.host(neighbour.landing_url, neighbour.html, neighbour.screenshot)
    return web, neighbour.landing_url


def test_browser_load(hosted):
    web, _neighbour_url = hosted
    snapshot = Browser(web).load(CRAFTED_URL)
    assert snapshot.title == "Verify your account"
    assert snapshot.text == "Sign in to continue\nsign in"
    assert snapshot.href_links == ["http://secure-login.example.com/login"]


def test_analyze_many_keeps_the_neighbour(pipeline, hosted):
    web, neighbour_url = hosted
    report = pipeline.analyze_many([CRAFTED_URL, neighbour_url], Browser(web))
    alone = pipeline.analyze_many([neighbour_url], Browser(web))
    assert report.quarantined == []
    assert [page.url for page in report.analyzed] == [CRAFTED_URL, neighbour_url]
    assert report.analyzed[0].verdict.verdict in ("phish", "suspicious", "legitimate")
    assert _verdict(report.analyzed[1].verdict) == _verdict(alone.analyzed[0].verdict)


def _addon(pipeline, web):
    clock = itertools.count().__next__
    return PhishingPreventionAddon(
        pipeline, Browser(web), cache=TtlCache(capacity=10, ttl=10_000),
        clock=lambda: float(clock()),
    )


def test_navigate(pipeline, hosted):
    web, neighbour_url = hosted
    addon = _addon(pipeline, web)
    crafted = addon.navigate(CRAFTED_URL)
    neighbour = addon.navigate(neighbour_url)
    alone = _addon(pipeline, web).navigate(neighbour_url)
    assert crafted.verdict is not None
    assert _verdict(neighbour.verdict) == _verdict(alone.verdict)
    assert neighbour.action is alone.action


def _serve(pipeline, web, urls):
    clock = ManualClock()
    engine = ServingEngine(
        pipeline,
        ResilientBrowser(web, policy=RetryPolicy(clock=clock), clock=clock),
        AdmissionController(TokenBucket(rate=100.0, capacity=100.0), queue_limit=8),
        clock=clock, analysis_cost=0.1,
    )
    report = engine.run(build_requests(
        [_RawArrival(time=0.1 * k, url=url) for k, url in enumerate(urls)]
    ))
    return {response.url: response for response in report.responses}


def test_serving_window_keeps_the_neighbour(pipeline, hosted):
    web, neighbour_url = hosted
    served = _serve(pipeline, web, [CRAFTED_URL, neighbour_url])
    alone = _serve(pipeline, web, [neighbour_url])
    assert served[CRAFTED_URL].verdict is not None
    neighbour, reference = served[neighbour_url], alone[neighbour_url]
    assert neighbour.outcome == reference.outcome
    assert (neighbour.verdict, neighbour.confidence, neighbour.targets) == \
        (reference.verdict, reference.confidence, reference.targets)
