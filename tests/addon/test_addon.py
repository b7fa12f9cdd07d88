"""Tests for the end-to-end phishing-prevention add-on."""

import itertools

import pytest

from repro.addon import Action, PhishingPreventionAddon
from repro.core.detector import PhishingDetector
from repro.core.features import FeatureExtractor
from repro.core.pipeline import KnowYourPhish, PageVerdict
from repro.core.target import TargetIdentifier
from repro.parallel.cache import TtlCache
from repro.web.browser import Browser
from repro.web.hosting import SyntheticWeb
from repro.web.ocr import SimulatedOcr


@pytest.fixture(scope="module")
def addon(tiny_world):
    extractor = FeatureExtractor(alexa=tiny_world.alexa)
    train = tiny_world.dataset("legTrain") + tiny_world.dataset("phishTrain")
    detector = PhishingDetector(extractor, n_estimators=40)
    detector.fit_snapshots([page.snapshot for page in train], train.labels())
    pipeline = KnowYourPhish(
        detector,
        TargetIdentifier(tiny_world.search, ocr=SimulatedOcr(error_rate=0.02)),
    )
    clock = itertools.count().__next__
    return PhishingPreventionAddon(
        pipeline,
        tiny_world.browser,
        cache=TtlCache(capacity=1000, ttl=10_000),
        clock=lambda: float(clock()),
    )


class TestNavigation:
    def test_legitimate_page_allowed(self, addon, tiny_world):
        page = tiny_world.dataset("english")[0]
        result = addon.navigate(page.url)
        assert result.allowed

    def test_phish_blocked_or_warned(self, addon, tiny_world):
        outcomes = []
        for page in tiny_world.dataset("phishTest")[:10]:
            outcomes.append(addon.navigate(page.url).action)
        assert Action.BLOCK in outcomes or Action.WARN in outcomes
        blocked = sum(action is not Action.ALLOW for action in outcomes)
        assert blocked >= 7

    def test_cache_hit_on_revisit(self, addon, tiny_world):
        page = tiny_world.dataset("english")[1]
        first = addon.navigate(page.url)
        second = addon.navigate(page.url)
        assert not first.from_cache
        assert second.from_cache
        assert second.analysis_ms == 0.0

    def test_unreachable_url_allowed(self, addon):
        result = addon.navigate("http://no-such-site.example/")
        assert result.allowed
        assert result.verdict is None
        assert addon.stats.navigation_failures >= 1

    def test_deeply_nested_page_gets_a_verdict(self, addon):
        web = SyntheticWeb()
        url = "http://deep.example.com/login"
        web.host(url, (
            "<html><body>" + "<div>" * 5000
            + "<a href='/account'>sign in</a>" + "</div>" * 5000
            + "</body></html>"
        ))
        result = PhishingPreventionAddon(
            addon.pipeline, Browser(web)
        ).navigate(url)
        assert result.verdict is not None

    def test_trusted_domain_skips_analysis(self, addon, tiny_world):
        page = tiny_world.dataset("phishTest")[3]
        from repro.urls.parsing import parse_url
        rdn = parse_url(page.url).rdn
        if rdn is None:
            pytest.skip("IP-hosted phish has no RDN to trust")
        addon.policy.trust_domain(rdn)
        result = addon.navigate(page.url)
        assert result.allowed
        assert result.verdict is None
        addon.policy.revoke_trust(rdn)

    def test_proceed_anyway_suppresses_rewarn(self, addon, tiny_world):
        for page in tiny_world.dataset("phishTest")[10:20]:
            result = addon.navigate(page.url)
            if result.action in (Action.WARN, Action.BLOCK):
                addon.proceed_anyway(page.url)
                again = addon.navigate(page.url)
                assert again.allowed
                return
        pytest.skip("no warning raised in sample")

    def test_stats_accumulate(self, addon, tiny_world):
        before = addon.stats.navigations
        addon.navigate(tiny_world.dataset("english")[2].url)
        assert addon.stats.navigations == before + 1
        assert addon.stats.analyses >= 1

    def test_median_latency_exposed(self, addon):
        # With the fake counting clock each analysis "takes" 1000ms.
        assert addon.stats.median_analysis_ms >= 0.0


class _EchoBrowser:
    def load(self, url):
        return url                      # the URL stands in for a snapshot


class _CountingPipeline:
    def __init__(self):
        self.analyses = 0

    def analyze(self, snapshot):
        self.analyses += 1
        return PageVerdict(verdict="legitimate", confidence=0.1, targets=[])


class TestDefaultCache:
    def test_keeps_the_last_1000_urls_for_an_hour(self):
        now = [0.0]
        addon = PhishingPreventionAddon(
            _CountingPipeline(), _EchoBrowser(), clock=lambda: now[0]
        )
        assert not addon.navigate("http://a.com/").from_cache
        now[0] = 3600.0                 # aged exactly the TTL: still fresh
        assert addon.navigate("http://a.com/").from_cache
        now[0] = 3600.5                 # past the TTL: analysed again
        assert not addon.navigate("http://a.com/").from_cache
        for index in range(1000):
            addon.navigate(f"http://u{index}.com/")
        assert len(addon.cache) == 1000
        assert not addon.navigate("http://a.com/").from_cache  # evicted
        assert addon.pipeline.analyses == 1003
