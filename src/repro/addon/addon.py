"""The phishing-prevention add-on: the per-navigation hook.

Wires together a browser, the trained :class:`KnowYourPhish` pipeline, a
verdict cache and a warning policy — the whole flow the paper's
companion add-on [3] runs on every page load, entirely client-side:

1. trusted/overridden URLs pass immediately (no analysis, no logging);
2. fresh verdicts come from the cache when possible — by default a
   :class:`~repro.parallel.cache.TtlCache` keyed by URL, bounded at
   1000 entries and one hour of age;
3. otherwise the page is scraped and analysed, and the verdict cached;
4. the policy converts the verdict into allow / warn / block.

The add-on keeps running statistics (pages checked, warnings, blocks,
analysis latency) so deployments can monitor their impact, and a
deterministic injected clock keeps everything testable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.addon.policy import Action, WarningPolicy
from repro.core.pipeline import KnowYourPhish, PageVerdict
from repro.parallel.cache import TtlCache
from repro.web.browser import Browser, PageNotFound, RedirectLoopError


@dataclass
class NavigationResult:
    """Outcome of one navigation through the add-on."""

    url: str
    action: Action
    verdict: PageVerdict | None
    from_cache: bool = False
    analysis_ms: float = 0.0

    @property
    def allowed(self) -> bool:
        """True when the navigation proceeds without interruption."""
        return self.action is Action.ALLOW


@dataclass
class AddonStats:
    """Running counters of the add-on."""

    navigations: int = 0
    analyses: int = 0
    warnings: int = 0
    blocks: int = 0
    navigation_failures: int = 0
    analysis_ms: list[float] = field(default_factory=list)

    @property
    def median_analysis_ms(self) -> float:
        """Median per-page analysis latency in milliseconds."""
        if not self.analysis_ms:
            return 0.0
        ordered = sorted(self.analysis_ms)
        return ordered[len(ordered) // 2]


class PhishingPreventionAddon:
    """Real-time, client-side phishing prevention.

    Parameters
    ----------
    pipeline:
        A trained :class:`KnowYourPhish` pipeline.
    browser:
        Browser used to (re-)scrape pages the user navigates to.
    policy:
        Warning policy; defaults to block-phish / warn-suspicious.
    cache:
        Verdict cache keyed by URL and read at the add-on clock's time;
        defaults to a :class:`~repro.parallel.cache.TtlCache` of 1000
        entries with a one-hour TTL (phishing campaigns live hours, so
        a verdict must not outlive the page it describes).
    clock:
        Zero-argument callable returning seconds; injected for
        deterministic tests (defaults to ``time.monotonic``).
    """

    def __init__(
        self,
        pipeline: KnowYourPhish,
        browser: Browser,
        policy: WarningPolicy | None = None,
        cache: TtlCache | None = None,
        clock=None,
    ):
        self.pipeline = pipeline
        self.browser = browser
        self.policy = policy or WarningPolicy()
        self.cache = (
            cache if cache is not None
            else TtlCache(capacity=1000, ttl=3600.0)
        )
        self.clock = clock or time.monotonic
        self.stats = AddonStats()

    def navigate(self, url: str) -> NavigationResult:
        """Run the add-on hook for one navigation to ``url``."""
        self.stats.navigations += 1
        now = self.clock()

        # Fast path: the user vouched for this destination.
        if self.policy.is_trusted(url) or self.policy.was_overridden(url):
            return NavigationResult(url=url, action=Action.ALLOW, verdict=None)

        verdict = self.cache.get(url, now=now)
        from_cache = verdict is not None
        analysis_ms = 0.0
        if verdict is None:
            try:
                snapshot = self.browser.load(url)
            except (PageNotFound, RedirectLoopError):
                # Unreachable pages cannot harm the user; let the browser
                # surface its own error page.
                self.stats.navigation_failures += 1
                return NavigationResult(
                    url=url, action=Action.ALLOW, verdict=None
                )
            started = self.clock()
            verdict = self.pipeline.analyze(snapshot)
            analysis_ms = (self.clock() - started) * 1000.0
            self.stats.analyses += 1
            self.stats.analysis_ms.append(analysis_ms)
            self.cache.put(url, verdict, now=now)

        action = self.policy.decide(url, verdict)
        if action is Action.WARN:
            self.stats.warnings += 1
        elif action is Action.BLOCK:
            self.stats.blocks += 1
        return NavigationResult(
            url=url,
            action=action,
            verdict=verdict,
            from_cache=from_cache,
            analysis_ms=analysis_ms,
        )

    def proceed_anyway(self, url: str) -> None:
        """The user dismissed the warning for ``url``; do not re-warn."""
        self.policy.record_override(url)
