"""Set-up and the three workloads: browse, feed and serve.

The synthetic web is built from a fixed corpus seed, so every workload
seed runs against the same sites and the quality metrics compare across
seeds; the workload seed decides what the users do with that web (the
order of a browsing session and its revisits, the order of feed
submissions, the order of the request stream).  Each workload exposes
``run_pass``: one complete, repeatable pass over its inputs on freshly
built per-pass objects (analysis caches, add-on, browser, engine), so
every pass does the same work and must return the same verdicts.
"""

from __future__ import annotations

import os
import random
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.addon import PhishingPreventionAddon
from repro.core.detector import PhishingDetector
from repro.core.features import FeatureExtractor
from repro.core.pipeline import KnowYourPhish
from repro.corpus.datasets import CorpusConfig
from repro.corpus.wordlists import LANGUAGES
from repro.evaluation.runner import Lab
from repro.parallel import WorkerPool
from repro.parallel.cache import AnalysisCache
from repro.resilience import ManualClock, ResilientBrowser, RetryPolicy
from repro.serve import (
    AdmissionController,
    ServeRequest,
    ServingEngine,
    TokenBucket,
    TriageModel,
)
from repro.web.browser import Browser

from spans import SpanRecorder, instrument, restore

#: The benchmark's synthetic web: the Table V shape at a size whose
#: set-up fits three times into one run.  Fixed, so quality metrics
#: compare across workload seeds.
CORPUS = dict(
    seed=7, leg_train=200, phish_train=60, phish_test=40, phish_brand=5,
    english_test=200, other_language_test=20,
)

#: Shares of the browsing session (see README.md, "Workloads").
REVISIT_EVERY = 3          # every third distinct page is revisited once
REVISIT_WINDOW = 100       # ... within this many navigations
DEAD_SHARE = 0.01          # navigations to dead links
BROWSE_PHISH_EVERY = 5     # every fifth phishTest page: ~2.5% phish
BROWSE_WARMUP = 200        # navigations replayed to warm up

#: Feed submissions per ``analyze_many`` call: the batch a feed poller
#: picks up at once.  Each call is one timed operation.
FEED_BATCH = 4

#: Serving: the tiered configuration of the repo's serving benchmark,
#: except for a tighter admission bucket.  Triage resolves about 80% of
#: requests, so escalations reach admission at about 24 per simulated
#: second; the serving benchmark's 40/s bucket would never shed, this
#: one sheds about 8% of the requests.  With a burst of 8 rather than
#: 4, how many pages a pass analyses moves half as much with the
#: arrival order (quartile spread 0.07 against 0.14 over seeds 1-10).
SERVE_WORKERS = 4
SERVE_ANALYSIS_COST = 0.1  # modelled seconds; capacity = workers / cost
SERVE_OVERLOAD = 3.0
#: Arrivals per simulated second: three times the modelled capacity.
SERVE_RATE = SERVE_OVERLOAD * SERVE_WORKERS / SERVE_ANALYSIS_COST
SERVE_SECONDS = 4.0        # simulated schedule length at the full rate
SERVE_LEGIT_EVERY = 2      # every second language test page is served
SERVE_WARMUP = 200         # requests replayed to warm up
SERVE_ADMIT_RATE = 10.0    # admitted escalations per simulated second
SERVE_ADMIT_BURST = 8.0    # ... and the burst the token bucket allows
SERVE_WINDOW = 16          # requests per ``ServingEngine.run`` call


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


@dataclass
class Setup:
    """Everything the workloads share: the lab, its detector and triage."""

    lab: Lab
    detector: PhishingDetector
    triage: TriageModel
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def world(self):
        return self.lab.world

    def pipeline(self) -> KnowYourPhish:
        """A fresh pipeline (fresh analysis cache) on the trained model."""
        extractor = FeatureExtractor(
            alexa=self.world.alexa, cache=AnalysisCache(max_entries=16384)
        )
        detector = PhishingDetector(
            extractor, threshold=self.detector.threshold
        )
        detector.model = self.detector.model
        return KnowYourPhish(detector, self.lab.target_identifier())


def _language_pages(world) -> list:
    """The six language test sets (the Table VI mix), in dataset order."""
    return [
        page for language in LANGUAGES for page in world.dataset(language)
    ]


def _dead_links(world) -> list[str]:
    """The feeds' unavailable submissions: URLs no page answers."""
    return sorted({
        entry.url for feed in world.feeds.values() for entry in feed
        if entry.status == "unavailable"
    })


def _timed(timings: dict, name: str, fn, *args):
    started = time.perf_counter()
    result = fn(*args)
    timings[name] = time.perf_counter() - started
    return result


def build_setup(corpus: dict | None = None) -> Setup:
    """The lab's own set-up, step by step: world, training matrix, fit,
    triage calibration."""
    timings: dict[str, float] = {}
    lab = _timed(
        timings, "corpus.datasets.build_world",
        Lab, CorpusConfig(**(corpus or CORPUS)),
    )
    _timed(timings, "setup.train_features", lab.train_matrix)
    detector = _timed(timings, "ml.boosting.fit", lab.detector)
    triage = _timed(timings, "serve.triage.calibrate", lab.triage_model)
    return Setup(lab, detector, triage, timings)


# ----------------------------------------------------------------------
# outcomes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Outcome:
    """How one operation ended, plus its ground truth.

    ``verdict`` is ``(label, confidence, targets)`` or ``None`` when the
    operation ended without one (dead link, quarantine, shed request);
    ``full`` marks verdicts that came from the full pipeline (the only
    ones that can name a target).
    """

    key: tuple
    verdict: tuple | None
    label: int | None
    target: str | None
    full: bool = True

    @property
    def blocked(self) -> bool:
        """Blocked or warned: a phish or suspicious verdict."""
        return self.verdict is not None and self.verdict[0] in (
            "phish", "suspicious"
        )


@dataclass
class PassResult:
    """One pass: outcomes in order, wall time, per-operation wall times.

    ``op_ms`` times each operation of the pass on its own (a navigation,
    a batch call, a window of requests), in pass order.  ``errors``
    names inputs that did not end with exactly one outcome; the run
    reports them as failed output checks.
    """

    outcomes: list[Outcome]
    wall_s: float
    op_ms: list[float]
    counters: dict[str, float] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    @property
    def verdicts(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.verdict)


def _verdict_tuple(verdict) -> tuple:
    return (verdict.verdict, verdict.confidence, tuple(verdict.targets))


def _pipeline_targets(pipeline: KnowYourPhish) -> list:
    extractor = pipeline.detector.extractor
    identifier = pipeline.identifier
    return [
        (pipeline, "analyze", "core.pipeline.analyze"),
        (pipeline, "analyze_batch", "core.pipeline.analyze_batch", "rows"),
        (extractor, "extract_from_sources", "core.features.extract"),
        (extractor, "extract_batch", "core.features.extract_batch", "rows"),
        (identifier, "identify", "core.target.identify"),
        (identifier.keyterm_extractor, "extract", "core.keyterms.extract"),
    ]


class Workload:
    """Base class: inputs from a seed, shared-object instrumentation."""

    name = ""
    #: Inputs (navigations, submissions, requests) the warm-up pass
    #: replays (``None``: a whole pass).
    warmup_ops: int | None = None
    #: Operations a pass times one by one.
    timed_ops = 0

    def __init__(self, setup: Setup, seed: int) -> None:
        self.setup = setup

    def _shared_targets(self) -> list:
        return [
            (self.setup.detector.model, "predict_proba", "ml.predict_proba",
             "rows"),
            (self.setup.world.search, "query", "web.search.query"),
        ]

    def run_pass(self, recorder: SpanRecorder | None = None,
                 limit: int | None = None) -> PassResult:
        """One pass; ``recorder`` traces it, ``limit`` truncates it."""
        undo = (
            instrument(recorder, self._shared_targets())
            if recorder is not None else []
        )
        try:
            return self._pass(recorder, limit)
        finally:
            restore(undo)

    def warm(self) -> None:
        """Warm-up: a short untimed pass through the same code."""
        self.run_pass(limit=self.warmup_ops)

    def _pass(self, recorder, limit) -> PassResult:
        raise NotImplementedError

    def check_reference(self, result: PassResult) -> list[str]:
        """Compare a pass's verdicts with the *other* analysis route."""
        reference = self._reference(result)
        return [
            f"{self.name}: {outcome.key} gave {outcome.verdict}, "
            f"reference {reference.get(outcome.key[-1])}"
            for outcome in result.outcomes
            if outcome.verdict is not None
            and outcome.verdict != reference.get(outcome.key[-1])
        ]

    def _reference(self, result: PassResult) -> dict:
        raise NotImplementedError


# ----------------------------------------------------------------------
# browse: one add-on user, closed loop
# ----------------------------------------------------------------------
class _SessionClock:
    """Injected add-on clock: the benchmark loop sets the session time."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class Browse(Workload):
    """One user's session through the add-on over the Table VI mix.

    Every page of the six language test sets and every fifth page of
    phishTest is visited once in a seeded order; every third of them (by dataset
    position) is revisited once within the next
    :data:`REVISIT_WINDOW` navigations, and about 1% of navigations hit
    dead links.  The add-on's verdict cache serves the revisits.
    """

    name = "browse"
    warmup_ops = BROWSE_WARMUP

    def __init__(self, setup: Setup, seed: int) -> None:
        super().__init__(setup, seed)
        world = setup.world
        truth: dict[str, tuple[int, str | None]] = {}
        pages = _language_pages(world) + list(
            world.dataset("phishTest")
        )[::BROWSE_PHISH_EVERY]
        for page in pages:
            truth[page.url] = (page.label, page.target_mld)
        dead = _dead_links(world)
        rng = random.Random(seed)
        order = list(range(len(pages)))
        rng.shuffle(order)
        slots: list[tuple[float, str]] = []
        for position, index in enumerate(order):
            url = pages[index].url
            slots.append((float(position), url))
            if index % REVISIT_EVERY == 0:
                gap = rng.randint(1, REVISIT_WINDOW)
                slots.append((position + gap - 0.5, url))
        n_dead = round(DEAD_SHARE * len(slots))
        for count in range(n_dead):
            slots.append(
                (rng.uniform(0, len(pages)), dead[count % len(dead)])
            )
        slots.sort()
        self.session = [url for _key, url in slots]
        self.truth = truth
        self.timed_ops = len(self.session)

    def _pass(self, recorder, limit) -> PassResult:
        pipeline = self.setup.pipeline()
        browser = Browser(self.setup.world.web)
        clock = _SessionClock()
        addon = PhishingPreventionAddon(pipeline, browser, clock=clock)
        if recorder is not None:
            instrument(recorder, _pipeline_targets(pipeline) + [
                (browser, "load", "web.browser.load"),
                (addon, "navigate", "addon.navigate"),
            ])
        session = self.session if limit is None else self.session[:limit]
        outcomes: list[Outcome] = []
        op_ms: list[float] = []
        errors: list[str] = []
        stats = addon.stats
        perf = time.perf_counter
        started = perf()
        for index, url in enumerate(session):
            clock.now = index * 10.0   # ten seconds of reading per page
            if recorder is not None:
                recorder.op = index
            failures = stats.navigation_failures
            begin = perf()
            result = addon.navigate(url)
            op_ms.append((perf() - begin) * 1e3)
            failed = stats.navigation_failures - failures
            if (result.verdict is None) == (failed == 0) or failed > 1:
                errors.append(
                    f"navigation {index} to {url} did not end with exactly "
                    f"one outcome (verdict={result.verdict is not None}, "
                    f"failures={failed})"
                )
            label, target = self.truth.get(url, (None, None))
            outcomes.append(Outcome(
                key=(url,),
                verdict=(
                    _verdict_tuple(result.verdict)
                    if result.verdict is not None else None
                ),
                label=label,
                target=target,
            ))
        wall = perf() - started
        cache = addon.cache
        features = pipeline.detector.extractor.cache.features
        return PassResult(outcomes, wall, op_ms, errors=errors, counters={
            "addon.cache.hits": cache.hits,
            "addon.cache.lookups": cache.hits + cache.misses,
            "parallel.cache.features_hits": features.hits,
            "parallel.cache.features_lookups": features.hits + features.misses,
        })

    def _reference(self, result: PassResult) -> dict:
        urls = sorted({o.key[0] for o in result.outcomes if o.verdict})
        browser = Browser(self.setup.world.web)
        verdicts = self.setup.pipeline().analyze_batch(
            [browser.load(url) for url in urls]
        )
        return dict(zip(urls, map(_verdict_tuple, verdicts)))


# ----------------------------------------------------------------------
# feed: the raw PhishTank-style feeds, batch-scanned
# ----------------------------------------------------------------------
class Feed(Workload):
    """Both raw feeds (phish, dead, parked, misreported legitimate).

    Scanned in batches of :data:`FEED_BATCH` submissions, each with
    ``KnowYourPhish.analyze_many`` over one ``ResilientBrowser`` and a
    thread ``WorkerPool`` of ``nproc`` workers (the CLI ``--workers``
    route onto columnar ``analyze_batch``); every batch call is timed on
    its own.  The seed permutes the submission order.
    """

    name = "feed"

    def __init__(self, setup: Setup, seed: int) -> None:
        super().__init__(setup, seed)
        world = setup.world
        targets = {
            page.url: page.target_mld
            for name in ("phishTrain", "phishTest")
            for page in world.dataset(name)
        }
        entries = [
            entry for name in ("phishTrain", "phishTest")
            for entry in world.feeds[name]
        ]
        random.Random(seed).shuffle(entries)
        self.urls = [entry.url for entry in entries]
        self.truth = {
            entry.url: (
                None if entry.status == "unavailable"
                else int(entry.status == "phish"),
                targets.get(entry.url),
            )
            for entry in entries
        }
        self.timed_ops = -(-len(self.urls) // FEED_BATCH)

    def _pass(self, recorder, limit) -> PassResult:
        pipeline = self.setup.pipeline()
        browser = ResilientBrowser(self.setup.world.web)
        urls = self.urls if limit is None else self.urls[:limit]
        analyzed, quarantined = [], []
        op_ms: list[float] = []
        perf = time.perf_counter
        with WorkerPool(workers=nproc(), backend="thread") as pool:
            if recorder is not None:
                instrument(recorder, _pipeline_targets(pipeline) + [
                    (pipeline, "analyze_many",
                     "resilience.batch.analyze_many"),
                    (browser, "load", "resilience.browser.load", "url"),
                    (browser._browser, "load", "web.browser.load", "url"),
                    (pool, "map_chunks", "parallel.executor.map_chunks"),
                ])
            started = perf()
            for index, start in enumerate(range(0, len(urls), FEED_BATCH)):
                if recorder is not None:
                    recorder.op = index
                begin = perf()
                report = pipeline.analyze_many(
                    urls[start:start + FEED_BATCH], browser, pool=pool
                )
                op_ms.append((perf() - begin) * 1e3)
                analyzed.extend(report.analyzed)
                quarantined.extend(page.url for page in report.quarantined)
            wall = perf() - started
        verdicts = {}
        for page in analyzed:
            verdicts.setdefault(page.url, []).append(page.verdict)
        submitted = Counter(urls)
        ended = Counter([page.url for page in analyzed] + quarantined)
        errors = [
            f"feed URL {url} submitted {submitted[url]} times, "
            f"ended {ended[url]} times"
            for url in sorted(submitted | ended)
            if ended[url] != submitted[url]
        ]
        outcomes = []
        for url in urls:
            label, target = self.truth[url]
            pending = verdicts.get(url)
            verdict = pending.pop(0) if pending else None
            outcomes.append(Outcome(
                key=(url,),
                verdict=_verdict_tuple(verdict) if verdict else None,
                label=label,
                target=target,
            ))
        features = pipeline.detector.extractor.cache.features
        return PassResult(outcomes, wall, op_ms, errors=errors, counters={
            "resilience.batch.quarantined": len(quarantined),
            "parallel.cache.features_hits": features.hits,
            "parallel.cache.features_lookups": features.hits + features.misses,
        })

    def _reference(self, result: PassResult) -> dict:
        urls = sorted({o.key[0] for o in result.outcomes if o.verdict})
        browser = ResilientBrowser(self.setup.world.web)
        pipeline = self.setup.pipeline()
        return {
            url: _verdict_tuple(pipeline.analyze(browser.load(url)))
            for url in urls
        }


# ----------------------------------------------------------------------
# serve: Zipf request schedule through the tiered serving engine
# ----------------------------------------------------------------------
class Serve(Workload):
    """A Zipf (s=1) open-loop schedule through ``ServingEngine.run``.

    The engine runs on a ``ManualClock`` with tier-0 triage, the verdict
    memo, coalescing, a negative cache and token-bucket admission;
    requests arrive at three times the modelled capacity.  The URL
    popularity ranking is fixed by the world (a constant shuffle of
    every second language test page, phishTest and the dead feed links)
    and each URL gets its Zipf share of the requests; the seed orders
    the arrivals.  The stream is served in windows of
    :data:`SERVE_WINDOW` requests, one timed ``run`` call each on the
    same engine: a window opens when the engine has drained the one
    before, so memo, caches and admission carry over.
    """

    name = "serve"
    warmup_ops = SERVE_WARMUP

    def __init__(self, setup: Setup, seed: int) -> None:
        super().__init__(setup, seed)
        world = setup.world
        legit = _language_pages(world)[::SERVE_LEGIT_EVERY]
        phish = list(world.dataset("phishTest"))
        self.truth = {
            page.url: (page.label, page.target_mld) for page in legit + phish
        }
        universe = sorted(self.truth) + _dead_links(world)
        random.Random(0).shuffle(universe)
        count = int(SERVE_RATE * SERVE_SECONDS)
        weights = [1.0 / rank for rank in range(1, len(universe) + 1)]
        scale = count / sum(weights)
        urls = [
            url for url, weight in zip(universe, weights)
            for _ in range(max(1, round(weight * scale)))
        ]
        random.Random(seed).shuffle(urls)
        self.urls = urls
        self.timed_ops = -(-len(urls) // SERVE_WINDOW)

    def _shared_targets(self) -> list:
        return super()._shared_targets() + [
            (self.setup.triage, "decide", "serve.triage.decide", "url"),
        ]

    def _pass(self, recorder, limit) -> PassResult:
        clock = ManualClock()
        browser = ResilientBrowser(
            self.setup.world.web, policy=RetryPolicy(clock=clock), clock=clock
        )
        pipeline = self.setup.pipeline()
        engine = ServingEngine(
            pipeline,
            browser,
            AdmissionController(
                TokenBucket(rate=SERVE_ADMIT_RATE, capacity=SERVE_ADMIT_BURST),
                queue_limit=32,
            ),
            clock=clock,
            workers=SERVE_WORKERS,
            analysis_cost=SERVE_ANALYSIS_COST,
            triage=self.setup.triage,
            negative_ttl=0.25 * SERVE_SECONDS,
        )
        urls = self.urls if limit is None else self.urls[:limit]
        if recorder is not None:
            instrument(recorder, _pipeline_targets(pipeline) + [
                (engine, "run", "serve.engine.run"),
                (engine.admission, "decide", "serve.admission.decide"),
                (engine.memo, "get", "serve.coalesce.memo_get"),
                (engine.memo, "put", "serve.coalesce.memo_put"),
                (browser, "load", "resilience.browser.load", "url"),
                (browser._browser, "load", "web.browser.load", "url"),
            ])
        errors, responses, op_ms = [], [], []
        tier0 = 0
        perf = time.perf_counter
        started = perf()
        for index, first in enumerate(range(0, len(urls), SERVE_WINDOW)):
            opens = clock.now()
            window = [
                ServeRequest(
                    request_id=first + offset, url=url,
                    arrival=opens + offset / SERVE_RATE,
                )
                for offset, url in enumerate(
                    urls[first:first + SERVE_WINDOW]
                )
            ]
            if recorder is not None:
                recorder.op = index
            begin = perf()
            report = engine.run(window)
            op_ms.append((perf() - begin) * 1e3)
            ids = [response.request_id for response in report.responses]
            if ids != [request.request_id for request in window]:
                errors.append(
                    f"serve: window {index} responses do not match its "
                    f"requests one to one"
                )
            responses.extend(report.responses)
            tier0 += report.tier_counts().get("tier0", 0)
        wall = perf() - started
        outcomes = []
        for response in responses:
            if response.shed == (response.verdict is not None):
                errors.append(
                    f"request {response.request_id} ended with "
                    f"outcome={response.outcome} verdict={response.verdict}"
                )
            label, target = self.truth.get(response.url, (None, None))
            outcomes.append(Outcome(
                key=(response.request_id, response.outcome,
                     response.shed_reason, (response.tier, response.url)),
                verdict=(
                    None if response.shed else
                    (response.verdict, response.confidence,
                     tuple(response.targets))
                ),
                label=label,
                target=target,
                full=response.tier == "full",
            ))
        stats = engine.admission.stats
        memo = engine.memo
        features = pipeline.detector.extractor.cache.features
        return PassResult(outcomes, wall, op_ms, errors=errors, counters={
            "serve.tier0": tier0,
            "serve.admission.shed": stats["shed_queue"] + stats["shed_rate"],
            "serve.coalesce.memo_hits": memo.hits,
            "serve.coalesce.memo_lookups": memo.hits + memo.misses,
            "serve.coalesce.coalesced": engine.inflight_table.coalesced_total,
            "parallel.cache.features_hits": features.hits,
            "parallel.cache.features_lookups": features.hits + features.misses,
        })

    def _reference(self, result: PassResult) -> dict:
        """Offline per-page verdicts for full-tier URLs, triage for tier 0.

        Keyed by ``(tier, url)``, the last element of an outcome key.
        """
        reference = {}
        browser = ResilientBrowser(self.setup.world.web)
        pipeline = self.setup.pipeline()
        for outcome in result.outcomes:
            tier_url = outcome.key[-1]
            if outcome.verdict is None or tier_url in reference:
                continue
            tier, url = tier_url
            if tier == "full":
                verdict = _verdict_tuple(pipeline.analyze(browser.load(url)))
            else:
                decision = self.setup.triage.decide(url)
                verdict = (decision.action, decision.score, ())
            reference[tier_url] = verdict
        return reference


WORKLOADS = {cls.name: cls for cls in (Browse, Feed, Serve)}
