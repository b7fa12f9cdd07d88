"""Batch analysis with quarantine: one sick page never aborts a run.

``analyze_many`` drives the full pipeline over a list of starting URLs.
Pages that cannot be loaded — permanently dead hosts, retry budgets
exhausted, deadlines blown — are recorded as structured
:class:`QuarantinedPage` entries instead of raising out of the loop, so
a crawl over a million URLs degrades into a report, not a traceback.
Successfully analyzed pages keep their verdicts alongside the effort
(attempts, degradations) the load cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.metrics import NULL_METRICS, AnyMetrics, MetricsRegistry
from repro.obs.trace import NULL_TRACER, AnyTracer, Tracer
from repro.parallel.cache import CacheCountsProbe
from repro.resilience.browser import LoadResult
from repro.resilience.clock import SystemClock
from repro.resilience.errors import (
    DeadlineExceeded,
    FetchError,
    PermanentFetchError,
    TransientFetchError,
)
from repro.resilience.retry import Deadline
from repro.web.browser import PageNotFound, RedirectLoopError


@dataclass
class QuarantinedPage:
    """A URL the run gave up on, with the structured reason."""

    url: str
    error_kind: str            # exception class name
    message: str
    permanent: bool            # False for exhausted-retries / deadline
    attempts: int = 0

    @classmethod
    def from_error(cls, url: str, error: Exception) -> "QuarantinedPage":
        """Classify an exception into a quarantine record."""
        permanent = isinstance(
            error, (PageNotFound, RedirectLoopError, PermanentFetchError)
        ) and not isinstance(error, TransientFetchError)
        attempts = getattr(error, "attempts", 0)
        return cls(
            url=url,
            error_kind=type(error).__name__,
            message=str(error),
            permanent=permanent,
            attempts=attempts,
        )


@dataclass
class AnalyzedPage:
    """One successfully analyzed page: verdict plus load effort."""

    url: str
    verdict: object            # a core.pipeline.PageVerdict
    attempts: int = 1
    degradations: list[str] = field(default_factory=list)


@dataclass
class BatchReport:
    """Outcome of one ``analyze_many`` run."""

    analyzed: list[AnalyzedPage] = field(default_factory=list)
    quarantined: list[QuarantinedPage] = field(default_factory=list)

    @property
    def total(self) -> int:
        """Pages attempted (analyzed + quarantined)."""
        return len(self.analyzed) + len(self.quarantined)

    @property
    def completion_rate(self) -> float:
        """Share of attempted pages that produced a verdict."""
        return len(self.analyzed) / self.total if self.total else 0.0

    @property
    def degraded_count(self) -> int:
        """Analyzed pages whose verdict carries a degradation tag."""
        return sum(
            1 for page in self.analyzed
            if getattr(page.verdict, "degraded", False)
        )

    @property
    def retried_count(self) -> int:
        """Analyzed pages that needed more than one load attempt."""
        return sum(1 for page in self.analyzed if page.attempts > 1)

    def error_kinds(self) -> dict[str, int]:
        """Histogram of quarantine causes by exception class name.

        Distinguishes navigation failures (``PageNotFound``) from
        outage signatures (``RetriesExhausted``, ``DeadlineExceeded``)
        in reports, which aggregate counts alone cannot.  Keys are
        sorted for deterministic report output.
        """
        counts: dict[str, int] = {}
        for page in self.quarantined:
            counts[page.error_kind] = counts.get(page.error_kind, 0) + 1
        return dict(sorted(counts.items()))

    def summary(self) -> dict[str, object]:
        """Flat summary for reports and experiment tables."""
        return {
            "total": self.total,
            "analyzed": len(self.analyzed),
            "quarantined": len(self.quarantined),
            "quarantined_permanent": sum(
                1 for page in self.quarantined if page.permanent
            ),
            "completion_rate": self.completion_rate,
            "degraded": self.degraded_count,
            "retried": self.retried_count,
            "error_kinds": self.error_kinds(),
        }


class _AnalyzeChunk:
    """Picklable chunk worker: the analysis stage of ``analyze_many``.

    Maps over a contiguous chunk of ``(loaded, remaining)`` pairs, where
    ``remaining`` is the budget seconds the page's load left over
    (``None`` when unbudgeted).  Each page's :class:`Deadline` is
    rebuilt from it when its batch starts, so queue position in the
    load phase never charges against a later page's analysis.

    With ``per_page`` every page is analysed as its own batch of one;
    otherwise the whole chunk is one ``analyze_batch`` call.  With a
    ``trace_clock`` (observed runs, always per page) each page records
    into its *own* :class:`~repro.obs.trace.Tracer` and
    :class:`~repro.obs.metrics.MetricsRegistry` and ships the finished
    span records + metric snapshot back with its verdict; the caller
    splices them in input order, which is what keeps span dumps
    byte-identical across serial, thread and process backends.
    """

    def __init__(self, pipeline, clock, per_page: bool, trace_clock=None):
        self.pipeline = pipeline
        self.clock = clock
        self.per_page = per_page
        self.trace_clock = trace_clock

    def __call__(self, chunk: list) -> list:
        results: list = []
        for batch in [[item] for item in chunk] if self.per_page else [chunk]:
            loads = [loaded for loaded, _remaining in batch]
            deadlines = [
                Deadline(remaining, clock=self.clock)
                if remaining is not None else None
                for _loaded, remaining in batch
            ]
            if self.trace_clock is None:
                results.extend(
                    self.pipeline.analyze_batch(loads, deadlines=deadlines)
                )
                continue
            tracer = Tracer(clock=self.trace_clock)
            metrics = MetricsRegistry()
            [verdict] = self.pipeline.analyze_batch(
                loads, tracer=tracer, metrics=metrics, deadlines=deadlines
            )
            results.append(
                (verdict, tracer.export_records(), metrics.as_dict())
            )
        return results


def analyze_many(
    pipeline,
    browser,
    urls,
    pool=None,
    tracer: AnyTracer = NULL_TRACER,
    metrics: AnyMetrics = NULL_METRICS,
    page_budget: float | None = None,
) -> BatchReport:
    """Analyze every URL, quarantining failures instead of raising.

    Parameters
    ----------
    pipeline:
        A :class:`~repro.core.pipeline.KnowYourPhish` (anything with an
        ``analyze_batch(loads, deadlines=...)`` accepting snapshots or
        :class:`LoadResult` objects).
    browser:
        A :class:`ResilientBrowser` (preferred) or plain
        :class:`~repro.web.browser.Browser`.
    urls:
        Iterable of starting URLs.
    pool:
        Optional :class:`~repro.parallel.WorkerPool` fanning the
        *analysis* stage out over workers.  Page **loads always run
        serially in input order**: browsers, retry policies and
        fault-injecting webs are stateful (RNG streams, degradation
        notes, circuit breakers), so serial loading keeps every fault,
        retry and quarantine decision identical to the serial run.
        Analysis is a pure function of the loaded page, so the report —
        verdicts, ordering, quarantine records — is bit-identical to
        ``pool=None`` for any backend and worker count.  An unobserved
        pooled run analyses contiguous columnar chunks
        (:meth:`~repro.parallel.WorkerPool.columnar_chunks`); serial
        and observed runs analyse each page as its own batch.
    tracer, metrics:
        Batch-level instruments.  Loads are observed live (the phase-1
        ``batch.load`` span); each page's analysis records into a fresh
        per-item tracer/registry whose output is spliced back in input
        order, so dumps are deterministic across backends and runs.
    page_budget:
        Optional per-page deadline in seconds.  Each page's load runs
        under its own :class:`Deadline`; a load that blows the budget
        is quarantined as ``DeadlineExceeded``.  The seconds the load
        left over are carried into that page's analysis (target
        identification degrades rather than searching past the
        budget).  In a columnar chunk every page's deadline starts
        with the chunk, so under a real clock page ``k``'s is read
        after the chunk's extraction and after identification of the
        pages before it (see ``KnowYourPhish.analyze_batch``).
    """
    report = BatchReport()
    observed = tracer.enabled or metrics.enabled
    clock = getattr(browser, "clock", None) or SystemClock()
    # Phase 1 (serial): load every page, quarantining failures.
    urls_loaded: list[str] = []
    # (load, budget seconds the load left over) per loaded page
    items: list[tuple[LoadResult, float | None]] = []
    outcomes: list[tuple[str, object]] = []  # (kind, record/index)
    with tracer.span("batch.load"):
        for url in urls:
            deadline = (
                Deadline(page_budget, clock=clock)
                if page_budget is not None
                else None
            )
            try:
                if deadline is not None:
                    loaded = browser.load(url, deadline=deadline)
                else:
                    loaded = browser.load(url)
            except (
                PageNotFound, RedirectLoopError, FetchError, DeadlineExceeded
            ) as error:
                record = QuarantinedPage.from_error(url, error)
                metrics.inc("batch_quarantined_total", error=record.error_kind)
                outcomes.append(("quarantined", record))
                continue
            if not isinstance(loaded, LoadResult):
                loaded = LoadResult(snapshot=loaded)
            outcomes.append(("analyzed", len(items)))
            urls_loaded.append(url)
            items.append((
                loaded, deadline.remaining() if deadline is not None else None
            ))

    # Phase 2 (parallel): analyze the pages that loaded.
    worker = _AnalyzeChunk(
        pipeline, clock,
        per_page=observed or pool is None,
        trace_clock=tracer.clock if observed else None,
    )
    if pool is None:
        results = worker(items)
    else:
        # Cache counters accumulated inside process workers would
        # otherwise be lost with the pipeline copy; in observed runs
        # the probe ships per-chunk deltas back for merging.
        cache = getattr(
            getattr(getattr(pipeline, "detector", None), "extractor", None),
            "cache",
            None,
        )
        probes = (
            [CacheCountsProbe(cache)] if observed and cache is not None
            else []
        )
        results = pool.map_observed_chunks(
            worker, items, probes=probes,
            chunk_count=pool.columnar_chunks(len(items)),
        )
    if observed:
        verdicts = []
        for verdict, records, snapshot in results:
            verdicts.append(verdict)
            tracer.adopt(records)
            metrics.merge(snapshot)
    else:
        verdicts = results

    # Phase 3: assemble the report in input order, as a serial run would.
    for kind, payload in outcomes:
        if kind == "quarantined":
            report.quarantined.append(payload)
            continue
        index = payload
        loaded, _remaining = items[index]
        report.analyzed.append(
            AnalyzedPage(
                url=urls_loaded[index],
                verdict=verdicts[index],
                attempts=loaded.attempts,
                degradations=list(loaded.degradations),
            )
        )
    return report
