"""The combined system: detection + target identification (Section III-C).

Both components run in a pipeline: the phishing detection system
tentatively flags a page; flagged pages are fed to the target
identification system, which either names the purported target or — when
it confirms the page's own domain as legitimate — removes the false
positive (the Section VI-D experiment).

The pipeline degrades gracefully when auxiliary data sources fail, the
way a production deployment facing the live web must:

* search engine unreachable (or its circuit breaker open) — flagged
  pages get a detector-only verdict tagged ``degraded`` instead of an
  exception;
* OCR failure — OCR is read only when identification reaches step 4;
  if that read fails, step 4's query is skipped and the verdict is
  tagged;
* partial snapshot (truncated HTML, lost screenshot) — features are
  extracted from whatever sources did load, and the verdict carries the
  load's degradation tags.

:meth:`KnowYourPhish.analyze_many` extends this to batches: pages that
cannot be loaded at all are quarantined as structured error records
rather than aborting the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.datasources import BatchMemo, DataSources
from repro.core.detector import PhishingDetector
from repro.core.features.extractor import group_means
from repro.core.target import TargetIdentification, TargetIdentifier
from repro.obs.metrics import NULL_METRICS, AnyMetrics
from repro.obs.trace import NULL_TRACER, AnyTracer
from repro.resilience.batch import BatchReport, analyze_many
from repro.resilience.browser import LoadResult
from repro.resilience.errors import DeadlineExceeded, SearchUnavailableError
from repro.resilience.retry import Deadline
from repro.web.page import PageSnapshot


@dataclass
class PageVerdict:
    """The pipeline's final decision for one page.

    ``verdict`` is one of:

    * ``"legitimate"`` — classifier below threshold, or classifier said
      phish but the target identifier confirmed the page legitimate;
    * ``"phish"`` — classifier flagged and a target was identified;
    * ``"suspicious"`` — classifier flagged, no target found, no
      legitimate confirmation.

    ``degraded`` marks verdicts produced with reduced-fidelity inputs
    (search outage, OCR failure, partial snapshot); ``degradations``
    lists the specific tags.
    """

    verdict: str
    confidence: float
    targets: list[str]
    identification: TargetIdentification | None = None
    degraded: bool = False
    degradations: list[str] = field(default_factory=list)

    @property
    def is_phish(self) -> bool:
        """True for the final ``"phish"`` verdict."""
        return self.verdict == "phish"

    @property
    def top_target(self) -> str | None:
        """Most likely target mld, when one was identified."""
        return self.targets[0] if self.targets else None


class KnowYourPhish:
    """End-to-end system: detector first, target identification second.

    Parameters
    ----------
    detector:
        A (trained) :class:`~repro.core.detector.PhishingDetector`.
    identifier:
        A :class:`~repro.core.target.TargetIdentifier`; optional — without
        it the pipeline reduces to the bare detector and ``"suspicious"``
        never occurs.
    treat_suspicious_as_phish:
        How the final binary decision counts ``"suspicious"`` pages
        (default True: no legitimate confirmation means the page stays
        blocked).
    tracer:
        Optional :class:`~repro.obs.trace.Tracer` receiving the
        ``analyze`` span tree of every call (``extract``, ``classify``,
        ``target.identify``).  Defaults to the zero-cost
        :data:`~repro.obs.trace.NULL_TRACER`.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` receiving
        ``verdicts_total{verdict=...}`` / ``verdicts_degraded_total``
        counters.  Defaults to :data:`~repro.obs.metrics.NULL_METRICS`.

    Tracing and metrics never perturb verdicts: with or without them
    the pipeline's outputs are bit-identical.
    """

    def __init__(
        self,
        detector: PhishingDetector,
        identifier: TargetIdentifier | None = None,
        treat_suspicious_as_phish: bool = True,
        tracer: AnyTracer = NULL_TRACER,
        metrics: AnyMetrics = NULL_METRICS,
    ):
        self.detector = detector
        self.identifier = identifier
        self.treat_suspicious_as_phish = treat_suspicious_as_phish
        self.tracer = tracer
        self.metrics = metrics
        self._quality_importances: np.ndarray | None = None

    # -- quality taps --------------------------------------------------
    def _feature_importances(self) -> np.ndarray | None:
        """Cached per-feature importances of the trained ensemble.

        Computed once per pipeline (the ensemble is frozen after
        training) and only when a quality monitor is armed; models
        without ``feature_importances`` disable the top-contribution
        annotation rather than failing the tap.
        """
        if self._quality_importances is None:
            importances = getattr(
                self.detector.model, "feature_importances", None
            )
            if importances is None:
                return None
            self._quality_importances = np.asarray(
                importances(), dtype=float
            )
        return self._quality_importances

    def _top_contributions(
        self, vector: np.ndarray, k: int = 3
    ) -> list[tuple[str, float]] | None:
        """Top-``k`` importance-weighted feature contributions.

        Ranked by absolute importance × value with a stable sort, so
        ties resolve by feature index and the flight-recorder payload
        is deterministic.
        """
        importances = self._feature_importances()
        if importances is None:
            return None
        contributions = importances * np.asarray(vector, dtype=float)
        order = np.argsort(-np.abs(contributions), kind="stable")[:k]
        names = self.detector.extractor.feature_names
        return [(names[i], float(contributions[i])) for i in order]

    def _quality_tap(
        self, quality, url: str, vector: np.ndarray, verdict: PageVerdict
    ) -> None:
        """Feed one finished verdict into a quality monitor.

        Read-only: the monitor sees the score, the final label, the
        per-group feature means (the drift signals) and the top
        feature contributions, after the verdict is fully built — it
        can never perturb the verdict itself.
        """
        means = group_means(vector)
        quality.observe_verdict(
            score=verdict.confidence,
            verdict=verdict.verdict,
            groups={name: float(vals[0]) for name, vals in means.items()},
            degraded=verdict.degraded,
            url=url,
            top_features=self._top_contributions(vector),
        )

    def analyze(
        self,
        page: PageSnapshot | LoadResult,
        tracer: AnyTracer | None = None,
        metrics: AnyMetrics | None = None,
        deadline: Deadline | None = None,
        quality=None,
    ) -> PageVerdict:
        """Run the full pipeline on one page: a batch of one.

        Exactly ``analyze_batch([page], deadlines=[deadline])[0]``;
        see :meth:`analyze_batch` for the verdict ladder, the deadline
        contract and the instruments.
        """
        return self.analyze_batch(
            [page], tracer=tracer, metrics=metrics, quality=quality,
            deadlines=[deadline],
        )[0]

    def analyze_batch(
        self,
        pages,
        tracer: AnyTracer | None = None,
        metrics: AnyMetrics | None = None,
        quality=None,
        deadlines: list[Deadline | None] | None = None,
    ) -> list[PageVerdict]:
        """Analyze already-loaded pages, in input order.

        The one verdict ladder every route runs: features come from
        one :meth:`~repro.core.features.extractor.FeatureExtractor.extract_batch`
        pass, classification from one compiled-ensemble
        ``predict_proba`` call, and only the flagged pages proceed to
        target identification — one page at a time, in input order, so
        stateful collaborators (search engine, circuit breakers,
        caches) see the same call sequence at any batch size.  A page
        is either a bare :class:`PageSnapshot` or a
        :class:`~repro.resilience.browser.LoadResult`, whose load-time
        degradation tags then seed the verdict's.

        Auxiliary-source failures degrade a verdict instead of
        raising: a search outage yields a detector-only verdict tagged
        ``search_unavailable``.  OCR is read only for a page whose
        identification reaches step 4; if that read fails, the page's
        verdict is tagged ``ocr_failed`` and step 4's query is skipped,
        and a page decided earlier never reads its screenshot.

        ``deadlines`` optionally gives each page a
        :class:`~repro.resilience.retry.Deadline` (``None`` entries
        are unlimited).  A deadline is read only at its page's target
        identification — before it starts and before every search
        query — and once it is exhausted the flagged page keeps the
        detector-only verdict tagged ``deadline_exhausted``.
        Classification always completes (local compute on a page
        already in hand).  Under a real clock this means page ``k``'s
        deadline is first read after the whole batch's extraction and
        classification and after identification of the flagged pages
        before it; callers that need a page's own analysis time
        measured alone pass it as a batch of one, as :meth:`analyze`
        does.

        ``tracer``/``metrics`` override the pipeline-level instruments
        for this call.  Tracing emits one ``analyze`` span (``n_pages=``,
        ``flagged=`` attrs) with one ``extract`` and one ``classify``
        child and a ``target.identify`` child per flagged page, at any
        batch size; metrics count ``verdicts_total{verdict=...}``,
        ``verdicts_degraded_total`` and ``fp_filtered_total``.

        ``quality`` taps a :class:`~repro.obs.quality.QualityMonitor`
        with each finished verdict (score, label, per-group feature
        means, top feature contributions), read-only and in input
        order, so monitored and unmonitored calls return bit-identical
        verdicts.
        """
        tracer = self.tracer if tracer is None else tracer
        metrics = self.metrics if metrics is None else metrics
        pages = list(pages)
        if deadlines is None:
            deadlines = [None] * len(pages)
        elif len(deadlines) != len(pages):
            raise ValueError(
                f"got {len(deadlines)} deadlines for {len(pages)} pages"
            )
        if not pages:
            return []
        load_tags: list[list[str]] = []
        snapshots: list[PageSnapshot] = []
        for page in pages:
            if isinstance(page, LoadResult):
                load_tags.append(list(page.degradations))
                snapshots.append(page.snapshot)
            else:
                load_tags.append([])
                snapshots.append(page)
        memo = BatchMemo(self.detector.extractor.psl)
        with tracer.span("analyze", n_pages=len(pages)) as root:
            matrix = self.detector.extractor.extract_batch(
                snapshots, tracer=tracer, memo=memo
            )
            with tracer.span("classify", n_pages=len(pages)):
                confidences = self.detector.predict_proba(matrix)
            verdicts: list[PageVerdict] = []
            flagged = 0
            for index, snapshot in enumerate(snapshots):
                confidence = float(confidences[index])
                tags = load_tags[index]
                final, identification = "legitimate", None
                if confidence >= self.detector.threshold:
                    flagged += 1
                    final, identification = self._identify(
                        snapshot, deadlines[index], tags, tracer, metrics,
                        memo,
                    )
                metrics.inc("verdicts_total", verdict=final)
                if tags:
                    metrics.inc("verdicts_degraded_total")
                verdict = PageVerdict(
                    verdict=final,
                    confidence=confidence,
                    targets=(
                        list(identification.targets) if identification
                        else []
                    ),
                    identification=identification,
                    degraded=bool(tags),
                    degradations=tags,
                )
                if quality is not None:
                    self._quality_tap(
                        quality, snapshot.starting_url, matrix[index], verdict
                    )
                verdicts.append(verdict)
            root.set(flagged=flagged)
        return verdicts

    def _identify(
        self,
        snapshot: PageSnapshot,
        deadline: Deadline | None,
        tags: list[str],
        tracer: AnyTracer,
        metrics: AnyMetrics,
        memo: BatchMemo,
    ) -> tuple[str, TargetIdentification | None]:
        """Target identification of one flagged page: its final label.

        Returns the label and the identification (``None`` for a
        detector-only verdict), appending any degradation tags to
        ``tags``.  The page's :class:`DataSources` sit on the batch's
        ``memo``, so the parses, terms and distributions extraction
        computed are read back rather than redone.
        """
        if self.identifier is None:
            return "phish", None
        if deadline is not None and deadline.expired():
            tags.append("deadline_exhausted")
            return "phish", None
        sources = DataSources(snapshot, memo=memo)
        try:
            with tracer.span("target.identify") as target_span:
                identification = self.identifier.identify(
                    sources, deadline=deadline
                )
                target_span.set(
                    step=identification.step,
                    verdict=identification.verdict,
                )
        except SearchUnavailableError:
            # Search down / circuit open: fall back to the detector's
            # tentative flag rather than losing the page entirely.
            tags.append("search_unavailable")
            identification = None
        except DeadlineExceeded:
            # The budget ran out mid-identification: keep the
            # detector's tentative flag rather than blowing the
            # request's deadline on further searches.
            tags.append("deadline_exhausted")
            identification = None
        tags.extend(sorted(sources.degradation_notes))
        if identification is None:
            return "phish", None
        if identification.verdict == "legitimate":
            # The identifier confirmed the page's own domain: the
            # detector's flag was a false positive and is filtered.
            metrics.inc("fp_filtered_total")
            return "legitimate", identification
        if identification.verdict == "phish":
            return "phish", identification
        return "suspicious", identification

    def analyze_many(
        self, urls, browser, pool=None, page_budget=None, quality=None
    ) -> BatchReport:
        """Analyze a batch of URLs, quarantining unloadable pages.

        Thin forwarding wrapper around
        :func:`repro.resilience.batch.analyze_many`; see there for the
        quarantine semantics.  ``browser`` is ideally a
        :class:`~repro.resilience.browser.ResilientBrowser` so transient
        faults are retried before a page is given up on.  ``pool`` is an
        optional :class:`~repro.parallel.WorkerPool`; loads stay serial,
        analysis fans out in columnar chunks, and the report is
        identical to the serial run (same verdicts, same order).
        ``page_budget`` gives every page its own end-to-end deadline
        (load + analysis); see the batch layer for how leftover budget
        carries into analysis.
        The pipeline's tracer and metrics observe the whole batch (each
        page's span tree is spliced back in input order, so dumps are
        deterministic across backends).

        ``quality`` taps a :class:`~repro.obs.quality.QualityMonitor`
        with each analyzed page's verdict *after* the batch completes,
        in input order — a post-hoc feed from the report, so the
        observation stream (and every drift window over it) is
        identical across the serial, thread and process backends.
        Vectors are not retained by the batch layer, so this path
        feeds score drift and the degraded-rate SLOs but not the
        per-feature-group signals.
        """
        report = analyze_many(
            self, browser, urls, pool=pool,
            tracer=self.tracer, metrics=self.metrics,
            page_budget=page_budget,
        )
        if quality is not None:
            for page in report.analyzed:
                verdict = page.verdict
                quality.observe_verdict(
                    score=verdict.confidence,
                    verdict=verdict.verdict,
                    degraded=verdict.degraded,
                    url=page.url,
                )
        return report

    def is_blocked(self, verdict: PageVerdict) -> bool:
        """Binary blocking decision derived from a verdict."""
        if verdict.verdict == "phish":
            return True
        if verdict.verdict == "suspicious":
            return self.treat_suspicious_as_phish
        return False
