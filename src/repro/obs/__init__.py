"""Unified observability: tracing spans, metrics, run-report exporters.

The paper's deployment argument (Section VI / Table VIII) rests on
*where time goes* inside the analysis pipeline — feature extraction vs.
classification vs. target identification — and a production crawl
additionally needs cache hit rates, retry/breaker activity and verdict
tallies.  This package provides one common model for all of it:

* :mod:`repro.obs.trace` — hierarchical spans with deterministic ids
  (a per-tracer counter, not wall-clock or random ids) and durations
  read from the injectable :class:`repro.resilience.clock.Clock`;
  :class:`~repro.obs.trace.NullTracer` is the zero-cost default.
* :mod:`repro.obs.metrics` — a registry of named counters, gauges and
  fixed-bucket histograms with label support, mergeable across
  :class:`~repro.parallel.WorkerPool` workers so serial, thread and
  process backends aggregate to identical totals.
* :mod:`repro.obs.export` — JSON-lines span/metric dumps and a
  Prometheus-style text format, both parseable back.
* :mod:`repro.obs.report` — :class:`~repro.obs.report.RunReport`, a
  human-readable reconstruction of a run from dumped artifacts alone.
* :mod:`repro.obs.quantiles` — the one quantile implementation
  (nearest-rank and histogram interpolation) shared by the serving
  report, the run report and the quality sketches.
* :mod:`repro.obs.quality` — streaming quality observability on top:
  distribution sketches with Hellinger/PSI drift scoring against a
  frozen training reference, multi-window burn-rate SLO alerting, and
  the per-request flight recorder (``quality.*`` spans).

Span names follow the documented taxonomy (DESIGN.md §8, §11, §13):
``batch.* / browse.* / analyze / extract.f{1..5} / classify /
target.* / cache.* / train.* / serve.* / quality.*`` (including the
triage ladder's ``serve.triage``, the serving memo's end-of-run
``cache.snapshot`` span and the quality monitor's ``quality.evaluate`` /
``quality.drift`` / ``quality.dump``), statically checked by the
PHL404 lint rule — dotted names
must additionally root in :data:`~repro.obs.trace.SPAN_NAME_ROOTS`.  Tracing and metrics never perturb verdicts: the golden feature
matrix and the parallel==serial equivalence guarantees hold with
tracing enabled.
"""

from repro.obs.export import (
    metrics_to_jsonl,
    metrics_to_prometheus,
    parse_prometheus,
    read_spans_jsonl,
    spans_to_jsonl,
    write_metrics_jsonl,
    write_metrics_prometheus,
    write_spans_jsonl,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NULL_METRICS,
    MetricsRegistry,
    NullMetrics,
)
from repro.obs.quantiles import histogram_quantile, nearest_rank
from repro.obs.report import RunReport, render_quality
from repro.obs.trace import (
    NULL_TRACER,
    SPAN_NAME_PATTERN,
    SPAN_NAME_ROOTS,
    NullTracer,
    Span,
    Tracer,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_TRACER",
    "NullMetrics",
    "NullTracer",
    "RunReport",
    "SPAN_NAME_PATTERN",
    "SPAN_NAME_ROOTS",
    "Span",
    "Tracer",
    "histogram_quantile",
    "metrics_to_jsonl",
    "metrics_to_prometheus",
    "nearest_rank",
    "parse_prometheus",
    "read_spans_jsonl",
    "render_quality",
    "spans_to_jsonl",
    "write_metrics_jsonl",
    "write_metrics_prometheus",
    "write_spans_jsonl",
]
