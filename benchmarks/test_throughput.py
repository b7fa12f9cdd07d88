"""Throughput benchmark: serial vs parallel, per-page vs columnar batch.

The paper argues deployability from per-page latency (Table VIII); a
production crawl additionally needs batch throughput.  Two layers are
measured and gated here:

* **pipeline** — the full pipeline over the robustness workload in four
  configurations, {serial, 4-worker pool} × {cold cache, warm cache}.
  Serial modes analyse each page as a batch of one; pooled modes
  dispatch columnar batches with a backend-aware chunk count (one
  chunk per process worker; a single chunk on the GIL-bound thread
  backend used here).  Every configuration must produce verdicts
  identical to the serial cold run, a warm cache must beat a cold one,
  and the chunked pool must beat warm serial — the regression the
  columnar rewrite fixed was exactly ``parallel4/warm < serial/warm``
  from per-page dispatch overhead.
* **extraction stage** — feature extraction isolated from the load and
  target-identification floors (serial and stateful by contract, so no
  extraction rewrite can move them).  The cold columnar pass must hold
  at least 2x the per-page loop on this runner.  The per-page loop
  shares the columnar pass's URL parser and canonicaliser, so the
  ratio measures cross-page sharing and stacked reductions only; the
  committed artifact also records the cold columnar rate against the
  pre-batch serial baseline.

Both tables land in ``results/throughput.txt`` and, machine-readable
with the pre-batch baseline attached, ``results/throughput.json``.
"""

import pytest

from repro.evaluation.reporting import format_table

PAGES_PER_CLASS = 40
WORKERS = 4

#: End-to-end pages/sec from the pre-batch committed artifact
#: (results/throughput.txt before the columnar rewrite) — the baseline
#: the batch path's headline speedup is quoted against.
PRE_BATCH_BASELINE = {
    "serial/cold": 153.0,
    "parallel4/cold": 178.8,
    "serial/warm": 411.3,
    "parallel4/warm": 386.5,
}


@pytest.fixture(scope="module")
def pipeline_rows(lab):
    return lab.throughput_benchmark(
        pages_per_class=PAGES_PER_CLASS, workers=WORKERS, backend="thread"
    )


@pytest.fixture(scope="module")
def extraction_rows(lab):
    return lab.extraction_benchmark(pages_per_class=PAGES_PER_CLASS)


def test_throughput_serial_vs_parallel(pipeline_rows):
    rows = pipeline_rows
    assert [r["mode"] for r in rows] == [
        "serial/cold", f"parallel{WORKERS}/cold",
        "serial/warm", f"parallel{WORKERS}/warm",
    ]
    # The core guarantee: identical verdicts in every configuration.
    assert all(r["verdicts_match"] for r in rows)
    # Caching alone already pays for itself on a repeat visit.
    serial_warm = rows[2]
    assert serial_warm["pages_per_sec"] > rows[0]["pages_per_sec"]


def test_chunked_pool_beats_warm_serial(pipeline_rows):
    """The regression the columnar rewrite fixed, kept fixed.

    Before chunked dispatch, per-page scheduling overhead made the
    4-worker pool *slower* than serial on a warm cache (386.5 vs 411.3
    pages/sec in the pre-batch artifact).  The pool must now win.
    """
    by_mode = {r["mode"]: r for r in pipeline_rows}
    warm_parallel = by_mode[f"parallel{WORKERS}/warm"]
    warm_serial = by_mode["serial/warm"]
    assert warm_parallel["pages_per_sec"] > warm_serial["pages_per_sec"], (
        f"parallel{WORKERS}/warm {warm_parallel['pages_per_sec']:.1f} p/s "
        f"did not beat serial/warm {warm_serial['pages_per_sec']:.1f} p/s"
    )


def test_extraction_stage_speedup(extraction_rows):
    rows = extraction_rows
    assert [r["mode"] for r in rows] == [
        "per_page/cold", "batch/cold", "batch/warm",
    ]
    # The differential guarantee re-checked on live corpus data.
    assert all(r["bit_identical"] for r in rows)
    batch_cold = rows[1]
    assert batch_cold["speedup"] >= 2.0, (
        f"cold batch extraction reached only {batch_cold['speedup']:.2f}x "
        f"the per-page loop"
    )
    assert rows[2]["speedup"] > batch_cold["speedup"]  # warm beats cold


def test_throughput_artifacts(
    pipeline_rows, extraction_rows, save_result, save_json
):
    save_result("throughput", "\n\n".join((
        "pipeline (end to end; serial = each page a batch of one)\n"
        + format_table(
            ["mode", "pages", "seconds", "pages_per_sec", "speedup",
             "verdicts_match"],
            [[r["mode"], r["pages"], round(r["seconds"], 3),
              round(r["pages_per_sec"], 1), round(r["speedup"], 2),
              r["verdicts_match"]] for r in pipeline_rows],
        ),
        "extraction stage (loads + identification excluded)\n"
        + format_table(
            ["mode", "pages", "seconds", "pages_per_sec", "speedup",
             "bit_identical"],
            [[r["mode"], r["pages"], round(r["seconds"], 4),
              round(r["pages_per_sec"], 1), round(r["speedup"], 2),
              r["bit_identical"]] for r in extraction_rows],
        ),
    )))
    batch_cold = extraction_rows[1]
    save_json("throughput", {
        "pipeline": pipeline_rows,
        "extraction_stage": extraction_rows,
        "baseline_pre_batch_pages_per_sec": PRE_BATCH_BASELINE,
        "batch_cold_vs_pre_batch_serial": round(
            batch_cold["pages_per_sec"]
            / PRE_BATCH_BASELINE["serial/cold"], 2
        ),
        "notes": (
            "End-to-end rates are floored by serial page loads and "
            "per-page target identification (stateful by contract); "
            "the extraction_stage section isolates what the columnar "
            "rewrite accelerates.  batch_cold_vs_pre_batch_serial "
            "quotes cold columnar extraction against the pre-batch "
            "committed serial/cold end-to-end rate."
        ),
    })


def _observed_batch(lab, tracer, metrics, pool=None):
    """One cold-cache batch over the robustness workload, instrumented."""
    from repro.core.detector import PhishingDetector
    from repro.core.features import FeatureExtractor
    from repro.core.pipeline import KnowYourPhish
    from repro.core.target import TargetIdentifier
    from repro.parallel import AnalysisCache
    from repro.web.browser import Browser

    urls, _labels = lab._robustness_workload(PAGES_PER_CLASS)
    base = lab.detector("fall")
    detector = PhishingDetector(
        FeatureExtractor(alexa=lab.world.alexa, cache=AnalysisCache()),
        feature_set=base.feature_set,
        threshold=base.threshold,
    )
    detector.model = base.model
    identifier = TargetIdentifier(lab.world.search, ocr=lab.ocr)
    pipeline = KnowYourPhish(
        detector, identifier, tracer=tracer, metrics=metrics
    )
    return pipeline.analyze_many(urls, Browser(lab.world.web), pool=pool)


def test_observability_overhead_bounded(lab, save_result):
    """Live tracing+metrics cost at most 5% of batch throughput."""
    import time

    from repro.obs import NULL_METRICS, NULL_TRACER, MetricsRegistry, Tracer

    def _timed(fn):
        started = time.perf_counter()
        fn()
        return time.perf_counter() - started

    # Interleave the rounds so a transient load spike on the machine
    # hits both variants instead of skewing whichever phase it lands on;
    # best-of-8 because the 5% budget is within single-round jitter.
    null_seconds = live_seconds = float("inf")
    for _ in range(8):
        null_seconds = min(null_seconds, _timed(
            lambda: _observed_batch(lab, NULL_TRACER, NULL_METRICS)
        ))
        live_seconds = min(live_seconds, _timed(
            lambda: _observed_batch(lab, Tracer(), MetricsRegistry())
        ))
    overhead = live_seconds / null_seconds - 1.0
    save_result("observability_overhead", format_table(
        ["instruments", "seconds"],
        [["null (NullTracer/NullMetrics)", round(null_seconds, 3)],
         ["live (Tracer/MetricsRegistry)", round(live_seconds, 3)],
         ["overhead", f"{overhead:+.1%}"]],
    ))
    assert overhead <= 0.05, (
        f"live instrumentation cost {overhead:.1%} (budget 5%)"
    )


def test_observed_metric_totals_process_equals_serial(lab):
    """Per-worker metric deltas merge to exactly the serial totals."""
    from repro.obs import MetricsRegistry, Tracer
    from repro.parallel import WorkerPool

    serial_tracer, serial_metrics = Tracer(), MetricsRegistry()
    serial = _observed_batch(lab, serial_tracer, serial_metrics)
    pool_tracer, pool_metrics = Tracer(), MetricsRegistry()
    with WorkerPool(workers=WORKERS, backend="process") as pool:
        fanned = _observed_batch(lab, pool_tracer, pool_metrics, pool=pool)

    assert pool_metrics.as_dict() == serial_metrics.as_dict()
    assert [page.verdict.verdict for page in fanned.analyzed] == \
        [page.verdict.verdict for page in serial.analyzed]
    # the span *structure* is schedule-independent too (times are wall
    # clock here, so byte-identity is asserted in tests/obs instead)
    assert [span.name for span in pool_tracer.iter_spans()] == \
        [span.name for span in serial_tracer.iter_spans()]
