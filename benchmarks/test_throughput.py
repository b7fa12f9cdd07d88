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
  at least 2x the per-page loop on this runner.  The per-page loop is
  the oracle in ``tests/core/reference_features.py``; it shares the
  columnar pass's URL parser and canonicaliser, so the ratio measures
  cross-page sharing and stacked reductions only; the committed
  artifact also records the cold columnar rate against the pre-batch
  serial baseline.

Both mode-vs-mode gates read the *median per-round paired ratio*: the
modes run in seven interleaved rounds, each round divides one mode's
seconds by the other's, and the gate takes the median of those
ratios.  A single fastest round per mode, on a shared host whose
single runs spread by about a quarter, flipped both gates on
unchanged code; a pair timed in the same round shares its load.

Both tables land in ``results/throughput.txt`` and, machine-readable
with the per-round ratios, their quartiles and the pre-batch baseline
attached, ``results/throughput.json``.
"""

import statistics

import numpy as np
import pytest

from repro.core.features import FeatureExtractor
from repro.evaluation.reporting import format_table
from repro.evaluation.runner import _timed_round
from repro.parallel import AnalysisCache
from tests.core import reference_features

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


def _paired_ratio(slower: dict, faster: dict) -> dict:
    """Per-round ``slower / faster`` seconds, with median and quartiles.

    Round k of one mode is divided by round k of the other: both ran
    in the same interleaved pass, under the same machine load.
    """
    ratios = [
        slow / fast
        for slow, fast in zip(slower["round_seconds"], faster["round_seconds"])
    ]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return {"ratios": ratios, "q1": q1, "median": median, "q3": q3}


@pytest.fixture(scope="module")
def pipeline_rows(lab):
    return lab.throughput_benchmark(
        pages_per_class=PAGES_PER_CLASS, workers=WORKERS, backend="thread"
    )


@pytest.fixture(scope="module")
def extraction_rows(lab):
    """Feature extraction in isolation: per-page oracle vs columnar.

    The end-to-end pipeline rate is floored by serial page loads and
    per-page target identification, which no extraction rewrite can
    touch, so the columnar path's effect is measured at the stage
    level.  Three configurations over the robustness workload's
    snapshots: the per-page oracle loop, a cold ``extract_batch`` pass
    and a warm (cache-hit) ``extract_batch`` pass.  They run in seven
    interleaved rounds, so machine-speed drift hits every
    configuration; each row keeps every round's seconds in
    ``round_seconds``, in round order, and reports pages/sec and the
    speedup over the per-page loop from the fastest round.
    ``bit_identical`` re-checks the differential guarantee, batch cells
    equal to the oracle's to the last bit, on live corpus data.
    """
    snapshots = [
        page.snapshot
        for name in ("english", "phishTest")
        for page in list(lab.dataset(name))[:PAGES_PER_CLASS]
    ]
    alexa = lab.world.alexa
    warm_extractor = FeatureExtractor(
        alexa=alexa, cache=AnalysisCache(max_entries=16384)
    )
    warm_extractor.extract_batch(snapshots)  # priming pass
    configs = (
        ("per_page/cold", lambda: np.vstack(
            [reference_features.extract(snapshot, alexa)
             for snapshot in snapshots]
        )),
        # a fresh extractor per round keeps this pass genuinely cold
        ("batch/cold", lambda: FeatureExtractor(
            alexa=alexa
        ).extract_batch(snapshots)),
        ("batch/warm", lambda: warm_extractor.extract_batch(snapshots)),
    )
    rounds: dict[str, list[float]] = {mode: [] for mode, _fn in configs}
    matrices = {}
    for _ in range(7):
        for mode, fn in configs:
            seconds, matrices[mode] = _timed_round(fn)
            rounds[mode].append(seconds)

    n_pages = len(snapshots)
    base_rate = n_pages / min(rounds["per_page/cold"])
    reference = matrices["per_page/cold"]
    rows = []
    for mode, _fn in configs:
        seconds, matrix = min(rounds[mode]), matrices[mode]
        rate = n_pages / seconds if seconds else float("inf")
        rows.append({
            "mode": mode,
            "pages": n_pages,
            "seconds": seconds,
            "round_seconds": rounds[mode],
            "pages_per_sec": rate,
            "speedup": rate / base_rate,
            "bit_identical": bool(np.array_equal(matrix, reference)),
        })
    return rows


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
    pages/sec in the pre-batch artifact).  The pool must now win: in
    the median round, serial/warm takes longer than the pool.
    """
    by_mode = {r["mode"]: r for r in pipeline_rows}
    paired = _paired_ratio(
        by_mode["serial/warm"], by_mode[f"parallel{WORKERS}/warm"]
    )
    assert paired["median"] > 1.0, (
        f"parallel{WORKERS}/warm did not beat serial/warm: median "
        f"per-round serial/pool seconds {paired['median']:.3f} "
        f"(rounds {[round(r, 3) for r in paired['ratios']]})"
    )


def test_extraction_stage_speedup(extraction_rows):
    rows = extraction_rows
    assert [r["mode"] for r in rows] == [
        "per_page/cold", "batch/cold", "batch/warm",
    ]
    # The differential guarantee re-checked on live corpus data.
    assert all(r["bit_identical"] for r in rows)
    paired = _paired_ratio(rows[0], rows[1])
    assert paired["median"] >= 2.0, (
        f"cold batch extraction reached only {paired['median']:.2f}x "
        f"the per-page loop in the median round "
        f"(rounds {[round(r, 2) for r in paired['ratios']]})"
    )
    assert rows[2]["speedup"] > rows[1]["speedup"]  # warm beats cold


def test_throughput_artifacts(
    pipeline_rows, extraction_rows, save_result, save_json
):
    by_mode = {r["mode"]: r for r in pipeline_rows}
    paired = {
        f"serial_warm_over_parallel{WORKERS}_warm": _paired_ratio(
            by_mode["serial/warm"], by_mode[f"parallel{WORKERS}/warm"]
        ),
        "per_page_cold_over_batch_cold": _paired_ratio(
            extraction_rows[0], extraction_rows[1]
        ),
    }
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
        "gated ratios (per-round seconds, slower mode over faster)\n"
        + format_table(
            ["ratio", "q1", "median", "q3", "rounds"],
            [[name, round(p["q1"], 3), round(p["median"], 3),
              round(p["q3"], 3), len(p["ratios"])]
             for name, p in paired.items()],
        ),
    )))
    batch_cold = extraction_rows[1]
    save_json("throughput", {
        "pipeline": pipeline_rows,
        "extraction_stage": extraction_rows,
        "paired_ratios": paired,
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
            "committed serial/cold end-to-end rate.  paired_ratios "
            "divide two modes' seconds round by round (interleaved "
            "rounds); the gates read their medians."
        ),
    })


def _observed_batch(lab, tracer, metrics, pool=None):
    """One cold-cache batch over the robustness workload, instrumented."""
    from repro.core.detector import PhishingDetector
    from repro.core.pipeline import KnowYourPhish
    from repro.core.target import TargetIdentifier
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
