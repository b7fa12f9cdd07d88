"""Benchmark entry point: one workload, end-to-end or per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload browse --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (spans are written to ``perfbench/out/``).  Human
readable lines come first; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The command
exits non-zero when an output check fails.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: How many times set-up runs; ``setup_s`` is the median.
SETUPS = 3
#: Passes of each kind (untraced, traced) a run makes at least; the
#: repeat check needs two.  Untraced runs may need more (see
#: :func:`passes_needed`).
MIN_PASSES = 2

#: End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "failed_share": ("ratio", "lower"),
    "verdicts_per_s": ("verdicts/s", "higher"),
    "verdict_ms_p50": ("ms", "lower"),
    "recall": ("ratio", "higher"),
    "precision": ("ratio", "higher"),
    "target_top1": ("ratio", "higher"),
}

#: Per-layer span measures: span name -> measures reported.
LAYER_SPANS = {
    "web.browser.load": ("calls", "busy_ms", "p50_ms"),
    "resilience.browser.load": ("calls", "busy_ms", "p50_ms", "failed"),
    "core.features.extract": ("calls", "busy_ms", "p50_ms", "p99_ms"),
    "core.features.extract_batch": ("calls", "rows", "busy_ms"),
    "ml.predict_proba": ("calls", "rows", "busy_ms"),
    "core.target.identify": ("calls", "busy_ms", "p50_ms"),
    "core.keyterms.extract": ("busy_ms",),
    "web.search.query": ("calls", "busy_ms"),
    "core.pipeline.analyze": ("calls", "self_ms"),
    "core.pipeline.analyze_batch": ("calls", "rows", "self_ms"),
    "resilience.batch.analyze_many": ("self_ms",),
    "parallel.executor.map_chunks": ("self_ms",),
    "addon.navigate": ("self_ms",),
    "serve.triage.decide": ("calls", "busy_ms", "p50_ms"),
    "serve.admission.decide": ("busy_ms",),
    "serve.engine.run": ("self_ms",),
}

#: Per-layer counts and ratios read from the program's own counters.
LAYER_COUNTERS = (
    "parallel.cache.features_hit_ratio",
    "web.search.queries_per_identify",
    "core.pipeline.flagged_share",
    "resilience.batch.quarantined",
    "addon.cache.hit_ratio",
    "serve.triage.resolved_share",
    "serve.admission.shed",
    "serve.coalesce.memo_hit_ratio",
    "serve.coalesce.coalesced",
)

#: Set-up steps, timed separately (milliseconds, median of the set-ups).
SETUP_STEPS = (
    "corpus.datasets.build_world",
    "setup.train_features",
    "ml.boosting.fit",
    "serve.triage.calibrate",
    "setup.warmup",
)


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {"calls": "count", "rows": "count", "failed": "count"}
    names = {
        f"{span}.{measure}": units.get(measure, "ms")
        for span, measures in LAYER_SPANS.items() for measure in measures
    }
    for name in LAYER_COUNTERS:
        names[name] = "ratio" if name.endswith(("_ratio", "_share",
                                                "_per_identify")) else "count"
    for step in SETUP_STEPS:
        names[f"{step}.busy_ms"] = "ms"
    names["trace.overhead_share"] = "ratio"
    return names


def _add_program_to_path() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))


# ----------------------------------------------------------------------
def set_up(workload_cls, seed: int):
    """Set up ``SETUPS`` times; return the last workload and the timings."""
    from workloads import build_setup

    totals, steps = [], []
    workload = None
    for _ in range(SETUPS):
        workload = None
        gc.collect()
        started = time.perf_counter()
        setup = build_setup()
        workload = workload_cls(setup, seed)
        warm_start = time.perf_counter()
        workload.warm()
        ended = time.perf_counter()
        setup.timings["setup.warmup"] = ended - warm_start
        totals.append(ended - started)
        steps.append(dict(setup.timings))
    return workload, totals, steps


def passes_needed(workload) -> int:
    """Untraced passes after which the p99, pooled over every pass's
    timed operations, has :data:`~measure.MIN_BEYOND` samples beyond it.
    """
    from measure import MIN_BEYOND

    return max(MIN_PASSES,
               math.ceil(MIN_BEYOND / (1 - 0.99) / workload.timed_ops))


def measure(workload, seconds: float, trace: bool, recorder):
    """Run passes for ``seconds``: all untraced, or alternating with traced.

    Untraced pass ``k`` (and traced pass ``k`` after it) runs pinned to
    the ``k``-th CPU this process may use, in rotation: on a shared host
    each CPU slows down on its own, so every operation's repeats meet
    every CPU.  Returns ``(untraced, traced, wall_s)`` pass lists and
    phase wall time.
    """
    cpus = sorted(os.sched_getaffinity(0))
    untraced, traced = [], []
    needed = MIN_PASSES if trace else passes_needed(workload)
    started = time.perf_counter()
    try:
        while True:
            elapsed = time.perf_counter() - started
            enough = elapsed >= seconds and len(untraced) >= needed
            if trace:
                enough = enough and len(traced) == len(untraced)
                if len(traced) < len(untraced):
                    traced.append(workload.run_pass(recorder))
                    continue
            if enough:
                break
            os.sched_setaffinity(0, {cpus[len(untraced) % len(cpus)]})
            untraced.append(workload.run_pass())
    finally:
        os.sched_setaffinity(0, cpus)
    return untraced, traced, time.perf_counter() - started


def check(workload, passes) -> tuple[list[str], int]:
    """Output checks: every pass equals the first, and the other route.

    Returns the error messages and the number of operations that failed.
    """
    errors = [error for result in passes for error in result.errors]
    failed = len(errors)
    first = [(o.key, o.verdict) for o in passes[0].outcomes]
    for number, result in enumerate(passes[1:], start=2):
        ops = [(o.key, o.verdict) for o in result.outcomes]
        if ops != first:
            failed += max(len(ops), len(first)) - sum(
                a == b for a, b in zip(ops, first))
            errors.append(
                f"{workload.name}: pass {number} verdicts differ from pass 1"
            )
    mismatches = workload.check_reference(passes[0])
    failed += len(mismatches)
    errors.extend(mismatches[:10])
    return errors, failed


def digest(result) -> str:
    """Short hash of a pass's (operation, verdict) list."""
    payload = repr([(o.key, o.verdict) for o in result.outcomes])
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def quality(result) -> dict[str, float]:
    """recall, precision and target_top1 over verdicts of one pass."""
    judged = [o for o in result.outcomes if o.verdict and o.label is not None]
    phish = [o for o in judged if o.label == 1]
    blocked = [o for o in judged if o.blocked]
    targeted = [o for o in phish if o.target and o.full]
    return {
        "recall": sum(o.blocked for o in phish) / len(phish),
        "precision": sum(o.label == 1 for o in blocked) / len(blocked),
        "target_top1": sum(
            bool(o.verdict[2]) and o.verdict[2][0] == o.target
            for o in targeted
        ) / len(targeted),
    }


def best_times(passes) -> list[float]:
    """Each timed operation at its fastest repeat, in milliseconds.

    Every pass replays the same operations in the same order.
    """
    return [min(times) for times in zip(*(r.op_ms for r in passes))]


def best_wall_s(passes) -> float:
    """The time of a pass at its best: every operation's fastest repeat."""
    return sum(best_times(passes)) / 1e3


def end_to_end(passes, setup_totals, samples) -> dict:
    """The end-to-end metrics of the untraced passes.

    Every workload times its operations one by one: a navigation in
    browse, an ``analyze_many`` call over one batch of submissions in
    feed, a ``ServingEngine.run`` call over one window of requests in
    serve.  On a shared host a busy neighbour slows whole stretches of a
    run (operation times jump between levels up to 1.7x apart), so
    ``verdicts_per_s`` and the p50 come from each operation's fastest
    repeat.  ``samples`` receives the sample count behind each
    statistic.
    """
    from measure import peak_rss_mib, percentile

    attempted = sum(len(result.outcomes) for result in passes)
    verdicts = sum(result.verdicts for result in passes)
    best = best_times(passes)
    samples["verdict_ms_p50"] = len(best)
    samples["setup_s"] = len(setup_totals)
    metrics = {
        "setup_s": statistics.median(setup_totals),
        "peak_rss_mb": peak_rss_mib(),
        "failed_share": (attempted - verdicts) / attempted,
        "verdicts_per_s": passes[0].verdicts / (sum(best) / 1e3),
        "verdict_ms_p50": percentile(best, 0.50),
    }
    metrics.update(quality(passes[0]))
    return metrics


def tail_ms(passes, samples) -> float | None:
    """p99 operation wall time, pooled over every repeat.

    Printed with its sample count but not gated: the pooled tail follows
    how hard and how long the host's slow stretches hit a run, and its
    spread over runs of feed and serve passed the largest bound a metric
    may have (README, "Departures").
    """
    from measure import percentile

    pooled = [ms for result in passes for ms in result.op_ms]
    samples["verdict_ms_p99"] = len(pooled)
    return percentile(pooled, 0.99)


def per_layer(untraced, traced, recorder, setup_steps, samples) -> dict:
    n = len(traced)
    summary = recorder.summary()
    metrics = {}
    for span, measures in LAYER_SPANS.items():
        entry = summary.get(span, {})
        for measure in measures:
            value = entry.get(measure, 0.0)
            if measure in ("calls", "rows", "failed", "busy_ms", "self_ms"):
                value /= n   # per traced pass
            elif entry:
                samples[f"{span}.{measure}"] = entry["calls"]
            metrics[f"{span}.{measure}"] = value
    counters: dict[str, float] = {}
    for result in traced:
        for name, value in result.counters.items():
            counters[name] = counters.get(name, 0) + value

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    calls = {span: summary.get(span, {}).get("calls", 0)
             for span in LAYER_SPANS}
    analysed = calls["core.pipeline.analyze"] + summary.get(
        "core.pipeline.analyze_batch", {}).get("rows", 0)
    metrics.update({
        "parallel.cache.features_hit_ratio": ratio(
            counters.get("parallel.cache.features_hits", 0),
            counters.get("parallel.cache.features_lookups", 0)),
        "web.search.queries_per_identify": ratio(
            calls["web.search.query"], calls["core.target.identify"]),
        "core.pipeline.flagged_share": ratio(
            calls["core.target.identify"], analysed),
        "resilience.batch.quarantined": counters.get(
            "resilience.batch.quarantined", 0) / n,
        "addon.cache.hit_ratio": ratio(
            counters.get("addon.cache.hits", 0),
            counters.get("addon.cache.lookups", 0)),
        "serve.triage.resolved_share": ratio(
            counters.get("serve.tier0", 0), calls["serve.triage.decide"]),
        "serve.admission.shed": counters.get("serve.admission.shed", 0) / n,
        "serve.coalesce.memo_hit_ratio": ratio(
            counters.get("serve.coalesce.memo_hits", 0),
            counters.get("serve.coalesce.memo_lookups", 0)),
        "serve.coalesce.coalesced": counters.get(
            "serve.coalesce.coalesced", 0) / n,
    })
    for step in SETUP_STEPS:
        metrics[f"{step}.busy_ms"] = statistics.median(
            [steps[step] for steps in setup_steps]) * 1e3
    # Best times, as for verdicts_per_s: the passes alternate, but a
    # slow stretch of the host can still cover more of one side.
    metrics["trace.overhead_share"] = (
        1.0 - best_wall_s(untraced) / best_wall_s(traced)
    )
    return metrics


def layer_shares(recorder, traced) -> list[str]:
    """Self time of each span name as a share of traced pass wall time."""
    wall_ms = sum(result.wall_s for result in traced) * 1e3
    summary = recorder.summary()
    rows = sorted(summary.items(), key=lambda item: -item[1]["self_ms"])
    return [
        f"  {name:34s} self {entry['self_ms'] / wall_ms:6.1%}  "
        f"busy {entry['busy_ms'] / wall_ms:6.1%}  calls {entry['calls']}"
        for name, entry in rows
    ]


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("browse", "feed", "serve"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _add_program_to_path()

    from measure import cpu_ticks, run_record, steal_share
    from spans import SpanRecorder
    from workloads import WORKLOADS

    workload, setup_totals, setup_steps = set_up(
        WORKLOADS[args.workload], args.seed
    )
    recorder = SpanRecorder()
    ticks = cpu_ticks()
    cpu_start = time.process_time()
    untraced, traced, wall_s = measure(
        workload, args.seconds, bool(args.trace), recorder
    )
    cpu_s = time.process_time() - cpu_start
    steal = steal_share(ticks, cpu_ticks())

    errors, failed = check(workload, untraced + traced)
    samples: dict[str, int] = {}
    diagnostics: dict[str, float | None] = {}
    if args.trace:
        metrics = per_layer(untraced, traced, recorder, setup_steps, samples)
        units = per_layer_names()
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl"
        recorder.write_jsonl(spans_path)
    else:
        metrics = end_to_end(untraced, setup_totals, samples)
        diagnostics["verdict_ms_p99"] = tail_ms(untraced, samples)
        units = {name: unit for name, (unit, _b) in END_TO_END.items()}
        errors.extend(
            f"{name}: too few samples ({samples})"
            for name, value in {**metrics, **diagnostics}.items()
            if value is None
        )

    record = run_record(ROOT, args.seed)
    record.update({
        "workload": args.workload,
        "trace": args.trace,
        "passes": len(untraced) + len(traced),
        "traced_passes": len(traced),
        "measured_wall_s": round(wall_s, 3),
        "pass_wall_s": [round(r.wall_s, 3) for r in untraced + traced],
        "measured_cpu_s": round(cpu_s, 3),
        "host_steal_share": steal,
        "samples": samples,
        "diagnostics": diagnostics,
        "verdict_digest": digest(untraced[0]),
    })
    print(f"perfbench {args.workload}: {json.dumps(record)}")
    for name, value in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name} = {shown} {units[name]}")
    for name, value in diagnostics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name} = {shown} ms (diagnostic, not gated)")
    if args.trace:
        print(f"layer shares of traced wall time ({spans_path.name}):")
        print("\n".join(layer_shares(recorder, traced)))
    for error in errors[:20]:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    if len(errors) > 20:
        print(f"CHECK FAILED: {len(errors) - 20} more", file=sys.stderr)

    # A per-layer percentile without ten samples beyond it reads 0
    # (shown as n/a above, with its sample count in the record).
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(len(r.outcomes) for r in untraced + traced),
        "failed": failed,
        "metrics": {
            name: {"value": 0.0 if value is None else value,
                   "unit": units[name]}
            for name, value in metrics.items()
            if value is not None or args.trace
        },
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
