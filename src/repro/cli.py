"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list-experiments``
    Show every reproducible paper artefact and its id.
``experiment <id>``
    Build the synthetic world, run one experiment, print the rendered
    table/series (ids match DESIGN.md: table5..table10, fig3..fig6,
    sec6d, sec7-ip, sec7-evasion).
``analyze``
    Train the detector and print the §VII-A/B analysis: feature-group
    importances and the false-positive attribution.  With
    ``--trace-out``/``--metrics-out`` it also runs an observed batch
    and dumps span/metric artifacts.
``obs report``
    Render a run report (stage timing, verdicts, cache hit rates,
    serving tiers, resilience counters, quality block) from dumped
    artifacts alone.
``obs quality``
    Quality observability: render a quality artifact, or ``--run``
    the deterministic drift scenario (healthy stream, then a drifted
    campaign wave) and write ``quality.json`` + ``flight.jsonl``;
    ``--expect-drift`` makes a missing drift alert a failure (the CI
    smoke contract).
``serve-bench``
    Run the overload + chaos serving scenario (admission control,
    backpressure, coalescing, deadlines, breaker, drain) in simulated
    time and print its report; ``--json`` dumps the full result.
    ``--triage`` runs the tiered scenario instead: the URL-only tier-0
    triage ladder vs the untriaged engine on one Zipf workload.
``demo``
    A one-minute end-to-end demonstration.
"""

from __future__ import annotations

import argparse
import sys

from repro.corpus.datasets import CorpusConfig
from repro.evaluation.reporting import format_curve, format_table
from repro.evaluation.runner import Lab
from repro.resilience import DeadlineExceeded, FetchError
from repro.web import PageNotFound, RedirectLoopError

_EXPERIMENTS = {
    "table5": "Table V    - dataset description",
    "table6": "Table VI   - accuracy across six languages",
    "table7": "Table VII  - accuracy per feature set (slow: CV x 8 sets)",
    "fig3": "Fig. 3     - precision vs recall per language",
    "fig4": "Fig. 4     - ROC per language",
    "fig5": "Fig. 5     - ROC per feature set (slow)",
    "fig6": "Fig. 6     - performance vs test-set scale",
    "table8": "Table VIII - processing time per stage",
    "table9": "Table IX   - target identification success",
    "table10": "Table X    - comparison with baselines",
    "sec6d": "Sec. VI-D  - false-positive filtering",
    "sec7-ip": "Sec. VII-B - IP-URL limitation",
    "sec7-evasion": "Sec. VII-C - evasion techniques",
    "ext-blacklist": "Extension  - blacklist-delay victim exposure (Sec. VIII)",
    "ext-model": "Extension  - gradient boosting vs linear model (Sec. IV-C)",
    "ext-drift": "Extension  - recall under temporal campaign drift",
    "ext-robustness": "Extension  - resilience under injected faults",
    "ext-throughput": "Extension  - batch throughput (serial vs parallel, cold vs warm cache)",
    "ext-training": "Extension  - training speed (ensemble fit + fold-parallel CV)",
}


def _build_lab(args) -> Lab:
    config = CorpusConfig.paper_scale(args.scale, seed=args.seed)
    workers = getattr(args, "workers", 0)
    print(
        f"building world (scale={args.scale}, seed={args.seed}, "
        f"workers={workers or 1}, cache={'on' if args.cache else 'off'})...",
        file=sys.stderr,
    )
    return Lab(
        config,
        n_estimators=args.estimators,
        workers=workers or None,
        cache=args.cache,
    )


def _run_experiment(lab: Lab, experiment: str) -> str:
    if experiment == "table5":
        rows = lab.table5_rows()
        return format_table(
            ["set", "name", "initial", "clean"],
            [[r["set"], r["name"], r["initial"], r["clean"]] for r in rows],
        )
    if experiment == "table6":
        rows = lab.table6_rows()
        return format_table(
            ["language", "precision", "recall", "f1", "fp_rate", "auc"],
            [[r["language"], r["precision"], r["recall"], r["f1"], r["fpr"],
              r["auc"]] for r in rows],
        )
    if experiment == "table7":
        rows = lab.table7_rows()
        return format_table(
            ["scenario", "set", "precision", "recall", "f1", "fp_rate", "auc"],
            [[r["scenario"], r["feature_set"], r["precision"], r["recall"],
              r["f1"], r["fpr"], r["auc"]] for r in rows],
        )
    if experiment == "fig3":
        return "\n".join(
            format_curve(language, precision, recall)
            for language, (precision, recall) in lab.fig3_curves().items()
        )
    if experiment == "fig4":
        return "\n".join(
            format_curve(language, fpr, tpr)
            for language, (fpr, tpr) in lab.fig4_curves().items()
        )
    if experiment == "fig5":
        return "\n".join(
            format_curve(f"{fs}/{scenario}", fpr, tpr)
            for (fs, scenario), (fpr, tpr) in lab.fig5_curves().items()
        )
    if experiment == "fig6":
        rows = lab.fig6_curve()
        return format_table(
            ["sample_size", "precision", "recall", "fp_rate"],
            [[r["sample_size"], r["precision"], r["recall"], r["fpr"]]
             for r in rows],
        )
    if experiment == "table8":
        timing = lab.table8_timing()
        return format_table(
            ["stage", "median_ms", "average_ms", "std_ms"],
            [[stage, s["median"], s["average"], s["std"]]
             for stage, s in timing.items()],
        )
    if experiment == "table9":
        rows = lab.table9_target_id()
        return format_table(
            ["targets", "identified", "unknown", "missed", "success_rate"],
            [[name, r["identified"], r["unknown"], r["missed"],
              r["success_rate"]] for name, r in rows.items()],
        )
    if experiment == "table10":
        rows = lab.table10_rows()
        return format_table(
            ["technique", "fpr", "precision", "recall", "accuracy"],
            [[r["technique"], r["fpr"], r["precision"], r["recall"],
              r["accuracy"]] for r in rows],
        )
    if experiment == "sec6d":
        result = lab.sec6d_fp_filtering()
        return format_table(
            ["metric", "value"],
            [["false positives", result["false_positives"]],
             ["confirmed legitimate", result["breakdown"]["legitimate"]],
             ["suspicious", result["breakdown"]["suspicious"]],
             ["identified as phish", result["breakdown"]["phish"]],
             ["fpr before", result["fpr_before"]],
             ["fpr after", result["fpr_after"]]],
        )
    if experiment == "sec7-ip":
        result = lab.sec7_ip_recall()
        return format_table(
            ["metric", "recall"],
            [["ip-based phish", result["ip_recall"]],
             ["global", result["global_recall"]]],
        )
    if experiment == "sec7-evasion":
        results = lab.sec7_evasion()
        return format_table(
            ["technique", "detection recall"],
            [[technique, recall] for technique, recall in results.items()],
        )
    if experiment == "ext-blacklist":
        result = lab.sec8_blacklist_exposure()
        return format_table(
            ["metric", "value"], [[k, v] for k, v in result.items()]
        )
    if experiment == "ext-model":
        result = lab.model_choice_ablation()
        return format_table(
            ["model", "auc"], [[k, v] for k, v in result.items()]
        )
    if experiment == "ext-drift":
        result = lab.temporal_drift()
        return format_table(
            ["metric", "value"],
            [["training-era recall", result["baseline_recall"]],
             ["drifted recall", result["drifted_recall"]],
             ["skipped urls (unparsable)", result["skipped_urls"]]],
        )
    if experiment == "ext-robustness":
        curve = format_table(
            ["fault_rate", "pages", "completed", "quarantined",
             "retried", "faults", "accuracy"],
            [[r["fault_rate"], r["pages"], r["completed"], r["quarantined"],
              r["retried_pages"], r["faults_injected"], r["accuracy"]]
             for r in lab.robustness_curve()],
        )
        outage = lab.robustness_search_outage()
        outage_table = format_table(
            ["metric", "value"], [[k, v] for k, v in outage.items()]
        )
        partial = lab.robustness_degraded_content()
        partial_table = format_table(
            ["metric", "value"], [[k, v] for k, v in partial.items()]
        )
        return (
            "transient faults + retries:\n" + curve
            + "\n\nsearch engine forced down (circuit breaker):\n"
            + outage_table
            + "\n\npartial content (truncation, lost screenshots):\n"
            + partial_table
        )
    if experiment == "ext-throughput":
        rows = lab.throughput_benchmark()
        return format_table(
            ["mode", "workers", "warm_cache", "pages", "pages_per_sec",
             "speedup", "verdicts_match"],
            [[r["mode"], r["workers"], r["warm_cache"], r["pages"],
              r["pages_per_sec"], r["speedup"], r["verdicts_match"]]
             for r in rows],
        )
    if experiment == "ext-training":
        result = lab.training_benchmark()
        fit = result["fit"]
        fit_table = format_table(
            ["metric", "value"],
            [[name, fit[name]] for name in (
                "n_samples", "n_features", "n_stages", "fit_seconds",
                "prep_seconds", "stages_per_sec", "nodes_built",
                "split_evaluations",
            )],
        )
        cv = result["cross_validation"]
        cv_table = format_table(
            ["metric", "value"],
            [["folds", cv["n_splits"]],
             ["workers", cv["workers"]],
             ["serial_seconds", cv["serial_seconds"]],
             ["parallel_seconds", cv["parallel_seconds"]],
             ["speedup", cv["speedup"]],
             ["scores_identical", cv["scores_identical"]]],
        )
        return (
            "ensemble fit on the training matrix:\n" + fit_table
            + "\n\nfold-parallel cross-validation:\n" + cv_table
        )
    raise ValueError(f"unknown experiment {experiment!r}")


def _cmd_list(_args) -> int:
    for experiment_id, description in _EXPERIMENTS.items():
        print(f"{experiment_id:14s} {description}")
    return 0


def _cmd_experiment(args) -> int:
    if args.id not in _EXPERIMENTS:
        print(
            f"unknown experiment {args.id!r}; try 'list-experiments'",
            file=sys.stderr,
        )
        return 2
    lab = _build_lab(args)
    print(_run_experiment(lab, args.id))
    return 0


def _cmd_analyze(args) -> int:
    from repro.evaluation.analysis import (
        feature_group_importances,
        misclassified_legitimate,
        top_features,
    )

    lab = _build_lab(args)
    detector = lab.detector("fall")

    print("feature-group importances:")
    groups = feature_group_importances(detector)
    print(format_table(
        ["group", "importance"], [[g, v] for g, v in groups.items()]
    ))

    print("\ntop individual features:")
    print(format_table(
        ["feature", "importance"], list(top_features(detector, 10))
    ))

    report = misclassified_legitimate(
        detector, lab.dataset("english"), features=lab.features("english")
    )
    print(f"\nfalse positives on the English test set: {report.fp_count} "
          f"(fpr {report.fpr:.4f})")
    print(format_table(
        ["page kind", "count"],
        [[kind, count] for kind, count in report.kind_counts.most_common()],
    ))
    print(f"share with term-extraction pathologies: "
          f"{report.term_issue_share:.0%}")
    print(f"share parked/near-empty: {report.degenerate_share:.0%}")

    if args.trace_out or args.metrics_out:
        print(
            "\nrunning observed batch (tracing + metrics)...",
            file=sys.stderr,
        )
        run = lab.observed_run(
            workers=getattr(args, "workers", 0) or None,
            trace_out=args.trace_out,
            metrics_out=args.metrics_out,
        )
        print(
            f"\nobserved run: {int(run['analyzed'])} pages analyzed, "
            f"{run['span_count']} spans recorded"
        )
        for key in ("trace_out", "metrics_out"):
            if key in run:
                print(f"wrote {run[key]}", file=sys.stderr)
    return 0


def _cmd_obs_report(args) -> int:
    from repro.obs import RunReport

    spans = args.spans if args.spans else None
    metrics = args.metrics if args.metrics else None
    quality = getattr(args, "quality", None) or None
    if spans is None and metrics is None and quality is None:
        print(
            "error: pass --spans, --metrics and/or --quality artifact "
            "paths",
            file=sys.stderr,
        )
        return 2
    try:
        report = RunReport.from_artifacts(
            spans_path=spans, metrics_path=metrics, quality_path=quality
        )
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(report.render())
    return 0


def _cmd_obs_quality(args) -> int:
    import json
    from pathlib import Path

    from repro.obs import render_quality

    if args.run:
        lab = _build_lab(args)
        print(
            "running quality drift scenario (healthy stream, then a "
            "drifted campaign wave)...",
            file=sys.stderr,
        )
        result = lab.quality_drift_scenario()
        artifact = result["artifact"]
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            monitor = result["monitor"]
            print(
                f"wrote {monitor.write_artifact(out / 'quality.json')}",
                file=sys.stderr,
            )
            print(
                f"wrote {monitor.write_flight(out / 'flight.jsonl')}",
                file=sys.stderr,
            )
        print(render_quality(artifact))
        if result["healthy_alerts"]:
            print(
                "error: the healthy phase raised alerts "
                f"({len(result['healthy_alerts'])})",
                file=sys.stderr,
            )
            return 1
    elif args.artifact:
        try:
            artifact = json.loads(
                Path(args.artifact).read_text(encoding="utf-8")
            )
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(render_quality(artifact))
    else:
        print(
            "error: pass --run or --artifact PATH", file=sys.stderr
        )
        return 2
    if args.expect_drift:
        firing = [
            alert
            for alert in artifact.get("alerts", [])
            if alert.get("kind") == "drift"
            and alert.get("state") == "firing"
        ]
        if not firing:
            print(
                "error: expected at least one firing drift alert",
                file=sys.stderr,
            )
            return 1
        print(
            f"{len(firing)} firing drift alert(s), as expected",
            file=sys.stderr,
        )
    return 0


def _cmd_demo(args) -> int:
    from repro.core.pipeline import KnowYourPhish
    from repro.core.target import TargetIdentifier

    lab = _build_lab(args)
    detector = lab.detector("fall")
    identifier = TargetIdentifier(lab.world.search, ocr=lab.ocr)
    pipeline = KnowYourPhish(detector, identifier)

    print("analyzing five phishing and two legitimate pages:\n")
    for page in list(lab.dataset("phishTest"))[:5]:
        verdict = pipeline.analyze(page.snapshot)
        print(f"  {page.url[:60]:60s} -> {verdict.verdict:10s}"
              f" target={verdict.top_target or '-'}")
    for page in list(lab.dataset("english"))[:2]:
        verdict = pipeline.analyze(page.snapshot)
        print(f"  {page.url[:60]:60s} -> {verdict.verdict}")
    return 0


def _cmd_serve_bench(args) -> int:
    import json

    lab = _build_lab(args)
    if args.triage:
        print(
            f"running tiered serving scenario ({args.overload}x overload, "
            f"{args.serve_workers} workers, {args.duration}s simulated)...",
            file=sys.stderr,
        )
        result = lab.serving_tiered_benchmark(
            workers=args.serve_workers,
            overload=args.overload,
            duration=args.duration,
            queue_limit=args.queue_limit,
        )
        if args.json:
            print(json.dumps(result, indent=2, sort_keys=True))
            return 0
        print(
            f"offered {result['requests']} requests "
            f"({result['offered_rps']:.0f} rps vs "
            f"{result['capacity_rps']:.0f} rps capacity)"
        )
        quality = result["quality"]
        rows = [
            ["tier0_share", f"{result['triage']['tier0_share']:.3f}"],
            ["escalation_rate",
             f"{result['triage']['corpus_escalation_rate']:.3f}"],
            ["untriaged_p50", f"{result['untriaged']['latency_p50']:.4f}s"],
            ["tiered_p50", f"{result['tiered']['latency_p50']:.4f}s"],
            ["p50_speedup", f"{result['p50_speedup']:.1f}x"],
            ["untriaged_rps",
             f"{result['untriaged']['throughput_rps']:.1f}"],
            ["tiered_rps", f"{result['tiered']['throughput_rps']:.1f}"],
            ["escalated_mismatches",
             result["escalated_verdict_mismatches"]],
            ["tiered_precision", f"{quality['tiered']['precision']:.3f}"],
            ["tiered_recall", f"{quality['tiered']['recall']:.3f}"],
        ]
        print(format_table(["metric", "value"], rows))
        ok = (
            result["escalated_verdict_mismatches"] == 0
            and result["tiered"]["throughput_rps"]
            > result["untriaged"]["throughput_rps"]
        )
        if not ok:
            print("error: triage ladder contract violated", file=sys.stderr)
            return 1
        return 0
    print(
        f"running serving scenario ({args.overload}x overload, "
        f"{args.serve_workers} workers, {args.duration}s simulated)...",
        file=sys.stderr,
    )
    result = lab.serving_benchmark(
        workers=args.serve_workers,
        overload=args.overload,
        duration=args.duration,
        budget=args.budget,
        queue_limit=args.queue_limit,
    )
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
        return 0
    report = result["report"]
    print(
        f"offered {result['requests']} requests "
        f"({result['offered_rps']:.0f} rps vs "
        f"{result['capacity_rps']:.0f} rps capacity)"
    )
    rows = [
        ["served", report["served"]],
        ["degraded", report["degraded"]],
        ["shed", report["shed"]],
        ["shed_rate", f"{report['shed_rate']:.3f}"],
        ["coalesced", report["coalesced"]],
        ["memo_hits", report["memo_hits"]],
        ["max_queue_depth",
         f"{report['max_queue_depth']}/{report['queue_limit']}"],
        ["latency_p50", f"{report['latency_p50']:.3f}s"],
        ["latency_p99", f"{report['latency_p99']:.3f}s"],
        ["breaker_opened", result["breaker"]["opened"]],
        ["verdict_mismatches", result["verdict_mismatches"]],
        ["budget_violations", result["budget_violations"]],
    ]
    for reason, count in report["shed_reasons"].items():
        rows.append([f"shed[{reason}]", count])
    print(format_table(["metric", "value"], rows))
    ok = (
        result["terminated"] == result["requests"]
        and result["verdict_mismatches"] == 0
        and result["budget_violations"] == 0
    )
    if not ok:
        print("error: serving contract violated", file=sys.stderr)
        return 1
    return 0


def _cmd_report(args) -> int:
    from repro.evaluation.report import compile_report

    try:
        text = compile_report(args.results_dir)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.out == "-":
        print(text)
    else:
        from pathlib import Path
        Path(args.out).write_text(text)
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Know Your Phish reproduction — experiment runner",
    )
    parser.add_argument(
        "--scale", type=float, default=0.05,
        help="corpus scale relative to the paper's Table V (default 0.05)",
    )
    parser.add_argument("--seed", type=int, default=7, help="world seed")
    parser.add_argument(
        "--estimators", type=int, default=100,
        help="boosting stages per trained model",
    )
    parser.add_argument(
        "--workers", type=int, default=0,
        help="worker threads for batch extraction/analysis "
             "(0 or 1 = serial; results are identical either way)",
    )
    parser.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=True,
        help="memoize per-snapshot feature work by content hash "
             "(--no-cache disables)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser(
        "list-experiments", help="list reproducible artefacts"
    ).set_defaults(func=_cmd_list)

    experiment = commands.add_parser(
        "experiment", help="run one paper experiment"
    )
    experiment.add_argument("id", help="experiment id (see list-experiments)")
    experiment.set_defaults(func=_cmd_experiment)

    analyze = commands.add_parser(
        "analyze", help="feature importances + FP attribution"
    )
    analyze.add_argument(
        "--trace-out", default=None, dest="trace_out", metavar="PATH",
        help="also run an observed batch and dump its span tree "
             "as JSON lines to PATH",
    )
    analyze.add_argument(
        "--metrics-out", default=None, dest="metrics_out", metavar="PATH",
        help="also run an observed batch and dump its metrics in "
             "Prometheus text format to PATH",
    )
    analyze.set_defaults(func=_cmd_analyze)

    commands.add_parser(
        "demo", help="end-to-end demonstration"
    ).set_defaults(func=_cmd_demo)

    serve_bench = commands.add_parser(
        "serve-bench",
        help="overload + chaos serving scenario in simulated time",
    )
    serve_bench.add_argument(
        "--serve-workers", type=int, default=4, dest="serve_workers",
        help="concurrent analysis workers in the serving engine",
    )
    serve_bench.add_argument(
        "--overload", type=float, default=3.0,
        help="offered load as a multiple of sustainable capacity",
    )
    serve_bench.add_argument(
        "--duration", type=float, default=2.0,
        help="simulated seconds of offered traffic",
    )
    serve_bench.add_argument(
        "--budget", type=float, default=1.2,
        help="per-request deadline budget in simulated seconds",
    )
    serve_bench.add_argument(
        "--queue-limit", type=int, default=32, dest="queue_limit",
        help="bounded admission queue size",
    )
    serve_bench.add_argument(
        "--triage", action="store_true",
        help="run the tiered scenario: URL-only tier-0 triage ladder "
             "vs the untriaged engine on the same workload",
    )
    serve_bench.add_argument(
        "--json", action="store_true",
        help="print the full result as JSON instead of a table",
    )
    serve_bench.set_defaults(func=_cmd_serve_bench)

    report = commands.add_parser(
        "report", help="compile benchmark artefacts into one Markdown report"
    )
    report.add_argument(
        "--results-dir", default="benchmarks/results",
        help="directory holding the benchmark artefacts",
    )
    report.add_argument(
        "--out", default="-", help="output file ('-' for stdout)",
    )
    report.set_defaults(func=_cmd_report)

    obs = commands.add_parser(
        "obs", help="observability artifact tools"
    )
    obs_commands = obs.add_subparsers(dest="obs_command", required=True)
    obs_report = obs_commands.add_parser(
        "report",
        help="render a run report from dumped span/metric artifacts",
    )
    obs_report.add_argument(
        "--spans", default=None, metavar="PATH",
        help="spans JSONL dump (from --trace-out)",
    )
    obs_report.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="Prometheus metrics dump (from --metrics-out)",
    )
    obs_report.add_argument(
        "--quality", default=None, metavar="PATH",
        help="quality-monitor artifact (quality.json)",
    )
    obs_report.set_defaults(func=_cmd_obs_report)
    obs_quality = obs_commands.add_parser(
        "quality",
        help="render a quality artifact, or run the drift scenario",
    )
    obs_quality.add_argument(
        "--artifact", default=None, metavar="PATH",
        help="render an existing quality.json artifact",
    )
    obs_quality.add_argument(
        "--run", action="store_true",
        help="run the deterministic drift scenario (healthy stream, "
             "then a drifted campaign wave) with monitors armed",
    )
    obs_quality.add_argument(
        "--out", default=None, metavar="DIR",
        help="with --run: directory receiving quality.json and "
             "flight.jsonl",
    )
    obs_quality.add_argument(
        "--expect-drift", action="store_true", dest="expect_drift",
        help="exit nonzero unless at least one drift alert fired",
    )
    obs_quality.set_defaults(func=_cmd_obs_quality)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code.

    Navigation and resilience failures surface as a one-line error on
    stderr and a nonzero exit code — never a traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PageNotFound, RedirectLoopError) as exc:
        print(f"error: navigation failed: {exc}", file=sys.stderr)
        return 1
    except (FetchError, DeadlineExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
