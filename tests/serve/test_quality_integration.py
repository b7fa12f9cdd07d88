"""Integration tests: the quality monitor tapped into the serving engine.

The monitor is a read-only sidecar: a monitored run's responses and
span/metric dumps must stay byte-identical to an unmonitored run's,
while the monitor's own artifact captures the taps (responses, memo
lookups, tier-0 escalation outcomes) and raises deterministic alerts.
"""

import pytest

from repro.obs import MetricsRegistry
from repro.obs.export import metrics_to_prometheus, spans_to_jsonl
from repro.obs.quality.monitor import QualityMonitor
from repro.obs.quality.slo import BurnRateWindow, SloObjective
from repro.obs.report import RunReport
from repro.obs.trace import Tracer
from repro.resilience.clock import ManualClock
from repro.serve import (
    AdmissionController,
    ServingEngine,
    TokenBucket,
    build_requests,
)
from repro.serve.loadgen import _RawArrival
from repro.serve.request import TIER_FULL, TIER_TRIAGE
from repro.serve.triage import TriageDecision

from tests.serve.test_engine import StubBrowser, StubPipeline


class StubTriage:
    """Canned tier-0 decisions keyed by URL; unknown URLs escalate."""

    def __init__(self, decisions=None):
        self.decisions = dict(decisions or {})

    def decide(self, url):
        return self.decisions.get(url, TriageDecision("escalate", 0.6))


def _arrivals(*specs):
    return [_RawArrival(time=t, url=u) for t, u in specs]


def _engine(clock=None, browser=None, pipeline=None, **kwargs):
    clock = clock or ManualClock()
    browser = browser or StubBrowser(clock)
    pipeline = pipeline or StubPipeline()
    admission = AdmissionController(
        TokenBucket(rate=100.0, capacity=100.0), queue_limit=8
    )
    engine = ServingEngine(
        pipeline, browser, admission,
        clock=clock, workers=2, analysis_cost=0.1, **kwargs,
    )
    return engine


def _monitor(**overrides):
    base = dict(
        objectives=(
            SloObjective("latency", "latency", budget=0.05, threshold=0.01),
            SloObjective("degraded", "degraded_rate", budget=0.5),
            SloObjective("escalation", "escalation_mismatch", budget=0.9),
            SloObjective("memo", "cache_hit", budget=0.999, store="memo"),
        ),
        windows=(BurnRateWindow("fast", long_s=1.0, short_s=0.2, factor=2.0),),
        clock=ManualClock(),
    )
    base.update(overrides)
    return QualityMonitor(**base)


def _workload(n=8):
    return build_requests(
        _arrivals(*[(0.05 * i, f"http://u{i}.com/") for i in range(n)]),
        budget=2.0,
    )


class TestMonitoredRunsAreByteIdentical:
    def test_responses_and_dumps_match_unmonitored_run(self):
        def run(quality):
            tracer, metrics = Tracer(clock=ManualClock()), MetricsRegistry()
            engine = _engine(tracer=tracer, metrics=metrics, quality=quality)
            report = engine.run(_workload())
            return report, spans_to_jsonl(tracer), metrics_to_prometheus(metrics)

        base_report, base_spans, base_metrics = run(None)
        mon_report, mon_spans, mon_metrics = run(_monitor())
        # ServeResponse is a dataclass: == compares every field.
        assert mon_report.responses == base_report.responses
        assert mon_spans == base_spans
        assert mon_metrics == base_metrics

    def test_monitor_observes_every_terminal_response(self):
        monitor = _monitor()
        engine = _engine(quality=monitor)
        report = engine.run(_workload())
        artifact = monitor.artifact()
        assert artifact["counts"]["serve"] == report.total
        serve_events = [
            e for e in monitor.recorder.snapshot() if e["kind"] == "serve"
        ]
        assert len(serve_events) == report.total
        assert all(e["tier"] == TIER_FULL for e in serve_events)

    def test_unmeetable_latency_objective_fires(self):
        # analysis_cost 0.1 vs threshold 0.01: every served response is
        # budget burn, so the alert must fire during the run.
        monitor = _monitor()
        engine = _engine(quality=monitor)
        engine.run(_workload(12))
        fired = [
            (a["objective"], a["state"]) for a in monitor.firing_alerts
        ]
        assert ("latency", "firing") in fired
        assert monitor.alert_dumps, "firing alert snapshots the recorder"


class TestCacheAndEscalationTaps:
    def test_memo_lookups_feed_the_cache_stream(self):
        clock = ManualClock()
        # Two URLs serving identical content: the second analysis is a
        # content-hash memo hit.
        browser = StubBrowser(
            clock, content={"http://a.com/": "same", "http://b.com/": "same"}
        )
        monitor = _monitor()
        engine = _engine(clock=clock, browser=browser, quality=monitor)
        engine.run(build_requests(
            _arrivals((0.0, "http://a.com/"), (1.0, "http://b.com/")),
            budget=2.0,
        ))
        artifact = monitor.artifact()
        assert artifact["counts"]["cache"] == 2
        memo_burn = next(
            row for row in artifact["slo"]["burn"] if row["objective"] == "memo"
        )
        assert memo_burn["events_long"] >= 1

    def test_escalation_mismatch_is_tapped(self):
        # Tier 0 leans phish (score 0.9) but the full pipeline says
        # legitimate: that disagreement is exactly one mismatch event.
        triage = StubTriage({
            "http://esc.com/": TriageDecision("escalate", 0.9),
            "http://ok.com/": TriageDecision("legitimate", 0.05),
        })
        monitor = _monitor()
        engine = _engine(triage=triage, quality=monitor)
        report = engine.run(build_requests(
            _arrivals((0.0, "http://esc.com/"), (0.1, "http://ok.com/")),
            budget=2.0,
        ))
        tiers = {r.url: r.tier for r in report.responses}
        assert tiers["http://esc.com/"] == TIER_FULL
        assert tiers["http://ok.com/"] == TIER_TRIAGE
        artifact = monitor.artifact()
        assert artifact["counts"]["escalation"] == 1
        assert artifact["counts"]["escalation_mismatch"] == 1

    def test_agreeing_escalation_is_not_a_mismatch(self):
        # Tier 0 leans legitimate-ish (score 0.4) and the pipeline
        # agrees: the escalation is tapped but carries no mismatch.
        triage = StubTriage({
            "http://esc.com/": TriageDecision("escalate", 0.4),
        })
        monitor = _monitor()
        engine = _engine(triage=triage, quality=monitor)
        engine.run(build_requests(_arrivals((0.0, "http://esc.com/")),
                                  budget=2.0))
        artifact = monitor.artifact()
        assert artifact["counts"]["escalation"] == 1
        assert "escalation_mismatch" not in artifact["counts"]


class TestRunReportFromArtifacts:
    @pytest.fixture()
    def artifacts(self, tmp_path):
        from repro.obs.export import (
            write_metrics_prometheus,
            write_spans_jsonl,
        )

        tracer, metrics = Tracer(clock=ManualClock()), MetricsRegistry()
        monitor = _monitor()
        triage = StubTriage({
            "http://u0.com/": TriageDecision("legitimate", 0.02),
            "http://u1.com/": TriageDecision("phish", 0.98),
        })
        engine = _engine(
            tracer=tracer, metrics=metrics, quality=monitor, triage=triage,
        )
        engine.run(_workload(6))
        return {
            "spans": write_spans_jsonl(tracer, tmp_path / "spans.jsonl"),
            "metrics": write_metrics_prometheus(
                metrics, tmp_path / "metrics.prom"
            ),
            "quality": monitor.write_artifact(tmp_path / "quality.json"),
        }

    def test_tier_rows_reconstruct_counts_and_percentiles(self, artifacts):
        report = RunReport.from_artifacts(
            spans_path=artifacts["spans"], metrics_path=artifacts["metrics"]
        )
        rows = {row["tier"]: row for row in report.tier_rows()}
        assert rows[TIER_TRIAGE]["count"] == 2
        assert rows[TIER_FULL]["count"] == 4
        # Full-tier latency is analysis-dominated (~0.1 s); tier 0 is
        # orders of magnitude cheaper.
        assert rows[TIER_FULL]["latency_p50"] > rows[TIER_TRIAGE]["latency_p50"]

    def test_triage_actions_reconstruct(self, artifacts):
        report = RunReport.from_artifacts(metrics_path=artifacts["metrics"])
        actions = report.triage_actions()
        assert actions["legitimate"] == 1
        assert actions["phish"] == 1
        assert actions["escalate"] == 4

    def test_memo_snapshot_comes_from_spans(self, artifacts):
        report = RunReport.from_artifacts(spans_path=artifacts["spans"])
        # One end-of-run snapshot: the four escalated URLs each missed
        # the memo once and filled it.
        assert report.cache_snapshots() == [{
            "cache": "memo", "size": 4, "hits": 0, "misses": 4,
            "evictions": 0,
        }]

    def test_render_includes_quality_sections(self, artifacts):
        report = RunReport.from_artifacts(
            spans_path=artifacts["spans"],
            metrics_path=artifacts["metrics"],
            quality_path=artifacts["quality"],
        )
        text = report.render()
        assert "Serving tiers" in text
        assert "Triage" in text
        assert "Quality event streams" in text
        assert "SLO burn rates" in text
        assert "Flight recorder" in text
