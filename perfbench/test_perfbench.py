"""Fast tests of the benchmark itself, on a tiny world.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from measure import percentile  # noqa: E402
from spans import SpanRecorder, instrument, restore  # noqa: E402

#: A world small enough to set up in about a second.
TINY = dict(
    seed=7, leg_train=60, phish_train=30, phish_test=30, phish_brand=5,
    english_test=100, other_language_test=20,
)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "CORPUS", TINY)
    monkeypatch.setattr(run, "SETUPS", 1)
    # A p99 then needs 100 samples, not 1000: fewer passes.
    monkeypatch.setattr(measure, "MIN_BEYOND", 1)


@pytest.fixture(scope="module")
def tiny_setup():
    return workloads.build_setup(TINY)


def _run(capsys, *args):
    code = run.main(["--seed", "3", "--seconds", "0", *args])
    out = capsys.readouterr().out.splitlines()
    return code, out[:-1], json.loads(out[-1])


@pytest.mark.parametrize("workload", ["browse", "feed", "serve"])
def test_every_end_to_end_metric_printed_with_unit(tiny, capsys, workload):
    code, lines, result = _run(capsys, "--workload", workload, "--trace", "0")
    assert code == 0 and result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, (unit, _better) in run.END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert any(
            re.fullmatch(rf"  {re.escape(name)} = \S+ {re.escape(unit)}", line)
            for line in lines
        ), name
    record = json.loads(lines[0].split(": ", 1)[1])
    assert record["seed"] == 3
    samples = record["samples"]
    # One sample per timed operation and repeat, none copied.
    assert samples["verdict_ms_p99"] == (
        record["passes"] * samples["verdict_ms_p50"]
    ) >= 100
    # The tail is printed as a diagnostic, outside the gated metrics.
    assert record["diagnostics"]["verdict_ms_p99"] > 0
    assert re.fullmatch(r"[0-9a-f]{16}", record["verdict_digest"])


def test_outcome_check_failure_still_prints_result(tiny, monkeypatch, capsys):
    original = workloads.Feed._pass

    def duplicated(self, recorder, limit):
        result = original(self, recorder, limit)
        result.errors.append("feed URL http://x/ submitted 1 times, ended 2")
        return result

    monkeypatch.setattr(workloads.Feed, "_pass", duplicated)
    code = run.main(["--seed", "3", "--seconds", "0", "--workload", "feed"])
    captured = capsys.readouterr()
    result = json.loads(captured.out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0
    assert "CHECK FAILED: feed URL http://x/" in captured.err


def test_benchmark_json_names_every_metric():
    bench = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    assert {
        m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]
    } == run.END_TO_END
    assert {
        m["name"]: m["unit"] for m in bench["per_layer"]
    } == run.per_layer_names()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def _outcomes(n):
    return [workloads.Outcome(("u",), ("phish", 0.9, ("t",)), 1, "t")] * n


@pytest.mark.parametrize("cls, size", [
    (workloads.Feed, workloads.FEED_BATCH),
    (workloads.Serve, workloads.SERVE_WINDOW),
])
def test_batch_workloads_time_each_call(tiny_setup, cls, size):
    workload = cls(tiny_setup, seed=5)
    result = workload.run_pass()
    # One timed call per batch of submissions or window of requests.
    assert len(result.op_ms) == workload.timed_ops == math.ceil(
        len(workload.urls) / size
    )
    assert len(result.outcomes) == len(workload.urls)


def test_latency_samples_are_operations():
    first = workloads.PassResult(_outcomes(600), 2.0, [1.0, 3.0] * 300)
    second = workloads.PassResult(_outcomes(600), 2.0, [3.0, 1.0] * 300)
    samples = {}
    metrics = run.end_to_end([first, second], [1.0], samples)
    # Each operation at its fastest repeat for p50 and the speed...
    assert metrics["verdict_ms_p50"] == 1.0
    assert metrics["verdicts_per_s"] == 1000.0
    # ... and every repeat pooled for the p99.
    assert run.tail_ms([first, second], samples) == 3.0
    assert samples["verdict_ms_p50"] == 600
    assert samples["verdict_ms_p99"] == 1200
    # A p99 needs 1000 pooled operation times.
    assert run.passes_needed(SimpleNamespace(timed_ops=415)) == 3


def test_percentile_refuses_thin_tails():
    assert percentile(list(range(999)), 0.99) is None
    assert percentile(list(range(1000)), 0.99) == 989
    assert percentile(list(range(19)), 0.50) is None
    assert percentile(list(range(20)), 0.50) == 9
    assert percentile([], 0.50) is None


@pytest.mark.parametrize("workload", ["feed", "serve"])
def test_traced_run_takes_the_untraced_route(
    tiny, monkeypatch, capsys, workload
):
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    code, _lines, result = _run(capsys, "--workload", workload, "--trace", "1")
    # correct covers the traced-vs-untraced verdict comparison.
    assert code == 0 and result["correct"] is True
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert set(metrics) == set(run.per_layer_names())
    if workload == "feed":
        assert metrics["core.features.extract_batch.calls"] > 0
        assert metrics["core.features.extract.calls"] == 0
        assert metrics["resilience.batch.quarantined"] > 0
    else:
        assert metrics["core.pipeline.analyze_batch.calls"] > 0
        assert metrics["core.pipeline.analyze.calls"] == 0
        assert metrics["serve.triage.decide.calls"] > 0


@pytest.mark.parametrize("cls", [workloads.Feed, workloads.Serve])
def test_tracing_leaves_verdicts_unchanged(tiny_setup, cls):
    workload = cls(tiny_setup, seed=5)
    plain = workload.run_pass(limit=200)
    recorder = SpanRecorder()
    traced = workload.run_pass(recorder, limit=200)
    assert recorder.spans
    assert [(o.key, o.verdict) for o in traced.outcomes] == [
        (o.key, o.verdict) for o in plain.outcomes
    ]
    # Page loads are tied to the URL they load.
    loads = [span for span in recorder.spans
             if span[0] == "resilience.browser.load"]
    assert loads and all("://" in span[4] for span in loads)
    # Shared objects are unwrapped again after a traced pass.
    assert "predict_proba" not in vars(tiny_setup.detector.model)
    assert "query" not in vars(tiny_setup.world.search)
    assert "decide" not in vars(tiny_setup.triage)


def test_browse_session_shares():
    class World:
        feeds = {}

        def dataset(self, name):
            return DATASETS[name]

    class Page:
        def __init__(self, url, label):
            self.url, self.label, self.target_mld = url, label, None

    legit = [Page(f"http://l{i}.com/", 0) for i in range(600)]
    phish = [Page(f"http://p{i}.com/", 1) for i in range(12)]
    DATASETS = {language: legit[i::6] for i, language in
                enumerate(workloads.LANGUAGES)}
    DATASETS["phishTest"] = phish
    setup = workloads.Setup(SimpleNamespace(world=World()), None, None)
    World.feeds = {"f": [type("E", (), {"url": "http://dead.com/",
                                        "status": "unavailable"})()]}
    session = workloads.Browse(setup, seed=1).session
    distinct = len(legit) + len(phish[::workloads.BROWSE_PHISH_EVERY])
    revisits = len(session) - distinct - session.count("http://dead.com/")
    assert 0.2 < revisits / len(session) < 0.3
    assert session == workloads.Browse(setup, seed=1).session
    assert session != workloads.Browse(setup, seed=2).session


def test_self_time_subtracts_children():
    recorder = SpanRecorder()

    class Inner:
        def work(self):
            return sum(range(20000))

    class Outer:
        def __init__(self):
            self.inner = Inner()

        def work(self):
            return self.inner.work() + self.inner.work()

    outer = Outer()
    undo = instrument(recorder, [(outer, "work", "outer"),
                                 (outer.inner, "work", "inner")])
    outer.work()
    restore(undo)
    summary = recorder.summary()
    assert summary["outer"]["calls"] == 1 and summary["inner"]["calls"] == 2
    assert summary["outer"]["self_ms"] == pytest.approx(
        summary["outer"]["busy_ms"] - summary["inner"]["busy_ms"]
    )
    assert "work" not in vars(outer)
