"""Human-readable run reports reconstructed from dumped artifacts.

:class:`RunReport` is the consumer side of the observability layer: it
takes a spans JSONL dump, a Prometheus metrics dump and optionally a
quality-monitor artifact — *artifacts only*, no access to the process
that produced them — and reconstructs per-stage timing (``extract``,
``classify``, ``target.identify``), verdict tallies, cache hit rates,
retry/breaker activity, the tiered serving picture (per-tier counts
and latency percentiles, triage actions, end-of-run cache counters) and
the quality block (drift statuses, SLO burn rates, alerts) as aligned
ASCII tables.  This is what the
``repro obs report`` CLI subcommand renders; :func:`render_quality`
is the shared formatter ``repro obs quality`` reuses for a quality
artifact on its own.

The formatter is intentionally self-contained (not imported from
:mod:`repro.evaluation.reporting`) because the evaluation package
imports this one; sharing code would create an import cycle.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.obs.export import parse_prometheus, read_spans_jsonl
from repro.obs.quantiles import histogram_quantile


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) < 0.01:
            return f"{value:.5f}"
        return f"{value:.3f}"
    return str(value)


def _table(headers: list[str], rows: list[list[Any]]) -> str:
    str_rows = [[_fmt(value) for value in row] for row in rows]
    widths = [
        max(len(header), *(len(row[i]) for i in [index] for row in str_rows))
        if str_rows
        else len(header)
        for index, header in enumerate(headers)
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


class RunReport:
    """A pipeline run reconstructed from span + metric artifacts."""

    def __init__(
        self,
        spans: list[dict[str, Any]],
        metrics: dict[str, Any],
        quality: dict[str, Any] | None = None,
    ) -> None:
        self.spans = spans
        self.metrics = metrics
        self.quality = quality

    @classmethod
    def from_artifacts(
        cls,
        spans_path: str | Path | None = None,
        metrics_path: str | Path | None = None,
        quality_path: str | Path | None = None,
    ) -> "RunReport":
        """Build a report from dump files written by the exporters.

        ``quality_path`` optionally names a quality-monitor artifact
        (:meth:`repro.obs.quality.QualityMonitor.write_artifact`
        output) whose drift/SLO/alert state then renders as an extra
        section.
        """
        spans: list[dict[str, Any]] = []
        metrics: dict[str, Any] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        quality: dict[str, Any] | None = None
        if spans_path is not None:
            spans = read_spans_jsonl(Path(spans_path))
        if metrics_path is not None:
            metrics = parse_prometheus(Path(metrics_path))
        if quality_path is not None:
            quality = json.loads(
                Path(quality_path).read_text(encoding="utf-8")
            )
        return cls(spans, metrics, quality)

    # ------------------------------------------------------------------
    def stage_timing(self) -> list[dict[str, Any]]:
        """Spans aggregated by name: count, total/mean/max seconds."""
        agg: dict[str, dict[str, Any]] = {}
        for span in self.spans:
            entry = agg.setdefault(
                span["name"], {"count": 0, "total": 0.0, "max": 0.0}
            )
            duration = float(span["end"]) - float(span["start"])
            entry["count"] += 1
            entry["total"] += duration
            entry["max"] = max(entry["max"], duration)
        return [
            {
                "name": name,
                "count": entry["count"],
                "total_s": entry["total"],
                "mean_s": entry["total"] / entry["count"],
                "max_s": entry["max"],
            }
            for name, entry in sorted(agg.items())
        ]

    def _counter_series(self, name: str) -> list[dict[str, Any]]:
        return self.metrics.get("counters", {}).get(name, [])

    def _counter_total(self, name: str) -> float:
        return sum(e["value"] for e in self._counter_series(name))

    def verdict_tallies(self) -> dict[str, float]:
        """Verdict counts by label, plus the ``degraded`` tally."""
        tallies = {
            entry["labels"].get("verdict", ""): entry["value"]
            for entry in self._counter_series("verdicts_total")
        }
        degraded = self._counter_total("verdicts_degraded_total")
        if degraded:
            tallies["degraded"] = degraded
        return tallies

    def cache_rates(self) -> list[dict[str, Any]]:
        """Per-store cache hits/misses/evictions and hit rate."""
        stores: dict[str, dict[str, float]] = {}
        for metric, field in (
            ("cache_hits_total", "hits"),
            ("cache_misses_total", "misses"),
            ("cache_evictions_total", "evictions"),
        ):
            for entry in self._counter_series(metric):
                store = entry["labels"].get("store", "")
                stores.setdefault(
                    store, {"hits": 0.0, "misses": 0.0, "evictions": 0.0}
                )[field] = entry["value"]
        rows = []
        for store in sorted(stores):
            data = stores[store]
            lookups = data["hits"] + data["misses"]
            rows.append(
                {
                    "store": store,
                    "hits": data["hits"],
                    "misses": data["misses"],
                    "evictions": data["evictions"],
                    "hit_rate": data["hits"] / lookups if lookups else 0.0,
                }
            )
        return rows

    def resilience_counts(self) -> dict[str, float]:
        """Navigation, retry and breaker-transition totals."""
        counts = {
            "loads": self._counter_total("browse_loads_total"),
            "redirects": self._counter_total("browse_redirects_total"),
            "retries": self._counter_total("browse_retries_total"),
            "breaker_opened": sum(
                entry["value"]
                for entry in self._counter_series("breaker_transitions_total")
                if entry["labels"].get("to") == "open"
            ),
            "breaker_transitions": self._counter_total(
                "breaker_transitions_total"
            ),
        }
        return counts

    # -- tiered serving ------------------------------------------------
    def tier_rows(self) -> list[dict[str, Any]]:
        """Per-tier response counts and latency percentiles.

        Counts come from the ``serve_tier_total`` counter; p50/p99 are
        interpolated from the ``serve_tier_latency_seconds`` histogram
        buckets via the shared :func:`histogram_quantile` — the dump
        holds bucket counts, not raw samples, so the percentiles are
        bucket-resolution estimates rather than nearest-rank exacts.
        """
        counts = {
            entry["labels"].get("tier", ""): entry["value"]
            for entry in self._counter_series("serve_tier_total")
        }
        latencies = {
            entry["labels"].get("tier", ""): entry
            for entry in self.metrics.get("histograms", {}).get(
                "serve_tier_latency_seconds", []
            )
        }
        rows = []
        for tier in sorted(counts):
            histo = latencies.get(tier)
            p50 = p99 = 0.0
            if histo is not None:
                p50 = histogram_quantile(
                    histo["buckets"], histo["counts"], 0.50
                )
                p99 = histogram_quantile(
                    histo["buckets"], histo["counts"], 0.99
                )
            rows.append(
                {
                    "tier": tier,
                    "count": counts[tier],
                    "latency_p50": p50,
                    "latency_p99": p99,
                }
            )
        return rows

    def triage_actions(self) -> dict[str, float]:
        """Tier-0 triage decisions by action, key-sorted."""
        return dict(
            sorted(
                (entry["labels"].get("action", ""), entry["value"])
                for entry in self._counter_series("serve_triage_total")
            )
        )

    def cache_snapshots(self) -> list[dict[str, Any]]:
        """End-of-run cache counters from the ``cache.snapshot`` spans."""
        rows = []
        for span in self.spans:
            if span["name"] != "cache.snapshot":
                continue
            attrs = span.get("attrs", {})
            rows.append(
                {
                    "cache": attrs.get("cache", ""),
                    "size": attrs.get("size", 0),
                    "hits": attrs.get("hits", 0),
                    "misses": attrs.get("misses", 0),
                    "evictions": attrs.get("evictions", 0),
                }
            )
        rows.sort(key=lambda row: row["cache"])
        return rows

    # ------------------------------------------------------------------
    def render(self) -> str:
        """The full report as aligned ASCII sections."""
        sections: list[str] = []

        timing = self.stage_timing()
        if timing:
            rows = [
                [t["name"], t["count"], t["total_s"], t["mean_s"], t["max_s"]]
                for t in timing
            ]
            sections.append(
                "Per-stage timing (from spans)\n"
                + _table(
                    ["span", "count", "total s", "mean s", "max s"], rows
                )
            )

        tallies = self.verdict_tallies()
        if tallies:
            rows = [
                [verdict, int(count)]
                for verdict, count in sorted(tallies.items())
            ]
            sections.append(
                "Verdicts\n" + _table(["verdict", "count"], rows)
            )

        caches = self.cache_rates()
        if caches:
            rows = [
                [
                    c["store"],
                    int(c["hits"]),
                    int(c["misses"]),
                    int(c["evictions"]),
                    c["hit_rate"],
                ]
                for c in caches
            ]
            sections.append(
                "Caches\n"
                + _table(
                    ["store", "hits", "misses", "evictions", "hit rate"],
                    rows,
                )
            )

        tiers = self.tier_rows()
        if tiers:
            rows = [
                [
                    t["tier"],
                    int(t["count"]),
                    t["latency_p50"],
                    t["latency_p99"],
                ]
                for t in tiers
            ]
            sections.append(
                "Serving tiers\n"
                + _table(["tier", "count", "p50 s", "p99 s"], rows)
            )

        triage = self.triage_actions()
        if triage:
            rows = [[action, int(count)] for action, count in triage.items()]
            sections.append(
                "Triage\n" + _table(["action", "count"], rows)
            )

        snapshots = self.cache_snapshots()
        if snapshots:
            rows = [
                [
                    s["cache"],
                    int(s["size"]),
                    int(s["hits"]),
                    int(s["misses"]),
                    int(s["evictions"]),
                ]
                for s in snapshots
            ]
            sections.append(
                "Cache snapshots\n"
                + _table(
                    ["cache", "size", "hits", "misses", "evictions"],
                    rows,
                )
            )

        resilience = self.resilience_counts()
        if any(resilience.values()):
            rows = [[key, int(val)] for key, val in sorted(resilience.items())]
            sections.append(
                "Resilience\n" + _table(["counter", "count"], rows)
            )

        if self.quality is not None:
            sections.append(render_quality(self.quality))

        if not sections:
            return "(no observability data in artifacts)"
        return "\n\n".join(sections)


def render_quality(artifact: dict[str, Any]) -> str:
    """Render a quality-monitor artifact as aligned ASCII sections.

    ``artifact`` is the JSON payload written by
    :meth:`repro.obs.quality.QualityMonitor.write_artifact`: event
    counts, drift statuses, SLO burn rates, the alert log and the
    flight-recorder footprint.  Shared by the run report's quality
    section and the ``repro obs quality`` subcommand, so both views
    of the same artifact always agree.
    """
    sections: list[str] = []

    counts = artifact.get("counts") or {}
    if counts:
        rows = [[stream, int(count)] for stream, count in counts.items()]
        sections.append(
            "Quality event streams\n" + _table(["stream", "events"], rows)
        )

    drift = artifact.get("drift") or {}
    signals = drift.get("signals") or []
    if signals:
        rows = [
            [
                s["signal"],
                int(s["count"]),
                s["hellinger"],
                s["psi"],
                "DRIFTED" if s["drifted"] else "ok",
            ]
            for s in signals
        ]
        thresholds = drift.get("thresholds", {})
        sections.append(
            "Feature drift (hellinger >= "
            + _fmt(thresholds.get("hellinger", 0.0))
            + " or psi >= "
            + _fmt(thresholds.get("psi", 0.0))
            + ")\n"
            + _table(
                ["signal", "window n", "hellinger", "psi", "status"], rows
            )
        )

    slo = artifact.get("slo") or {}
    burn = slo.get("burn") or []
    if burn:
        rows = [
            [
                b["objective"],
                b["window"],
                b["burn_long"],
                b["burn_short"],
                b["factor"],
                "FIRING" if b["active"] else "ok",
            ]
            for b in burn
        ]
        sections.append(
            "SLO burn rates\n"
            + _table(
                ["objective", "window", "long", "short", "factor",
                 "state"],
                rows,
            )
        )

    alerts = artifact.get("alerts") or []
    if alerts:
        rows = []
        for alert in alerts:
            subject = (
                alert.get("objective", "") + "/" + alert.get("window", "")
                if alert.get("kind") == "slo"
                else alert.get("signal", "")
            )
            rows.append(
                [alert.get("time", 0.0), alert.get("kind", ""), subject,
                 alert.get("state", "")]
            )
        sections.append(
            "Alert log\n"
            + _table(["time", "kind", "subject", "state"], rows)
        )

    recorder = artifact.get("recorder") or {}
    if recorder:
        rows = [
            ["capacity", int(recorder.get("capacity", 0))],
            ["recorded", int(recorder.get("recorded", 0))],
            ["dropped", int(recorder.get("dropped", 0))],
            ["alert dumps", len(artifact.get("alert_dumps") or [])],
        ]
        sections.append(
            "Flight recorder\n" + _table(["field", "value"], rows)
        )

    if not sections:
        return "Quality\n(no quality data in artifact)"
    return "\n\n".join(sections)
