"""Serving-run reports: outcome counts, latency percentiles, JSON.

A :class:`ServingReport` is the engine's complete account of one run:
every request's terminal response (in request order) plus the
behavioural bounds the overload benchmark asserts on — peak queue
depth against its limit, shed breakdown by reason, coalescing and
memoization effectiveness, and nearest-rank latency percentiles over
the completed responses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.quantiles import nearest_rank
from repro.serve.request import DEGRADED, SERVED, ServeResponse


@dataclass
class ServingReport:
    """Everything one :meth:`ServingEngine.run` produced."""

    responses: list[ServeResponse] = field(default_factory=list)
    max_queue_depth: int = 0
    max_inflight: int = 0
    queue_limit: int = 0
    workers: int = 0
    coalesced: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    admission_stats: dict = field(default_factory=dict)
    triage_enabled: bool = False
    negative_cache_enabled: bool = False
    cache_stats: dict = field(default_factory=dict)

    # -- outcome counts ------------------------------------------------
    @property
    def total(self) -> int:
        """Requests that received a terminal response."""
        return len(self.responses)

    @property
    def served_count(self) -> int:
        """Full-fidelity verdicts."""
        return sum(1 for r in self.responses if r.outcome == SERVED)

    @property
    def degraded_count(self) -> int:
        """Reduced-fidelity verdicts (outage / deadline / partial page)."""
        return sum(1 for r in self.responses if r.outcome == DEGRADED)

    @property
    def shed_count(self) -> int:
        """Requests refused without a verdict."""
        return sum(1 for r in self.responses if r.shed)

    @property
    def completed_count(self) -> int:
        """Served + degraded."""
        return self.served_count + self.degraded_count

    @property
    def shed_rate(self) -> float:
        """Fraction of requests shed."""
        return self.shed_count / self.total if self.total else 0.0

    def shed_reasons(self) -> dict[str, int]:
        """Shed counts by structured reason, key-sorted."""
        counts: dict[str, int] = {}
        for response in self.responses:
            if response.shed and response.shed_reason:
                counts[response.shed_reason] = (
                    counts.get(response.shed_reason, 0) + 1
                )
        return dict(sorted(counts.items()))

    def degradation_tags(self) -> dict[str, int]:
        """Degradation-tag histogram over completed responses."""
        counts: dict[str, int] = {}
        for response in self.responses:
            for tag in response.degradations:
                counts[tag] = counts.get(tag, 0) + 1
        return dict(sorted(counts.items()))

    # -- tiers ---------------------------------------------------------
    def tier_counts(self) -> dict[str, int]:
        """Terminal responses by serving tier, key-sorted."""
        counts: dict[str, int] = {}
        for response in self.responses:
            counts[response.tier] = counts.get(response.tier, 0) + 1
        return dict(sorted(counts.items()))

    def tier_summary(self) -> dict[str, dict]:
        """Per-tier counts and nearest-rank latency percentiles."""
        tiers: dict[str, dict] = {}
        for tier, count in self.tier_counts().items():
            completed = sum(
                1 for response in self.responses
                if response.completed and response.tier == tier
            )
            tiers[tier] = {
                "count": count,
                "completed": completed,
                "latency_p50": self.latency_percentile(0.50, tier=tier),
                "latency_p99": self.latency_percentile(0.99, tier=tier),
            }
        return tiers

    # -- latency -------------------------------------------------------
    def latencies(self, tier: str | None = None) -> list[float]:
        """Sorted latencies of completed responses (optionally one tier)."""
        return sorted(
            response.latency
            for response in self.responses
            if response.completed
            and (tier is None or response.tier == tier)
        )

    def latency_percentile(
        self, quantile: float, tier: str | None = None
    ) -> float:
        """Nearest-rank percentile over completed-response latencies.

        ``tier`` restricts the population to one serving tier.  A run
        (or tier) with zero completed responses has no latency
        distribution; the percentile reads 0.0 rather than indexing
        into an empty ranking.  Delegates to the shared
        :func:`repro.obs.quantiles.nearest_rank` — the same estimator
        the SLO engine and run report use.
        """
        return nearest_rank(self.latencies(tier=tier), quantile)

    # -- export --------------------------------------------------------
    def summary(self) -> dict:
        """Flat JSON-safe summary for reports and CI artifacts.

        The key set is stable for untriaged engines (the chaos
        benchmark's byte-identity contract); the ``tiers`` block only
        appears when the triage ladder or the negative cache was
        configured.
        """
        data = {
            "total": self.total,
            "served": self.served_count,
            "degraded": self.degraded_count,
            "shed": self.shed_count,
            "shed_rate": self.shed_rate,
            "shed_reasons": self.shed_reasons(),
            "degradation_tags": self.degradation_tags(),
            "coalesced": self.coalesced,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "max_queue_depth": self.max_queue_depth,
            "queue_limit": self.queue_limit,
            "max_inflight": self.max_inflight,
            "workers": self.workers,
            "latency_p50": self.latency_percentile(0.50),
            "latency_p99": self.latency_percentile(0.99),
            "admission": dict(self.admission_stats),
        }
        if self.triage_enabled or self.negative_cache_enabled:
            data["tiers"] = self.tier_summary()
        return data

    def as_dict(self) -> dict:
        """The full machine-readable report: summary + tiers + caches.

        Unlike :meth:`summary`, the per-tier breakdown and the cache
        counter snapshots are always present, whatever the engine
        configuration; safe on empty runs (zero responses yield empty
        tier tables and 0.0 percentiles).
        """
        data = self.summary()
        data["tiers"] = self.tier_summary()
        data["cache"] = dict(self.cache_stats)
        return data
