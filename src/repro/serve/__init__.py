"""``repro.serve`` — the deterministic overload-robust serving engine.

Turns the offline Know Your Phish pipeline into a request server with
explicit overload behaviour: token-bucket admission control behind a
bounded queue, watermark backpressure, request coalescing (URL-level
in-flight sharing + content-hash memoization), end-to-end deadline
propagation down to individual search queries, circuit breakers on
the search tier, and graceful drain.  Paired with
:mod:`repro.serve.loadgen`, whole overload/chaos scenarios run in
simulated time and produce byte-identical reports.
"""

from repro.serve.admission import (
    AdmissionController,
    AdmissionDecision,
    TokenBucket,
)
from repro.serve.coalesce import InflightTable
from repro.serve.engine import ServingEngine
from repro.serve.loadgen import (
    ChaosEvent,
    ZipfSampler,
    burst,
    build_requests,
    constant_rate,
    hot_key_storm,
    search_outage,
    worker_join,
    worker_loss,
)
from repro.serve.report import ServingReport
from repro.serve.request import (
    DEGRADED,
    SERVED,
    SHED,
    SHED_DEADLINE,
    SHED_DRAINING,
    SHED_QUEUE_FULL,
    SHED_RATE_LIMITED,
    SHED_UPSTREAM,
    TIER_FULL,
    TIER_NEGATIVE,
    TIER_TRIAGE,
    ServeRequest,
    ServeResponse,
)
from repro.serve.triage import (
    TRIAGE_ESCALATE,
    TRIAGE_LEGITIMATE,
    TRIAGE_PHISH,
    TriageDecision,
    TriageModel,
)

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "TokenBucket",
    "InflightTable",
    "ServingEngine",
    "ChaosEvent",
    "ZipfSampler",
    "burst",
    "build_requests",
    "constant_rate",
    "hot_key_storm",
    "search_outage",
    "worker_join",
    "worker_loss",
    "ServingReport",
    "DEGRADED",
    "SERVED",
    "SHED",
    "SHED_DEADLINE",
    "SHED_DRAINING",
    "SHED_QUEUE_FULL",
    "SHED_RATE_LIMITED",
    "SHED_UPSTREAM",
    "TIER_FULL",
    "TIER_NEGATIVE",
    "TIER_TRIAGE",
    "ServeRequest",
    "ServeResponse",
    "TRIAGE_ESCALATE",
    "TRIAGE_LEGITIMATE",
    "TRIAGE_PHISH",
    "TriageDecision",
    "TriageModel",
]
