"""Throughput layer: deterministic worker pools + content-keyed caches.

The reproduction's batch entry points
(:meth:`~repro.core.features.extractor.FeatureExtractor.extract_many`,
:meth:`~repro.core.pipeline.KnowYourPhish.analyze_many`, the evaluation
:class:`~repro.evaluation.runner.Lab`) accept a :class:`WorkerPool` to
fan per-page work out over threads or processes, and the feature
extractor accepts an :class:`AnalysisCache` memoizing full feature
vectors by snapshot content hash.

Both are designed around one invariant: **throughput must never change
results**.  Pool maps return results in input order and equal the
serial run bit-for-bit; cache hits return copies of values computed by
the exact same code path as a miss.
"""

from repro.parallel.cache import (
    AnalysisCache,
    CacheCountsProbe,
    TtlCache,
    snapshot_fingerprint,
)
from repro.parallel.executor import (
    BACKENDS,
    MAX_WORKERS,
    CounterProbe,
    WorkerPool,
    chunk_slices,
    default_workers,
)

__all__ = [
    "AnalysisCache",
    "BACKENDS",
    "CacheCountsProbe",
    "CounterProbe",
    "MAX_WORKERS",
    "TtlCache",
    "WorkerPool",
    "chunk_slices",
    "default_workers",
    "snapshot_fingerprint",
]
