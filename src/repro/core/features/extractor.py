"""Assembly of the full 212-dimensional feature vector (Table III).

:class:`FeatureExtractor` turns a page snapshot into the concatenated
feature vector ``[f1 | f2 | f3 | f4 | f5]`` and offers boolean masks for
the feature-set combinations evaluated in the paper (Table VII / Figs. 2
and 5): each individual set, ``f1,5``, ``f2,3,4`` and ``fall``.
"""

from __future__ import annotations

import numpy as np

from repro.core.datasources import BatchMemo, DataSources
from repro.core.features import (
    content,
    mld_usage,
    rdn_usage,
    term_consistency,
    url_features,
)
from repro.obs.trace import NULL_TRACER, AnyTracer
from repro.parallel.cache import AnalysisCache
from repro.urls.alexa import AlexaRanking
from repro.urls.public_suffix import PublicSuffixList, default_psl
from repro.web.page import PageSnapshot

#: Feature-set layout: (name, module) in concatenation order.
_GROUPS = (
    ("f1", url_features),
    ("f2", term_consistency),
    ("f3", mld_usage),
    ("f4", rdn_usage),
    ("f5", content),
)

#: All feature-set names accepted by :func:`feature_set_mask`.
FEATURE_SET_NAMES = ("f1", "f2", "f3", "f4", "f5", "f1,5", "f2,3,4", "fall")

N_FEATURES = sum(module.N_FEATURES for _name, module in _GROUPS)
assert N_FEATURES == 212

_GROUP_SLICES: dict[str, slice] = {}
_offset = 0
for _name, _module in _GROUPS:
    _GROUP_SLICES[_name] = slice(_offset, _offset + _module.N_FEATURES)
    _offset += _module.N_FEATURES


def feature_groups() -> list[tuple[str, tuple[str, ...], int]]:
    """The live feature registry: ``(set, names, declared_count)`` rows.

    One row per feature set in concatenation order, pairing each
    module's declared ``N_FEATURES`` with its actual ``feature_names()``
    so contract checkers (``repro.lint`` PHL3xx, tests) can audit the
    212-feature layout without reaching into module internals.
    """
    return [
        (name, tuple(module.feature_names()), int(module.N_FEATURES))
        for name, module in _GROUPS
    ]


def group_slices() -> dict[str, slice]:
    """Column slice of each feature group in the 212-wide matrix.

    Keys are the group names (``f1`` .. ``f5``) in concatenation
    order; a fresh dict each call, so callers cannot corrupt the
    module's layout table.
    """
    return dict(_GROUP_SLICES)


def group_means(matrix: np.ndarray) -> dict[str, np.ndarray]:
    """Per-page mean of each feature group over a feature matrix.

    ``matrix`` is ``(n_pages, 212)`` (a single 212-vector is accepted
    and treated as one page).  Returns ``{group: (n_pages,) means}``
    in concatenation order — the per-group summary signal the quality
    monitor's drift windows track against the training reference.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim == 1:
        matrix = matrix.reshape(1, -1)
    if matrix.shape[1] != N_FEATURES:
        raise ValueError(
            f"expected {N_FEATURES} feature columns, got {matrix.shape[1]}"
        )
    return {
        name: matrix[:, sl].mean(axis=1)
        for name, sl in _GROUP_SLICES.items()
    }


def feature_set_mask(name: str) -> np.ndarray:
    """Boolean mask over the 212 features selecting a feature set.

    ``name`` is one of :data:`FEATURE_SET_NAMES`.  Combination names use
    the paper's notation: ``"f1,5"`` selects f1 and f5, ``"f2,3,4"``
    selects f2, f3 and f4, ``"fall"`` selects everything.
    """
    if name == "fall":
        return np.ones(N_FEATURES, dtype=bool)
    if name not in FEATURE_SET_NAMES:
        raise ValueError(
            f"unknown feature set {name!r}; expected one of {FEATURE_SET_NAMES}"
        )
    mask = np.zeros(N_FEATURES, dtype=bool)
    for digit in name[1:].split(","):
        mask[_GROUP_SLICES[f"f{digit}"]] = True
    return mask


class FeatureExtractor:
    """Extracts the 212 features of Table III from page snapshots.

    Parameters
    ----------
    alexa:
        Popularity ranking used by f1's Alexa-rank features.  Defaults to
        an empty ranking (every domain gets the unranked default), which
        keeps the extractor usable without the synthetic world.
    psl:
        Public-suffix list for URL decomposition.
    cache:
        Optional :class:`~repro.parallel.cache.AnalysisCache` memoizing
        full feature vectors by snapshot content hash.  Feature vectors
        depend on the extractor's configuration (Alexa ranking, term
        metric), so a cache must not be shared between
        differently-configured extractors.  Hits return copies of values
        computed by the exact same code path as misses — caching never
        changes results.
    """

    def __init__(
        self,
        alexa: AlexaRanking | None = None,
        psl: PublicSuffixList | None = None,
        term_metric: str = "hellinger",
        cache: AnalysisCache | None = None,
    ):
        if term_metric not in term_consistency.METRICS:
            raise ValueError(
                f"unknown term_metric {term_metric!r}; expected one of "
                f"{sorted(term_consistency.METRICS)}"
            )
        self.alexa = alexa or AlexaRanking()
        self.psl = psl or default_psl()
        self.term_metric = term_metric
        self.cache = cache
        self._names = [
            name for _group, module in _GROUPS for name in module.feature_names()
        ]

    @property
    def n_features(self) -> int:
        """Total feature count (212)."""
        return N_FEATURES

    @property
    def feature_names(self) -> list[str]:
        """Stable, human-readable names for all 212 features."""
        return list(self._names)

    def extract(self, snapshot: PageSnapshot) -> np.ndarray:
        """Feature vector for one page snapshot."""
        return self.extract_from_sources(DataSources(snapshot, psl=self.psl))

    def extract_from_sources(
        self, sources: DataSources, tracer: AnyTracer = NULL_TRACER
    ) -> np.ndarray:
        """Feature vector for an already-built :class:`DataSources`.

        ``tracer`` optionally receives an ``extract`` span with one
        child per feature group (``extract.f1`` .. ``extract.f5``);
        a cache hit produces just the ``extract`` span with
        ``cached=True``.  Tracing never changes the vector.
        """
        key = None
        if self.cache is not None:
            key = sources.snapshot.fingerprint
            hit = self.cache.get_features(key)
            if hit is not None:
                with tracer.span("extract", cached=True):
                    return hit
        with tracer.span("extract", cached=False):
            with tracer.span("extract.f1"):
                f1 = url_features.compute(sources, self.alexa)
            with tracer.span("extract.f2"):
                f2 = term_consistency.compute(
                    sources, metric=self.term_metric
                )
            with tracer.span("extract.f3"):
                f3 = mld_usage.compute(sources)
            with tracer.span("extract.f4"):
                f4 = rdn_usage.compute(sources)
            with tracer.span("extract.f5"):
                f5 = content.compute(sources)
        out = np.asarray(f1 + f2 + f3 + f4 + f5, dtype=np.float64)
        if out.shape != (N_FEATURES,):  # pragma: no cover - invariant guard
            raise AssertionError(
                f"feature vector has shape {out.shape}, expected ({N_FEATURES},)"
            )
        if key is not None:
            self.cache.put_features(key, out)
        return out

    def extract_batch(
        self,
        snapshots,
        tracer: AnyTracer = NULL_TRACER,
        memo: BatchMemo | None = None,
    ) -> np.ndarray:
        """Columnar feature matrix for a snapshot batch.

        Delegates to :class:`~repro.core.features.batch.BatchExtractor`:
        one numpy pass per feature group over the whole batch, rows
        bit-identical to stacking :meth:`extract` outputs.  With a
        cache attached, warm rows skip columnarization entirely.
        ``memo`` optionally shares the caller's
        :class:`~repro.core.datasources.BatchMemo`.
        """
        # Local import: the batch module builds on this one.
        from repro.core.features.batch import BatchExtractor

        return BatchExtractor(self).extract_batch(
            snapshots, tracer=tracer, memo=memo
        )

    def extract_many(self, snapshots, pool=None) -> np.ndarray:
        """Feature matrix for an iterable of snapshots.

        An empty iterable yields an empty ``(0, 212)`` float64 matrix.
        Without a ``pool`` the whole batch runs through the columnar
        :meth:`extract_batch` path; with one, contiguous snapshot
        chunks (one columnar pass each) are dispatched via
        :meth:`~repro.parallel.WorkerPool.map_chunks` with a
        backend-aware chunk count — one chunk per process worker, a
        single chunk on the GIL-bound thread backend.  Either way rows
        come back in snapshot order and bit-identical to the serial
        per-page run regardless of backend, chunking or scheduling.
        With the ``process`` backend the extractor is pickled into each
        worker, so cache fills stay worker-local (the ``thread`` backend
        shares this extractor's cache).
        """
        snapshots = list(snapshots)
        if not snapshots:
            return np.empty((0, N_FEATURES), dtype=np.float64)
        if pool is None:
            return self.extract_batch(snapshots)
        rows = pool.map_chunks(
            self.extract_batch, snapshots,
            chunk_count=pool.columnar_chunks(len(snapshots)),
        )
        return np.vstack(rows)
