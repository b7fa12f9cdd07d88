"""Columnar batch feature extraction: one pass per feature group.

The serial :class:`~repro.core.features.extractor.FeatureExtractor`
walks one page at a time: 212 features, each through its own chain of
small Python calls (URL parsing, term extraction, per-column numpy
reductions on tiny arrays).  At batch scale that per-page dispatch —
not arithmetic — dominates the cost.  :class:`BatchExtractor` computes
the same 212 columns over an entire snapshot batch:

* the pages' :class:`~repro.core.datasources.DataSources` share one
  :class:`~repro.core.datasources.BatchMemo`, so a URL, host, text or
  term sequence that recurs across pages (shared link URLs, repeated
  titles and brand strings) is parsed, canonicalised and turned into a
  distribution once per batch.  The memo goes through the same
  ``parse_url`` and ``canonicalize`` as every other caller; a pipeline
  passes its own memo in, so target identification later reads the
  same parses;
* f1's per-link-set statistics are stacked **by set length** into
  ``(sets, stats, links)`` arrays and reduced along the innermost
  contiguous axis — per length class, the ufuncs that ``mean`` and
  ``std`` run inside (``add.reduce``, ``true_divide``, ``square``,
  ``sqrt``) and one ``sort`` whose middle gives the medians, instead
  of 21 numpy calls per page;
* f2's Hellinger blocks run through
  :func:`~repro.text.distributions.hellinger_pairs_many`, sharing the
  pair-index setup across pages;
* f3/f4/f5 reuse the memoized parses, distributions and term tuples.

Bit-identity contract (enforced by ``tests/core/test_batch_differential``
and the frozen golden feature matrix): every cell equals the serial
``extract`` output **to the last bit**.  Two properties make that hold:

1. the memo only caches pure functions, so sharing it changes *when*
   a value is computed, never *what* it is;
2. f1's stacked reductions run along the innermost axis of a
   C-contiguous ``(sets, stats, links)`` array — numpy's 1-D reduction
   kernels then consume each row exactly as the serial per-column
   ``matrix[:, c]`` reduction does, preserving float summation order.
   (Reducing over a *strided* axis instead would regroup partial sums
   and drift by ulps; the differential harness exists to catch exactly
   that class of regression.)  The means and stds call the same ufuncs
   in the same order as ``np.mean``/``np.std``; a median is an order
   statistic (or the halved sum of two), so a sort finds the values
   ``np.median``'s partition does.

Batch cache protocol: with an :class:`~repro.parallel.cache.AnalysisCache`
attached, warm rows are served straight from the feature store by
snapshot fingerprint (skipping columnarization entirely), and only the
misses are columnarized, then backfilled into the store row by row.
"""

from __future__ import annotations

import numpy as np

from repro.core.datasources import (
    F2_DISTRIBUTION_NAMES,
    BatchMemo,
    DataSources,
)
from repro.core.features import mld_usage, rdn_usage, term_consistency
from repro.core.features.url_features import STAT_FEATURES
from repro.obs.trace import NULL_TRACER, AnyTracer
from repro.text.distributions import hellinger_pairs_many
from repro.text.terms import compact_canonical
from repro.urls.parsing import ParsedUrl


class _UrlVectors:
    """Table IV per-URL features of one batch, memoized by URL.

    ``stats`` is ``url_features._stat_vector`` and ``full`` is
    ``url_features._full_vector``, with terms from the batch memo; a
    link URL shared by many pages is featurized once.
    """

    def __init__(self, memo: BatchMemo, alexa) -> None:
        self.memo = memo
        self.alexa = alexa
        self._stats: dict[str, tuple[float, ...]] = {}

    def stats(self, url: ParsedUrl) -> tuple[float, ...]:
        """Table IV features 3-9."""
        hit = self._stats.get(url.raw)
        if hit is None:
            mld = url.mld or ""
            hit = (
                float(url.level_domain_count),
                float(len(url.raw)),
                float(len(url.fqdn)),
                float(len(mld)),
                float(len(self.memo.terms(url.raw))),
                float(len(self.memo.terms(mld))),
                float(self.alexa.rank(url.rdn)),
            )
            self._stats[url.raw] = hit
        return hit

    def full(self, url: ParsedUrl) -> list[float]:
        """All nine Table IV features."""
        free_url_dots = url.subdomains.count(".") + (1 if url.subdomains else 0)
        free_url_dots += url.path.count(".") + url.query.count(".")
        return [
            1.0 if url.uses_https else 0.0,
            float(free_url_dots),
            *self.stats(url),
        ]


#: Column offsets of the five feature groups in the 212-wide layout.
_F1_END = 106
_F2_END = _F1_END + 66
_F3_END = _F2_END + 22
_F4_END = _F3_END + 13
_N_FEATURES = _F4_END + 5

#: f1 layout constants: 9 starting + 9 landing singles, then per link
#: set 1 https ratio + 7 stats x (mean, median, std).
_F1_SINGLES = 18
_F1_SET_WIDTH = 1 + len(STAT_FEATURES) * 3


class BatchExtractor:
    """Columnar batch companion of one
    :class:`~repro.core.features.extractor.FeatureExtractor`.

    Shares the extractor's configuration (Alexa ranking, PSL, term
    metric) and its :class:`~repro.parallel.cache.AnalysisCache`;
    :meth:`extract_batch` returns the same matrix as stacking the
    serial ``extract`` rows, bit for bit, with warm cache rows skipping
    columnarization entirely.
    """

    def __init__(self, extractor) -> None:
        self.extractor = extractor

    def extract_batch(
        self,
        snapshots,
        tracer: AnyTracer = NULL_TRACER,
        memo: BatchMemo | None = None,
    ) -> np.ndarray:
        """Feature matrix for a snapshot batch, one columnar pass per group.

        ``memo`` optionally passes the caller's batch memo (built for the
        extractor's suffix list), so later readers of the same pages
        reuse its parses; without one the call makes its own.  Emits
        one ``extract`` span carrying batch size and cache-hit count.
        """
        snapshots = list(snapshots)
        extractor = self.extractor
        out = np.zeros((len(snapshots), _N_FEATURES), dtype=np.float64)
        if not snapshots:
            return out
        cache = extractor.cache
        with tracer.span("extract", n_pages=len(snapshots)) as span:
            if cache is None:
                misses = list(range(len(snapshots)))
            else:
                misses = []
                for index, snapshot in enumerate(snapshots):
                    row = cache.get_features(snapshot.fingerprint)
                    if row is None:
                        misses.append(index)
                    else:
                        out[index] = row
                span.set(cache_hits=len(snapshots) - len(misses))
            if not misses:
                return out
            if memo is None:
                memo = BatchMemo(extractor.psl)
            sources = [
                DataSources(snapshots[index], psl=extractor.psl, memo=memo)
                for index in misses
            ]
            block = np.zeros((len(misses), _N_FEATURES), dtype=np.float64)
            self._f1_block(sources, _UrlVectors(memo, extractor.alexa),
                           block[:, :_F1_END])
            self._f2_block(sources, block[:, _F1_END:_F2_END])
            self._f3_block(sources, block[:, _F2_END:_F3_END])
            for row, src in enumerate(sources):
                block[row, _F3_END:_F4_END] = rdn_usage.compute(src)
                elements = src.snapshot.elements
                block[row, _F4_END:] = (
                    float(len(memo.terms(src.snapshot.text))),
                    float(len(memo.terms(src.snapshot.title))),
                    float(elements.input_count),
                    float(elements.image_count),
                    float(elements.iframe_count),
                )
            for row, index in enumerate(misses):
                out[index] = block[row]
                if cache is not None:
                    cache.put_features(snapshots[index].fingerprint, block[row])
        return out

    # ------------------------------------------------------------------
    def _f1_block(
        self, sources: list[DataSources], vectors: _UrlVectors,
        block: np.ndarray,
    ) -> None:
        """f1, columnar: singles per page, link-set stats by length class.

        Sets with the same link count stack into one C-contiguous
        ``(sets, 7 stats, links)`` array; reducing along the innermost
        axis computes every set's means/medians/stds in a few ufunc
        calls and one sort per length class while preserving the
        serial per-column summation order (see module docstring,
        property 2).
        """
        # length -> [(row, set index, urls)]
        by_length: dict[int, list[tuple[int, int, list[ParsedUrl]]]] = {}
        for row, src in enumerate(sources):
            block[row, 0:9] = vectors.full(src.starting)
            block[row, 9:18] = vectors.full(src.landing)
            link_sets = (
                src.internal_logged, src.external_logged,
                src.internal_href, src.external_href,
            )
            for set_index, urls in enumerate(link_sets):
                if urls:  # empty sets keep their all-zero columns
                    by_length.setdefault(len(urls), []).append(
                        (row, set_index, urls)
                    )
        for length, entries in sorted(by_length.items()):
            stacked = np.empty(
                (len(entries), length, len(STAT_FEATURES)), dtype=np.float64
            )
            for entry, (_row, _set_index, urls) in enumerate(entries):
                for position, url in enumerate(urls):
                    stacked[entry, position] = vectors.stats(url)
            # (sets, links, stats) -> contiguous (sets, stats, links):
            # each reduced row is then the exact byte sequence the serial
            # path reduces as matrix[:, column].
            columns = np.ascontiguousarray(stacked.transpose(0, 2, 1))
            # The ufuncs ndarray.mean and .std run inside, called without
            # their wrappers (a batch of one pays those per link set).
            sums = np.add.reduce(columns, axis=2, keepdims=True)
            means = np.true_divide(sums, length, out=sums)
            deviations = np.subtract(columns, means)
            np.square(deviations, out=deviations)
            stds = np.add.reduce(deviations, axis=2)
            np.true_divide(stds, length, out=stds)
            np.sqrt(stds, out=stds)
            means = means[:, :, 0]
            # np.median's middle order statistics, read off a full sort;
            # an even count averages its two middles as np.median does.
            ordered = np.sort(columns, axis=2)
            half = length // 2
            if length % 2:
                medians = ordered[:, :, half]
            else:
                medians = (ordered[:, :, half - 1] + ordered[:, :, half]) / 2
            for entry, (row, set_index, urls) in enumerate(entries):
                base = _F1_SINGLES + set_index * _F1_SET_WIDTH
                # Exact replacement for np.mean([uses_https...]): sums of
                # 0/1 flags are integers, exact in float64 under any
                # summation order, and the final division rounds once
                # identically in both forms.
                block[row, base] = sum(
                    url.uses_https for url in urls
                ) / len(urls)
                stop = base + _F1_SET_WIDTH
                block[row, base + 1:stop:3] = means[entry]
                block[row, base + 2:stop:3] = medians[entry]
                block[row, base + 3:stop:3] = stds[entry]

    def _f2_block(
        self, sources: list[DataSources], block: np.ndarray
    ) -> None:
        """f2, batched: every page's pair distances in one kernel call."""
        metric = self.extractor.term_metric
        dists = [
            [src.distribution(name) for name in F2_DISTRIBUTION_NAMES]
            for src in sources
        ]
        if metric == "hellinger":
            block[:] = hellinger_pairs_many(
                dists, term_consistency._PAIR_INDICES
            )
            return
        distance = term_consistency.METRICS[metric]
        for row, page in enumerate(dists):
            block[row] = [
                distance(page[first], page[second])
                for first, second in term_consistency._PAIR_INDICES
            ]

    def _f3_block(
        self, sources: list[DataSources], block: np.ndarray
    ) -> None:
        """f3; distributions are already hot on each instance from the
        f2 pass."""
        for row, src in enumerate(sources):
            start_mld = compact_canonical(src.starting.mld or "")
            land_mld = compact_canonical(src.landing.mld or "")
            col = 0
            for mld in (start_mld, land_mld):
                for source in mld_usage.BINARY_SOURCES:
                    block[row, col] = (
                        1.0 if mld and mld in src.distribution(source) else 0.0
                    )
                    col += 1
            for mld in (start_mld, land_mld):
                for source in mld_usage.MASS_SOURCES:
                    if mld:
                        block[row, col] = src.distribution(
                            source
                        ).probability_mass_of_substrings(mld)
                    col += 1
