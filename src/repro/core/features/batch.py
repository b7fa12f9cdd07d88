"""The feature kernels: one columnar pass per feature group.

:meth:`~repro.core.features.extractor.FeatureExtractor.extract_batch`
is the only feature extraction in the package; it fills each group's
columns of a batch matrix with the block functions below.  Per-page
dispatch, not arithmetic, is what costs at batch scale, so the kernels
work across the pages of a batch:

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
* f2's Hellinger block runs one
  :func:`~repro.text.distributions.hellinger_pairs` per page;
* f3/f4/f5 reuse the memoized parses, distributions and term tuples.

Bit-identity contract (enforced by ``tests/core/test_batch_differential``
and the frozen golden feature matrix): every cell equals the per-page
oracle in ``tests/core/reference_features.py``, which computes each page
on its own with ``np.mean``/``np.median``/``np.std``, **to the last
bit**.  Two properties make that hold:

1. the memo only caches pure functions, so sharing it changes *when*
   a value is computed, never *what* it is;
2. f1's stacked reductions run along the innermost axis of a
   C-contiguous ``(sets, stats, links)`` array — numpy's 1-D reduction
   kernels then consume each row exactly as the per-page per-column
   ``matrix[:, c]`` reduction does, preserving float summation order.
   (Reducing over a *strided* axis instead would regroup partial sums
   and drift by ulps; the differential harness exists to catch exactly
   that class of regression.)  The means and stds call the same ufuncs
   in the same order as ``np.mean``/``np.std``; a median is an order
   statistic (or the halved sum of two), so a sort finds the values
   ``np.median``'s partition does.

f2 keeps a vocabulary per page: padding all pages into one shared
matrix would change the length of every row sum, and numpy's unrolled
summation groups partial sums by position — appending zeros regroups
the real addends and can shift a distance by an ulp.
"""

from __future__ import annotations

import numpy as np

from repro.core.datasources import F2_DISTRIBUTION_NAMES, BatchMemo, DataSources
from repro.core.features import mld_usage, rdn_usage, term_consistency
from repro.core.features.url_features import STAT_FEATURES
from repro.text.distributions import hellinger_pairs
from repro.text.terms import compact_canonical
from repro.urls.parsing import ParsedUrl


class _UrlVectors:
    """Table IV per-URL features of one batch, memoized by URL.

    ``stats`` gives features 3-9 and ``full`` all nine, with terms from
    the batch memo; a link URL shared by many pages is featurized once.
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


#: f1 layout constants: 9 starting + 9 landing singles, then per link
#: set 1 https ratio + 7 stats x (mean, median, std).
_F1_SINGLES = 18
_F1_SET_WIDTH = 1 + len(STAT_FEATURES) * 3


def f1_block(
    sources: list[DataSources], memo: BatchMemo, alexa, block: np.ndarray
) -> None:
    """f1, columnar: singles per page, link-set stats by length class.

    Sets with the same link count stack into one C-contiguous
    ``(sets, 7 stats, links)`` array; reducing along the innermost
    axis computes every set's means/medians/stds in a few ufunc
    calls and one sort per length class while preserving the
    per-page per-column summation order (see module docstring,
    property 2).
    """
    vectors = _UrlVectors(memo, alexa)
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
        # (sets, links, stats) -> contiguous (sets, stats, links): each
        # reduced row is then the exact byte sequence the per-page
        # reference reduces as matrix[:, column].
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
            block[row, base] = sum(url.uses_https for url in urls) / len(urls)
            stop = base + _F1_SET_WIDTH
            block[row, base + 1:stop:3] = means[entry]
            block[row, base + 2:stop:3] = medians[entry]
            block[row, base + 3:stop:3] = stds[entry]


def f2_block(sources: list[DataSources], block: np.ndarray) -> None:
    """f2: each page's 66 Hellinger pair distances."""
    for row, src in enumerate(sources):
        block[row] = hellinger_pairs(
            [src.distribution(name) for name in F2_DISTRIBUTION_NAMES],
            term_consistency._PAIR_INDICES,
        )


def f3_block(sources: list[DataSources], block: np.ndarray) -> None:
    """f3; distributions are already hot on each instance from the f2
    pass."""
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


def f4_block(sources: list[DataSources], block: np.ndarray) -> None:
    """f4: :func:`~repro.core.features.rdn_usage.compute` per page."""
    for row, src in enumerate(sources):
        block[row] = rdn_usage.compute(src)


def f5_block(sources: list[DataSources], block: np.ndarray) -> None:
    """f5: text and title term counts, then the element counts."""
    for row, src in enumerate(sources):
        snapshot = src.snapshot
        elements = snapshot.elements
        block[row] = (
            float(len(src.memo.terms(snapshot.text))),
            float(len(src.memo.terms(snapshot.title))),
            float(elements.input_count),
            float(elements.image_count),
            float(elements.iframe_count),
        )
