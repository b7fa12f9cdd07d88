"""The per-page feature extraction, kept as the oracle for the columnar pass.

:func:`extract` computes the 212 features of one page on its own, group
by group, the way the package did before the columnar pass became its
only extraction: each link set's statistics through
``np.mean``/``np.median``/``np.std`` over a per-set matrix, f2 through
one :func:`~repro.text.distributions.hellinger_pairs` call, f3 and f5
from the page's own :class:`~repro.core.datasources.DataSources`.  The
shipped :meth:`~repro.core.features.FeatureExtractor.extract_batch`
shares parses across a batch and stacks the link-set reductions by set
length; the tests hold it to this module bit for bit, and this module
to the golden matrix.

f4 has no second implementation: :func:`repro.core.features.rdn_usage.compute`
is per page already, and both paths call it.

Two ablation variants live here too, since nothing in the package
computes them: :func:`f1_flat` pools every link into one set instead of
the internal/external partition, and ``f2(..., metric="jaccard")`` swaps
Hellinger for the Jaccard distance between supports.
"""

from __future__ import annotations

import numpy as np

from repro.core.datasources import F2_DISTRIBUTION_NAMES, DataSources
from repro.core.features import rdn_usage
from repro.core.features.mld_usage import BINARY_SOURCES, MASS_SOURCES
from repro.core.features.term_consistency import _PAIR_INDICES
from repro.core.features.url_features import LINK_SETS, STAT_FEATURES
from repro.text.distributions import (
    TermDistribution,
    hellinger_distance,
    hellinger_pairs,
)
from repro.text.terms import compact_canonical, extract_terms
from repro.urls.alexa import AlexaRanking
from repro.urls.parsing import ParsedUrl
from repro.urls.public_suffix import PublicSuffixList
from repro.web.page import PageSnapshot

# ---------------------------------------------------------------------------
# f1: URL statistics (Table IV)
# ---------------------------------------------------------------------------


def _stat_vector(url: ParsedUrl, alexa: AlexaRanking) -> list[float]:
    """Features 3-9 of Table IV for one URL."""
    mld = url.mld or ""
    return [
        float(url.level_domain_count),
        float(len(url.raw)),
        float(len(url.fqdn)),
        float(len(mld)),
        float(len(extract_terms(url.raw))),
        float(len(extract_terms(mld))),
        float(alexa.rank(url.rdn)),
    ]


def _full_vector(url: ParsedUrl, alexa: AlexaRanking) -> list[float]:
    """All nine Table IV features for a user-visible URL."""
    free_url_dots = url.subdomains.count(".") + (1 if url.subdomains else 0)
    free_url_dots += url.path.count(".") + url.query.count(".")
    return [
        1.0 if url.uses_https else 0.0,
        float(free_url_dots),
        *_stat_vector(url, alexa),
    ]


def _set_statistics(urls: list[ParsedUrl], alexa: AlexaRanking) -> list[float]:
    """https ratio + mean/median/std of features 3-9 over a link set."""
    if not urls:
        return [0.0] * (1 + len(STAT_FEATURES) * 3)
    matrix = np.asarray([_stat_vector(url, alexa) for url in urls])
    https_ratio = float(np.mean([url.uses_https for url in urls]))
    out = [https_ratio]
    for column in range(matrix.shape[1]):
        values = matrix[:, column]
        out.extend([
            float(values.mean()),
            float(np.median(values)),
            float(values.std()),
        ])
    return out


def f1(sources: DataSources, alexa: AlexaRanking) -> list[float]:
    """The 106 f1 features of one page."""
    features: list[float] = []
    features.extend(_full_vector(sources.starting, alexa))
    features.extend(_full_vector(sources.landing, alexa))
    for set_name in LINK_SETS:
        urls = {
            "intlog": sources.internal_logged,
            "extlog": sources.external_logged,
            "intlink": sources.internal_href,
            "extlink": sources.external_href,
        }[set_name]
        features.extend(_set_statistics(urls, alexa))
    return features


def f1_flat(sources: DataSources, alexa: AlexaRanking) -> list[float]:
    """Ablation variant of f1 *without* the control partition.

    The paper's Section III-A conjecture is that grouping link features
    by internal/external (control) improves classification.  This
    variant pools all logged and HREF links into one set (9 + 9 + 22 =
    40 features), so the ablation benchmark can quantify what the
    partition buys.
    """
    features: list[float] = []
    features.extend(_full_vector(sources.starting, alexa))
    features.extend(_full_vector(sources.landing, alexa))
    all_links = sources.logged_links + sources.href_links
    features.extend(_set_statistics(all_links, alexa))
    return features


# ---------------------------------------------------------------------------
# f2: term-usage consistency
# ---------------------------------------------------------------------------


def jaccard_distance(p: TermDistribution, q: TermDistribution) -> float:
    """Jaccard distance between the supports of two distributions.

    The ablation comparator for the paper's Hellinger choice: it ignores
    term probabilities entirely and only measures set overlap.  Bounded
    in ``[0, 1]``; same edge-case conventions as
    :func:`~repro.text.distributions.hellinger_distance`.
    """
    if not p and not q:
        return 0.0
    if not p or not q:
        return 1.0
    intersection = len(p.terms & q.terms)
    union = len(p.terms | q.terms)
    return 1.0 - intersection / union


#: Distance functions usable for f2; "hellinger" is the paper's choice,
#: "jaccard" the ablation comparator.
METRICS = {"hellinger": hellinger_distance, "jaccard": jaccard_distance}


def f2(sources: DataSources, metric: str = "hellinger") -> list[float]:
    """The 66 pairwise distribution distances of one page.

    ``"hellinger"`` runs the vectorised batch; other metrics fall back
    to their scalar pairwise function.
    """
    if metric not in METRICS:
        raise ValueError(
            f"unknown f2 metric {metric!r}; expected one of {sorted(METRICS)}"
        )
    distributions = [
        sources.distribution(name) for name in F2_DISTRIBUTION_NAMES
    ]
    if metric == "hellinger":
        return hellinger_pairs(distributions, _PAIR_INDICES).tolist()
    distance = METRICS[metric]
    return [
        distance(distributions[first], distributions[second])
        for first, second in _PAIR_INDICES
    ]


# ---------------------------------------------------------------------------
# f3: starting/landing mld usage
# ---------------------------------------------------------------------------


def _appears_in(mld: str, distribution: TermDistribution) -> float:
    """1.0 when the canonical mld occurs as a term of the distribution."""
    return 1.0 if mld and mld in distribution else 0.0


def _substring_mass(mld: str, distribution: TermDistribution) -> float:
    """Probability mass of terms that are substrings of the mld."""
    if not mld:
        return 0.0
    return distribution.probability_mass_of_substrings(mld)


def f3(sources: DataSources) -> list[float]:
    """The 22 f3 features of one page."""
    start_mld = compact_canonical(sources.starting.mld or "")
    land_mld = compact_canonical(sources.landing.mld or "")

    features: list[float] = []
    for mld in (start_mld, land_mld):
        for source in BINARY_SOURCES:
            features.append(_appears_in(mld, sources.distribution(source)))
    for mld in (start_mld, land_mld):
        for source in MASS_SOURCES:
            features.append(_substring_mass(mld, sources.distribution(source)))
    return features


# ---------------------------------------------------------------------------
# f5: webpage content
# ---------------------------------------------------------------------------


def f5(sources: DataSources) -> list[float]:
    """The 5 f5 features of one page."""
    elements = sources.snapshot.elements
    return [
        float(len(extract_terms(sources.snapshot.text))),
        float(len(extract_terms(sources.snapshot.title))),
        float(elements.input_count),
        float(elements.image_count),
        float(elements.iframe_count),
    ]


# ---------------------------------------------------------------------------
# The whole vector
# ---------------------------------------------------------------------------


def extract(
    snapshot: PageSnapshot,
    alexa: AlexaRanking | None = None,
    psl: PublicSuffixList | None = None,
) -> np.ndarray:
    """The 212-feature vector of one page, computed on its own.

    ``alexa`` and ``psl`` default as
    :class:`~repro.core.features.FeatureExtractor` defaults them.
    """
    sources = DataSources(snapshot, psl=psl)
    out = np.asarray(
        f1(sources, alexa or AlexaRanking())
        + f2(sources)
        + f3(sources)
        + rdn_usage.compute(sources)
        + f5(sources),
        dtype=np.float64,
    )
    assert out.shape == (212,), out.shape
    return out


def extract_many(
    snapshots,
    alexa: AlexaRanking | None = None,
    psl: PublicSuffixList | None = None,
) -> np.ndarray:
    """:func:`extract` of every snapshot, stacked: ``(n, 212)``."""
    rows = [extract(snapshot, alexa, psl) for snapshot in snapshots]
    return np.vstack(rows) if rows else np.zeros((0, 212), dtype=np.float64)
