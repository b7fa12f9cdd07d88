"""Feature set f3: 22 features on starting/landing mld usage.

Legitimate sites register domains reflecting their brand, so their mld
shows up across the page; phishing domains usually bear no relation to
the page's (mimicked) content.  Per Section IV-B:

* 12 binary features — the starting/landing mld appears as a term of
  ``D_text``, ``D_title``, ``D_intlog``, ``D_extlog``, ``D_intlink``,
  ``D_extlink`` (6 sources x 2 mlds);
* 10 probability-mass features — the summed probability of terms of
  ``D_title``, ``D_intlog``, ``D_extlog``, ``D_intlink``, ``D_extlink``
  that are substrings of the starting/landing mld (5 x 2).  ``D_text``
  is excluded here: its many short terms match fragments of most mlds.

IP-based URLs have no mld; all their features are 0.
"""

from __future__ import annotations

from repro.core.datasources import DataSources
from repro.text.distributions import TermDistribution
from repro.text.terms import compact_canonical

BINARY_SOURCES = ("text", "title", "intlog", "extlog", "intlink", "extlink")
MASS_SOURCES = ("title", "intlog", "extlog", "intlink", "extlink")

N_FEATURES = 2 * len(BINARY_SOURCES) + 2 * len(MASS_SOURCES)
assert N_FEATURES == 22


def _appears_in(mld: str, distribution: TermDistribution) -> float:
    """1.0 when the canonical mld occurs as a term of the distribution."""
    return 1.0 if mld and mld in distribution else 0.0


def _substring_mass(mld: str, distribution: TermDistribution) -> float:
    """Probability mass of terms that are substrings of the mld."""
    if not mld:
        return 0.0
    return distribution.probability_mass_of_substrings(mld)


def compute(sources: DataSources) -> list[float]:
    """Compute the 22 f3 features for one page."""
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


def feature_names() -> list[str]:
    """Stable names for the 22 f3 features."""
    names = [
        f"f3.{which}_mld.in.{source}"
        for which in ("start", "land")
        for source in BINARY_SOURCES
    ]
    names += [
        f"f3.{which}_mld.mass.{source}"
        for which in ("start", "land")
        for source in MASS_SOURCES
    ]
    return names
