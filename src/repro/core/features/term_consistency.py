"""Feature set f2: 66 term-usage-consistency features.

Pairwise Hellinger distances (Equation 1) between the 12 Table I term
distributions retained for classification (``copyright`` and ``image``
are discarded, Section IV-B): 12 * 11 / 2 = 66 features.  Each feature
measures how consistently terms are used between two locations of the
page — e.g. between the (constrained) landing RDN and the (freely
controlled) title.

This module holds the layout.  :func:`repro.core.features.batch.f2_block`
computes a page's 66 distances as one numpy batch through
:func:`repro.text.distributions.hellinger_pairs`; the scalar
:func:`~repro.text.distributions.hellinger_distance` remains the
reference that batch is tested against.
"""

from __future__ import annotations

from itertools import combinations

from repro.core.datasources import F2_DISTRIBUTION_NAMES

#: The ordered distribution pairs, fixed for the lifetime of the model.
PAIRS: tuple[tuple[str, str], ...] = tuple(
    combinations(F2_DISTRIBUTION_NAMES, 2)
)

#: The same pairs as indices into ``F2_DISTRIBUTION_NAMES``.
_PAIR_INDICES: tuple[tuple[int, int], ...] = tuple(
    combinations(range(len(F2_DISTRIBUTION_NAMES)), 2)
)

N_FEATURES = len(PAIRS)
assert N_FEATURES == 66


def feature_names() -> list[str]:
    """Stable names for the 66 f2 features."""
    return [f"f2.hellinger.{first}-{second}" for first, second in PAIRS]
