"""Term distributions and the Hellinger distance (Sections III-B, IV-B).

A *term distribution* ``D_S`` of a data source ``S`` is the set of pairs
``(t_i, p_i)`` where ``t_i`` is a term extracted from ``S`` and ``p_i`` its
occurrence probability within ``S``.  Dissimilarity between distributions
is measured with the (squared) Hellinger distance, an f-divergence that is
symmetric and bounded in ``[0, 1]``::

    H^2(P, Q) = 1/2 * sum_{x in P ∪ Q} (sqrt(P(x)) - sqrt(Q(x)))^2

``H^2 = 0`` means identical distributions, ``H^2 = 1`` means disjoint
supports.  Following the paper's Equation (1) we use the squared form
directly as the feature value.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from repro.text.terms import MIN_TERM_LENGTH, extract_terms


class TermDistribution:
    """An immutable probability distribution over terms.

    Construct with :meth:`from_text`, :meth:`from_terms` or
    :meth:`from_counts`; the empty distribution is falsy.
    """

    __slots__ = ("_probs",)

    def __init__(self, probabilities: Mapping[str, float] | None = None):
        probs = dict(probabilities or {})
        for term, prob in probs.items():
            if prob <= 0:
                raise ValueError(f"non-positive probability for {term!r}: {prob}")
        total = sum(probs.values())
        if probs and not math.isclose(total, 1.0, rel_tol=1e-9, abs_tol=1e-9):
            raise ValueError(f"probabilities sum to {total}, expected 1")
        self._probs = probs

    # ---- constructors -------------------------------------------------
    @classmethod
    def from_counts(cls, counts: Mapping[str, int]) -> "TermDistribution":
        """Build from term occurrence counts (zero counts are dropped)."""
        positive = {term: count for term, count in counts.items() if count > 0}
        total = sum(positive.values())
        if total == 0:
            return cls()
        return cls({term: count / total for term, count in positive.items()})

    @classmethod
    def from_terms(cls, terms: Iterable[str]) -> "TermDistribution":
        """Build from a sequence of (possibly repeated) terms."""
        return cls.from_counts(Counter(terms))

    @classmethod
    def from_text(
        cls, text: str, min_length: int = MIN_TERM_LENGTH
    ) -> "TermDistribution":
        """Extract terms from raw ``text`` and build their distribution."""
        return cls.from_terms(extract_terms(text, min_length=min_length))

    # ---- mapping-like interface ---------------------------------------
    def __bool__(self) -> bool:
        return bool(self._probs)

    def __len__(self) -> int:
        return len(self._probs)

    def __contains__(self, term: str) -> bool:
        return term in self._probs

    def __iter__(self):
        return iter(self._probs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TermDistribution):
            return NotImplemented
        return self._probs == other._probs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        preview = ", ".join(
            f"{t}:{p:.3f}" for t, p in sorted(self._probs.items())[:4]
        )
        return f"TermDistribution({len(self)} terms: {preview}...)"

    def probability(self, term: str) -> float:
        """Occurrence probability of ``term`` (0.0 when absent)."""
        return self._probs.get(term, 0.0)

    @property
    def terms(self) -> set[str]:
        """The support of the distribution."""
        return set(self._probs)

    def items(self):
        """Iterate over ``(term, probability)`` pairs."""
        return self._probs.items()

    def top(self, count: int) -> list[tuple[str, float]]:
        """The ``count`` most probable terms, ties broken alphabetically."""
        ranked = sorted(self._probs.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:count]

    def probability_mass_of_substrings(self, text: str) -> float:
        """Sum of probabilities of terms that are substrings of ``text``.

        Used by feature set f3: how much of a distribution's mass is made
        of fragments of the starting/landing mld.
        """
        if not text:
            return 0.0
        return sum(prob for term, prob in self._probs.items() if term in text)


def hellinger_distance(p: TermDistribution, q: TermDistribution) -> float:
    """Squared Hellinger distance between two term distributions.

    Follows the paper's Equation (1).  Edge cases: two empty distributions
    are identical (0.0); an empty vs. a non-empty distribution are fully
    dissimilar (1.0), matching the paper's treatment of missing sources
    (empty FQDN distributions of IP URLs "lead to several null features"
    only through downstream defaulting, handled by the feature extractor).
    """
    if not p and not q:
        return 0.0
    if not p or not q:
        return 1.0
    total = 0.0
    # Sorted iteration keeps float summation order (and therefore model
    # training) independent of the process's hash seed.
    for term in sorted(p.terms | q.terms):
        diff = math.sqrt(p.probability(term)) - math.sqrt(q.probability(term))
        total += diff * diff
    # Clamp tiny floating point overshoot so the metric stays in [0, 1].
    return min(1.0, max(0.0, 0.5 * total))


def sqrt_probability_matrix(
    distributions: Sequence[TermDistribution],
) -> np.ndarray:
    """Dense ``(n, |vocab|)`` matrix of square-root probabilities.

    Columns follow the sorted union vocabulary of all ``distributions``;
    rows of empty distributions are all-zero.  This is the shared input
    representation for batched distance computations.
    """
    vocab: set[str] = set()
    for dist in distributions:
        vocab |= dist.terms
    column = {term: i for i, term in enumerate(sorted(vocab))}
    matrix = np.zeros((len(distributions), len(column)), dtype=np.float64)
    for row, dist in enumerate(distributions):
        for term, prob in dist.items():
            matrix[row, column[term]] = math.sqrt(prob)
    return matrix


def hellinger_pairs(
    distributions: Sequence[TermDistribution],
    pairs: Sequence[tuple[int, int]],
) -> np.ndarray:
    """Squared Hellinger distances for index ``pairs``, as one numpy batch.

    Replaces ``len(pairs)`` scalar :func:`hellinger_distance` calls with
    one vectorised difference-and-reduce over the shared vocabulary —
    the hot path of feature set f2 (66 pairs per page).  Conventions
    match the scalar function exactly: two empty distributions are at
    distance 0.0, empty vs non-empty at 1.0, everything clamped to
    ``[0, 1]``.  Values agree with the scalar path to within float
    summation reordering (≤ a few ulps).
    """
    if not pairs:
        return np.empty(0, dtype=np.float64)
    matrix = sqrt_probability_matrix(distributions)
    left = np.fromiter((p[0] for p in pairs), dtype=np.intp, count=len(pairs))
    right = np.fromiter((p[1] for p in pairs), dtype=np.intp, count=len(pairs))
    if matrix.shape[1] == 0:
        distances = np.zeros(len(pairs), dtype=np.float64)
    else:
        # Difference-based form (not the dot-product expansion): it is
        # numerically closest to the scalar accumulation and can never
        # go negative through cancellation.
        diff = matrix[left] - matrix[right]
        distances = 0.5 * np.einsum("ij,ij->i", diff, diff)
        np.clip(distances, 0.0, 1.0, out=distances)
    # Empty-distribution conventions override the algebraic result.
    empty = np.fromiter(
        (not dist for dist in distributions), dtype=bool,
        count=len(distributions),
    )
    both_empty = empty[left] & empty[right]
    one_empty = empty[left] ^ empty[right]
    distances[both_empty] = 0.0
    distances[one_empty] = 1.0
    return distances
