"""Keyterm extraction (Section V-A).

A *keyterm* is a term appearing in several data sources of the page.
Five user-visible source sets are considered:

* URL terms: ``T_start ∪ T_startrdn ∪ T_land ∪ T_landrdn``
* Title: ``T_title``
* Text: ``T_text``
* Copyright: ``T_copyright``
* Links: ``T_intlink ∪ T_extlink`` (FreeURL terms of the HREF links)

Three keyterm flavours, applied in sequence by the identification
process:

* **boosted prominent terms** — terms in >= 2 source sets, ranked by
  overall frequency in the visible parts, top N;
* **prominent terms** — same, but co-occurrence counted only between
  text and HREF links is discarded (news sites name links after their
  URLs, which floods the intersection with irrelevant terms);
* **OCR prominent terms** — terms recognised in the screenshot that also
  occur in at least one of the five source sets (slowest, used last).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.core.datasources import DataSources
from repro.resilience.errors import OcrFailure
from repro.web.ocr import SimulatedOcr

#: Number of keyterms per list (N=5 "proved sufficient to represent a
#: webpage" — Section V-A, citing Cantina).
DEFAULT_N = 5

_SOURCE_SETS = ("url", "title", "text", "copyright", "links")


@dataclass
class Keyterms:
    """The keyterm lists extracted from one page."""

    boosted_prominent: list[str] = field(default_factory=list)
    prominent: list[str] = field(default_factory=list)
    ocr_prominent: list[str] = field(default_factory=list)


class KeytermExtractor:
    """Extracts the three keyterm lists of Section V-A.

    :meth:`extract` returns the boosted prominent and prominent lists
    (its ``ocr_prominent`` stays empty); :meth:`ocr_prominent` reads the
    screenshot and returns the OCR-prominent list.  The split lets
    target identification read OCR, the slow step, only when it reaches
    step 4.  The extractor holds no per-call state, so one instance
    serves many threads.

    Parameters
    ----------
    n_terms:
        Keyterms per list (the paper's N; default 5).
    ocr:
        OCR engine for the OCR-prominent list; ``None`` leaves that list
        empty (the identification process then skips step 4).
    """

    def __init__(self, n_terms: int = DEFAULT_N, ocr: SimulatedOcr | None = None):
        if n_terms < 1:
            raise ValueError(f"n_terms must be >= 1, got {n_terms}")
        self.n_terms = n_terms
        self.ocr = ocr

    # ------------------------------------------------------------------
    @staticmethod
    def source_term_sets(sources: DataSources) -> dict[str, set[str]]:
        """The five user-visible source term sets."""
        url_terms = (
            sources.d_start.terms | sources.d_startrdn.terms
            | sources.d_land.terms | sources.d_landrdn.terms
        )
        link_terms = sources.d_intlink.terms | sources.d_extlink.terms
        return {
            "url": url_terms,
            "title": sources.d_title.terms,
            "text": sources.d_text.terms,
            "copyright": sources.d_copyright.terms,
            "links": link_terms,
        }

    @staticmethod
    def _visible_frequencies(sources: DataSources) -> Counter:
        """Term frequencies over the visible parts of the page."""
        counts: Counter = Counter()
        snapshot = sources.snapshot
        for text in (snapshot.text, snapshot.title, snapshot.copyright_notice):
            counts.update(sources.memo.terms(text))
        for url in (sources.starting, sources.landing):
            counts.update(sources.free_url_terms(url))
            counts.update(sources.rdn_terms(url))
        for url in sources.href_links:
            counts.update(sources.free_url_terms(url))
        return counts

    def _rank(self, candidates: set[str], frequencies: Counter) -> list[str]:
        """Top-N candidates by visible frequency (ties alphabetical)."""
        ranked = sorted(
            candidates, key=lambda term: (-frequencies[term], term)
        )
        return ranked[: self.n_terms]

    # ------------------------------------------------------------------
    def extract(self, sources: DataSources) -> Keyterms:
        """Extract the boosted prominent and prominent lists for one page.

        The OCR-prominent list is left empty; :meth:`ocr_prominent`
        computes it.
        """
        term_sets = self.source_term_sets(sources)
        frequencies = self._visible_frequencies(sources)

        # Boosted prominent: in >= 2 of the five sets (any pair).
        membership: Counter = Counter()
        for terms in term_sets.values():
            membership.update(terms)
        boosted_candidates = {
            term for term, count in membership.items() if count >= 2
        }

        # Prominent: ignore co-occurrence contributed solely by the
        # text/links pair.
        prominent_candidates = set()
        for term, count in membership.items():
            if count < 2:
                continue
            only_text_links = (
                count == 2
                and term in term_sets["text"]
                and term in term_sets["links"]
            )
            if not only_text_links:
                prominent_candidates.add(term)

        return Keyterms(
            boosted_prominent=self._rank(boosted_candidates, frequencies),
            prominent=self._rank(prominent_candidates, frequencies),
        )

    def ocr_prominent(self, sources: DataSources) -> list[str]:
        """The OCR-prominent list of one page: read its screenshot.

        Empty without an OCR engine.  An OCR failure degrades
        gracefully to the same empty list, noted as ``"ocr_failed"`` in
        the page's ``degradation_notes``.
        """
        if self.ocr is None:
            return []
        try:
            recognised = self.ocr.read(sources.snapshot.screenshot)
        except OcrFailure:
            sources.degradation_notes.add("ocr_failed")
            return []
        term_sets = self.source_term_sets(sources)
        image_terms = set(sources.memo.terms(recognised))
        candidates = image_terms & set().union(*term_sets.values())
        # Image terms may be absent from the visible frequency count
        # (image-based pages); fall back to counting them once.
        frequencies = self._visible_frequencies(sources)
        for term in candidates:
            frequencies.setdefault(term, 1)
        return self._rank(candidates, frequencies)
