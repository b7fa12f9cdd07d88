"""Target identification (Section V-B).

Given a (suspected phishing) page, the identifier either confirms the
page as legitimate — its own RDN ranks in search results for its
keyterms — or names the target brand(s) it impersonates.  The five-step
process:

1. Extract *boosted prominent terms*; try to "guess" target FQDNs from
   the mlds collected in the page's URLs (an mld composable from
   keyterms, possibly separated by dashes/digits, looks like a brand
   domain).  Search each guess; if the page's own RDN comes back, the
   page is legitimate.
2. Query the *prominent terms*; own RDN returned => legitimate; result
   mlds appearing in a controlled data source become candidate targets.
3. Same with *boosted prominent terms*.
4. Same with *OCR prominent terms* (slow OCR, consulted last).
5. Rank candidate mlds by how often they appear in the page's data
   sources; return the top-k.

Verdicts: ``"legitimate"`` (search confirmed), ``"phish"`` (candidate
target(s) found) or ``"suspicious"`` (neither).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.datasources import DataSources
from repro.core.keyterms import KeytermExtractor, Keyterms
from repro.text.terms import compact_canonical
from repro.urls.public_suffix import PublicSuffixList, default_psl
from repro.web.ocr import SimulatedOcr
from repro.web.page import PageSnapshot
from repro.web.search import SearchEngine

_SEPARATORS = set("-0123456789")

#: Distributions a page owner controls (Table II) — a candidate target
#: must be referenced in one of these to count (step 2).
_CONTROLLED_SOURCES = (
    "text", "title", "copyright", "start", "land",
    "intlog", "intlink", "startrdn", "landrdn", "intrdn",
)


def mld_composable_from(mld: str, keyterms) -> bool:
    """True when ``mld`` can be composed from ``keyterms``.

    Keyterms may be separated by dashes or digit runs (Section V-B:
    ``bankofamerica`` from ``bank``, ``of``, ``america``).  At least one
    keyterm must participate.
    """
    term_list = [term for term in keyterms if term]
    if not mld or not term_list:
        return False
    target = mld.lower()
    n = len(target)
    reachable = [False] * (n + 1)
    reachable[0] = True
    used_term = [False] * (n + 1)
    for index in range(n):
        if not reachable[index]:
            continue
        if target[index] in _SEPARATORS:
            reachable[index + 1] = True
            used_term[index + 1] = used_term[index] or used_term[index + 1]
            continue
        for term in term_list:
            if target.startswith(term, index):
                end = index + len(term)
                reachable[end] = True
                used_term[end] = True
    return reachable[n] and used_term[n]


@dataclass
class TargetIdentification:
    """Outcome of the identification process for one page."""

    verdict: str                       # "legitimate" | "phish" | "suspicious"
    targets: list[str] = field(default_factory=list)   # ranked candidate mlds
    step: int = 0                      # step that decided (1-5)
    keyterms: Keyterms | None = None

    @property
    def top_target(self) -> str | None:
        """The single most likely target mld (top-1)."""
        return self.targets[0] if self.targets else None

    def target_in_top(self, true_mld: str, k: int) -> bool:
        """True when ``true_mld`` is among the top-``k`` candidates."""
        return true_mld in self.targets[:k]


class TargetIdentifier:
    """The five-step target identification system.

    Parameters
    ----------
    search:
        Search engine over the legitimate web.
    ocr:
        OCR engine for step 4; ``None`` skips the OCR step.
    n_terms:
        Keyterms per list (N=5 in the paper).
    top_k:
        Maximum number of ranked targets returned (paper evaluates 1-3).
    search_depth:
        Results requested per search query.
    """

    def __init__(
        self,
        search: SearchEngine,
        ocr: SimulatedOcr | None = None,
        n_terms: int = 5,
        top_k: int = 3,
        search_depth: int = 10,
        psl: PublicSuffixList | None = None,
    ):
        self.search = search
        self.ocr = ocr
        self.keyterm_extractor = KeytermExtractor(n_terms=n_terms, ocr=ocr)
        self.top_k = top_k
        self.search_depth = search_depth
        self.psl = psl or default_psl()

    # ------------------------------------------------------------------
    def identify(
        self,
        page: PageSnapshot | DataSources,
        deadline=None,
    ) -> TargetIdentification:
        """Run the full five-step identification on one page.

        ``deadline`` (a :class:`~repro.resilience.retry.Deadline`) is
        checked before every search query — the expensive, external
        part of identification — raising
        :class:`~repro.resilience.errors.DeadlineExceeded` once the
        budget is gone, so a request never searches past its budget.
        The caller (the pipeline) turns that into a degraded,
        detector-only verdict.
        """
        sources = (
            page if isinstance(page, DataSources)
            else DataSources(page, psl=self.psl)
        )
        keyterms = self.keyterm_extractor.extract(sources)
        suspected_rdns = {
            rdn for rdn in (sources.starting.rdn, sources.landing.rdn) if rdn
        }

        # ---- step 1: guess target FQDNs from collected mlds ------------
        collected_mlds = self._collected_mlds(sources)
        guesses = [
            mld for mld in collected_mlds
            if mld_composable_from(mld, keyterms.boosted_prominent)
        ][:3]  # "typically 2-3" guessed FQDNs
        for guess in guesses:
            if deadline is not None:
                deadline.check("target identification (step 1 search)")
            returned = self.search.result_rdns(
                [guess, *keyterms.boosted_prominent], top_k=self.search_depth
            )
            if suspected_rdns & returned:
                return TargetIdentification(
                    verdict="legitimate", step=1, keyterms=keyterms
                )

        candidates: dict[str, int] = {}
        controlled: dict[str, list[str]] | None = None

        # ---- steps 2-4: keyterm queries ---------------------------------
        steps = [
            (2, keyterms.prominent),
            (3, keyterms.boosted_prominent),
            (4, keyterms.ocr_prominent),
        ]
        for step, terms in steps:
            if not terms:
                continue
            if step == 4 and self.ocr is None:
                continue
            if deadline is not None:
                deadline.check(f"target identification (step {step} search)")
            results = self.search.query(terms, top_k=self.search_depth)
            result_rdns = {result.rdn for result in results}
            if suspected_rdns & result_rdns:
                return TargetIdentification(
                    verdict="legitimate", step=step, keyterms=keyterms
                )
            found_new = False
            for result in results:
                if result.mld in candidates:
                    continue
                if result.rdn in suspected_rdns:
                    continue
                if controlled is None:
                    controlled = self._controlled_terms(sources)
                if self._appears_in_controlled_source(result.mld, controlled):
                    candidates[result.mld] = 0
                    found_new = True
            # The paper moves to target selection as soon as a step
            # yields candidates (step 2 -> step 5 directly).
            if found_new and step >= 2:
                break

        # ---- step 5: target selection -----------------------------------
        if not candidates:
            return TargetIdentification(
                verdict="suspicious", step=5, keyterms=keyterms
            )
        haystacks = self._haystacks(sources)
        for mld in candidates:
            candidates[mld] = self._count_appearances(mld, haystacks)
        ranked = sorted(candidates.items(), key=lambda kv: (-kv[1], kv[0]))
        targets = [mld for mld, _count in ranked[: self.top_k]]
        return TargetIdentification(
            verdict="phish", targets=targets, step=5, keyterms=keyterms
        )

    # ------------------------------------------------------------------
    def _collected_mlds(self, sources: DataSources) -> list[str]:
        """mlds collected from the page's URLs (step 1), deduplicated."""
        urls = (
            [sources.starting, sources.landing]
            + sources.logged_links
            + sources.href_links
        )
        seen: dict[str, None] = {}
        for url in urls:
            if url.mld:
                seen.setdefault(url.mld, None)
        return list(seen)

    @staticmethod
    def _controlled_terms(sources: DataSources) -> dict[str, list[str]]:
        """Term -> the controlled sources whose distribution holds it."""
        index: dict[str, list[str]] = {}
        for name in _CONTROLLED_SOURCES:
            for term in sources.distribution(name):
                index.setdefault(term, []).append(name)
        return index

    @staticmethod
    def _appears_in_controlled_source(
        mld: str, controlled: dict[str, list[str]]
    ) -> bool:
        """Does ``mld`` show up in a source the page owner controls?

        It does when its compact canonical form is a term of one
        (``controlled`` is :meth:`_controlled_terms`), or when it is
        composable from one source's terms.  A term can only take part
        in a composition where it is a substring of the mld, so each
        source is tried with just those of its terms.
        """
        canonical = compact_canonical(mld)
        if len(canonical) < 3:
            return False
        if canonical in controlled:
            return True
        target = mld.lower()
        pieces = {
            target[start:end]
            for start in range(len(target))
            for end in range(start + 1, len(target) + 1)
        }
        held: dict[str, list[str]] = {}
        for piece in pieces:
            for name in controlled.get(piece, ()):
                held.setdefault(name, []).append(piece)
        return any(mld_composable_from(mld, terms) for terms in held.values())

    @staticmethod
    def _haystacks(sources: DataSources) -> list[str]:
        """The page's texts and URLs as compact canonical strings (step 5)."""
        snapshot = sources.snapshot
        texts = [
            snapshot.text, snapshot.title, snapshot.copyright_notice,
            sources.starting.raw, sources.landing.raw,
        ]
        texts += [url.raw for url in sources.href_links + sources.logged_links]
        return [compact_canonical(text) for text in texts]

    @staticmethod
    def _count_appearances(mld: str, haystacks: list[str]) -> int:
        """Occurrences of ``mld`` across the page's haystacks (step 5)."""
        canonical = compact_canonical(mld)
        if not canonical:
            return 0
        return sum(haystack.count(canonical) for haystack in haystacks)
