"""Data sources of a webpage: Table I distributions, Table II partition.

:class:`DataSources` wraps a scraped :class:`~repro.web.page.PageSnapshot`
and exposes:

* the parsed URL views (starting, landing, redirection chain, logged
  links, HREF links);
* the **control partition** of Section III-A — RDNs occurring in the
  redirection chain are assumed under the page owner's control, so every
  link sharing one of those RDNs is *internal*, everything else
  *external*;
* the 14 **term distributions** of Table I, computed lazily and cached.

For IP-based URLs the RDN is undefined; RDN-based distributions are then
empty, reproducing the paper's Section VII-B observation that such pages
yield several null features.

Every parse, term extraction and distribution goes through a
:class:`BatchMemo`.  The ``DataSources`` of one batch share a memo, so
a link, title or host that recurs across pages, or a page that target
identification reads again after extraction, is parsed and
canonicalised once.
"""

from __future__ import annotations

from functools import cached_property

from repro.resilience.errors import OcrFailure
from repro.text.distributions import TermDistribution
from repro.text.terms import extract_terms
from repro.urls.parsing import ParsedUrl, UrlParseError, parse_url
from repro.urls.public_suffix import PublicSuffixList, default_psl
from repro.web.ocr import SimulatedOcr
from repro.web.page import PageSnapshot

#: The 12 distributions used by feature set f2 (copyright and image are
#: excluded, Section IV-B).
F2_DISTRIBUTION_NAMES = (
    "text", "title", "start", "land", "intlog", "intlink",
    "startrdn", "landrdn", "intrdn", "extrdn", "extlog", "extlink",
)

#: All Table I distribution names.
ALL_DISTRIBUTION_NAMES = F2_DISTRIBUTION_NAMES + ("copyright", "image")


#: Sentinel distinguishing "never parsed" from "parsed to a failure".
_UNPARSED = object()


def _url_identity(url: ParsedUrl) -> str:
    """Ownership identity of a URL: its RDN, or the raw host for IPs."""
    return url.rdn if url.rdn else url.fqdn


class BatchMemo:
    """Memo of the pure string work behind :class:`DataSources`.

    Holds URL parses (with :func:`~repro.urls.parsing.parse_url`'s host
    memo), extracted terms and term distributions, each keyed by its
    input.  Every value is a pure function of its key and of
    :attr:`psl`, so a memo hit equals a fresh computation: sharing a
    memo removes repeated work and never changes a result.  A memo
    grows with every distinct string it sees, so it lives for one
    batch (one ``analyze_batch`` or ``extract_batch`` call).
    """

    def __init__(self, psl: PublicSuffixList | None = None) -> None:
        self.psl = psl or default_psl()
        self.hosts: dict = {}
        self._urls: dict = {}
        self._terms: dict[str, tuple[str, ...]] = {}
        self._distributions: dict[tuple[str, ...], TermDistribution] = {}

    def try_parse(self, url: str) -> ParsedUrl | None:
        """``parse_url(url)``, or ``None`` where that raises."""
        parsed = self._urls.get(url, _UNPARSED)
        if parsed is _UNPARSED:
            try:
                parsed = parse_url(url, self.psl, self.hosts)
            except UrlParseError:
                parsed = None
            self._urls[url] = parsed
        return parsed

    def parse(self, url: str) -> ParsedUrl:
        """``parse_url(url)``: an unparsable URL raises on every call."""
        parsed = self.try_parse(url)
        return parsed if parsed is not None else parse_url(
            url, self.psl, self.hosts
        )

    def terms(self, text: str) -> tuple[str, ...]:
        """``extract_terms(text)``, as a tuple safe to share."""
        terms = self._terms.get(text)
        if terms is None:
            terms = self._terms[text] = tuple(extract_terms(text))
        return terms

    def distribution(self, terms: tuple[str, ...]) -> TermDistribution:
        """``TermDistribution.from_terms(terms)``.

        A distribution is a pure function of its term *sequence*
        (``Counter`` insertion order fixes its iteration order) and is
        immutable, so pages with equal term sequences share one.
        """
        distribution = self._distributions.get(terms)
        if distribution is None:
            distribution = TermDistribution.from_terms(terms)
            self._distributions[terms] = distribution
        return distribution


class DataSources:
    """Derived view of one page snapshot (distributions + partitions).

    Parameters
    ----------
    snapshot:
        The scraped page.
    psl:
        Public-suffix list for URL decomposition (default: the memo's,
        or the bundled snapshot).
    ocr:
        OCR engine for the ``image`` distribution; ``None`` disables OCR
        (``D_image`` is then empty) — OCR is slow and only consulted on
        demand (Section V-A).
    memo:
        Optional :class:`BatchMemo` shared with the other pages of a
        batch; without one, the instance makes its own.  A memo only
        spares repeated work and never changes a value.  It must have
        been built for the same public-suffix list (``psl`` may then be
        omitted); a mismatch raises ``ValueError``.
    """

    def __init__(
        self,
        snapshot: PageSnapshot,
        psl: PublicSuffixList | None = None,
        ocr: SimulatedOcr | None = None,
        memo: BatchMemo | None = None,
    ):
        if memo is None:
            memo = BatchMemo(psl)
        elif psl is not None and psl is not memo.psl:
            raise ValueError("memo was built for a different suffix list")
        self.snapshot = snapshot
        self.memo = memo
        self.psl = memo.psl
        self.ocr = ocr
        #: degradation tags accumulated while deriving the sources
        #: (e.g. ``"ocr_failed"``); consumed by the pipeline's verdict.
        self.degradation_notes: set[str] = set()

    # ------------------------------------------------------------------
    # parsed URL views
    # ------------------------------------------------------------------
    def _parse_many(self, urls) -> list[ParsedUrl]:
        """The parsable ``urls``, parsed; the others are skipped."""
        parsed = map(self.memo.try_parse, urls)
        return [url for url in parsed if url is not None]

    @cached_property
    def starting(self) -> ParsedUrl:
        """Parsed starting URL."""
        return self.memo.parse(self.snapshot.starting_url)

    @cached_property
    def landing(self) -> ParsedUrl:
        """Parsed landing URL."""
        return self.memo.parse(self.snapshot.landing_url)

    @cached_property
    def redirection_chain(self) -> list[ParsedUrl]:
        """Parsed redirection chain (starting and landing included)."""
        return self._parse_many(self.snapshot.redirection_chain)

    @cached_property
    def logged_links(self) -> list[ParsedUrl]:
        """Parsed logged (embedded-resource) links."""
        return self._parse_many(self.snapshot.logged_links)

    @cached_property
    def href_links(self) -> list[ParsedUrl]:
        """Parsed outgoing HREF links."""
        return self._parse_many(self.snapshot.href_links)

    # ------------------------------------------------------------------
    # control partition (Section III-A)
    # ------------------------------------------------------------------
    @cached_property
    def controlled_identities(self) -> set[str]:
        """RDNs (or IP hosts) assumed under the page owner's control."""
        return {_url_identity(url) for url in self.redirection_chain}

    def is_internal(self, url: ParsedUrl) -> bool:
        """True when ``url`` shares an RDN with the redirection chain."""
        return _url_identity(url) in self.controlled_identities

    @cached_property
    def internal_logged(self) -> list[ParsedUrl]:
        """Logged links under the page owner's control."""
        return [url for url in self.logged_links if self.is_internal(url)]

    @cached_property
    def external_logged(self) -> list[ParsedUrl]:
        """Logged links outside the owner's control."""
        return [url for url in self.logged_links if not self.is_internal(url)]

    @cached_property
    def internal_href(self) -> list[ParsedUrl]:
        """HREF links under the page owner's control."""
        return [url for url in self.href_links if self.is_internal(url)]

    @cached_property
    def external_href(self) -> list[ParsedUrl]:
        """HREF links outside the owner's control."""
        return [url for url in self.href_links if not self.is_internal(url)]

    # ------------------------------------------------------------------
    # term helpers
    # ------------------------------------------------------------------
    def free_url_terms(self, url: ParsedUrl) -> tuple[str, ...]:
        """Terms of a URL's FreeURL (subdomains, path, query)."""
        return self.memo.terms(url.free_url)

    def rdn_terms(self, url: ParsedUrl) -> tuple[str, ...]:
        """Terms of a URL's RDN (empty for IP-based URLs)."""
        return self.memo.terms(url.rdn) if url.rdn else ()

    def _text_distribution(self, text: str) -> TermDistribution:
        return self.memo.distribution(self.memo.terms(text))

    def _free_url_distribution(self, urls) -> TermDistribution:
        terms: list[str] = []
        for url in urls:
            terms.extend(self.free_url_terms(url))
        return self.memo.distribution(tuple(terms))

    def _rdn_distribution(self, urls) -> TermDistribution:
        terms: list[str] = []
        for url in urls:
            terms.extend(self.rdn_terms(url))
        return self.memo.distribution(tuple(terms))

    # ------------------------------------------------------------------
    # Table I distributions
    # ------------------------------------------------------------------
    @cached_property
    def d_text(self) -> TermDistribution:
        """``D_text`` — terms of the rendered body text."""
        return self._text_distribution(self.snapshot.text)

    @cached_property
    def d_title(self) -> TermDistribution:
        """``D_title`` — terms of the page title."""
        return self._text_distribution(self.snapshot.title)

    @cached_property
    def d_copyright(self) -> TermDistribution:
        """``D_copyright`` — terms of the copyright notice."""
        return self._text_distribution(self.snapshot.copyright_notice)

    @cached_property
    def d_image(self) -> TermDistribution:
        """OCR-derived distribution; empty without an OCR engine.

        An OCR *failure* degrades gracefully to the same empty
        distribution an OCR-less run produces, noted in
        :attr:`degradation_notes` — image terms are a refinement, never
        a hard dependency.
        """
        if self.ocr is None:
            return TermDistribution()
        try:
            text = self.ocr.read(self.snapshot.screenshot)
        except OcrFailure:
            self.degradation_notes.add("ocr_failed")
            return TermDistribution()
        return self._text_distribution(text)

    @cached_property
    def d_start(self) -> TermDistribution:
        """``D_start`` — FreeURL terms of the starting URL."""
        return self.memo.distribution(self.free_url_terms(self.starting))

    @cached_property
    def d_land(self) -> TermDistribution:
        """``D_land`` — FreeURL terms of the landing URL."""
        return self.memo.distribution(self.free_url_terms(self.landing))

    @cached_property
    def d_intlog(self) -> TermDistribution:
        """``D_intlog`` — FreeURL terms of internal logged links."""
        return self._free_url_distribution(self.internal_logged)

    @cached_property
    def d_intlink(self) -> TermDistribution:
        """``D_intlink`` — FreeURL terms of internal HREF links."""
        return self._free_url_distribution(self.internal_href)

    @cached_property
    def d_startrdn(self) -> TermDistribution:
        """``D_startrdn`` — RDN terms of the starting URL."""
        return self.memo.distribution(self.rdn_terms(self.starting))

    @cached_property
    def d_landrdn(self) -> TermDistribution:
        """``D_landrdn`` — RDN terms of the landing URL."""
        return self.memo.distribution(self.rdn_terms(self.landing))

    @cached_property
    def d_intrdn(self) -> TermDistribution:
        """RDN terms of internal links, HREF and logged combined."""
        return self._rdn_distribution(self.internal_href + self.internal_logged)

    @cached_property
    def d_extrdn(self) -> TermDistribution:
        """``D_extrdn`` — RDN terms of external logged links."""
        return self._rdn_distribution(self.external_logged)

    @cached_property
    def d_extlog(self) -> TermDistribution:
        """``D_extlog`` — FreeURL terms of external logged links."""
        return self._free_url_distribution(self.external_logged)

    @cached_property
    def d_extlink(self) -> TermDistribution:
        """``D_extlink`` — FreeURL terms of external HREF links."""
        return self._free_url_distribution(self.external_href)

    def distribution(self, name: str) -> TermDistribution:
        """Lookup a Table I distribution by its short name."""
        if name not in ALL_DISTRIBUTION_NAMES:
            raise KeyError(
                f"unknown distribution {name!r}; "
                f"expected one of {ALL_DISTRIBUTION_NAMES}"
            )
        return getattr(self, f"d_{name}")
