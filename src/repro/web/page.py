"""Page snapshots — the data sources a browser collects (Section II-C).

A :class:`PageSnapshot` bundles everything the paper's scraper saves for
one visited URL: the starting URL, the landing URL, the redirection chain
between them, the logged links (URLs of embedded content fetched while
loading), the HTML source and a screenshot.  The parsed HTML elements
(title, text, HREF links, copyright, element counts) are derived lazily
and cached.

Snapshots serialise to/from plain dicts (the paper's scraper stores json),
so datasets can be saved and reloaded without the synthetic web.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.html.extract import PageElements, extract_elements


@dataclass(frozen=True)
class Screenshot:
    """An abstract screenshot of a rendered webpage.

    ``rendered_text`` is the text a pixel-perfect OCR would read from the
    DOM-rendered regions; ``image_texts`` holds text baked into images
    (logos, text-as-image phishing), recoverable only through OCR.
    """

    rendered_text: str = ""
    image_texts: tuple[str, ...] = ()

    @property
    def full_text(self) -> str:
        """All text present in the screenshot pixels."""
        parts = [self.rendered_text, *self.image_texts]
        return "\n".join(part for part in parts if part)

    def to_dict(self) -> dict:
        """Plain-dict form for JSON storage."""
        return {
            "rendered_text": self.rendered_text,
            "image_texts": list(self.image_texts),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Screenshot":
        """Rebuild a screenshot from :meth:`to_dict` output."""
        return cls(
            rendered_text=data.get("rendered_text", ""),
            image_texts=tuple(data.get("image_texts", ())),
        )


@dataclass
class PageSnapshot:
    """Everything the browser observed while loading one webpage.

    Attributes
    ----------
    starting_url:
        The URL given to the user (distributed in emails, messages...).
    landing_url:
        The final URL in the address bar once loading completes.
    redirection_chain:
        URLs crossed from starting to landing URL (inclusive of both).
    logged_links:
        URLs of embedded content fetched while loading (code, images...).
    html:
        HTML source of the landing page (IFrames inlined by the browser).
    screenshot:
        Image capture of the loaded page.
    """

    starting_url: str
    landing_url: str
    redirection_chain: list[str] = field(default_factory=list)
    logged_links: list[str] = field(default_factory=list)
    html: str = ""
    screenshot: Screenshot = field(default_factory=Screenshot)
    _elements: PageElements | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _fingerprint: str | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if not self.redirection_chain:
            self.redirection_chain = [self.starting_url]
            if self.landing_url != self.starting_url:
                self.redirection_chain.append(self.landing_url)

    # ---- derived HTML elements (cached) --------------------------------
    @property
    def elements(self) -> PageElements:
        """Parsed HTML elements (title, text, links, counts); cached."""
        if self._elements is None:
            self._elements = extract_elements(self.html, base_url=self.landing_url)
        return self._elements

    @property
    def fingerprint(self) -> str:
        """:func:`~repro.parallel.cache.snapshot_fingerprint`; cached.

        Computed at the first read and kept, like :attr:`elements`, so
        the serving engine's memo and the feature store hash a loaded
        page once.  Read it from a finished snapshot: content assigned
        after the first read does not change it.
        """
        if self._fingerprint is None:
            # Local import: repro.parallel.cache builds on this module.
            from repro.parallel.cache import snapshot_fingerprint

            self._fingerprint = snapshot_fingerprint(self)
        return self._fingerprint

    @property
    def title(self) -> str:
        """Text of the ``<title>`` element."""
        return self.elements.title

    @property
    def text(self) -> str:
        """Rendered body text."""
        return self.elements.text

    @property
    def copyright_notice(self) -> str:
        """Copyright line found in the text ("" when absent)."""
        return self.elements.copyright_notice

    @property
    def href_links(self) -> list[str]:
        """Outgoing link URLs of the page."""
        return self.elements.href_links

    # ---- serialisation --------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-dict form, matching the scraper's json output."""
        return {
            "starting_url": self.starting_url,
            "landing_url": self.landing_url,
            "redirection_chain": list(self.redirection_chain),
            "logged_links": list(self.logged_links),
            "html": self.html,
            "screenshot": self.screenshot.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PageSnapshot":
        """Rebuild a snapshot from :meth:`to_dict` output."""
        return cls(
            starting_url=data["starting_url"],
            landing_url=data["landing_url"],
            redirection_chain=list(data.get("redirection_chain", [])),
            logged_links=list(data.get("logged_links", [])),
            html=data.get("html", ""),
            screenshot=Screenshot.from_dict(data.get("screenshot", {})),
        )
