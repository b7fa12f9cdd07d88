"""Extraction of the webpage elements used as data sources (Section II-C).

From the HTML source code the paper uses: the rendered *Text* (between
``<body>`` tags), the *Title*, the *HREF links* (outgoing links), the
*Copyright* notice found in the text, plus the element counts feature set
f5 relies on (input fields, images, IFrames).  Embedded-resource URLs
(``img``/``script``/``link``/... sources) are extracted as well — the
browser substrate turns them into the "logged links" data source.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass, field
from urllib.parse import urljoin, urlsplit

from repro.html.dom import HtmlNode, parse_html

# Tags whose URL attribute triggers a resource load in a browser.
_RESOURCE_ATTRS: dict[str, str] = {
    "img": "src",
    "script": "src",
    "iframe": "src",
    "frame": "src",
    "embed": "src",
    "source": "src",
    "audio": "src",
    "video": "src",
    "input": "src",         # <input type="image">
    "link": "href",         # stylesheets, icons
    "object": "data",
}

_COPYRIGHT_MARKERS = ("©", "(c)", "copyright", "all rights reserved")

_NON_FETCHABLE_SCHEMES = ("javascript:", "mailto:", "tel:", "data:", "#")

#: An absolute link that ``urljoin`` returns unchanged against any base
#: that parses: a lower-case ``http``/``https`` scheme, a non-empty
#: netloc without brackets (``urlsplit`` validates those), and no ``;``
#: (params), ``#`` or empty ``?`` (which ``urlunparse`` may drop) and
#: no tab, CR or LF (which ``urlsplit`` deletes).  Only ASCII links are
#: matched against it, so the netloc needs no NFKC check either.
_PLAIN_ABSOLUTE = re.compile(
    r"https?://[^/?#;\[\]\t\r\n]+(?:/[^?#;\t\r\n]*)?(?:\?[^#;\t\r\n]+)?"
)


@dataclass
class PageElements:
    """The browser-visible elements of one webpage.

    Attributes
    ----------
    title:
        Content of the ``<title>`` element ("" when absent).
    text:
        Rendered body text (script/style content excluded).
    copyright_notice:
        The copyright line found in the text, or "".
    href_links:
        Absolute URLs of outgoing links (``<a href>`` / ``<area href>``).
    resource_links:
        Absolute URLs of embedded resources the browser would fetch.
    form_actions:
        Absolute URLs that forms submit to.
    input_count, image_count, iframe_count:
        Element counts used by feature set f5.
    """

    title: str = ""
    text: str = ""
    copyright_notice: str = ""
    href_links: list[str] = field(default_factory=list)
    resource_links: list[str] = field(default_factory=list)
    form_actions: list[str] = field(default_factory=list)
    iframe_links: list[str] = field(default_factory=list)
    input_count: int = 0
    image_count: int = 0
    iframe_count: int = 0


def _link_resolver(base_url: str) -> Callable[[str], str | None]:
    """One page's link resolver: raw attribute value -> absolute URL.

    The resolver resolves against ``base_url`` and drops non-fetchable
    pseudo-URLs (``None``).  ``urljoin`` parses the base for every link
    and raises on a malformed one; the base is parsed once here, and a
    page whose base does not parse resolves no link at all.  A plain
    absolute link (ASCII, matching ``_PLAIN_ABSOLUTE``) is returned as
    ``urljoin`` would return it, unchanged, without the call.
    """
    if base_url:
        try:
            urlsplit(base_url)
        except ValueError:
            return _no_link

    def resolve(raw: str) -> str | None:
        raw = (raw or "").strip()
        if not raw:
            return None
        if raw.isascii() and _PLAIN_ABSOLUTE.fullmatch(raw):
            return raw
        lowered = raw.lower()
        if any(lowered.startswith(scheme) for scheme in _NON_FETCHABLE_SCHEMES):
            return None
        try:
            absolute = urljoin(base_url, raw)
        except ValueError:
            return None
        if not absolute.lower().startswith(("http://", "https://")):
            return None
        return absolute

    return resolve


def _no_link(raw: str) -> None:
    """The resolver of a page whose base URL does not parse."""
    return None


def find_copyright(text: str) -> str:
    """Return the copyright notice line found in ``text``, or "".

    The paper treats the copyright as a distinguished short text snippet:
    a line containing a copyright marker (``©``, ``(c)``, "copyright",
    "all rights reserved").
    """
    for line in re.split(r"[\n\r]+", text):
        lowered = line.lower()
        if any(marker in lowered for marker in _COPYRIGHT_MARKERS):
            return line.strip()
    return ""


def extract_elements(markup: str, base_url: str = "") -> PageElements:
    """Parse ``markup`` and extract every element of :class:`PageElements`.

    ``base_url`` is the page's landing URL; relative links are resolved
    against it, matching what a browser logs.  The DOM is walked once,
    in document order.
    """
    document = parse_html(markup)
    elements = PageElements()
    resolve = _link_resolver(base_url)
    title_node: HtmlNode | None = None
    body: HtmlNode | None = None

    for node in document.iter_nodes():
        tag = node.tag
        if tag in ("a", "area"):
            url = resolve(node.get("href", ""))
            if url:
                elements.href_links.append(url)
        elif tag == "form":
            url = resolve(node.get("action", ""))
            if url:
                elements.form_actions.append(url)
        elif tag == "input":
            if (node.get("type") or "text").lower() != "hidden":
                elements.input_count += 1
        elif tag == "textarea":
            elements.input_count += 1
        elif tag == "title":
            if title_node is None:
                title_node = node
        elif tag == "body":
            if body is None:
                body = node

        if tag == "img":
            elements.image_count += 1
        elif tag in ("iframe", "frame"):
            elements.iframe_count += 1
            url = resolve(node.get("src", ""))
            if url:
                elements.iframe_links.append(url)

        attr = _RESOURCE_ATTRS.get(tag)
        if attr is not None:
            url = resolve(node.get(attr, ""))
            if url:
                elements.resource_links.append(url)

    if title_node is not None:
        elements.title = title_node.text().strip()
    text_root: HtmlNode = body if body is not None else document
    # Use newline separation so the copyright line stays detectable.
    elements.text = text_root.text(separator="\n")
    elements.copyright_notice = find_copyright(elements.text)
    return elements
