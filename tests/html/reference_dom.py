"""The test oracle for page load: the DOM builder and the walk that
``repro.html.extract.extract_elements`` ran before its one-pass scanner.

Kept verbatim as the reference the scanner is compared against, as
``tests/core/reference_features.py`` is for feature extraction.  It
parses with the running interpreter's :mod:`html.parser`, so it is
compared only on markup that the supported Pythons' parsers all read
the same way, and it raises ``AssertionError`` where that parser does
(``<![x]>``); the scanner copies CPython 3.11.7's rules.
"""

from __future__ import annotations

import re
from html.parser import HTMLParser

from repro.html.extract import _RESOURCE_ATTRS, PageElements, _link_resolver

# ---- repro/html/dom.py -------------------------------------------------
# A lightweight, fault-tolerant DOM built on :mod:`html.parser`.
#
# Real phishing pages are frequently malformed (unclosed tags, stray
# end-tags), so the builder never raises on bad input: unknown end tags are
# ignored and unclosed elements are implicitly closed at end of input.
# Void elements (``img``, ``br``, ``input``...) never take children, and a
# repeated attribute keeps its first value, as in a browser.

VOID_ELEMENTS = frozenset(
    {
        "area", "base", "br", "col", "embed", "hr", "img", "input",
        "link", "meta", "param", "source", "track", "wbr",
    }
)

# Content of these elements is never rendered as user-visible text.
NON_RENDERED = frozenset({"script", "style", "noscript", "template", "head"})


class HtmlNode:
    """A single element (or the synthetic ``#document`` root)."""

    __slots__ = ("tag", "attrs", "children", "parent")

    def __init__(self, tag: str, attrs: dict[str, str] | None = None, parent=None):
        self.tag = tag
        self.attrs: dict[str, str] = attrs or {}
        self.children: list[HtmlNode | str] = []
        self.parent: HtmlNode | None = parent

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<HtmlNode {self.tag} children={len(self.children)}>"

    # ---- traversal ----------------------------------------------------
    def iter_nodes(self):
        """This node and all element descendants in document (pre-)order.

        One generator over an explicit stack, not one per element.
        """
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(
                child for child in reversed(node.children)
                if isinstance(child, HtmlNode)
            )

    def find_all(self, tag: str) -> list["HtmlNode"]:
        """All descendant elements (including self) with the given tag."""
        return [node for node in self.iter_nodes() if node.tag == tag]

    def find(self, tag: str) -> "HtmlNode | None":
        """First descendant element with the given tag, or ``None``."""
        for node in self.iter_nodes():
            if node.tag == tag:
                return node
        return None

    def get(self, attr: str, default: str | None = None) -> str | None:
        """Attribute lookup (attribute names are lower-cased at parse time)."""
        return self.attrs.get(attr, default)

    # ---- text extraction ----------------------------------------------
    def text(self, separator: str = " ") -> str:
        """Rendered text of the subtree, skipping non-rendered elements.

        Walks in document order over an explicit stack of child
        iterators, so a phisher's page nested thousands of elements deep
        reads like any other instead of exhausting the recursion limit.
        """
        if self.tag in NON_RENDERED:
            return ""
        fragments: list[str] = []
        stack = [iter(self.children)]
        while stack:
            for child in stack[-1]:
                if isinstance(child, str):
                    stripped = child.strip()
                    if stripped:
                        fragments.append(stripped)
                elif child.tag not in NON_RENDERED:
                    stack.append(iter(child.children))
                    break
            else:
                stack.pop()
        return separator.join(fragments)


def _attributes(attrs) -> dict[str, str]:
    """One start tag's attributes; a repeated name keeps its first value.

    The HTML tokenizer drops later duplicates, and so does every
    browser: ``<a href=real href=decoy>`` links to ``real``.
    """
    attributes: dict[str, str] = {}
    for name, value in attrs:
        attributes.setdefault(name.lower(), value or "")
    return attributes


class _DomBuilder(HTMLParser):
    """Streams html.parser events into an :class:`HtmlNode` tree."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.root = HtmlNode("#document")
        self._stack = [self.root]

    # -- element events --
    def handle_starttag(self, tag, attrs):
        node = HtmlNode(tag, _attributes(attrs), self._stack[-1])
        self._stack[-1].children.append(node)
        if tag not in VOID_ELEMENTS:
            self._stack.append(node)

    def handle_startendtag(self, tag, attrs):
        node = HtmlNode(tag, _attributes(attrs), self._stack[-1])
        self._stack[-1].children.append(node)

    def handle_endtag(self, tag):
        # Close up to the nearest matching open element; ignore stray tags.
        for index in range(len(self._stack) - 1, 0, -1):
            if self._stack[index].tag == tag:
                del self._stack[index:]
                return

    # -- text events --
    def handle_data(self, data):
        if data:
            self._stack[-1].children.append(data)

    def handle_entityref(self, name):  # pragma: no cover - convert_charrefs on
        self._stack[-1].children.append(f"&{name};")


def parse_html(markup: str) -> HtmlNode:
    """Parse ``markup`` into a DOM tree rooted at a ``#document`` node.

    Never raises on malformed input; returns an empty document for empty
    or non-string input.
    """
    builder = _DomBuilder()
    if isinstance(markup, str) and markup:
        builder.feed(markup)
        builder.close()
    return builder.root


# ---- repro/html/extract.py: the walk extract_elements ran ------------
_COPYRIGHT_MARKERS = ("©", "(c)", "copyright", "all rights reserved")


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
