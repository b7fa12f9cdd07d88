"""A lightweight, fault-tolerant DOM built on :mod:`html.parser`.

Real phishing pages are frequently malformed (unclosed tags, stray
end-tags), so the builder never raises on bad input: unknown end tags are
ignored and unclosed elements are implicitly closed at end of input.
Void elements (``img``, ``br``, ``input``...) never take children, and a
repeated attribute keeps its first value, as in a browser.
"""

from __future__ import annotations

from html.parser import HTMLParser

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
        """Rendered text of the subtree, skipping non-rendered elements."""
        fragments: list[str] = []
        self._collect_text(fragments)
        return separator.join(fragments)

    def _collect_text(self, fragments: list[str]) -> None:
        if self.tag in NON_RENDERED:
            return
        for child in self.children:
            if isinstance(child, str):
                stripped = child.strip()
                if stripped:
                    fragments.append(stripped)
            else:
                child._collect_text(fragments)


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
