"""Extraction of the webpage elements used as data sources (Section II-C).

From the HTML source code the paper uses: the rendered *Text* (between
``<body>`` tags), the *Title*, the *HREF links* (outgoing links), the
*Copyright* notice found in the text, plus the element counts feature set
f5 relies on (input fields, images, IFrames).  Embedded-resource URLs
(``img``/``script``/``link``/... sources) are extracted as well — the
browser substrate turns them into the "logged links" data source.

The markup is read in one pass that fills :class:`PageElements`
directly; no tree is built.  A well-formed start or end tag is read by
one regex (``_FAST_TAG``); every other ``<`` follows the rules of
CPython 3.11.7's ``html.parser`` fed the whole page and then closed,
copied into this module, except where ``html.parser`` raises (``<![``
sections; see ``_PageScan``).  Real phishing pages are often malformed,
so the pass never raises, and it takes time linear in the page on every
input.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass, field
from html import unescape
from urllib.parse import urljoin, urlsplit

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

#: Tags whose attributes feed :class:`PageElements`; no other tag's
#: attributes are parsed.
_ATTRIBUTE_TAGS = frozenset({"a", "area", "form", "input", *_RESOURCE_ATTRS})

#: Elements that never take children.
VOID_ELEMENTS = frozenset(
    {
        "area", "base", "br", "col", "embed", "hr", "img", "input",
        "link", "meta", "param", "source", "track", "wbr",
    }
)

#: Elements whose content is never rendered as user-visible text.
NON_RENDERED = frozenset({"script", "style", "noscript", "template", "head"})

_COPYRIGHT_MARKER = re.compile(
    r"©|\(c\)|copyright|all rights reserved", re.ASCII | re.IGNORECASE
)
_LINE_BREAK = re.compile(r"[\n\r]")

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

# ---- the fast path ---------------------------------------------------
#
# An ASCII tag name followed by ASCII whitespace, '/' or '>'; attributes
# separated by ASCII whitespace, each without a value or with a quoted
# value or an unquoted one holding no quote, '=', '<' or whitespace;
# then '>' or '/>'.  html.parser reads every such tag the same way.  It
# does not read these forms so, and the regex refuses them: a '\x0b' or
# non-ASCII space after the name (part of the name there), 'a==b' (value
# 'b' there), a value holding a quote, '=' or '<', and '</ p>'.  An
# unquoted value may end in '/' ('href=x/>'): the '/' is the value's
# and the tag is not self-closing, as there.
_FAST_TAG = re.compile(
    r"<(?:([a-zA-Z][-.:_a-zA-Z0-9]*)"
    r"((?:[\t\n\f\r ]+[^\s\"'<>/=]+"
    r"(?:[\t\n\f\r ]*=[\t\n\f\r ]*(?:\"[^\"]*\"|'[^']*'|[^\s\"'<>=]+))?)*)"
    r"[\t\n\f\r ]*(/?)>"
    r"|/([a-zA-Z][-.:_a-zA-Z0-9]*)[\t\n\f\r ]*>)"
)
_FAST_ATTRIBUTE = re.compile(
    r"[\t\n\f\r ]+([^\s\"'<>/=]+)(?:[\t\n\f\r ]*=[\t\n\f\r ]*"
    r"(?:\"([^\"]*)\"|'([^']*)'|([^\s\"'<>=]+)))?"
)

# ---- the slow path: CPython 3.11.7's rules -----------------------------
#
# Copied from Lib/html/parser.py (tagfind_tolerant, attrfind_tolerant,
# locatestarttagend_tolerant, endtagfind, commentclose, set_cdata_mode)
# and Lib/_markupbase.py (_declname_match, _markedsectionclose,
# _msmarkedsectionclose) of CPython 3.11.7, so the result depends on this
# module alone, not on the interpreter's html.parser.
# locatestarttagend_tolerant is split at its repeated attribute group
# into _LOCATE_HEAD and _LOCATE_ATTRIBUTE: the group never has to give
# back an iteration (everything after it matches the empty string), so
# matching it one attribute at a time finds the same end.
_TAGFIND_TOLERANT = re.compile(r"([a-zA-Z][^\t\n\r\f />\x00]*)(?:\s|/(?!>))*")
_ATTRFIND_TOLERANT = re.compile(
    r"((?<=[\'\"\s/])[^\s/>][^\s/=>]*)(\s*=+\s*"
    r"(\'[^\']*\'|\"[^\"]*\"|(?![\'\"])[^>\s]*))?(?:\s|/(?!>))*"
)
_LOCATE_HEAD = re.compile(r"<[a-zA-Z][^\t\n\r\f />\x00]*[\s/]*")
_LOCATE_ATTRIBUTE = re.compile(r"""
    (?<=['"\s/])[^\s/>][^\s/=>]*     # attribute name
    (?:\s*=+\s*                      # value indicator
      (?:'[^']*'                     # LITA-enclosed value
        |"[^"]*"                     # LIT-enclosed value
        |(?!['"])[^>\s]*             # bare value
       )
      \s*                            # possibly followed by a space
     )?(?:\s|/(?!>))*
""", re.VERBOSE)
_ENDTAGFIND = re.compile(r"</\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>")
_COMMENT_CLOSE = re.compile(r"--\s*>")
_GREATER_THAN = re.compile(">")
_DECLNAME = re.compile(r"[a-zA-Z][-_.a-zA-Z0-9]*\s*")
_MARKED_SECTION_CLOSE = dict.fromkeys(
    ("temp", "cdata", "ignore", "include", "rcdata"), re.compile(r"]\s*]\s*>")
) | dict.fromkeys(("if", "else", "endif"), re.compile(r"]\s*>"))
#: The end of a script or style element's raw text.
_RAW_TEXT_END = {
    tag: re.compile(r"</\s*%s\s*>" % tag, re.I) for tag in ("script", "style")
}
_ASCII_LETTERS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
)
#: After a start tag's attributes, these (or the end of the input) mean
#: the tag is not finished.
_UNFINISHED_TAG = _ASCII_LETTERS | {"=", "/"}


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
    "all rights reserved").  Lines end at CR or LF.  Case is folded for
    ASCII letters only, which is what lower-casing each line does for
    these markers: no other character lower-cases into one of them.
    """
    marker = _COPYRIGHT_MARKER.search(text)
    if marker is None:
        return ""
    start = marker.start()
    line_start = max(text.rfind("\n", 0, start), text.rfind("\r", 0, start)) + 1
    line_end = _LINE_BREAK.search(text, start)
    return text[line_start:line_end.start() if line_end else len(text)].strip()


def _fast_attributes(source: str) -> dict[str, str]:
    """The attributes of a fast-path tag; a repeated name keeps its first
    value, as in the HTML tokenizer and every browser."""
    attributes: dict[str, str] = {}
    for name, double, single, bare in _FAST_ATTRIBUTE.findall(source):
        attributes.setdefault(name.lower(), unescape(double or single or bare))
    return attributes


_NO_ATTRIBUTES: dict[str, str] = {}


class _TextRoot:
    """The first ``title`` or ``body`` element: where it sits on the
    stack of open elements, and the text fragments rendered inside it."""

    __slots__ = ("depth", "hidden", "open", "fragments")

    def __init__(self, depth: int, hidden: int, is_open: bool):
        self.depth = depth
        self.hidden = hidden
        self.open = is_open
        self.fragments: list[str] = []


class _PageScan:
    """One pass over one page's markup, filling a :class:`PageElements`.

    The tree's rules are kept on a stack of open tag names: a void
    element or ``<x/>`` never opens, an end tag closes up to the nearest
    open element of its name, and a stray end tag is ignored.  Links and
    counts are taken as each start tag is read, which is document order.
    Each text fragment counts for the first ``title`` and ``body`` (or
    the document, when there is no body) open at that moment, unless a
    non-rendered element opened inside them is open too.

    One departure from ``html.parser``: ``<![`` with an unknown keyword
    or no name is a bogus comment up to the next ``>``, as in HTML5,
    where ``html.parser`` raises ``AssertionError``.

    Time stays linear where ``html.parser``'s goes quadratic, on
    constructs left open to the end of the input, with the same result:
    a search that failed from one position is not run again from a later
    one (``_search``), and a start tag's attribute scan stops where an
    earlier scan already went (``_attributes_end``).
    """

    def __init__(self, markup: str, resolve: Callable[[str], str | None]):
        self.markup = markup
        self.resolve = resolve
        self.elements = PageElements()
        self.stack: list[str] = []
        self.open_counts: dict[str, int] = {}
        self.hidden = 0                     # non-rendered elements open
        self.title: _TextRoot | None = None
        self.body: _TextRoot | None = None
        self.open_roots: list[_TextRoot] = []  # by depth, deepest last
        self.document_text: list[str] = []  # used when there is no body
        self.failed_from: dict[re.Pattern, int] = {}
        self.attribute_ends: dict[int, int] = {}

    def run(self) -> PageElements:
        """Read the whole markup, then assemble title, text and copyright."""
        markup = self.markup
        n = len(markup)
        find = markup.find
        fast = _FAST_TAG.match
        i = 0
        while i < n:
            j = find("<", i)
            if j < 0:
                j = n
            if i < j:
                text = unescape(markup[i:j]).strip()
                if text:
                    self._text(text)
                if j == n:
                    break
            tag = fast(markup, j)
            if tag is None:
                i = self._markup(j)
                continue
            i = tag.end()
            name, source, slash, end_name = tag.groups()
            if name is None:
                self._close(end_name.lower())
                continue
            name = name.lower()
            attributes = (
                _fast_attributes(source) if name in _ATTRIBUTE_TAGS
                else _NO_ATTRIBUTES
            )
            i = self._open(name, attributes, slash == "/", i)

        elements = self.elements
        if self.title is not None:
            elements.title = " ".join(self.title.fragments).strip()
        fragments = self.document_text if self.body is None else self.body.fragments
        # Newline separation keeps the copyright line detectable.
        elements.text = "\n".join(fragments)
        elements.copyright_notice = find_copyright(elements.text)
        return elements

    # ---- the tree's rules ------------------------------------------
    def _open(self, tag: str, attributes: dict[str, str], closed: bool,
              end: int) -> int:
        """A start tag ending at ``end``; return where reading resumes."""
        elements = self.elements
        resolve = self.resolve
        if tag == "a" or tag == "area":
            url = resolve(attributes.get("href", ""))
            if url:
                elements.href_links.append(url)
        elif tag == "form":
            url = resolve(attributes.get("action", ""))
            if url:
                elements.form_actions.append(url)
        elif tag == "input":
            if (attributes.get("type") or "text").lower() != "hidden":
                elements.input_count += 1
        elif tag == "textarea":
            elements.input_count += 1
        elif tag == "img":
            elements.image_count += 1
        elif tag == "iframe" or tag == "frame":
            elements.iframe_count += 1
            url = resolve(attributes.get("src", ""))
            if url:
                elements.iframe_links.append(url)
        elif tag == "title" or tag == "body":
            if getattr(self, tag) is None:
                root = _TextRoot(len(self.stack), self.hidden, not closed)
                setattr(self, tag, root)
                if root.open:
                    self.open_roots.append(root)
        attr = _RESOURCE_ATTRS.get(tag)
        if attr is not None:
            url = resolve(attributes.get(attr, ""))
            if url:
                elements.resource_links.append(url)

        if closed or tag in VOID_ELEMENTS:
            return end
        self.stack.append(tag)
        self.open_counts[tag] = self.open_counts.get(tag, 0) + 1
        if tag in NON_RENDERED:
            self.hidden += 1
        if tag in _RAW_TEXT_END:
            return self._raw_text(tag, end)
        return end

    def _close(self, tag: str) -> None:
        """An end tag: close up to the nearest open element of its name."""
        if not self.open_counts.get(tag):
            return
        stack = self.stack
        index = len(stack) - 1
        while stack[index] != tag:
            index -= 1
        for name in stack[index:]:
            self.open_counts[name] -= 1
            if name in NON_RENDERED:
                self.hidden -= 1
        del stack[index:]
        roots = self.open_roots
        while roots and roots[-1].depth >= index:
            roots.pop().open = False

    def _text(self, text: str) -> None:
        """A stripped, non-empty text fragment."""
        hidden = self.hidden
        body = self.body
        if body is None:
            if hidden == 0:
                self.document_text.append(text)
        elif body.open and hidden == body.hidden:
            body.fragments.append(text)
        title = self.title
        if title is not None and title.open and hidden == title.hidden:
            title.fragments.append(text)

    def _data(self, data: str) -> None:
        text = data.strip()
        if text:
            self._text(text)

    def _raw_text(self, tag: str, i: int) -> int:
        """Skip a script or style element's content, which is never
        rendered; the rest of the input when it is never closed."""
        markup = self.markup
        while True:
            end = _RAW_TEXT_END[tag].search(markup, i)
            if end is None:
                return len(markup)
            closing = _ENDTAGFIND.match(markup, end.start())
            if closing is not None:
                self._close(closing.group(1).lower())
                return end.end()
            i = end.end()

    # ---- the slow path ---------------------------------------------
    def _search(self, pattern: re.Pattern, pos: int) -> re.Match | None:
        """``pattern.search(markup, pos)``, not repeated past a failure."""
        if pos >= self.failed_from.get(pattern, len(self.markup) + 1):
            return None
        match = pattern.search(self.markup, pos)
        if match is None:
            self.failed_from[pattern] = pos
        return match

    def _search_end(self, pattern: re.Pattern, pos: int) -> int:
        match = self._search(pattern, pos)
        return -1 if match is None else match.end()

    def _markup(self, i: int) -> int:
        """A ``<`` the fast path refused: html.parser's rules, with the
        input closed; return where reading resumes."""
        markup = self.markup
        following = markup[i + 1:i + 2]
        if following in _ASCII_LETTERS:
            end = self._start_tag(i)
        elif following == "/":
            end = self._end_tag(i)
        elif markup.startswith("<!--", i):
            end = self._search_end(_COMMENT_CLOSE, i + 4)
        elif following == "?":
            end = self._search_end(_GREATER_THAN, i + 2)
        elif following == "!":
            end = self._declaration(i)
        else:
            self._data("<")
            return i + 1
        if end < 0:
            # Not finished before the end of the input: up to the next
            # '>' (or to the next '<') is text.
            gt = self._search(_GREATER_THAN, i + 1)
            if gt is not None:
                end = gt.end()
            else:
                end = markup.find("<", i + 1)
                if end < 0:
                    end = i + 1
            self._data(unescape(markup[i:end]))
        return end

    def _start_tag(self, i: int) -> int:
        """check_for_whole_start_tag, then parse_starttag."""
        markup = self.markup
        j = self._attributes_end(_LOCATE_HEAD.match(markup, i).end())
        following = markup[j:j + 1]
        if following == ">":
            end = j + 1
        elif following == "/":
            if not markup.startswith("/>", j):
                return -1
            end = j + 2
        elif not following or following in _UNFINISHED_TAG:
            return -1
        else:
            end = j
        name = _TAGFIND_TOLERANT.match(markup, i + 1)
        k = name.end()
        attributes: dict[str, str] = {}
        while k < end:
            attribute = _ATTRFIND_TOLERANT.match(markup, k)
            if attribute is None:
                break
            key, rest, value = attribute.group(1, 2, 3)
            if not rest:
                value = None
            elif value[:1] == "'" == value[-1:] or value[:1] == '"' == value[-1:]:
                value = value[1:-1]
            if value:
                value = unescape(value)
            attributes.setdefault(key.lower(), value or "")
            k = attribute.end()
        ending = markup[k:end].strip()
        if ending not in (">", "/>"):
            self._data(markup[i:end])
            return end
        return self._open(name.group(1).lower(), attributes, ending == "/>", end)

    def _attributes_end(self, pos: int) -> int:
        """Where locatestarttagend_tolerant's attribute group, matched
        from ``pos``, ends.  Each attribute's match depends on its start
        alone, so every start this scan passes is kept with the end it
        reached, and a later scan stops at the first start it shares."""
        ends = self.attribute_ends
        markup = self.markup
        passed = []
        end = ends.get(pos)
        while end is None:
            attribute = _LOCATE_ATTRIBUTE.match(markup, pos)
            if attribute is None:
                end = pos
                break
            passed.append(pos)
            pos = attribute.end()
            end = ends.get(pos)
        for start in passed:
            ends[start] = end
        return end

    def _end_tag(self, i: int) -> int:
        """parse_endtag outside script and style."""
        markup = self.markup
        gt = self._search(_GREATER_THAN, i + 1)
        if gt is None:
            return -1
        tag = _ENDTAGFIND.match(markup, i)
        if tag is not None:
            self._close(tag.group(1).lower())
            return gt.end()
        name = _TAGFIND_TOLERANT.match(markup, i + 2)
        if name is None:
            if markup.startswith("</>", i):
                return i + 3
            return self._search_end(_GREATER_THAN, i + 2)
        self._close(name.group(1).lower())
        return gt.end()

    def _declaration(self, i: int) -> int:
        """parse_html_declaration, for a ``<!`` that opens no comment."""
        markup = self.markup
        if markup.startswith("<![", i):
            return self._marked_section(i)
        if markup[i:i + 9].lower() == "<!doctype":
            return self._search_end(_GREATER_THAN, i + 9)
        return self._search_end(_GREATER_THAN, i + 2)

    def _marked_section(self, i: int) -> int:
        """parse_marked_section; an unknown keyword or a missing name
        makes a bogus comment instead of an ``AssertionError``."""
        markup = self.markup
        start = i + 3
        if start == len(markup):
            return -1
        name = _DECLNAME.match(markup, start)
        if name is not None and name.end() == len(markup):
            return -1
        close = None if name is None else _MARKED_SECTION_CLOSE.get(
            name.group().strip().lower()
        )
        if close is None:
            return self._search_end(_GREATER_THAN, i + 2)
        return self._search_end(close, start)


def extract_elements(markup: str, base_url: str = "") -> PageElements:
    """Read ``markup`` and extract every element of :class:`PageElements`.

    ``base_url`` is the page's landing URL; relative links are resolved
    against it, matching what a browser logs.  The markup is read once,
    in document order; empty or non-string markup is an empty page.
    """
    scan = _PageScan(markup if isinstance(markup, str) else "", _link_resolver(base_url))
    return scan.run()
