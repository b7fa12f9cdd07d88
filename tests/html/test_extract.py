"""Tests for webpage-element extraction (Section II-C data sources)."""

import html
import time
from urllib.parse import urljoin

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.html.extract import (
    _NON_FETCHABLE_SCHEMES,
    PageElements,
    extract_elements,
    find_copyright,
)
from tests.html import reference_dom
from tests.html.test_dom import MARKUP_FRAGMENTS

PAGE = """
<html><head>
  <title>My Bank - secure banking</title>
  <link rel="stylesheet" href="/css/site.css">
  <script src="https://cdn.example.net/lib.js"></script>
</head><body>
  <h1>Welcome</h1>
  <p>Manage your account online.</p>
  <a href="/accounts">Accounts</a>
  <a href="https://partner.example.org/offer">Partner</a>
  <a href="javascript:void(0)">JS</a>
  <a href="mailto:help@mybank.com">Mail</a>
  <img src="/img/logo.png">
  <img src="http://ads.example.com/banner.png">
  <iframe src="/frames/help.html"></iframe>
  <form action="/login" method="post">
    <input type="text" name="user">
    <input type="password" name="pass">
    <input type="hidden" name="csrf">
    <textarea name="notes"></textarea>
  </form>
  <p>© 2015 MyBank Inc. All rights reserved.</p>
</body></html>
"""


class TestExtractElements:
    def setup_method(self):
        self.elements = extract_elements(PAGE, base_url="https://mybank.com/home")

    def test_title(self):
        assert self.elements.title == "My Bank - secure banking"

    def test_text_contains_body_content(self):
        assert "Manage your account online." in self.elements.text

    def test_text_excludes_title(self):
        assert "secure banking" not in self.elements.text

    def test_href_links_absolutized(self):
        assert "https://mybank.com/accounts" in self.elements.href_links

    def test_href_links_keep_absolute(self):
        assert "https://partner.example.org/offer" in self.elements.href_links

    def test_pseudo_links_dropped(self):
        joined = " ".join(self.elements.href_links)
        assert "javascript:" not in joined
        assert "mailto:" not in joined

    def test_resources_include_css_script_img_iframe(self):
        resources = self.elements.resource_links
        assert "https://mybank.com/css/site.css" in resources
        assert "https://cdn.example.net/lib.js" in resources
        assert "https://mybank.com/img/logo.png" in resources
        assert "http://ads.example.com/banner.png" in resources
        assert "https://mybank.com/frames/help.html" in resources

    def test_iframe_links(self):
        assert self.elements.iframe_links == ["https://mybank.com/frames/help.html"]

    def test_input_count_excludes_hidden(self):
        # text + password + textarea = 3 (hidden excluded)
        assert self.elements.input_count == 3

    def test_image_count(self):
        assert self.elements.image_count == 2

    def test_iframe_count(self):
        assert self.elements.iframe_count == 1

    def test_form_action(self):
        assert self.elements.form_actions == ["https://mybank.com/login"]

    def test_copyright(self):
        assert "MyBank Inc" in self.elements.copyright_notice


class TestEdgeCases:
    def test_empty_page(self):
        elements = extract_elements("", base_url="http://x.com/")
        assert elements.title == ""
        assert elements.text == ""
        assert elements.href_links == []

    def test_no_base_url_keeps_absolute_only(self):
        html = '<a href="/rel">r</a><a href="http://abs.com/x">a</a>'
        elements = extract_elements(html)
        assert elements.href_links == ["http://abs.com/x"]

    def test_malformed_html_does_not_raise(self):
        elements = extract_elements("<a href='x<<><p>>bad", base_url="http://x.com")
        assert isinstance(elements.href_links, list)

    @pytest.mark.parametrize("depth", [1000, 5000])
    def test_deep_nesting_keeps_links_and_text(self, depth):
        markup = (
            "<html><body>" + "<div>" * depth
            + "<a href='/login'>sign in</a>" + "</div>" * depth
            + "</body></html>"
        )
        elements = extract_elements(markup, "http://example.com/")
        assert elements.href_links == ["http://example.com/login"]
        assert elements.text == "sign in"

    def test_data_uri_dropped(self):
        html = '<img src="data:image/png;base64,AAAA">'
        elements = extract_elements(html, base_url="http://x.com/")
        assert elements.resource_links == []
        assert elements.image_count == 1

    def test_repeated_href_keeps_first(self):
        elements = extract_elements(
            '<a href="https://evil.example/login" '
            'href="https://bank.example/">Sign in</a>',
            base_url="https://evil.example/",
        )
        assert elements.href_links == ["https://evil.example/login"]

    def test_malformed_base_yields_no_links(self):
        page = (
            '<a href="https://bank.example/">a</a><a href="/rel">r</a>'
            '<img src="http://cdn.example/x.png"><title>t</title>'
        )
        elements = extract_elements(page, base_url="http://[bad/")
        assert elements.href_links == []
        assert elements.resource_links == []
        assert elements.title == "t"
        assert elements.image_count == 1

    def test_first_title_and_body_in_document_order(self):
        elements = extract_elements(
            "<div><title>one</title></div><title>two</title>"
            "<body>first</body><body>second</body>"
        )
        assert elements.title == "one"
        assert elements.text == "first"


def _urljoin_absolutize(raw, base_url):
    """The link resolution ``extract_elements`` had before its fast path:
    ``urljoin`` for every link.  Kept as the reference."""
    raw = (raw or "").strip()
    if not raw:
        return None
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


#: Link-shaped strings: absolute (any scheme case), protocol-relative and
#: relative, with empty ``?``/``#``/``;`` parts, brackets, non-ASCII and
#: NFKC-expanding netlocs (``℀`` becomes ``a/c``), and pseudo-URLs.
_LINK = st.builds(
    "{}{}{}{}{}".format,
    st.sampled_from([
        "http://", "https://", "HTTP://", "Https://", "hTtp://", "ftp://",
        "//", "", "http:", "http:/", "http:///", "javascript:", "data:",
        "mailto:", " https://", "\thttps://",
    ]),
    st.sampled_from([
        "bank.example", "a.b.example.com", "user:pw@host.example:8080",
        "", "[::1]", "[::1]:80", "[bad", "bad]", "[v1.x]", "℀.com",
        "bäcker.de", "host.example:", "h", "a;b", "a\tb", "a\nb",
    ]),
    st.sampled_from([
        "", "/", "/a/b", "/a/../b", "a", "../x", "./y", "/;p", "/a;b",
        "/a b", "/%41", "/ä", "/a/\r", "/[x]",
    ]),
    st.sampled_from(["", "?", "??", "?q", "?a=1&b", "?x?", "?;"]),
    st.sampled_from(["", "#", "#f", "#?"]),
)
_BASE = st.one_of(
    st.sampled_from([
        "", "https://bank.example/home", "http://bank.example/a/b?x=1",
        "HTTPS://Bank.Example/", "http://[bad/", "http://[::1]/x",
        "ftp://files.example/dir/", "http:///x", "data:text/html,x",
        "http://℀/", "https://bäcker.de/", "//host.example/p",
    ]),
    _LINK,
)


class TestLinkResolutionDifferential:
    """Every link kind resolves exactly as ``urljoin`` for every link did."""

    @given(st.one_of(_LINK, st.text(max_size=30)), _BASE)
    @settings(max_examples=600, deadline=None)
    def test_links_match_urljoin_reference(self, link, base):
        page = (
            '<a href="{0}">a</a><form action="{0}"></form>'
            '<iframe src="{0}"></iframe><link href="{0}">'
            '<object data="{0}"></object>'
        ).format(html.escape(link, quote=True))
        raw = reference_dom.parse_html(page).find("a").get("href")
        expected = _urljoin_absolutize(raw, base)
        one = [] if expected is None else [expected]
        elements = extract_elements(page, base_url=base)
        assert elements.href_links == one
        assert elements.form_actions == one
        assert elements.iframe_links == one
        assert elements.resource_links == one * 3

    def test_plain_forms_and_their_neighbours(self):
        base = "https://bank.example/home"
        for link in (
            "https://a.example/x?q=1", "http://a.example", "HTTP://a.example/",
            "https://a.example/x?", "https://a.example/x#", "https://a.example/x;",
            "https://a.example/x?#", "https://[::1]/", "http:///x",
            "https://a.example/\tx", "https://℀.com/", "https://a.example/../b",
        ):
            got = extract_elements(f'<a href="{link}">x</a>', base).href_links
            expected = _urljoin_absolutize(link, base)
            assert got == ([] if expected is None else [expected]), link


class TestFindCopyright:
    def test_symbol(self):
        assert find_copyright("line one\n© 2015 Acme\nmore") == "© 2015 Acme"

    def test_word(self):
        assert "Copyright" in find_copyright("Copyright 2014 Acme Corp")

    def test_parenthetical(self):
        assert find_copyright("(c) Acme") == "(c) Acme"

    def test_all_rights_reserved(self):
        assert find_copyright("Acme. All Rights Reserved.") != ""

    def test_absent(self):
        assert find_copyright("no notice here") == ""

    def test_empty(self):
        assert find_copyright("") == ""

    def test_case_folds_ascii_letters_only(self):
        # Lower-casing a line turns neither into a marker letter.
        assert find_copyright("All rights reſerved") == ""
        assert find_copyright("COPYR\u0130GHT 2015") == ""
        assert find_copyright("x\r\n  CopyRight 2015 Acme \nnext") == "CopyRight 2015 Acme"

    @given(st.lists(st.sampled_from([
        "©", "(c)", "(C)", "(c", "c)", "copyright", "COPYRIGHT", "CopyRight",
        "copy", "right", "all rights reserved", "All Rights Reserved",
        "all rights", " reserved", "\u017f", "\u0130", "\u212a", "\n", "\r",
        "\r\n", " ", "\t", "x", "Acme", "\xa0", "\u2028",
    ]), max_size=12).map("".join))
    @settings(max_examples=400, deadline=None)
    def test_matches_per_line_reference(self, text):
        assert find_copyright(text) == reference_dom.find_copyright(text)


BASE = "http://x.example/"

#: Attribute names, values and forms for generated start tags: quoted,
#: unquoted, empty and valueless, repeated, mixed case, holding entities.
_ATTRIBUTE_NAMES = ["href", "HREF", "Href", "src", "SRC", "action", "type",
                    "TYPE", "data", "class"]
_QUOTED_VALUES = ["/x", "http://e.example/p?q=1&amp;r=2", "hidden", "HIDDEN",
                  "&quot;q&quot;", "a b", "", "javascript:go()", "&lt;b&gt;",
                  "&#47;y", "x/y", "a>b"]
_UNQUOTED_VALUES = ["/x", "hidden", "Hidden", "http://e.example/p", "&amp;q",
                    "x/y"]
_TAG_NAMES = ["a", "A", "img", "IMG", "form", "input", "Input", "link",
              "area", "embed", "source", "object", "frame", "div", "span"]


@st.composite
def _start_tag(draw):
    """A complete start tag with ASCII whitespace and no ``==``."""
    parts = ["<", draw(st.sampled_from(_TAG_NAMES))]
    form = "none"
    for _ in range(draw(st.integers(0, 3))):
        parts.append(draw(st.sampled_from([" ", "\n", "\t", "  "])))
        parts.append(draw(st.sampled_from(_ATTRIBUTE_NAMES)))
        form = draw(st.sampled_from(["none", "double", "single", "bare"]))
        if form != "none":
            parts.append(draw(st.sampled_from(["=", " = ", "= "])))
        if form == "double":
            parts.append('"%s"' % draw(st.sampled_from(_QUOTED_VALUES)))
        elif form == "single":
            parts.append("'%s'" % draw(st.sampled_from(_QUOTED_VALUES)))
        elif form == "bare":
            parts.append(draw(st.sampled_from(_UNQUOTED_VALUES)))
    # '/>' right after an unquoted value would be the value's '/'.
    ends = [">", " >", " />"] if form == "bare" else [">", " >", "/>", " />"]
    parts.append(draw(st.sampled_from(ends)))
    return "".join(parts)


#: Documents that every supported Python's html.parser reads alike: the
#: DOM tests' fragments without their random text, generated start tags
#: and their end tags, entities in text, comments, the doctype and
#: processing instructions, script and style holding '<', repeated and
#: self-closed title and body, nested non-rendered elements and stray
#: end tags.  Only complete tags, closed comments and ASCII whitespace,
#: no '==' and no space after '</'; iframe, textarea and title come only
#: as whole elements, since newer parsers read their content as text.
_DOCUMENT = st.lists(
    st.one_of(
        st.sampled_from(MARKUP_FRAGMENTS),
        _start_tag(),
        st.sampled_from(_TAG_NAMES).map("</{}>".format),
        st.sampled_from([
            "Copyright 2015 Acme", "(c) Acme", "All Rights Reserved.", "\n",
            "a > b", "x &amp; y", "&lt;p&gt;", "&copy; 2015", "&#169;",
            "&#xA9; z", "&nbsp;", "\t", "<!-- &amp; <a href=/c> -->",
            "<!DOCTYPE html>", "<!doctype html &amp;>",
            '<?xml version="1.0" &amp;?>', "<script>if (a<b) {}</script>",
            "<style>p<q{}</style>", "<SCRIPT>x<y</SCRIPT>",
            '<script src="/s.js"></script>', "<title>u</title>",
            "<title/>", "<body/>", "</body>",
            "<BODY>", "<template>", "</template>", "</x>", "</title>",
            '<iframe src="/f"></iframe>', "<IFRAME SRC=/g></IFRAME>",
            "<textarea>t</textarea>",
        ]),
    ),
    max_size=40,
).map("".join)


class TestScannerDifferential:
    """The one-pass scanner against the DOM oracle it replaced."""

    def test_every_page_the_test_world_hosts(self, tiny_world):
        web = tiny_world.web
        pages = [web.get(url) for url in sorted(web.urls())]
        pages = [page for page in pages if page.html]
        assert len(pages) > 500
        for page in pages:
            assert extract_elements(page.html, page.url) == \
                reference_dom.extract_elements(page.html, page.url), page.url

    @given(_DOCUMENT, st.sampled_from(["", BASE, "https://bank.example/a/b?x=1"]))
    @settings(max_examples=500, deadline=None)
    def test_generated_documents(self, markup, base):
        assert extract_elements(markup, base) == \
            reference_dom.extract_elements(markup, base)


class TestMalformedMarkup:
    """Malformed and unfinished markup, pinned to what the DOM oracle
    read under CPython 3.11.7, apart from the ``<![`` departure."""

    @pytest.mark.parametrize("markup, expected", [
        pytest.param(
            "<p>a</p><a href='/l'>l</a><!-- open <a href='/m'>m</a>",
            PageElements(text="a\nl\n<!-- open <a href='/m'>\nm", href_links=[BASE + "l"]),
            id="open-comment"),
        pytest.param("<p>a</p><a href=/l>l",
                     PageElements(text="a\nl", href_links=[BASE + "l"]), id="open-start-tag"),
        pytest.param("<p>a</p><a href='/l>l</a> t",
                     PageElements(text="a\n<a href='/l>\nl\nt"), id="open-quote"),
        pytest.param("<p>a</p></p", PageElements(text="a\n<\n/p"), id="open-end-tag"),
        pytest.param("<p>a</p><?pi <a href=/l>l</a>", PageElements(text="a\nl"),
                     id="open-pi"),
        pytest.param("<p>a</p><!x <a href=/l>l</a>", PageElements(text="a\nl"),
                     id="open-bogus-comment"),
        pytest.param("<p>a</p><!DOCTYPE html <a href=/l>l</a>",
                     PageElements(text="a\nl"), id="open-doctype"),
        pytest.param("<a\x0bhref=/x>y</a>", PageElements(text="y"),
                     id="vertical-tab-after-name"),
        pytest.param("<a href==/x>y</a>",
                     PageElements(text="y", href_links=[BASE + "x"]), id="double-equals"),
        pytest.param('<a href=/x"y>z</a>',
                     PageElements(text="z", href_links=[BASE + 'x"y']),
                     id="quote-in-unquoted-value"),
        pytest.param("<a href=/x/>y</a>z",
                     PageElements(text="y\nz", href_links=[BASE + "x/"]),
                     id="slash-ending-unquoted-value"),
        pytest.param("<p>x</ p>y", PageElements(text="x\ny"),
                     id="space-after-end-tag-slash"),
        pytest.param("a < b <3 & c &amp; d",
                     PageElements(text="a\n<\nb\n<\n3 & c & d"), id="lone-less-than"),
        pytest.param("<a\x00b>c", PageElements(text="<a\n\x00b>c"), id="nul-after-name"),
        pytest.param("<script>s <a href=/x>x</a>", PageElements(), id="open-script"),
        pytest.param("<body><style>p</\u017ftyle><a href=/y>y</a></style>z",
                     PageElements(text="z"), id="long-s-style-end"),
        pytest.param("<title>one<title>two</title>",
                     PageElements(title="one two", text="one\ntwo"), id="nested-title"),
        pytest.param("<a href='/x' href='/y' HREF=/z>a</a>",
                     PageElements(text="a", href_links=[BASE + "x"]),
                     id="repeated-attribute"),
        pytest.param("<![CDATA[<a href=/x>x</a>]]><a href=/y>y</a>",
                     PageElements(text="y", href_links=[BASE + "y"]), id="cdata-section"),
        pytest.param("<![if !IE]><a href=/x>x</a><![endif]>",
                     PageElements(text="x", href_links=[BASE + "x"]),
                     id="conditional-comment"),
        pytest.param("<p>a</p><![", PageElements(text="a\n<\n!["),
                     id="open-marked-section"),
        pytest.param("<![if", PageElements(text="<\n![if"), id="open-marked-section-name"),
    ])
    def test_pinned(self, markup, expected):
        assert extract_elements(markup, BASE) == expected

    @pytest.mark.parametrize("markup, expected", [
        pytest.param("<![x]><a href=/y>y</a>",
                     PageElements(text="y", href_links=[BASE + "y"]), id="unknown-keyword"),
        pytest.param("<![ 1]>t<a href=/y>y</a>",
                     PageElements(text="t\ny", href_links=[BASE + "y"]), id="no-name"),
        pytest.param("<![>t", PageElements(text="t"), id="empty"),
        pytest.param("<![x t", PageElements(text="<\n![x t"), id="unknown-keyword-unclosed"),
    ])
    def test_unknown_marked_section_is_a_bogus_comment(self, markup, expected):
        # html.parser raises AssertionError on each of these.
        assert extract_elements(markup, BASE) == expected


class TestLinearTime:
    """Constructs left open to the end of the input.  html.parser scans
    to the end again from each '<' of them: the first page took 39 s
    there on a 2-vCPU host, the comments 16 s."""

    @pytest.mark.parametrize("markup, unit", [
        ("<html><body>" + "<a x" * 16000, "<a x"),
        ("<!--" * 32000, "<!--"),
        ("</a" * 32000, "</a"),
        ("<?x" * 32000, "<?x"),
        ("<!x" * 32000, "<!x"),
    ], ids=["start-tag", "comment", "end-tag", "pi", "declaration"])
    def test_parses_in_linear_time(self, markup, unit):
        started = time.perf_counter()
        elements = extract_elements(markup, BASE)
        elapsed = time.perf_counter() - started
        # Each unit up to the next '<' is text; the last, with no '<'
        # after it, is '<' and the rest.
        fragments = [unit] * (markup.count(unit) - 1) + ["<", unit[1:]]
        assert elements == PageElements(text="\n".join(fragments))
        assert elapsed < 2.0, f"{elapsed:.2f} s"
