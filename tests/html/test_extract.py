"""Tests for webpage-element extraction (Section II-C data sources)."""

import html
from urllib.parse import urljoin

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.html.dom import parse_html
from repro.html.extract import (
    _NON_FETCHABLE_SCHEMES,
    extract_elements,
    find_copyright,
)

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
        raw = parse_html(page).find("a").get("href")
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
