"""Tests for the fault-tolerant DOM builder."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.html.dom import NON_RENDERED, HtmlNode, parse_html


class TestParsing:
    def test_simple_nesting(self):
        root = parse_html("<html><body><p>hello</p></body></html>")
        paragraph = root.find("p")
        assert paragraph is not None
        assert paragraph.text() == "hello"

    def test_attributes_lowercased(self):
        root = parse_html('<a HREF="/x" Class="y">z</a>')
        anchor = root.find("a")
        assert anchor.get("href") == "/x"
        assert anchor.get("class") == "y"

    def test_repeated_attribute_keeps_first(self):
        root = parse_html(
            '<a href="https://evil.example/login" href="https://bank.example/">'
            'x</a><img SRC="first.png" src="second.png" Src="third.png">'
        )
        assert root.find("a").get("href") == "https://evil.example/login"
        assert root.find("img").attrs == {"src": "first.png"}

    def test_get_default(self):
        root = parse_html("<p>x</p>")
        assert root.find("p").get("missing", "fallback") == "fallback"

    def test_void_elements_take_no_children(self):
        root = parse_html("<img src='a.png'><p>after</p>")
        image = root.find("img")
        assert image.children == []
        assert root.find("p") is not None

    def test_self_closing(self):
        root = parse_html("<div><br/><input type='text'/></div>")
        assert root.find("br") is not None
        assert root.find("input").get("type") == "text"

    def test_unclosed_tags_closed_at_eof(self):
        root = parse_html("<div><p>unclosed")
        assert root.find("p").text() == "unclosed"

    def test_stray_end_tag_ignored(self):
        root = parse_html("<div>text</span></div>")
        assert root.find("div").text() == "text"

    def test_mismatched_nesting(self):
        root = parse_html("<b><i>x</b></i>")
        assert root.find("i") is not None

    def test_empty_and_none_input(self):
        assert parse_html("").children == []
        assert parse_html(None).children == []

    def test_entity_references_converted(self):
        root = parse_html("<p>a &amp; b</p>")
        assert "a & b" in root.find("p").text()


def _recursive_pre_order(node):
    """The recursive walk ``iter_nodes`` had before; kept as the reference."""
    yield node
    for child in node.children:
        if isinstance(child, HtmlNode):
            yield from _recursive_pre_order(child)


def _recursive_text(node, fragments):
    """The recursive walk ``text`` had before; kept as the reference."""
    if node.tag in NON_RENDERED:
        return fragments
    for child in node.children:
        if isinstance(child, str):
            stripped = child.strip()
            if stripped:
                fragments.append(stripped)
        else:
            _recursive_text(child, fragments)
    return fragments


#: Markup fragments that nest, leave elements unclosed, close tags that
#: were never opened, mix void and self-closed elements, open
#: non-rendered elements and interleave text, joined in random order.
_MARKUP = st.lists(
    st.one_of(
        st.sampled_from([
            "<div>", "</div>", "<p>", "</p>", "<span>", "</span>", "<b>",
            "</i>", "<img src=x>", "<br/>", "<ul><li>", "</li>", "</ul>",
            "<table><tr><td>", "</table>", "<title>t</title>", "<body>",
            "</html>", "<script>x<y</script>", "<a href='/x'>", "</a>",
            "<!-- c -->", "<p/>", "<input>", "text", " ", "<head>",
            "</head>", "<style>p{}</style>", "<noscript>", "</noscript>",
        ]),
        st.text(max_size=6),
    ),
    max_size=40,
).map("".join)


class TestTraversal:
    def test_find_all(self):
        root = parse_html("<ul><li>1</li><li>2</li><li>3</li></ul>")
        assert len(root.find_all("li")) == 3

    def test_find_first(self):
        root = parse_html("<p id='a'>x</p><p id='b'>y</p>")
        assert root.find("p").get("id") == "a"

    def test_find_missing_returns_none(self):
        assert parse_html("<p>x</p>").find("table") is None

    def test_iter_nodes_includes_self(self):
        root = parse_html("<div><p>x</p></div>")
        tags = [node.tag for node in root.iter_nodes()]
        assert tags == ["#document", "div", "p"]

    @given(_MARKUP)
    @settings(max_examples=300, deadline=None)
    def test_iter_nodes_matches_recursive_walk(self, markup):
        root = parse_html(markup)
        assert list(root.iter_nodes()) == list(_recursive_pre_order(root))
        for node in root.iter_nodes():
            assert list(node.iter_nodes()) == list(_recursive_pre_order(node))

    @given(_MARKUP)
    @settings(max_examples=300, deadline=None)
    def test_text_matches_recursive_walk(self, markup):
        root = parse_html(markup)
        for node in root.iter_nodes():
            assert node.text("|") == "|".join(_recursive_text(node, []))

    def test_parent_links(self):
        root = parse_html("<div><p>x</p></div>")
        paragraph = root.find("p")
        assert paragraph.parent.tag == "div"


class TestTextExtraction:
    def test_script_and_style_excluded(self):
        root = parse_html(
            "<body><script>var x=1;</script><style>p{}</style><p>seen</p></body>"
        )
        assert root.text() == "seen"

    def test_head_excluded(self):
        root = parse_html(
            "<html><head><title>t</title></head><body>visible</body></html>"
        )
        body = root.find("body")
        assert body.text() == "visible"

    def test_separator(self):
        root = parse_html("<p>a</p><p>b</p>")
        assert root.text(separator="|") == "a|b"

    def test_whitespace_stripped(self):
        root = parse_html("<p>  spaced  </p>")
        assert root.text() == "spaced"

    def test_node_construction(self):
        node = HtmlNode("div", {"id": "x"})
        assert node.tag == "div"
        assert node.get("id") == "x"
