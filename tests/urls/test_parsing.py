"""Tests for URL decomposition (Section II-B model)."""

from urllib.parse import urlsplit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.urls.parsing import (
    ParsedUrl,
    UrlParseError,
    _host_and_port,
    _host_fields,
    parse_url,
)
from repro.urls.public_suffix import default_psl
from tests.core.test_batch_differential import _HOST, _URL

#: URLs whose hosts recur, with valid, invalid and IP hosts among them.
_MEMO_URL = st.one_of(
    _URL,
    st.builds(
        "{}://{}/{}".format,
        st.sampled_from(["http", "https", "ftp"]),
        st.one_of(
            _HOST,
            st.sampled_from([
                "exa mple.com", "-bad.com", "a..b", "10.0.0.1",
                "[2001:db8::1]", "256.1.1.1", "bank.co.uk", "x_y.net",
            ]),
        ),
        st.text(max_size=6),
    ),
    st.text(max_size=40),
)


class TestComponents:
    def test_paper_example(self):
        url = parse_url("https://www.amazon.co.uk/ap/signin?_encoding=UTF8")
        assert url.protocol == "https"
        assert url.fqdn == "www.amazon.co.uk"
        assert url.rdn == "amazon.co.uk"
        assert url.mld == "amazon"
        assert url.public_suffix == "co.uk"
        assert url.subdomains == "www"
        assert url.path == "/ap/signin"
        assert url.query == "_encoding=UTF8"

    def test_no_subdomains(self):
        url = parse_url("http://example.com/")
        assert url.subdomains == ""
        assert url.rdn == "example.com"

    def test_deep_subdomains(self):
        url = parse_url("http://paypal.com.secure.evil.xyz/login")
        assert url.rdn == "evil.xyz"
        assert url.mld == "evil"
        assert url.subdomains == "paypal.com.secure"

    def test_missing_scheme_defaults_to_http(self):
        url = parse_url("example.com/page")
        assert url.protocol == "http"
        assert url.fqdn == "example.com"

    def test_port(self):
        assert parse_url("http://example.com:8080/x").port == 8080
        assert parse_url("http://example.com/x").port is None

    def test_fragment(self):
        assert parse_url("http://example.com/a#sec").fragment == "sec"

    def test_host_case_normalised(self):
        assert parse_url("http://ExAmPle.COM/Path").fqdn == "example.com"

    def test_free_hosting_private_suffix(self):
        url = parse_url("http://victim-login.000webhostapp.com/x")
        assert url.rdn == "victim-login.000webhostapp.com"
        assert url.mld == "victim-login"


class TestIpUrls:
    def test_ipv4(self):
        url = parse_url("http://192.168.1.10/admin")
        assert url.is_ip
        assert url.rdn is None
        assert url.mld is None
        assert url.public_suffix is None
        assert url.level_domain_count == 0

    def test_ipv6(self):
        url = parse_url("http://[2001:db8::1]/x")
        assert url.is_ip

    def test_dotted_but_not_ip(self):
        assert not parse_url("http://10.20.30.example.com/").is_ip


class TestFreeUrl:
    def test_contains_subdomains_path_query(self):
        url = parse_url("https://www.shop.example.com/buy/now?id=3")
        assert "www.shop" in url.free_url
        assert "/buy/now" in url.free_url
        assert "id=3" in url.free_url

    def test_homepage_is_empty(self):
        assert parse_url("https://example.com/").free_url == ""

    def test_rdn_not_in_free_url(self):
        url = parse_url("https://sub.example.com/path")
        assert "example.com" not in url.free_url


class TestErrors:
    def test_empty_string(self):
        with pytest.raises(UrlParseError):
            parse_url("")

    def test_none(self):
        with pytest.raises(UrlParseError):
            parse_url(None)

    def test_no_host(self):
        with pytest.raises(UrlParseError):
            parse_url("http:///path-only")

    def test_bad_label(self):
        with pytest.raises(UrlParseError):
            parse_url("http://exa mple.com/")


class TestHostMemo:
    @given(st.lists(_MEMO_URL, min_size=1, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_shared_memo_parses_like_no_memo(self, urls):
        hosts: dict = {}
        for _round in range(2):  # the second round is all memo hits
            for url in urls:
                try:
                    expected = parse_url(url)
                except UrlParseError as error:
                    with pytest.raises(UrlParseError) as raised:
                        parse_url(url, hosts=hosts)
                    assert str(raised.value) == str(error)
                else:
                    assert parse_url(url, hosts=hosts) == expected

    def test_invalid_host_raises_on_every_call(self):
        hosts: dict = {}
        for url in ("http://exa mple.com/a", "https://exa mple.com/b"):
            with pytest.raises(UrlParseError, match="invalid host label"):
                parse_url(url, hosts=hosts)
        assert hosts == {"exa mple.com": "exa mple"}


#: Netlocs covering every branch of the host/port split: userinfo (with
#: its own ``@``, ``:`` and brackets), bracketed hosts with a ``%zone``,
#: casing that ``str.lower`` maps by context (final sigma, dotted I),
#: and ports that are empty, padded, non-ASCII digits or out of range.
_NETLOC = st.builds(
    "{}{}{}".format,
    st.sampled_from(["", "user@", "user:pw@", "a@b@", "@", ":@", "u[x]@"]),
    st.one_of(
        _HOST,
        st.sampled_from([
            "", ".", "a..b", "ExAmple.COM.", " bank.com", "10.0.0.1",
            "[::1]", "[2001:DB8::1]", "[fe80::1%eth0]", "[fe80::1%ZoNe]",
            "[v1.x]", "[1.2.3.4]", "[::1", "::1]", "ΑΣ.gr", "aΣ%ΣΑ",
            "İstanbul.com", "℀.com", "bäcker.de", "a%b.com",
        ]),
        st.text(max_size=10),
    ),
    st.one_of(
        st.sampled_from([
            "", ":", ":80", ":0080", ":65535", ":65536", ":99999999",
            ":８０", ":٣", ":²", ":8a", ":-1", ":+1", ": 80", ":80:81",
            ":" + "0" * 5000 + "80",
        ]),
        st.integers(0, 10**6).map(":{}".format),
        st.text(max_size=4).map(":{}".format),
    ),
)


class TestHostAndPort:
    """``parse_url`` splits the netloc once; ``SplitResult`` is the oracle."""

    @given(_NETLOC, st.sampled_from(["", "/", "/p?q#f", "?x", "#y"]))
    @settings(max_examples=400, deadline=None)
    def test_fqdn_and_port_match_urlsplit(self, netloc, rest):
        url = f"http://{netloc}{rest}"
        try:
            split = urlsplit(url)
        except ValueError:
            with pytest.raises(UrlParseError, match="malformed URL"):
                parse_url(url)
            return
        hostname = split.hostname or ""
        try:
            port = split.port
        except ValueError:
            port = None
        raw_host, raw_port = _host_and_port(split.netloc)
        assert raw_host.lower() == hostname.lower()
        assert raw_port == port
        host = hostname.strip().strip(".").lower()
        try:
            parsed = parse_url(url)
        except UrlParseError as error:
            if not host:
                assert "has no host" in str(error)
            else:
                label = _host_fields(host, default_psl())
                assert isinstance(label, str)
                assert f"invalid host label {label!r}" in str(error)
            return
        assert (parsed.fqdn, parsed.port) == (host, port)

    def test_examples(self):
        parsed = parse_url("https://u:p@[FE80::1%Eth0]:0443/x")
        assert (parsed.fqdn, parsed.port, parsed.is_ip) == (
            "fe80::1%eth0", 443, True
        )
        assert parse_url("http://Bank.Example.:65536/").port is None
        assert parse_url("http://bank.example:８０/").port is None
        assert parse_url("http://a@b@Bank.Example:80/").fqdn == "bank.example"


class TestHelpers:
    def test_same_rdn(self):
        first = parse_url("http://a.example.com/1")
        second = parse_url("https://b.example.com/2")
        assert first.same_rdn(second)

    def test_same_rdn_ip_never_matches(self):
        first = parse_url("http://10.0.0.1/")
        second = parse_url("http://10.0.0.1/")
        assert not first.same_rdn(second)

    def test_uses_https(self):
        assert parse_url("https://example.com/").uses_https
        assert not parse_url("http://example.com/").uses_https

    def test_level_domain_count(self):
        assert parse_url("http://a.b.example.com/").level_domain_count == 4

    def test_frozen(self):
        url = parse_url("http://example.com/")
        with pytest.raises(AttributeError):
            url.fqdn = "other.com"

    def test_is_parsed_url(self):
        assert isinstance(parse_url("http://example.com/"), ParsedUrl)
