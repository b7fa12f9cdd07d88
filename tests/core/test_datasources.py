"""Tests for data-source derivation (Table I / Table II)."""

import pytest

from repro.core.datasources import (
    ALL_DISTRIBUTION_NAMES,
    F2_DISTRIBUTION_NAMES,
    BatchMemo,
    DataSources,
)
from repro.urls.parsing import UrlParseError
from repro.urls.public_suffix import PublicSuffixList
from repro.web.ocr import SimulatedOcr
from repro.web.page import PageSnapshot, Screenshot


def make_snapshot(**overrides):
    defaults = dict(
        starting_url="http://start.example.com/welcome/page",
        landing_url="https://www.landing.example.org/account/login?id=5",
        redirection_chain=[
            "http://start.example.com/welcome/page",
            "https://www.landing.example.org/account/login?id=5",
        ],
        logged_links=[
            "https://www.landing.example.org/css/site.css",
            "https://cdn.thirdparty.net/lib.js",
        ],
        html=(
            "<title>Landing Example</title><body>"
            "<p>welcome to landing example account services</p>"
            "<a href='https://www.landing.example.org/help'>help</a>"
            "<a href='https://other.partner.com/deal'>deal</a>"
            "<p>© 2015 Landing Example</p></body>"
        ),
        screenshot=Screenshot(rendered_text="Landing Example welcome"),
    )
    defaults.update(overrides)
    return PageSnapshot(**defaults)


class TestControlPartition:
    def test_chain_rdns_are_controlled(self):
        sources = DataSources(make_snapshot())
        assert "example.com" in sources.controlled_identities
        assert "example.org" in sources.controlled_identities

    def test_internal_external_logged(self):
        sources = DataSources(make_snapshot())
        internal = [url.raw for url in sources.internal_logged]
        external = [url.raw for url in sources.external_logged]
        assert any("landing.example.org" in url for url in internal)
        assert any("thirdparty.net" in url for url in external)

    def test_internal_external_href(self):
        sources = DataSources(make_snapshot())
        assert len(sources.internal_href) == 1
        assert len(sources.external_href) == 1

    def test_unparsable_links_skipped(self):
        snapshot = make_snapshot(logged_links=["::::bad::::", "http://ok.com/x"])
        sources = DataSources(snapshot)
        assert len(sources.logged_links) == 1


class TestDistributions:
    def test_all_names_resolvable(self):
        sources = DataSources(make_snapshot())
        for name in ALL_DISTRIBUTION_NAMES:
            sources.distribution(name)  # must not raise

    def test_f2_excludes_copyright_and_image(self):
        assert "copyright" not in F2_DISTRIBUTION_NAMES
        assert "image" not in F2_DISTRIBUTION_NAMES
        assert len(F2_DISTRIBUTION_NAMES) == 12

    def test_text_distribution(self):
        sources = DataSources(make_snapshot())
        assert "welcome" in sources.d_text
        assert "account" in sources.d_text

    def test_title_distribution(self):
        sources = DataSources(make_snapshot())
        assert "landing" in sources.d_title

    def test_copyright_distribution(self):
        sources = DataSources(make_snapshot())
        assert "landing" in sources.d_copyright

    def test_freeurl_distributions(self):
        sources = DataSources(make_snapshot())
        assert "welcome" in sources.d_start        # path of starting URL
        assert "account" in sources.d_land          # path of landing URL
        assert "login" in sources.d_land

    def test_rdn_distributions(self):
        sources = DataSources(make_snapshot())
        assert "example" in sources.d_startrdn
        assert "example" in sources.d_landrdn
        # suffixes shorter than 3 letters are discarded by term extraction
        assert "org" in sources.d_landrdn

    def test_extrdn_covers_logged_only(self):
        sources = DataSources(make_snapshot())
        assert "thirdparty" in sources.d_extrdn
        # partner.com is an external *HREF* link, not a logged link.
        assert "partner" not in sources.d_extrdn

    def test_image_distribution_requires_ocr(self):
        sources = DataSources(make_snapshot())
        assert not sources.d_image
        with_ocr = DataSources(make_snapshot(), ocr=SimulatedOcr(error_rate=0))
        assert "welcome" in with_ocr.d_image

    def test_unknown_distribution_raises(self):
        with pytest.raises(KeyError):
            DataSources(make_snapshot()).distribution("bogus")


class TestBatchMemo:
    def test_memo_sets_the_suffix_list(self):
        psl = PublicSuffixList(["com", "org", "net"])
        sources = DataSources(make_snapshot(), memo=BatchMemo(psl))
        assert sources.psl is psl
        assert DataSources(make_snapshot(), psl=psl,
                           memo=sources.memo).memo is sources.memo

    def test_memo_for_another_suffix_list_rejected(self):
        memo = BatchMemo(PublicSuffixList(["com"]))
        with pytest.raises(ValueError, match="suffix list"):
            DataSources(make_snapshot(), psl=PublicSuffixList(["com"]),
                        memo=memo)

    def test_unparsable_starting_url_raises_on_every_read(self):
        memo = BatchMemo()
        for _ in range(2):
            sources = DataSources(
                make_snapshot(starting_url="http://exa mple.com/"),
                memo=memo,
            )
            with pytest.raises(UrlParseError):
                sources.starting


class TestIpUrls:
    def test_ip_rdn_distributions_empty(self):
        snapshot = make_snapshot(
            starting_url="http://192.168.3.4/login",
            landing_url="http://192.168.3.4/login",
            redirection_chain=["http://192.168.3.4/login"],
        )
        sources = DataSources(snapshot)
        assert not sources.d_startrdn
        assert not sources.d_landrdn

    def test_ip_identity_used_for_control(self):
        snapshot = make_snapshot(
            starting_url="http://192.168.3.4/login",
            landing_url="http://192.168.3.4/login",
            redirection_chain=["http://192.168.3.4/login"],
            logged_links=["http://192.168.3.4/logo.png",
                          "http://other.com/x.js"],
        )
        sources = DataSources(snapshot)
        assert len(sources.internal_logged) == 1
        assert len(sources.external_logged) == 1
