"""Tests for page snapshots and screenshots."""

import pickle
from dataclasses import replace

import numpy as np

from repro.core.features import FeatureExtractor
from repro.web.page import PageSnapshot, Screenshot


class TestScreenshot:
    def test_full_text_combines(self):
        shot = Screenshot(rendered_text="visible", image_texts=("in image",))
        assert "visible" in shot.full_text
        assert "in image" in shot.full_text

    def test_empty(self):
        assert Screenshot().full_text == ""

    def test_roundtrip(self):
        shot = Screenshot(rendered_text="a", image_texts=("b", "c"))
        assert Screenshot.from_dict(shot.to_dict()) == shot


class TestPageSnapshot:
    def test_default_chain_no_redirect(self):
        snapshot = PageSnapshot(
            starting_url="http://a.com/", landing_url="http://a.com/"
        )
        assert snapshot.redirection_chain == ["http://a.com/"]

    def test_default_chain_with_redirect(self):
        snapshot = PageSnapshot(
            starting_url="http://a.com/", landing_url="http://b.com/"
        )
        assert snapshot.redirection_chain == ["http://a.com/", "http://b.com/"]

    def test_explicit_chain_preserved(self):
        chain = ["http://a.com/", "http://mid.com/", "http://b.com/"]
        snapshot = PageSnapshot(
            starting_url="http://a.com/", landing_url="http://b.com/",
            redirection_chain=list(chain),
        )
        assert snapshot.redirection_chain == chain

    def test_elements_parsed_and_cached(self):
        html = "<title>T</title><body><a href='/x'>l</a>text</body>"
        snapshot = PageSnapshot(
            starting_url="http://a.com/", landing_url="http://a.com/",
            html=html,
        )
        assert snapshot.title == "T"
        assert snapshot.elements is snapshot.elements  # cached object
        assert snapshot.href_links == ["http://a.com/x"]
        assert "text" in snapshot.text

    def test_replace_reparses_new_html(self):
        old = PageSnapshot(
            starting_url="http://a.com/", landing_url="http://a.com/",
            html="<title>old</title>",
        )
        assert old.title == "old"  # parse, and keep the parse
        html = "<title>new words here</title><body>new body</body>"
        replaced = replace(old, html=html)
        fresh = PageSnapshot(
            starting_url="http://a.com/", landing_url="http://a.com/",
            html=html,
        )
        assert replaced.title == "new words here"
        extractor = FeatureExtractor()
        assert np.array_equal(
            extractor.extract(replaced), extractor.extract(fresh)
        )

    def test_pickle_keeps_parse(self):
        snapshot = PageSnapshot(
            starting_url="http://a.com/", landing_url="http://a.com/",
            html="<title>kept</title>",
        )
        elements = snapshot.elements
        clone = pickle.loads(pickle.dumps(snapshot))
        assert clone._elements == elements
        assert clone.title == "kept"

    def test_copyright_property(self):
        snapshot = PageSnapshot(
            starting_url="http://a.com/", landing_url="http://a.com/",
            html="<body><p>© 2015 Acme</p></body>",
        )
        assert "Acme" in snapshot.copyright_notice

    def test_serialisation_roundtrip(self):
        snapshot = PageSnapshot(
            starting_url="http://a.com/start",
            landing_url="http://b.com/land",
            redirection_chain=["http://a.com/start", "http://b.com/land"],
            logged_links=["http://cdn.com/x.js"],
            html="<title>t</title>",
            screenshot=Screenshot(rendered_text="t"),
        )
        rebuilt = PageSnapshot.from_dict(snapshot.to_dict())
        assert rebuilt.starting_url == snapshot.starting_url
        assert rebuilt.landing_url == snapshot.landing_url
        assert rebuilt.logged_links == snapshot.logged_links
        assert rebuilt.screenshot == snapshot.screenshot
        assert rebuilt.title == "t"
