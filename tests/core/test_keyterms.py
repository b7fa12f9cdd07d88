"""Tests for keyterm extraction (Section V-A)."""

import pytest

from repro.core.datasources import DataSources
from repro.core.keyterms import KeytermExtractor
from repro.web.ocr import SimulatedOcr
from repro.web.page import PageSnapshot, Screenshot


class _CountingOcr:
    """An OCR engine that counts its screenshot reads."""

    def __init__(self, inner):
        self.inner = inner
        self.reads = 0

    def read(self, screenshot):
        self.reads += 1
        return self.inner.read(screenshot)


def brand_page():
    """A page where 'acmebank' appears in URL, title, text and links."""
    return PageSnapshot(
        starting_url="https://www.acmebank.com/welcome",
        landing_url="https://www.acmebank.com/welcome",
        html=(
            "<title>acmebank online banking</title><body>"
            "<p>acmebank accounts savings banking services acmebank</p>"
            "<a href='https://www.acmebank.com/acmebank/accounts'>accounts</a>"
            "<p>© 2015 acmebank</p></body>"
        ),
        screenshot=Screenshot(rendered_text="acmebank online banking"),
    )


def news_page():
    """Link anchors mirror URLs: the text∩links noise case."""
    return PageSnapshot(
        starting_url="https://www.dailynews.com/",
        landing_url="https://www.dailynews.com/",
        html=(
            "<title>dailynews</title><body>"
            "<p>sports politics weather dailynews</p>"
            "<a href='https://www.dailynews.com/sports'>sports</a>"
            "<a href='https://www.dailynews.com/politics'>politics</a>"
            "<a href='https://www.dailynews.com/weather'>weather</a>"
            "</body>"
        ),
    )


class TestKeytermExtraction:
    def test_boosted_prominent_finds_brand(self):
        sources = DataSources(brand_page())
        keyterms = KeytermExtractor().extract(sources)
        assert "acmebank" in keyterms.boosted_prominent

    def test_n_terms_respected(self):
        sources = DataSources(brand_page())
        keyterms = KeytermExtractor(n_terms=2).extract(sources)
        assert len(keyterms.boosted_prominent) <= 2
        assert len(keyterms.prominent) <= 2

    def test_prominent_discards_text_links_only_cooccurrence(self):
        sources = DataSources(news_page())
        keyterms = KeytermExtractor(n_terms=10).extract(sources)
        # "sports" occurs in text and links only -> boosted yes, prominent no.
        assert "sports" in keyterms.boosted_prominent
        assert "sports" not in keyterms.prominent
        # "dailynews" occurs in URL+title+text -> in both lists.
        assert "dailynews" in keyterms.prominent

    def test_ocr_prominent_requires_ocr(self):
        sources = DataSources(brand_page())
        without = KeytermExtractor().ocr_prominent(sources)
        assert without == []
        with_ocr = KeytermExtractor(
            ocr=SimulatedOcr(error_rate=0.0)
        ).ocr_prominent(sources)
        assert "acmebank" in with_ocr

    def test_extract_leaves_ocr_list_to_its_own_method(self):
        """``extract`` never reads the screenshot: OCR is step 4's cost."""
        sources = DataSources(brand_page())
        reader = _CountingOcr(SimulatedOcr(error_rate=0.0))
        extractor = KeytermExtractor(ocr=reader)
        keyterms = extractor.extract(sources)
        assert keyterms.ocr_prominent == []
        assert reader.reads == 0
        assert "acmebank" in extractor.ocr_prominent(sources)
        assert reader.reads == 1

    def test_image_based_page_ocr_terms(self):
        snapshot = PageSnapshot(
            starting_url="http://xkw.xyz/a",
            landing_url="http://xkw.xyz/a",
            html="<title>acmebank</title><body></body>",
            screenshot=Screenshot(image_texts=("acmebank verify account",)),
        )
        ocr_prominent = KeytermExtractor(
            ocr=SimulatedOcr(error_rate=0.0)
        ).ocr_prominent(DataSources(snapshot))
        assert "acmebank" in ocr_prominent

    def test_empty_page(self):
        snapshot = PageSnapshot(
            starting_url="http://x.com/", landing_url="http://x.com/",
            html="",
        )
        keyterms = KeytermExtractor().extract(DataSources(snapshot))
        assert keyterms.prominent == [] or keyterms.prominent

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            KeytermExtractor(n_terms=0)

    def test_frequency_ranking(self):
        # 'acmebank' repeats most -> ranked first.
        sources = DataSources(brand_page())
        keyterms = KeytermExtractor().extract(sources)
        assert keyterms.boosted_prominent[0] == "acmebank"

    def test_source_term_sets_structure(self):
        sets = KeytermExtractor.source_term_sets(DataSources(brand_page()))
        assert set(sets) == {"url", "title", "text", "copyright", "links"}
        assert "acmebank" in sets["url"]
        assert "acmebank" in sets["copyright"]

    def test_language_independence(self, tiny_world):
        """Keyterm extraction needs no dictionary: it works unchanged on
        non-English pages (the paper's language-independence claim)."""
        extractor = KeytermExtractor()
        for language in ("french", "german", "spanish"):
            hits = 0
            pages = [
                page for page in tiny_world.dataset(language)[:10]
                if page.kind in ("business", "blog", "shop")
            ]
            for page in pages:
                keyterms = extractor.extract(DataSources(page.snapshot))
                if keyterms.boosted_prominent:
                    hits += 1
            assert hits >= len(pages) - 1, language
