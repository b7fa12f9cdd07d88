"""Tests for term extraction (Section III-B), incl. property-based checks."""

import string
import unicodedata

from hypothesis import given
from hypothesis import strategies as st

from repro.text.terms import (
    MIN_TERM_LENGTH,
    _canonicalize_char,
    _CanonicalTable,
    canonicalize,
    compact_canonical,
    extract_terms,
    term_counts,
)
from tests.core.test_batch_differential import _WORDS


def _per_character(text):
    """Reference canonicalisation: one character at a time."""
    out = []
    for char in text:
        mapped = _canonicalize_char(char)
        if mapped:
            out.append(mapped)
        elif unicodedata.combining(char):
            continue
        else:
            out.append(" ")
    return "".join(out)


#: Combining marks, fullwidth letters and ligatures on top of the
#: differential harness's mixed-language vocabulary.
_MARKED = st.lists(
    st.one_of(
        _WORDS,
        st.sampled_from([
            "e\u0301", "n\u0303o", "a\u030a", "\u0301", "\u20dd",
            "ｂａｎｋ", "ＬＯＧＩＮ", "ﬂ", "ﬀ", "ﬃ", "Ǆ", "Ĳ", "ŉ",
        ]),
    ),
    max_size=6,
).map("".join)


class TestCanonicalize:
    def test_lowercases(self):
        assert canonicalize("ABC") == "abc"

    def test_accents_mapped(self):
        assert canonicalize("bé") == "be"
        assert canonicalize("América") == "america"

    def test_paper_example_greek_beta(self):
        # { B, β, b̀, b̂ } -> b
        assert canonicalize("B") == "b"
        assert canonicalize("β") == "b"
        assert canonicalize("b̀") == "b"
        assert canonicalize("b̂") == "b"

    def test_cyrillic_homoglyphs(self):
        assert canonicalize("ра") == "pa"  # Cyrillic er+a

    def test_digits_become_separators(self):
        assert canonicalize("a1b") == "a b"

    def test_punctuation_becomes_separators(self):
        assert canonicalize("a-b_c.d") == "a b c d"

    def test_eszett_expands(self):
        assert canonicalize("straße") == "strasse"


class TestTranslateTable:
    @given(st.one_of(st.text(max_size=60), _MARKED))
    def test_canonicalize_matches_per_character_loop(self, text):
        assert canonicalize(text) == _per_character(text)
        assert compact_canonical(text) == _per_character(text).replace(
            " ", ""
        )

    def test_full_table_maps_without_storing(self):
        table = _CanonicalTable(limit=3)
        text = "Bäñk-ｐａｙ ﬂ"
        assert text.translate(table) == _per_character(text)
        assert len(table) == 3
        assert text.translate(table) == _per_character(text)


class TestExtractTerms:
    def test_basic(self):
        assert extract_terms("secure bank login") == ["secure", "bank", "login"]

    def test_short_terms_dropped(self):
        assert extract_terms("go to my bank") == ["bank"]

    def test_repetitions_preserved(self):
        assert extract_terms("pay pay payment") == ["pay", "pay", "payment"]

    def test_splitting_on_non_letters(self):
        assert extract_terms("bank-of-america") == ["bank", "america"]

    def test_digit_separated_brand_destroyed(self):
        # The paper's dl4a limitation: digit-split fragments are too short.
        assert extract_terms("dl4a") == []

    def test_long_concatenation_is_single_term(self):
        # theinstantexchange stays one unsplittable term.
        assert extract_terms("theinstantexchange") == ["theinstantexchange"]

    def test_empty_input(self):
        assert extract_terms("") == []
        assert extract_terms("12 34 !!") == []

    def test_custom_min_length(self):
        assert extract_terms("go to my bank", min_length=2) == \
            ["go", "to", "my", "bank"]

    def test_url_extraction(self):
        terms = extract_terms("https://www.paypal.com/signin?cmd=login")
        assert "paypal" in terms
        assert "signin" in terms
        assert "https" in terms

    def test_term_counts(self):
        counts = term_counts("pay pay bank")
        assert counts["pay"] == 2
        assert counts["bank"] == 1


class TestProperties:
    @given(st.text(max_size=300))
    def test_terms_are_lowercase_letters_only(self, text):
        for term in extract_terms(text):
            assert len(term) >= MIN_TERM_LENGTH
            assert all(char in string.ascii_lowercase for char in term)

    @given(st.text(max_size=300))
    def test_canonicalize_idempotent(self, text):
        once = canonicalize(text)
        assert canonicalize(once) == once

    @given(st.text(alphabet=string.ascii_lowercase + " ", max_size=200))
    def test_ascii_lowercase_text_roundtrips(self, text):
        expected = [word for word in text.split() if len(word) >= 3]
        assert extract_terms(text) == expected

    @given(st.text(max_size=200), st.text(max_size=200))
    def test_concatenation_with_separator_is_union(self, first, second):
        combined = extract_terms(first + " " + second)
        assert combined == extract_terms(first) + extract_terms(second)
