"""Term extraction (Section III-B of the paper).

Let ``A = {a..z}``.  Terms are extracted from any text source by:

1. canonicalising letter characters — upper case, accented and special
   letter variants are mapped to a matching letter in ``A``
   (e.g. ``{B, β, b̀, b̂} -> b``);
2. splitting the input whenever a character outside ``A`` is met;
3. discarding substrings shorter than :data:`MIN_TERM_LENGTH` (3).

The procedure is deliberately language independent: no dictionary or stop
word list is used.  This also reproduces the paper's stated limitations
(Section VII-B): digit- or hyphen-separated brands like ``dl4a`` split
into fragments that are then discarded.
"""

from __future__ import annotations

import unicodedata
from collections import Counter

MIN_TERM_LENGTH = 3

# Letters from non-Latin scripts that visually or phonetically match a Latin
# letter.  NFKD decomposition handles accented Latin letters; this table
# covers the common homoglyphs phishers use (Greek/Cyrillic substitution).
_HOMOGLYPHS = {
    "α": "a", "β": "b", "γ": "y", "ε": "e", "κ": "k", "ν": "v", "ο": "o",
    "ρ": "p", "τ": "t", "υ": "u", "χ": "x",
    "а": "a", "в": "b", "е": "e", "к": "k", "м": "m", "н": "h", "о": "o",
    "р": "p", "с": "c", "т": "t", "у": "y", "х": "x",
    "ß": "ss", "æ": "ae", "œ": "oe", "ø": "o", "ð": "d", "þ": "th",
    "ł": "l", "đ": "d", "ħ": "h", "ı": "i", "ŋ": "n",
}


def _canonicalize_char(char: str) -> str:
    """Map a single character to its canonical a-z form, or '' if none."""
    lowered = char.lower()
    if "a" <= lowered <= "z":
        return lowered
    if lowered in _HOMOGLYPHS:
        return _HOMOGLYPHS[lowered]
    decomposed = unicodedata.normalize("NFKD", lowered)
    letters = [c for c in decomposed if "a" <= c <= "z"]
    if letters:
        return "".join(letters)
    return ""


class _CanonicalTable(dict):
    """The ``str.translate`` table of :func:`canonicalize`, filled on demand.

    Maps a codepoint to its canonical a-z form, ``""`` for a combining
    mark and ``" "`` for anything else.  Each entry is a pure function
    of its codepoint, so the order in which texts fill the table cannot
    change a result.  At most ``limit`` entries are stored; past that,
    codepoints are mapped without being kept, so text spanning all of
    Unicode cannot grow the table without bound.
    """

    def __init__(self, limit: int) -> None:
        super().__init__()
        self.limit = limit

    def __missing__(self, code: int) -> str:
        char = chr(code)
        mapped = _canonicalize_char(char)
        if not mapped:
            mapped = "" if unicodedata.combining(char) else " "
        if len(self) < self.limit:
            self[code] = mapped
        return mapped


_CANONICAL = _CanonicalTable(limit=65536)


def canonicalize(text: str) -> str:
    """Canonicalise ``text``: a-z letters kept, variants mapped, the rest
    replaced by a single space (acting as a split point).

    Combining marks (decomposed accents) are elided entirely rather than
    splitting the word they decorate: ``be´ta`` stays one term.
    """
    return text.translate(_CANONICAL)


def compact_canonical(text: str) -> str:
    """``text`` as one run of canonical letters, split points dropped.

    ``"Bank-of-America"`` becomes ``"bankofamerica"``: the form in which
    an mld is matched against page terms (f3, target identification).
    """
    return canonicalize(text).replace(" ", "")


def extract_terms(text: str, min_length: int = MIN_TERM_LENGTH) -> list[str]:
    """Extract the ordered list of terms from ``text``.

    Terms are maximal runs of canonical letters with length >= ``min_length``.
    Repetitions are preserved (the caller decides whether to count them).
    """
    if not text:
        return []
    return [
        term
        for term in text.translate(_CANONICAL).split()
        if len(term) >= min_length
    ]


def term_counts(text: str, min_length: int = MIN_TERM_LENGTH) -> Counter:
    """Extract terms from ``text`` and return their occurrence counts."""
    return Counter(extract_terms(text, min_length=min_length))
