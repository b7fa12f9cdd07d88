"""Tests pinning the one URL featuriser of the triage model.

:class:`~repro.baselines.url_lexical.UrlLexicalClassifier` builds every
feature row, for training, batch scoring and tier-0 ``decide``, through
one featuriser that parses each URL once and hashes each token with
``zlib.crc32``.  These tests pin it three ways: against a reference
loop kept here (the two-parse, per-token ``zlib.crc32`` featuriser it
replaced), batch rows against per-URL rows, and ``decide`` scores
against their recorded bit patterns.
"""

import zlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.url_lexical import UrlLexicalClassifier
from repro.serve.triage import TriageModel
from repro.urls.parsing import UrlParseError, parse_url

EDGE_CASE_URLS = [
    "http://example.com/",
    "http://sub.deep.example.co.uk/path/to/page?q=1&r=2",
    "http://192.168.10.1/login.php?user=admin",
    "https://xn--pypal-4ve.com/verify-account_now",
    "http://a.com/" + "segment/" * 40,
    "not a url at all",
    "",
    "http://UPPER.CASE.COM/MiXeD?K=V",
    "http://tok.en/a-b_c.d=e&f?g",
    "http://dup.com/x/x/x/x",        # repeated tokens, one feature
]


def reference_row(url: str, width: int) -> np.ndarray:
    """The replaced featuriser: tokens from one parse, the tail from a
    second, one ``zlib.crc32`` call per token."""
    row = np.zeros(width + 4)
    try:
        parsed = parse_url(url)
    except UrlParseError:
        tokens = ["<unparsable>"]
    else:
        tokens = parsed.fqdn.split(".")
        for part in (parsed.path, parsed.query):
            for separator in "/?.=&-_":
                part = part.replace(separator, " ")
            tokens.extend(token for token in part.split() if token)
    for token in tokens:
        row[zlib.crc32(token.encode("utf-8", "surrogatepass")) % width] = 1.0
    try:
        parsed = parse_url(url)
        row[-4] = len(url) / 100.0
        row[-3] = parsed.level_domain_count
        row[-2] = url.count(".") / 10.0
        row[-1] = 1.0 if parsed.is_ip else 0.0
    except UrlParseError:
        pass
    return row


# URL-ish text: separators, case, digits, non-ASCII letters and lone
# surrogates, inside and outside a scheme://host/path?query frame.
_CHARS = st.one_of(
    st.sampled_from(list("aZ09.-_/?=&:@%[] \t")),
    st.characters(),
    st.characters(categories=["Cs"]),
)
_PIECES = st.text(_CHARS, max_size=12)
_HOSTS = st.one_of(
    st.from_regex(r"[a-zA-Z0-9-]{1,8}(\.[a-zA-Z0-9-]{1,8}){0,3}",
                  fullmatch=True),
    st.sampled_from(["192.168.0.1", "[::1]", "xn--pypal-4ve.com", ""]),
    _PIECES,
)
_URLS = st.one_of(
    st.builds(
        "{}{}/{}?{}".format,
        st.sampled_from(["http://", "https://", "ftp://", ""]),
        _HOSTS, _PIECES, _PIECES,
    ),
    st.text(_CHARS, max_size=40),
)


class TestFeaturizeUrls:
    def test_batch_matches_per_url_reference_bit_for_bit(self):
        classifier = UrlLexicalClassifier()
        batch = classifier.featurize_urls(EDGE_CASE_URLS)
        reference = np.vstack(
            [classifier.featurize_url(url) for url in EDGE_CASE_URLS]
        )
        assert batch.shape == reference.shape
        assert (batch == reference).all()       # bit-identical, not close

    def test_small_hash_width_forces_collisions(self):
        # A tiny hash space exercises colliding tokens: a cell set twice
        # holds 1.0, exactly as a cell set once.
        classifier = UrlLexicalClassifier(n_hash_features=7)
        batch = classifier.featurize_urls(EDGE_CASE_URLS)
        reference = np.vstack(
            [classifier.featurize_url(url) for url in EDGE_CASE_URLS]
        )
        assert (batch == reference).all()

    def test_empty_batch(self):
        classifier = UrlLexicalClassifier(n_hash_features=16)
        assert classifier.featurize_urls([]).shape == (0, 20)

    def test_url_training_round_trip(self):
        urls = [f"http://safe{i}.com/home" for i in range(10)] + [
            f"http://secure-login{i}.bad/verify" for i in range(10)
        ]
        labels = np.array([0] * 10 + [1] * 10)
        classifier = UrlLexicalClassifier(epochs=10).fit_urls(urls, labels)
        scores = classifier.predict_proba_urls(urls)
        assert scores.shape == (20,)
        assert classifier.score_url(urls[0]) == float(scores[0])
        hard = classifier.predict_urls(urls)
        assert set(hard) <= {0, 1}

    def test_snapshot_path_routes_through_url_path(self):
        class FakeSnapshot:
            def __init__(self, url):
                self.starting_url = url

        classifier = UrlLexicalClassifier()
        url = "http://example.com/login"
        snapshot_features = classifier.featurize_snapshot(FakeSnapshot(url))
        assert (snapshot_features == classifier.featurize_url(url)).all()


class TestOneFeaturiser:
    @given(
        urls=st.lists(_URLS, max_size=6),
        width=st.sampled_from([7, 64, 1024]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_per_token_zlib_reference(self, urls, width):
        classifier = UrlLexicalClassifier(n_hash_features=width)
        reference = np.zeros((len(urls), width + 4))
        for row, url in enumerate(urls):
            reference[row] = reference_row(url, width)
            assert (classifier.featurize_url(url) == reference[row]).all()
        assert (classifier.featurize_urls(urls) == reference).all()

    def test_lone_surrogate_hashes_like_any_token(self):
        # parse_url accepts the URL; its path token "log\ud800in" has no
        # strict UTF-8 encoding, and surrogatepass gives it one.
        url = "http://a.com/log\ud800in"
        parse_url(url)
        classifier = UrlLexicalClassifier()
        assert (classifier.featurize_url(url) == reference_row(url, 1024)).all()
        assert classifier.featurize_url(url)[
            zlib.crc32("log\ud800in".encode("utf-8", "surrogatepass")) % 1024
        ] == 1.0


# ``decide`` scores recorded, as float.hex, from the two-parse
# featuriser with the table-driven CRC-32 that the one featuriser
# replaced.  Training and scoring both run through the featuriser, so a
# change in any token, hash or tail cell moves a fitted weight or a row
# and fails here.
TRAIN_URLS = [
    f"http://shop{i}.example.com/Catalog/item-{i}" for i in range(10)
] + [
    f"http://secure-login{i}.verify-account.net/sign_in.php?user={i}&next=home"
    for i in range(9)
] + ["http://192.168.10.9/sign_in.php?user=admin"]
TRAIN_LABELS = np.array([0] * 10 + [1] * 10)
PINNED_SCORES = [
    ("http://192.168.10.1/login.php?user=admin", "0x1.7d31076759e43p-1"),
    ("http://10.0.0.7:8080/", "0x1.0d3f8b90e8a6ep-1"),
    ("https://xn--pypal-4ve.com/verify-account_now", "0x1.3a4bb4fc58a4ap-2"),
    ("http://bücher.example/straße?q=ä", "0x1.faa94ac8d1947p-2"),
    (":::not a url:::", "0x1.faa94ac8d1947p-2"),
    ("", "0x1.faa94ac8d1947p-2"),
    ("http://UPPER.CASE.COM/MiXeD?K=V", "0x1.0cacf0931bc6bp-2"),
    ("http://dup.com/x/x/x/x", "0x1.35d018eba7ed3p-2"),
    ("http://dup.com/x/x/x/x?x=x&x=x", "0x1.3770567a21e51p-2"),
    ("http://sub.deep.example.co.uk/path/to/page?q=1&r=2",
     "0x1.89906ce1aa3e8p-3"),
    ("http://a.com/" + "segment/" * 40, "0x1.784a2da03a433p-2"),
    ("http://tok.en/a-b_c.d=e&f?g", "0x1.98a63880647f7p-2"),
    ("http://secure-login3.verify-account.net/sign_in.php?user=3&next=home",
     "0x1.d6905eb8f1d0bp-1"),
    ("http://shop4.example.com/Catalog/item-4", "0x1.6dbd5f34de31dp-4"),
    ("http://192.168.10.9/sign_in.php?user=admin", "0x1.bbe8cc65f784bp-1"),
]


class TestPinnedDecideScores:
    def _model(self):
        classifier = UrlLexicalClassifier().fit_urls(TRAIN_URLS, TRAIN_LABELS)
        return TriageModel(classifier, legit_threshold=0.2, phish_threshold=0.8)

    def test_decide_scores_are_bit_identical(self):
        model = self._model()
        scores = [(url, model.decide(url).score.hex()) for url, _ in PINNED_SCORES]
        assert scores == PINNED_SCORES

    def test_pinned_set_covers_its_edge_cases(self):
        def parses(url):
            try:
                return parse_url(url)
            except UrlParseError:
                return None

        parsed = [parses(url) for url, _ in PINNED_SCORES]
        assert sum(url is None for url in parsed) >= 3     # unparsable
        assert sum(bool(url and url.is_ip) for url in parsed) == 3
        assert any(url and url.fqdn.startswith("xn--") for url in parsed)
        assert {"phish", "legitimate", "escalate"} == {
            self._model().decide(url).action for url, _ in PINNED_SCORES
        }
