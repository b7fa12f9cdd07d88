"""Differential harness: batch extraction and compiled inference.

The columnar :class:`~repro.core.features.batch.BatchExtractor` and the
:class:`~repro.ml.compiled.CompiledEnsemble` are pure performance
rewrites of contractually frozen code paths (PHL301-303, the golden
feature matrix, the boosting reference loop).  This suite is the lock on
that contract: every cell the batch path produces must equal the serial
per-page path **bit for bit** (``np.array_equal`` on float64, not
``allclose``), and compiled ensemble scores must equal the per-row tree
loop the same way, across all three ``tree_method`` strategies.

Hypothesis drives the page generator through the shapes that historically
break columnar rewrites: empty pages, pages with no login form, unicode
and mixed-language text, single-page batches and 200+-page batches.
"""

import random
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.datasources import (
    ALL_DISTRIBUTION_NAMES,
    BatchMemo,
    DataSources,
)
from repro.core.features.extractor import (
    FeatureExtractor,
    _GROUP_SLICES,
)
from repro.ml.boosting import TREE_METHODS, GradientBoostingClassifier
from repro.ml.compiled import sigmoid
from repro.text.terms import extract_terms
from repro.urls.alexa import AlexaRanking
from repro.urls.parsing import UrlParseError, parse_url
from repro.urls.public_suffix import default_psl
from repro.web.page import PageSnapshot

# ---------------------------------------------------------------------------
# Page generators
# ---------------------------------------------------------------------------

_LABEL = st.text(
    alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=8
)
_HOST = st.lists(_LABEL, min_size=1, max_size=4).map(".".join)
_URL = st.builds(
    "{}://{}/{}".format,
    st.sampled_from(["http", "https"]),
    _HOST,
    _LABEL,
)

#: Mixed-language vocabulary: latin, homoglyph-bearing, CJK, cyrillic,
#: greek, combining marks — everything ``canonicalize`` special-cases.
_WORDS = st.lists(
    st.sampled_from([
        "bank", "login", "verify", "account", "secure", "acmebank",
        "pässwörd", "café", "наём", "банк", "λόγος", "ログイン",
        "登录", "ｐａｙｐａｌ", "Ⅰdentity", "ﬁnance", "élève",
    ]),
    max_size=10,
).map(" ".join)

_TEXT = st.one_of(_WORDS, st.text(max_size=30))

_LOGIN_FORM = (
    "<form action='/post.php'>"
    "<input type='email'><input type='password'></form>"
)


@st.composite
def snapshots(draw):
    """One page snapshot spanning the troublesome shapes."""
    start = draw(_URL)
    landing = draw(st.one_of(st.just(start), _URL))
    chain = [start, landing] if landing != start else []
    logged = draw(st.lists(_URL, max_size=3))
    if draw(st.booleans()):
        html = ""  # empty page
    else:
        parts = []
        if draw(st.booleans()):
            parts.append(f"<title>{draw(_TEXT)}</title>")
        parts.append(f"<p>{draw(_TEXT)}</p>")
        for href in draw(st.lists(_URL, max_size=2)):
            parts.append(f"<a href='{href}'>{draw(_TEXT)}</a>")
        if draw(st.booleans()):
            parts.append(_LOGIN_FORM)  # else: no login form
        if draw(st.booleans()):
            parts.append(f"<p>© 2015 {draw(_TEXT)}</p>")
        html = "".join(parts)
    return PageSnapshot(
        starting_url=start,
        landing_url=landing,
        redirection_chain=chain,
        logged_links=logged,
        html=html,
    )


def _corpus(n, seed=7):
    """A deterministic ``n``-page corpus from the same fragment pools."""
    rng = random.Random(seed)
    hosts = [
        ".".join(
            "".join(rng.choices(string.ascii_lowercase, k=rng.randint(2, 8)))
            for _ in range(rng.randint(1, 4))
        )
        for _ in range(max(8, n // 6))  # shared pool → realistic dedup
    ]
    words = [
        "bank", "login", "verify", "account", "secure", "acmebank",
        "pässwörd", "café", "банк", "λόγος", "ログイン", "登录",
    ]
    pages = []
    for _ in range(n):
        start = f"http://{rng.choice(hosts)}/{rng.choice(words)}"
        landing = start if rng.random() < 0.7 \
            else f"https://{rng.choice(hosts)}/"
        text = " ".join(rng.choices(words, k=rng.randint(0, 12)))
        html = "" if rng.random() < 0.1 else (
            f"<title>{text[:20]}</title><p>{text}</p>"
            + (rng.random() < 0.5) * _LOGIN_FORM
            + f"<a href='http://{rng.choice(hosts)}/'>go</a>"
        )
        pages.append(PageSnapshot(
            starting_url=start,
            landing_url=landing,
            logged_links=[f"http://{rng.choice(hosts)}/x.js"
                          for _ in range(rng.randint(0, 3))],
            html=html,
        ))
    return pages


def _alexa():
    return AlexaRanking({"acmebank.com": 40, "cdn.net": 900})


# ---------------------------------------------------------------------------
# Batch extraction vs serial per-page extraction
# ---------------------------------------------------------------------------


class TestBatchVsSerial:
    def _assert_identical(self, pages):
        extractor = FeatureExtractor(alexa=_alexa())
        serial = (
            np.vstack([extractor.extract(page) for page in pages])
            if pages else np.zeros((0, extractor.n_features))
        )
        batch = extractor.extract_batch(pages)
        assert batch.dtype == serial.dtype == np.float64
        assert batch.shape == serial.shape
        for group, slice_ in _GROUP_SLICES.items():
            assert np.array_equal(batch[:, slice_], serial[:, slice_]), (
                f"group {group} diverges: "
                f"{np.argwhere(batch[:, slice_] != serial[:, slice_])[:5]}"
            )

    @given(st.lists(snapshots(), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_generated_batches_bit_identical_per_group(self, pages):
        self._assert_identical(pages)

    def test_empty_batch_shape(self):
        batch = FeatureExtractor().extract_batch([])
        assert batch.shape == (0, 212)
        assert batch.dtype == np.float64

    @given(snapshots())
    @settings(max_examples=30, deadline=None)
    def test_single_page_batch(self, page):
        self._assert_identical([page])

    def test_large_batch_bit_identical(self):
        self._assert_identical(_corpus(220))


# ---------------------------------------------------------------------------
# Cache interaction: warm/cold/evicting batches must agree with serial
# ---------------------------------------------------------------------------


class TestCacheInteraction:
    def test_warm_batch_rows_equal_cold_rows(self):
        from repro.parallel import AnalysisCache

        pages = _corpus(40)
        extractor = FeatureExtractor(alexa=_alexa(), cache=AnalysisCache())
        cold = extractor.extract_batch(pages)
        warm = extractor.extract_batch(pages)
        assert extractor.cache.features.hits >= len(pages)
        assert np.array_equal(cold, warm)
        plain = FeatureExtractor(alexa=_alexa()).extract_batch(pages)
        assert np.array_equal(cold, plain)

    def test_eviction_mid_batch_preserves_row_order(self):
        from repro.parallel import AnalysisCache

        pages = _corpus(60)
        tiny = FeatureExtractor(
            alexa=_alexa(), cache=AnalysisCache(max_entries=4)
        )
        reference = FeatureExtractor(alexa=_alexa()).extract_batch(pages)
        first = tiny.extract_batch(pages)
        assert tiny.cache.features.evictions > 0
        assert np.array_equal(first, reference)
        # Second pass: only the last few keys survive, so hits and
        # misses interleave mid-batch — rows must stay in input order.
        second = tiny.extract_batch(pages)
        assert np.array_equal(second, reference)

    def test_mixed_warm_cold_batch(self):
        from repro.parallel import AnalysisCache

        pages = _corpus(30)
        extractor = FeatureExtractor(alexa=_alexa(), cache=AnalysisCache())
        extractor.extract_batch(pages[:15])
        full = extractor.extract_batch(pages)  # 15 hits + 15 misses
        reference = FeatureExtractor(alexa=_alexa()).extract_batch(pages)
        assert np.array_equal(full, reference)

    def test_degraded_partial_snapshot_rows_match_serial(self):
        """A partial page (bare URL, no content) gets the same row."""
        partial = PageSnapshot(
            starting_url="http://half-loaded.example.com/login",
            landing_url="http://half-loaded.example.com/login",
        )
        pages = [_corpus(3)[0], partial, _corpus(3, seed=9)[1]]
        extractor = FeatureExtractor(alexa=_alexa())
        serial = np.vstack([extractor.extract(page) for page in pages])
        assert np.array_equal(extractor.extract_batch(pages), serial)


# ---------------------------------------------------------------------------
# Compiled ensemble vs per-row boosting
# ---------------------------------------------------------------------------


def _fitted(tree_method, seed=0, n=120, d=9):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(float)
    model = GradientBoostingClassifier(
        n_estimators=12, max_depth=3, tree_method=tree_method
    )
    model.fit(X, y)
    return model, rng.normal(size=(40, d)) * 3.0


class TestCompiledVsPerRow:
    @pytest.mark.parametrize("tree_method", TREE_METHODS)
    def test_predict_proba_bit_identical(self, tree_method):
        model, X = _fitted(tree_method)
        reference = np.array([
            sigmoid(model.decision_function_trees(row[None, :]))[0]
            for row in X
        ])
        compiled = model.compiled().predict_proba(X)
        assert compiled.dtype == reference.dtype == np.float64
        assert np.array_equal(compiled, reference)

    @pytest.mark.parametrize("tree_method", TREE_METHODS)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=8, deadline=None)
    def test_random_models_bit_identical(self, tree_method, seed):
        model, X = _fitted(tree_method, seed=seed, n=60, d=4)
        reference = sigmoid(model.decision_function_trees(X))
        assert np.array_equal(model.compiled().predict_proba(X), reference)

    def test_batch_rows_equal_single_row_calls(self):
        model, X = _fitted("presort")
        batch = model.compiled().predict_proba(X)
        rows = np.array([
            model.compiled().predict_proba(row[None, :])[0] for row in X
        ])
        assert np.array_equal(batch, rows)


# ---------------------------------------------------------------------------
# Compiled ensemble serialization
# ---------------------------------------------------------------------------


class TestCompiledPickle:
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_pickle_round_trip_preserves_predictions(self, seed):
        import pickle

        model, X = _fitted("presort", seed=seed, n=60, d=4)
        compiled = model.compiled()
        clone = pickle.loads(pickle.dumps(compiled))
        for attr in ("feature", "threshold", "left", "right", "value"):
            assert np.array_equal(
                getattr(clone, attr), getattr(compiled, attr)
            )
        assert clone.initial_raw == compiled.initial_raw
        assert clone.learning_rate == compiled.learning_rate
        assert clone.n_features == compiled.n_features
        assert np.array_equal(
            clone.predict_proba(X), compiled.predict_proba(X)
        )


# ---------------------------------------------------------------------------
# The batch memo's primitives vs their serial counterparts
# ---------------------------------------------------------------------------


class TestPoolPrimitives:
    """Each :class:`BatchMemo` lookup equals the plain function, both on
    the miss that fills the memo and on the hit that reads it back."""

    def _pools(self):
        return BatchMemo(default_psl())

    @given(st.text(max_size=60))
    @settings(max_examples=120, deadline=None)
    def test_terms_match_extract_terms(self, text):
        pools = self._pools()
        expected = tuple(extract_terms(text))
        assert pools.terms(text) == expected
        assert pools.terms(text) == expected

    @given(_WORDS)
    @settings(max_examples=60, deadline=None)
    def test_mixed_language_terms_match(self, text):
        pools = self._pools()
        expected = tuple(extract_terms(text))
        assert pools.terms(text) == expected
        assert pools.terms(text) == expected

    @given(st.one_of(_URL, st.text(max_size=40)))
    @settings(max_examples=120, deadline=None)
    def test_parse_matches_parse_url(self, url):
        pools = self._pools()
        try:
            expected = parse_url(url, pools.psl)
        except UrlParseError:
            assert pools.try_parse(url) is None
            with pytest.raises(UrlParseError):
                pools.parse(url)
            with pytest.raises(UrlParseError):
                pools.parse(url)
        else:
            assert pools.try_parse(url) == expected
            assert pools.parse(url) == expected


# ---------------------------------------------------------------------------
# A batch's shared memo vs each page on its own memo
# ---------------------------------------------------------------------------


_PARTITIONS = (
    "starting", "landing", "redirection_chain", "logged_links",
    "href_links", "internal_logged", "external_logged", "internal_href",
    "external_href",
)


class TestSharedMemo:
    @given(st.lists(snapshots(), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_shared_memo_sources_equal_own_memo_sources(self, pages):
        """A page's partitions and distributions do not depend on which
        other pages filled the memo first."""
        memo = BatchMemo(default_psl())
        shared = [DataSources(page, memo=memo) for page in pages]
        # Fill the shared memo in reverse page order, then read forwards.
        for sources in reversed(shared):
            for name in ALL_DISTRIBUTION_NAMES:
                sources.distribution(name)
        for page, sources in zip(pages, shared):
            alone = DataSources(page)
            assert sources.memo is memo and alone.memo is not memo
            for name in _PARTITIONS:
                assert getattr(sources, name) == getattr(alone, name), name
            for name in ALL_DISTRIBUTION_NAMES:
                assert list(sources.distribution(name).items()) == list(
                    alone.distribution(name).items()
                ), name
