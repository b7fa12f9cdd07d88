"""Tests for the five feature groups and the 212-feature extractor."""

import numpy as np
import pytest

from repro.core.features import (
    FEATURE_SET_NAMES,
    FeatureExtractor,
    feature_set_mask,
)
from repro.core.features import (
    content,
    mld_usage,
    rdn_usage,
    term_consistency,
    url_features,
)
from repro.core.features.extractor import group_slices
from repro.urls.alexa import AlexaRanking
from repro.web.page import PageSnapshot


def snapshot_legit():
    """A consistent 'legitimate-looking' page."""
    return PageSnapshot(
        starting_url="https://www.acmebank.com/",
        landing_url="https://www.acmebank.com/",
        logged_links=[
            "https://www.acmebank.com/css/site.css",
            "https://www.acmebank.com/img/acmebank.png",
            "https://cdn.net/lib.js",
        ],
        html=(
            "<title>AcmeBank - secure banking</title><body>"
            "<p>acmebank online banking account services acmebank</p>"
            "<a href='https://www.acmebank.com/accounts'>accounts</a>"
            "<a href='https://www.acmebank.com/help'>help</a>"
            "<img src='https://www.acmebank.com/img/logo.png'>"
            "<input type='text'>"
            "<p>© 2015 AcmeBank</p></body>"
        ),
    )


def snapshot_phish():
    """A phish-shaped page: own domain unrelated, mimics acmebank."""
    return PageSnapshot(
        starting_url="http://acmebank.com.xkwpanel.xyz/secure/acmebank/login?id=ab12",
        landing_url="http://acmebank.com.xkwpanel.xyz/secure/acmebank/login?id=ab12",
        logged_links=[
            "https://www.acmebank.com/img/acmebank-logo.png",
        ],
        html=(
            "<title>AcmeBank - verify</title><body>"
            "<p>acmebank account suspended verify login</p>"
            "<a href='https://www.acmebank.com/help'>help</a>"
            "<form action='/post.php'>"
            "<input type='email'><input type='password'>"
            "<input type='password'></form>"
            "<p>© 2015 AcmeBank</p></body>"
        ),
    )


@pytest.fixture(scope="module")
def alexa():
    return AlexaRanking(["acmebank.com", "cdn.net"])


def group_values(snapshot, group, alexa=None) -> dict[str, float]:
    """One group's columns of ``FeatureExtractor.extract``, by name."""
    extractor = FeatureExtractor(alexa=alexa)
    vector = extractor.extract(snapshot)
    columns = group_slices()[group]
    return dict(zip(extractor.feature_names[columns], vector[columns]))


class TestF1UrlFeatures:
    def test_count(self, alexa):
        values = group_values(snapshot_legit(), "f1", alexa)
        assert len(values) == 106 == url_features.N_FEATURES

    def test_names_align(self):
        assert len(url_features.feature_names()) == 106

    def test_https_flags(self, alexa):
        legit = group_values(snapshot_legit(), "f1", alexa)
        phish = group_values(snapshot_phish(), "f1", alexa)
        assert legit["f1.start.https"] == 1.0
        assert phish["f1.start.https"] == 0.0

    def test_alexa_rank_feature(self, alexa):
        legit = group_values(snapshot_legit(), "f1", alexa)
        phish = group_values(snapshot_phish(), "f1", alexa)
        assert legit["f1.start.alexa_rank"] == 1.0          # ranked first
        assert phish["f1.start.alexa_rank"] == 1_000_001.0  # unranked

    def test_freeurl_dots(self, alexa):
        phish = group_values(snapshot_phish(), "f1", alexa)
        # subdomains "acmebank.com" -> 2 dots counted (1 inner + 1 trailing)
        assert phish["f1.start.freeurl_dots"] >= 2

    def test_empty_link_sets_zero(self, alexa):
        snapshot = PageSnapshot(
            starting_url="http://x.com/", landing_url="http://x.com/",
            html="<title>t</title><body>b</body>",
        )
        values = group_values(snapshot, "f1", alexa)
        names = list(values)
        start = names.index("f1.extlog.https_ratio")
        assert all(values[name] == 0.0 for name in names[start:start + 22])

    def test_mld_length(self, alexa):
        legit = group_values(snapshot_legit(), "f1", alexa)
        assert legit["f1.start.mld_length"] == len("acmebank")


class TestF2TermConsistency:
    def test_count_and_bounds(self):
        values = group_values(snapshot_legit(), "f2")
        assert len(values) == 66 == term_consistency.N_FEATURES
        assert all(0.0 <= v <= 1.0 for v in values.values())

    def test_names_align(self):
        assert len(term_consistency.feature_names()) == 66

    def test_consistent_page_lower_rdn_text_distance(self):
        name = "f2.hellinger.text-landrdn"
        legit = group_values(snapshot_legit(), "f2")
        phish = group_values(snapshot_phish(), "f2")
        # Legit page's text shares terms with its RDN; phish text does not
        # match the phisher's own gibberish RDN.
        assert legit[name] < phish[name]

    def test_pairs_unique(self):
        assert len(set(term_consistency.PAIRS)) == 66


class TestF3MldUsage:
    def test_count(self):
        values = group_values(snapshot_legit(), "f3")
        assert len(values) == 22 == mld_usage.N_FEATURES

    def test_legit_mld_in_text(self):
        values = group_values(snapshot_legit(), "f3")
        assert values["f3.start_mld.in.text"] == 1.0
        assert values["f3.start_mld.in.title"] == 1.0

    def test_phish_mld_not_in_text(self):
        values = group_values(snapshot_phish(), "f3")
        assert values["f3.start_mld.in.text"] == 0.0

    def test_ip_url_all_zero(self):
        snapshot = PageSnapshot(
            starting_url="http://10.1.2.3/x", landing_url="http://10.1.2.3/x",
            html="<title>t</title><body>text here</body>",
        )
        assert list(group_values(snapshot, "f3").values()) == [0.0] * 22

    def test_substring_mass_positive_for_composite_mld(self):
        snapshot = PageSnapshot(
            starting_url="https://www.bankofamerica.com/",
            landing_url="https://www.bankofamerica.com/",
            html=(
                "<title>Bank of America</title><body>"
                "<a href='https://www.bankofamerica.com/bank/america'>x</a>"
                "</body>"
            ),
        )
        values = group_values(snapshot, "f3")
        # Title terms "bank", "america" are substrings of "bankofamerica".
        assert values["f3.start_mld.mass.title"] > 0.5


class TestF4RdnUsage:
    def test_count(self):
        values = group_values(snapshot_legit(), "f4")
        assert len(values) == 13 == rdn_usage.N_FEATURES

    def test_internal_ratios(self):
        legit = group_values(snapshot_legit(), "f4")
        phish = group_values(snapshot_phish(), "f4")
        name = "f4.logged_internal_ratio"
        assert legit[name] > phish[name]

    def test_chain_features(self):
        values = group_values(snapshot_legit(), "f4")
        assert values["f4.chain_length"] == 1.0
        assert values["f4.chain_rdn_switches"] == 0.0

    def test_cross_domain_chain_switches(self):
        snapshot = PageSnapshot(
            starting_url="http://short.io/x",
            landing_url="http://landing.com/y",
            redirection_chain=["http://short.io/x", "http://landing.com/y"],
            html="<body>x</body>",
        )
        values = group_values(snapshot, "f4")
        assert values["f4.chain_rdn_switches"] == 1.0
        assert values["f4.start_land_same_rdn"] == 0.0


class TestF5Content:
    def test_count_and_values(self):
        values = group_values(snapshot_phish(), "f5")
        assert len(values) == 5 == content.N_FEATURES
        assert values["f5.input_count"] == 3.0
        assert values["f5.text_terms"] > 0


class TestExtractor:
    def test_212_features(self, alexa):
        extractor = FeatureExtractor(alexa=alexa)
        vector = extractor.extract(snapshot_legit())
        assert vector.shape == (212,)
        assert extractor.n_features == 212

    def test_names_unique_and_aligned(self, alexa):
        extractor = FeatureExtractor(alexa=alexa)
        names = extractor.feature_names
        assert len(names) == 212
        assert len(set(names)) == 212

    def test_extract_many(self, alexa):
        extractor = FeatureExtractor(alexa=alexa)
        matrix = extractor.extract_many([snapshot_legit(), snapshot_phish()])
        assert matrix.shape == (2, 212)

    def test_extract_many_empty(self, alexa):
        assert FeatureExtractor(alexa=alexa).extract_many([]).shape == (0, 212)

    def test_deterministic(self, alexa):
        extractor = FeatureExtractor(alexa=alexa)
        first = extractor.extract(snapshot_legit())
        second = extractor.extract(snapshot_legit())
        assert np.array_equal(first, second)

    def test_default_extractor_needs_no_world(self):
        vector = FeatureExtractor().extract(snapshot_legit())
        assert vector.shape == (212,)


class TestFeatureSetMasks:
    @pytest.mark.parametrize("name,expected", [
        ("f1", 106), ("f2", 66), ("f3", 22), ("f4", 13), ("f5", 5),
        ("f1,5", 111), ("f2,3,4", 101), ("fall", 212),
    ])
    def test_mask_sizes(self, name, expected):
        assert int(feature_set_mask(name).sum()) == expected

    def test_masks_disjoint_groups(self):
        total = (
            feature_set_mask("f1").astype(int)
            + feature_set_mask("f2").astype(int)
            + feature_set_mask("f3").astype(int)
            + feature_set_mask("f4").astype(int)
            + feature_set_mask("f5").astype(int)
        )
        assert (total == 1).all()

    def test_unknown_mask_rejected(self):
        with pytest.raises(ValueError):
            feature_set_mask("f9")

    def test_all_names_listed(self):
        assert set(FEATURE_SET_NAMES) == {
            "f1", "f2", "f3", "f4", "f5", "f1,5", "f2,3,4", "fall"
        }
