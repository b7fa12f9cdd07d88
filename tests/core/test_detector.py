"""Tests for the phishing detector wrapper."""

import numpy as np
import pytest

from repro.core.detector import DEFAULT_THRESHOLD, PhishingDetector
from repro.core.features import FeatureExtractor


@pytest.fixture(scope="module")
def trained(tiny_world):
    extractor = FeatureExtractor(alexa=tiny_world.alexa)
    train = tiny_world.dataset("legTrain") + tiny_world.dataset("phishTrain")
    detector = PhishingDetector(extractor, n_estimators=40)
    detector.fit_snapshots([page.snapshot for page in train], train.labels())
    return detector


class TestConfiguration:
    def test_default_threshold_is_paper_value(self):
        assert DEFAULT_THRESHOLD == 0.7
        assert PhishingDetector().threshold == 0.7

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            PhishingDetector(threshold=1.5)

    def test_feature_set_masking(self):
        detector = PhishingDetector(feature_set="f1")
        assert int(detector.mask.sum()) == 106


class TestTraining:
    def test_fit_accepts_full_matrix(self, tiny_world):
        extractor = FeatureExtractor(alexa=tiny_world.alexa)
        train = tiny_world.dataset("legTrain") + tiny_world.dataset("phishTrain")
        X = extractor.extract_many(page.snapshot for page in train)
        detector = PhishingDetector(extractor, feature_set="f4",
                                    n_estimators=10)
        detector.fit(X, train.labels())  # 212 columns auto-masked
        assert detector.predict_proba(X).shape == (len(train),)

    def test_predict_rejects_wrong_width(self, trained):
        with pytest.raises(ValueError):
            trained.predict_proba(np.ones((2, 50)))


class TestPrediction:
    def test_separates_classes(self, trained, tiny_world):
        extractor = trained.extractor
        legit_X = extractor.extract_many(
            page.snapshot for page in tiny_world.dataset("english")[:40]
        )
        phish_X = extractor.extract_many(
            page.snapshot for page in tiny_world.dataset("phishTest")[:40]
        )
        assert trained.predict_proba(legit_X).mean() < 0.3
        assert trained.predict_proba(phish_X).mean() > 0.7

    def test_threshold_semantics(self, trained, tiny_world):
        X = trained.extractor.extract_many(
            page.snapshot for page in tiny_world.dataset("phishTest")[:20]
        )
        scores = trained.predict_proba(X)
        predictions = trained.predict(X)
        assert np.array_equal(
            predictions, (scores >= trained.threshold).astype(int)
        )

    def test_score_single_snapshot(self, trained, tiny_world):
        page = tiny_world.dataset("phishTest")[0]
        X = trained.extractor.extract_many([page.snapshot])
        (score,) = trained.predict_proba(X)
        assert 0.0 <= score <= 1.0

    def test_classify_snapshot(self, trained, tiny_world):
        phish_page = tiny_world.dataset("phishTest")[0]
        X = trained.extractor.extract_many([phish_page.snapshot])
        (score,) = trained.predict_proba(X)
        assert trained.predict(X).tolist() == [int(score >= trained.threshold)]

    def test_1d_vector_accepted(self, trained, tiny_world):
        vector = trained.extractor.extract(
            tiny_world.dataset("english")[0].snapshot
        )
        assert trained.predict_proba(vector).shape == (1,)
