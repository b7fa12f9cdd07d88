"""Tests for detector/model persistence."""

import numpy as np
import pytest

from repro.core.detector import PhishingDetector
from repro.core.features import FeatureExtractor
from repro.ml.boosting import GradientBoostingClassifier


class TestModelSerialisation:
    def _fitted(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 8))
        y = (X[:, 0] > 0).astype(int)
        model = GradientBoostingClassifier(
            n_estimators=20, random_state=0
        ).fit(X, y)
        return model, X

    def test_roundtrip_identical_predictions(self):
        model, X = self._fitted()
        rebuilt = GradientBoostingClassifier.from_dict(model.to_dict())
        assert np.array_equal(model.predict_proba(X), rebuilt.predict_proba(X))

    def test_dict_is_json_safe(self):
        import json
        model, _X = self._fitted()
        json.dumps(model.to_dict())  # must not raise

    def test_unfitted_rejected(self):
        with pytest.raises(RuntimeError):
            GradientBoostingClassifier().to_dict()

    def test_malformed_payload_rejected(self):
        with pytest.raises(ValueError):
            GradientBoostingClassifier.from_dict({"trees": []})


class TestDetectorPersistence:
    @pytest.fixture(scope="class")
    def trained(self, tiny_world):
        extractor = FeatureExtractor(alexa=tiny_world.alexa)
        train = (
            tiny_world.dataset("legTrain") + tiny_world.dataset("phishTrain")
        )
        detector = PhishingDetector(
            extractor, feature_set="f1,5", threshold=0.65, n_estimators=25
        )
        detector.fit_snapshots(
            [page.snapshot for page in train], train.labels()
        )
        return detector

    def test_roundtrip(self, trained, tiny_world, tmp_path):
        path = tmp_path / "detector.json"
        trained.save(path)
        loaded = PhishingDetector.load(path, extractor=trained.extractor)
        assert loaded.feature_set == "f1,5"
        assert loaded.threshold == 0.65

        test = tiny_world.dataset("phishTest").subset(range(10))
        X = trained.extractor.extract_many(page.snapshot for page in test)
        assert np.array_equal(
            trained.predict_proba(X), loaded.predict_proba(X)
        )

    def test_load_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            PhishingDetector.load(path)

    def test_loaded_detector_classifies_snapshots(
        self, trained, tiny_world, tmp_path
    ):
        path = tmp_path / "detector.json"
        trained.save(path)
        loaded = PhishingDetector.load(path, extractor=trained.extractor)
        page = tiny_world.dataset("phishTest")[0]
        X = trained.extractor.extract_many([page.snapshot])
        assert loaded.predict_proba(X) == pytest.approx(
            trained.predict_proba(X)
        )
