"""End-to-end integration tests: the full paper pipeline on a small world."""

import numpy as np
import pytest

from repro import KnowYourPhish, PhishingDetector, TargetIdentifier
from repro.core import FeatureExtractor
from repro.ml import binary_metrics, roc_auc
from repro.web.ocr import SimulatedOcr


@pytest.fixture(scope="module")
def system(tiny_world):
    extractor = FeatureExtractor(alexa=tiny_world.alexa)
    train = tiny_world.dataset("legTrain") + tiny_world.dataset("phishTrain")
    detector = PhishingDetector(extractor, n_estimators=60)
    detector.fit_snapshots([page.snapshot for page in train], train.labels())
    identifier = TargetIdentifier(
        tiny_world.search, ocr=SimulatedOcr(error_rate=0.02)
    )
    return KnowYourPhish(detector, identifier)


class TestEndToEnd:
    def test_detector_quality_on_held_out_data(self, system, tiny_world):
        test = tiny_world.dataset("english") + tiny_world.dataset("phishTest")
        X = system.detector.extractor.extract_many(
            page.snapshot for page in test
        )
        scores = system.detector.predict_proba(X)
        y = test.labels()
        assert roc_auc(y, scores) > 0.97
        metrics = binary_metrics(y, (scores >= 0.7).astype(int))
        assert metrics.recall > 0.8
        assert metrics.fpr < 0.05

    def test_language_independence(self, system, tiny_world):
        """The same model must work on every language (Section VI-C)."""
        for language in ("french", "german", "spanish"):
            legit = tiny_world.dataset(language)
            X = system.detector.extractor.extract_many(
                page.snapshot for page in legit
            )
            fpr = float(system.detector.predict(X).mean())
            assert fpr < 0.1, f"{language} FPR too high: {fpr}"

    def test_pipeline_reduces_false_positives(self, system, tiny_world):
        """Section VI-D: target-ID second stage removes detector FPs."""
        english = tiny_world.dataset("english")
        X = system.detector.extractor.extract_many(
            page.snapshot for page in english
        )
        detector_fp = int(system.detector.predict(X).sum())
        pipeline_fp = 0
        for page, flagged in zip(english, system.detector.predict(X)):
            if not flagged:
                continue
            verdict = system.analyze(page.snapshot)
            pipeline_fp += system.is_blocked(verdict)
        assert pipeline_fp <= detector_fp

    def test_target_identification_end_to_end(self, system, tiny_world):
        known = [
            page for page in tiny_world.dataset("phishBrand")
            if page.target_mld
        ]
        top3 = 0
        for page in known:
            verdict = system.analyze(page.snapshot)
            if page.target_mld in verdict.targets[:3]:
                top3 += 1
        assert top3 / len(known) > 0.6

    def test_brand_independence(self, system, tiny_world):
        """Phish against brands unseen in training are still caught."""
        train_targets = {
            page.target_mld for page in tiny_world.dataset("phishTrain")
        }
        unseen = [
            page for page in tiny_world.dataset("phishTest")
            if page.target_mld and page.target_mld not in train_targets
        ]
        if len(unseen) < 5:
            pytest.skip("too few unseen-brand phish")
        X = system.detector.extractor.extract_many(
            page.snapshot for page in unseen
        )
        recall = float(system.detector.predict(X).mean())
        assert recall > 0.7

    def test_snapshot_serialisation_preserves_verdict(self, system, tiny_world):
        from repro.web.page import PageSnapshot
        page = tiny_world.dataset("phishTest")[0]
        rebuilt = PageSnapshot.from_dict(page.snapshot.to_dict())
        detector = system.detector
        original, roundtrip = (
            detector.predict_proba(detector.extractor.extract_many([snapshot]))
            for snapshot in (page.snapshot, rebuilt)
        )
        assert original == pytest.approx(roundtrip)
