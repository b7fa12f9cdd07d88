"""Tests for the experiment runner (smoke-level: keys, shapes, sanity)."""

import numpy as np
import pytest

from repro.corpus.datasets import CorpusConfig
from repro.corpus.wordlists import LANGUAGES
from repro.evaluation.runner import FEATURE_SETS, Lab

METRIC_KEYS = {"precision", "recall", "f1", "fpr", "accuracy", "auc"}


@pytest.fixture(scope="module")
def lab():
    config = CorpusConfig(
        leg_train=100, phish_train=45, phish_test=45, phish_brand=30,
        english_test=200, other_language_test=60, seed=13,
    )
    return Lab(config, n_estimators=30)


class TestPlumbing:
    def test_features_cached(self, lab):
        first = lab.features("english")
        second = lab.features("english")
        assert first is second
        assert first.shape == (200, 212)

    def test_detector_cached(self, lab):
        assert lab.detector("fall") is lab.detector("fall")

    def test_scenario2_scores(self, lab):
        y, scores = lab.scenario2_scores("french")
        assert len(y) == 60 + 45
        assert scores.min() >= 0 and scores.max() <= 1

    def test_scenario1_scores_cover_training_set(self, lab):
        y, scores = lab.scenario1_scores("f4", n_splits=3)
        assert len(y) == 145


class TestTables:
    def test_table5(self, lab):
        rows = lab.table5_rows()
        names = [row["name"] for row in rows]
        assert "phishTrain" in names and "english" in names
        for row in rows:
            assert row["initial"] >= row["clean"]

    def test_table6(self, lab):
        rows = lab.table6_rows()
        assert [row["language"] for row in rows] == list(LANGUAGES)
        for row in rows:
            assert METRIC_KEYS <= set(row)
            assert row["auc"] > 0.8

    def test_fig3_fig4_curves(self, lab):
        pr = lab.fig3_curves()
        roc = lab.fig4_curves()
        assert set(pr) == set(LANGUAGES) == set(roc)
        fpr, tpr = roc["english"]
        assert fpr[0] == 0.0 and tpr[-1] == pytest.approx(1.0)

    def test_fig6_scalability(self, lab):
        rows = lab.fig6_curve(steps=4)
        assert len(rows) == 4
        sizes = [row["sample_size"] for row in rows]
        assert sizes == sorted(sizes)

    def test_table8_timing(self, lab):
        timing = lab.table8_timing(sample_size=10)
        assert set(timing) == {
            "scraping", "loading", "features", "classification",
            "total_no_scraping", "target_identification",
        }
        for stage in timing.values():
            assert stage["median"] >= 0
            assert set(stage) == {"median", "average", "std"}

    def test_table9_target_id(self, lab):
        rows = lab.table9_target_id()
        assert set(rows) == {"top-1", "top-2", "top-3"}
        assert rows["top-1"]["success_rate"] <= rows["top-3"]["success_rate"]
        assert rows["top-3"]["success_rate"] > 0.5

    def test_sec6d(self, lab):
        result = lab.sec6d_fp_filtering()
        assert result["fpr_after"] <= result["fpr_before"]
        assert sum(result["breakdown"].values()) == result["false_positives"]

    def test_sec7_ip(self, lab):
        result = lab.sec7_ip_recall(count=8)
        assert 0.0 <= result["ip_recall"] <= 1.0
        assert 0.0 <= result["global_recall"] <= 1.0

    def test_feature_sets_constant(self):
        assert "fall" in FEATURE_SETS and len(FEATURE_SETS) == 8


class TestExtensions:
    def test_blacklist_exposure(self, lab):
        result = lab.sec8_blacklist_exposure(campaigns=100)
        assert 0.0 <= result["blacklist_mean_exposure"] <= 1.0
        assert result["client_side_mean_exposure"] <= 1.0

    def test_model_choice(self, lab):
        result = lab.model_choice_ablation()
        assert set(result) == {"gradient_boosting", "logistic_regression"}
        assert result["gradient_boosting"] > 0.9

    def test_temporal_drift(self, lab):
        result = lab.temporal_drift(count=10)
        assert 0.0 <= result["drifted_recall"] <= 1.0
        assert 0.0 <= result["baseline_recall"] <= 1.0
