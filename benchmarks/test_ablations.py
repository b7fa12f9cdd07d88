"""Ablations of the design choices DESIGN.md calls out.

1. Discrimination threshold: 0.7 vs 0.5 — the paper picks 0.7 to favour
   the legitimate class, so 0.7 must yield a lower FPR.
2. Keyterm count N: success saturates around the paper's N=5.
3. Hellinger vs Jaccard for f2: the probability-aware metric must not
   lose to plain set overlap.
4. Control partition of f1: internal/external grouping vs flat link
   statistics — the paper's Section III-A conjecture.

The package computes only the paper's choices (Hellinger f2, the
partitioned f1).  The Jaccard f2 and the flat f1 come from the per-page
oracle in ``tests/core/reference_features.py``.
"""

import numpy as np

from repro.core.datasources import DataSources
from repro.core.detector import PhishingDetector
from repro.core.features import FeatureExtractor, feature_set_mask
from repro.core.target import TargetIdentifier
from repro.evaluation.reporting import format_table
from repro.ml.boosting import GradientBoostingClassifier
from repro.ml.metrics import binary_metrics, roc_auc
from tests.core import reference_features


def test_ablation_threshold(lab, benchmark, save_result):
    def run():
        y, scores = lab.scenario2_scores("english")
        rows = []
        for threshold in (0.5, 0.6, 0.7, 0.8, 0.9):
            metrics = binary_metrics(y, (scores >= threshold).astype(int))
            rows.append([threshold, metrics.precision, metrics.recall,
                         metrics.fpr])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result("ablation_threshold", format_table(
        ["threshold", "precision", "recall", "fp_rate"], rows
    ))

    by_threshold = {row[0]: row for row in rows}
    # Raising the threshold can only lower (or keep) FPR and recall.
    assert by_threshold[0.7][3] <= by_threshold[0.5][3]
    assert by_threshold[0.7][2] <= by_threshold[0.5][2] + 1e-9


def test_ablation_keyterm_count(lab, benchmark, save_result):
    pages = [
        page for page in lab.dataset("phishBrand") if page.target_mld
    ]

    def run():
        rows = []
        for n_terms in (2, 3, 5, 8):
            identifier = TargetIdentifier(
                lab.world.search, ocr=lab.ocr, n_terms=n_terms
            )
            hits = sum(
                identifier.identify(page.snapshot).target_in_top(
                    page.target_mld, 3
                )
                for page in pages
            )
            rows.append([n_terms, hits / len(pages)])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result("ablation_keyterm_count", format_table(
        ["n_terms", "top3_success"], rows
    ))

    by_n = {row[0]: row[1] for row in rows}
    # N=5 is at least as good as a too-small N, and success saturates:
    # going to N=8 buys little.
    assert by_n[5] >= by_n[2] - 0.05
    assert abs(by_n[8] - by_n[5]) < 0.15


def test_ablation_hellinger_vs_jaccard(lab, benchmark, save_result):
    train = lab.dataset("legTrain") + lab.dataset("phishTrain")
    test = lab.dataset("english").subset(range(400)) + lab.dataset("phishTest")
    extractor = FeatureExtractor(alexa=lab.world.alexa)

    def matrix(pages, metric):
        if metric == "hellinger":
            return extractor.extract_many(p.snapshot for p in pages)
        return np.asarray([
            reference_features.f2(
                DataSources(p.snapshot, psl=extractor.psl), metric
            )
            for p in pages
        ])

    def run():
        rows = []
        for metric in ("hellinger", "jaccard"):
            detector = PhishingDetector(
                extractor, feature_set="f2", n_estimators=60
            )
            detector.fit(matrix(train, metric), train.labels())
            scores = detector.predict_proba(matrix(test, metric))
            rows.append([metric, roc_auc(test.labels(), scores)])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result("ablation_hellinger_vs_jaccard", format_table(
        ["f2 metric", "auc"], rows
    ))

    by_metric = {row[0]: row[1] for row in rows}
    # The probability-aware Hellinger distance must not lose to set overlap.
    assert by_metric["hellinger"] >= by_metric["jaccard"] - 0.01


def test_ablation_control_partition(lab, benchmark, save_result):
    """f1 with the internal/external partition vs flat link statistics."""
    train = lab.dataset("legTrain") + lab.dataset("phishTrain")
    test = lab.dataset("english").subset(range(400)) + lab.dataset("phishTest")

    def matrix(pages, flat):
        if not flat:
            return lab.extractor.extract_many(
                page.snapshot for page in pages
            )[:, feature_set_mask("f1")]
        return np.asarray([
            reference_features.f1_flat(
                DataSources(page.snapshot, psl=lab.extractor.psl),
                lab.world.alexa,
            )
            for page in pages
        ])

    def run():
        rows = []
        for flat in (False, True):
            X_train = matrix(train, flat)
            X_test = matrix(test, flat)
            model = GradientBoostingClassifier(
                n_estimators=60, subsample=0.9, random_state=0
            ).fit(X_train, train.labels())
            auc_value = roc_auc(test.labels(), model.predict_proba(X_test))
            rows.append(["flat" if flat else "partitioned", auc_value])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result("ablation_control_partition", format_table(
        ["f1 variant", "auc"], rows
    ))

    by_variant = {row[0]: row[1] for row in rows}
    # Section III-A conjecture: the control partition helps (or at least
    # never hurts) URL-feature classification.
    assert by_variant["partitioned"] >= by_variant["flat"] - 0.005
