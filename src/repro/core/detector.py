"""The phishing detection system (Section IV).

:class:`PhishingDetector` couples the 212-feature extractor with the
Gradient Boosting classifier and the paper's discrimination threshold of
0.7 — confidences in ``[0, 0.7)`` predict legitimate, ``[0.7, 1]``
predict phishing, deliberately favouring the legitimate class.

The detector can be restricted to a feature subset (``"f1"``,
``"f2,3,4"``, ...) to reproduce the per-feature-set evaluation of
Table VII and Figs. 2/5.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core.features import FeatureExtractor, feature_set_mask
from repro.ml.boosting import PAPER_THRESHOLD, GradientBoostingClassifier

#: The paper's discrimination threshold (Section VI-A), single-sourced
#: from :data:`repro.ml.boosting.PAPER_THRESHOLD` so the classifier's
#: ``predict`` default and the pipeline can never diverge.
DEFAULT_THRESHOLD = PAPER_THRESHOLD


class PhishingDetector:
    """Gradient-boosted phishing classifier over the Table III features.

    Parameters
    ----------
    extractor:
        Feature extractor (bring the world's Alexa ranking through it).
    feature_set:
        Feature subset to train on (default ``"fall"``, all 212).
    threshold:
        Discrimination threshold in ``[0, 1]``.
    n_estimators, learning_rate, max_depth, subsample:
        Gradient boosting hyperparameters.
    random_state:
        Seed for the stochastic parts of boosting.
    """

    def __init__(
        self,
        extractor: FeatureExtractor | None = None,
        feature_set: str = "fall",
        threshold: float = DEFAULT_THRESHOLD,
        n_estimators: int = 120,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        subsample: float = 0.9,
        random_state: int | None = 0,
    ):
        if not 0 <= threshold <= 1:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        self.extractor = extractor or FeatureExtractor()
        self.feature_set = feature_set
        self.mask = feature_set_mask(feature_set)
        self.threshold = threshold
        self.model = GradientBoostingClassifier(
            n_estimators=n_estimators,
            learning_rate=learning_rate,
            max_depth=max_depth,
            subsample=subsample,
            random_state=random_state,
        )

    # ------------------------------------------------------------------
    def features(self, snapshots) -> np.ndarray:
        """Masked feature matrix for an iterable of snapshots."""
        return self.extractor.extract_many(snapshots)[:, self.mask]

    def fit(self, X: np.ndarray, y: np.ndarray) -> "PhishingDetector":
        """Fit on a precomputed **full 212-column** feature matrix."""
        X = np.asarray(X, dtype=np.float64)
        if X.shape[1] == self.mask.size:
            X = X[:, self.mask]
        self.model.fit(X, np.asarray(y))
        return self

    def fit_snapshots(self, snapshots, labels) -> "PhishingDetector":
        """Extract features from ``snapshots`` and fit."""
        return self.fit(self.extractor.extract_many(snapshots), labels)

    # ------------------------------------------------------------------
    def _masked(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.shape[1] == self.mask.size:
            return X[:, self.mask]
        if X.shape[1] == int(self.mask.sum()):
            return X
        raise ValueError(
            f"expected {self.mask.size} or {int(self.mask.sum())} columns, "
            f"got {X.shape[1]}"
        )

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Phishing confidence in ``[0, 1]`` for a feature matrix."""
        return self.model.predict_proba(self._masked(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Hard labels at the configured discrimination threshold."""
        return (self.predict_proba(X) >= self.threshold).astype(np.int64)

    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Write the trained model to a JSON file.

        Only the learned model and decision configuration are stored;
        the feature extractor (which carries the local Alexa list) is
        recreated at load time, mirroring the paper's deployment where
        the ranking file ships separately from the model.
        """
        payload = {
            "format": "know-your-phish-detector/1",
            "feature_set": self.feature_set,
            "threshold": self.threshold,
            "model": self.model.to_dict(),
        }
        Path(path).write_text(json.dumps(payload))

    @classmethod
    def load(
        cls, path: str | Path, extractor: FeatureExtractor | None = None
    ) -> "PhishingDetector":
        """Rebuild a trained detector from :meth:`save` output."""
        payload = json.loads(Path(path).read_text())
        if payload.get("format") != "know-your-phish-detector/1":
            raise ValueError(f"unrecognised detector file format in {path}")
        detector = cls(
            extractor=extractor,
            feature_set=payload["feature_set"],
            threshold=payload["threshold"],
        )
        detector.model = GradientBoostingClassifier.from_dict(payload["model"])
        return detector
