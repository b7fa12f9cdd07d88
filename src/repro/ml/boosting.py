"""Stochastic gradient boosting with binomial deviance loss.

Implements Friedman's gradient boosting machine [18, 19 in the paper] for
binary classification, the model the paper selects for its phishing
detector (Section IV-C):

* the model is an additive ensemble ``F_M(x) = F_0 + lr * sum_m h_m(x)``
  of regression trees fit to the negative gradient of the loss;
* binomial deviance loss ``L(y, F) = log(1 + exp(-2(2y-1)F))`` in its
  standard logistic parameterisation: the pseudo-residual at stage ``m``
  is ``y - sigmoid(F_{m-1}(x))``;
* each leaf's value is refined with a one-step Newton update,
  ``sum(residual) / sum(p * (1 - p))``;
* optional stochastic subsampling of rows per stage [Friedman 2002].

``predict_proba`` returns the confidence values in ``[0, 1]`` that the
paper thresholds at 0.7 to favour predicting the legitimate class.

Training performance: each fit computes **one global stable argsort
of the feature matrix** (:func:`repro.ml.tree.presort_matrix`) and
every tree of every stage searches its splits over it — feature order
never changes between boosting stages, only the targets do — so no
node ever sorts (see :mod:`repro.ml.tree`).  Stage subsamples are drawn
and then sorted ascending: the sample *set* is unchanged, and the
canonical order is what keeps the trees equal, bit for bit, to a
per-node argsort of every column.  Each ``fit`` records timing and
split-search counters in ``fit_stats_``
(:class:`repro.ml.instrumentation.TrainingStats`).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.ml.compiled import CompiledEnsemble
from repro.ml.compiled import sigmoid as _sigmoid
from repro.ml.instrumentation import TrainingStats
from repro.ml.tree import RegressionTree, presort_matrix, restrict_presort
from repro.obs.trace import AnyTracer, Tracer

#: Hyperparameters that ``to_dict`` wrote for split-search options
#: since removed; ``from_dict`` drops them so saved models still load.
_RETIRED_HYPERPARAMETERS = ("tree_method", "max_bins")

#: The paper's discrimination threshold (Section VI-A): confidences in
#: ``[0, 0.7)`` predict legitimate, ``[0.7, 1]`` predict phishing,
#: deliberately favouring the legitimate class.  Single-sourced here so
#: the classifier default and :data:`repro.core.detector.DEFAULT_THRESHOLD`
#: cannot drift apart.
PAPER_THRESHOLD = 0.7


class GradientBoostingClassifier:
    """Binary gradient-boosted trees classifier.

    Parameters
    ----------
    n_estimators:
        Number of boosting stages (trees).
    learning_rate:
        Shrinkage applied to each stage's contribution.
    max_depth:
        Depth of the regression-tree base learners.
    subsample:
        Fraction of training rows drawn (without replacement) per stage;
        1.0 disables stochastic boosting.
    min_samples_leaf:
        Minimum samples per tree leaf.
    max_features:
        Features examined per split; ``None`` means all.
    random_state:
        Seed for subsampling and feature subsampling.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        subsample: float = 1.0,
        min_samples_leaf: int = 1,
        max_features: int | None = None,
        random_state: int | None = None,
    ) -> None:
        if not 0 < subsample <= 1:
            raise ValueError(f"subsample must be in (0, 1], got {subsample}")
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {n_estimators}")
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {learning_rate}")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.subsample = subsample
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self._trees: list[RegressionTree] = []
        self._initial_raw = 0.0
        self._compiled: CompiledEnsemble | None = None
        self.n_features_in_: int | None = None
        #: Timing + split-search counters of the last fit.
        self.fit_stats_: TrainingStats | None = None

    # ------------------------------------------------------------------
    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        tracer: AnyTracer | None = None,
    ) -> "GradientBoostingClassifier":
        """Fit the ensemble on features ``X`` and binary labels ``y``.

        ``tracer`` optionally receives the per-stage spans
        (``train.fit`` → ``train.prep`` + one ``train.stage`` each);
        without one the spans are recorded into a private tracer, which
        is also where ``fit_stats_`` now comes from
        (:meth:`~repro.ml.instrumentation.TrainingStats.from_spans`).
        """
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if len(X) != len(y):
            raise ValueError(f"X and y disagree: {len(X)} vs {len(y)}")
        if not set(np.unique(y)) <= {0.0, 1.0}:
            raise ValueError("labels must be binary (0/1)")

        rng = np.random.default_rng(self.random_state)
        n = len(y)
        positive_rate = float(np.clip(y.mean(), 1e-6, 1 - 1e-6))
        self._initial_raw = float(np.log(positive_rate / (1 - positive_rate)))
        raw = np.full(n, self._initial_raw)
        self._trees = []
        self._compiled = None
        self.n_features_in_ = X.shape[1]
        self.train_deviance_: list[float] = []
        nodes_built = 0
        split_evaluations = 0
        # Spans always record somewhere: into the caller's tracer when a
        # live one is injected, else into a private one — either way
        # `fit_stats_` is derived from the span tree afterwards.
        rec = tracer if isinstance(tracer, Tracer) else Tracer()
        with rec.span(
            "train.fit",
            n_samples=n,
            n_features=int(X.shape[1]),
            n_estimators=self.n_estimators,
        ) as fit_span:
            # One-off preparation, shared by every stage: feature order
            # never changes between stages (only the targets do), so the
            # presort of X is computed exactly once per fit.
            with rec.span("train.prep"):
                sorted_all = presort_matrix(X)
                sorted_vals_all = X[sorted_all, np.arange(X.shape[1])[:, None]]

            for _stage in range(self.n_estimators):
                with rec.span("train.stage"):
                    prob = _sigmoid(raw)
                    residual = y - prob

                    if self.subsample < 1.0:
                        sample_size = max(1, int(round(self.subsample * n)))
                        # The draw is sorted ascending: the sample set is
                        # unchanged and the canonical order makes the fit
                        # independent of draw order — the invariant that
                        # keeps the presorted trees equal to a per-node
                        # argsort's, bit for bit.
                        rows = np.sort(
                            rng.choice(n, size=sample_size, replace=False)
                        )
                    else:
                        rows = np.arange(n)

                    tree = RegressionTree(
                        max_depth=self.max_depth,
                        min_samples_leaf=self.min_samples_leaf,
                        max_features=self.max_features,
                        rng=rng,
                    )
                    if len(rows) == n:
                        tree.fit(
                            X, residual, sorted_idx=sorted_all,
                            sorted_vals=sorted_vals_all,
                        )
                    else:
                        sub_sorted, sub_vals = restrict_presort(
                            sorted_all, rows, n, sorted_vals_all
                        )
                        tree.fit(
                            X[rows], residual[rows],
                            sorted_idx=sub_sorted, sorted_vals=sub_vals,
                        )

                    # Newton step: replace each leaf mean with the
                    # deviance-optimal value computed from the samples
                    # that reached that leaf.
                    hessian = prob * (1 - prob)
                    for leaf in tree.leaf_ids():
                        leaf_rows = rows[tree.training_samples_in_leaf(leaf)]
                        numerator = residual[leaf_rows].sum()
                        denominator = hessian[leaf_rows].sum()
                        if denominator < 1e-12:
                            tree.set_leaf_value(leaf, 0.0)
                        else:
                            tree.set_leaf_value(
                                leaf, float(numerator / denominator)
                            )

                    raw = raw + self.learning_rate * tree.predict(X)
                    self._trees.append(tree)
                    self.train_deviance_.append(self._deviance(y, raw))
                    nodes_built += tree.n_nodes
                    split_evaluations += tree.split_evaluations_

            # Flatten the finished ensemble for level-wise batch
            # inference while the fit span is still open, so compile
            # cost is visible in the same trace as the fit it belongs
            # to.  (TrainingStats ignores unknown child span names.)
            with rec.span("train.compile", n_trees=len(self._trees)):
                self._compiled = CompiledEnsemble.from_trees(
                    self._trees,
                    initial_raw=self._initial_raw,
                    learning_rate=self.learning_rate,
                    n_features=int(X.shape[1]),
                )
        self.fit_stats_ = TrainingStats.from_spans(
            fit_span,
            nodes_built=nodes_built,
            split_evaluations=split_evaluations,
        )
        return self

    @staticmethod
    def _deviance(y: np.ndarray, raw: np.ndarray) -> float:
        prob = _sigmoid(raw)
        eps = 1e-12
        return float(
            -np.mean(y * np.log(prob + eps) + (1 - y) * np.log(1 - prob + eps))
        )

    # ------------------------------------------------------------------
    def _check_fitted(self, X: np.ndarray) -> np.ndarray:
        if not self._trees:
            raise RuntimeError("model is not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X must have shape (*, {self.n_features_in_}), got {X.shape}"
            )
        return X

    def compiled(self) -> CompiledEnsemble:
        """The level-wise compiled form of the fitted ensemble.

        Compiled eagerly at the end of :meth:`fit` (under the
        ``train.compile`` span) and lazily here for models rebuilt via
        :meth:`from_dict`.  Compilation is a pure restructuring: scores
        from the compiled form are bit-identical to
        :meth:`decision_function_trees`.
        """
        if not self._trees:
            raise RuntimeError("model is not fitted")
        if self._compiled is None:
            self._compiled = CompiledEnsemble.from_trees(
                self._trees,
                initial_raw=self._initial_raw,
                learning_rate=self.learning_rate,
                n_features=int(self.n_features_in_ or 0),
            )
        return self._compiled

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Raw additive score before the logistic link."""
        X = self._check_fitted(X)
        if len(X) == 1:
            # Per-page scoring path: walking each tree with Python
            # scalars skips every round of numpy overhead.  tolist()
            # and scalar ops are exact float64, and the accumulation
            # order matches the per-tree loop, so the result is
            # bit-identical.
            row = X[0].tolist()
            raw = self._initial_raw
            for tree in self._trees:
                raw = raw + self.learning_rate * tree.predict_row(row)
            return np.array([raw], dtype=np.float64)
        return self.compiled().decision_function(X)

    def decision_function_trees(self, X: np.ndarray) -> np.ndarray:
        """Reference per-tree scoring loop (the pre-compiled path).

        Kept as the uncompiled baseline the differential harness checks
        :class:`~repro.ml.compiled.CompiledEnsemble` against; both
        accumulate ``learning_rate * tree_value`` in the same ensemble
        order, so they agree to the last bit.
        """
        X = self._check_fitted(X)
        raw = np.full(len(X), self._initial_raw)
        for tree in self._trees:
            raw += self.learning_rate * tree.predict(X)
        return raw

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Confidence of the positive (phishing) class, in ``[0, 1]``."""
        return _sigmoid(self.decision_function(X))

    def predict(
        self, X: np.ndarray, threshold: float = PAPER_THRESHOLD
    ) -> np.ndarray:
        """Binary predictions at the given discrimination threshold.

        The default is the paper's 0.7 (:data:`PAPER_THRESHOLD`), the
        same value :class:`~repro.core.detector.PhishingDetector` uses —
        not the conventional 0.5 — predicting legitimate for confidences
        in ``[0, 0.7)`` and phishing for ``[0.7, 1]``.  Pass
        ``threshold=0.5`` explicitly for the conventional cut.
        """
        return (self.predict_proba(X) >= threshold).astype(np.int64)

    def staged_predict_proba(self, X: np.ndarray) -> Iterator[np.ndarray]:
        """Yield the positive-class probability after each boosting stage."""
        X = self._check_fitted(X)
        raw = np.full(len(X), self._initial_raw)
        for tree in self._trees:
            raw = raw + self.learning_rate * tree.predict(X)
            yield _sigmoid(raw)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Serialise the fitted ensemble to a plain-JSON-able dict.

        The client-side deployment story of the paper needs trained
        models shipped to browsers; this is the wire format.
        """
        if not self._trees:
            raise RuntimeError("model is not fitted")
        return {
            "hyperparameters": {
                "n_estimators": self.n_estimators,
                "learning_rate": self.learning_rate,
                "max_depth": self.max_depth,
                "subsample": self.subsample,
                "min_samples_leaf": self.min_samples_leaf,
                "max_features": self.max_features,
                "random_state": self.random_state,
            },
            "initial_raw": self._initial_raw,
            "n_features": self.n_features_in_,
            "trees": [
                {
                    "feature": tree.feature.tolist(),
                    "threshold": tree.threshold.tolist(),
                    "left": tree.left.tolist(),
                    "right": tree.right.tolist(),
                    "value": tree.value.tolist(),
                }
                for tree in self._trees
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "GradientBoostingClassifier":
        """Rebuild a fitted ensemble from :meth:`to_dict` output.

        Payloads written before the split-search options were removed
        still load: their ``tree_method`` and ``max_bins`` entries are
        dropped.  Any other unknown hyperparameter is rejected.
        """
        try:
            hyperparameters = {
                key: value
                for key, value in payload["hyperparameters"].items()
                if key not in _RETIRED_HYPERPARAMETERS
            }
            model = cls(**hyperparameters)
            model._initial_raw = float(payload["initial_raw"])
            model.n_features_in_ = int(payload["n_features"])
            trees_payload = payload["trees"]
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(f"malformed model payload: {exc}") from exc
        model._trees = []
        for tree_payload in trees_payload:
            tree = RegressionTree(max_depth=model.max_depth)
            tree.feature = np.asarray(tree_payload["feature"], dtype=np.int64)
            tree.threshold = np.asarray(
                tree_payload["threshold"], dtype=np.float64
            )
            tree.left = np.asarray(tree_payload["left"], dtype=np.int64)
            tree.right = np.asarray(tree_payload["right"], dtype=np.int64)
            tree.value = np.asarray(tree_payload["value"], dtype=np.float64)
            tree.n_nodes = len(tree.feature)
            model._trees.append(tree)
        return model

    def feature_importances(self) -> np.ndarray:
        """Split-frequency feature importances, normalised to sum to 1."""
        if not self._trees:
            raise RuntimeError("model is not fitted")
        counts = np.zeros(self.n_features_in_, dtype=np.float64)
        for tree in self._trees:
            internal = tree.feature[tree.feature >= 0]
            for feat in internal:
                counts[feat] += 1
        total = counts.sum()
        return counts / total if total else counts
