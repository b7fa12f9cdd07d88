"""Property tests for the training performance engine.

Two families of guarantees:

* the presorted trees and ensembles are **bit-identical** to the
  per-node argsort oracle (:mod:`tests.ml.exact_tree`: same splits,
  same stored floats, same ``predict_proba``) across subsampling,
  feature subsampling and heavy value ties — presort is an execution
  strategy, not an approximation;
* fold-parallel cross-validation returns results exactly equal to the
  serial run on the thread and process backends (schedule-independent
  fold seeds + order-preserving pool maps).

Plus the satellite fixes: the tree's default RNG is a fixed seed and
``cross_validate`` thresholds at the paper's 0.7 by default.
"""

import inspect
import json

import numpy as np
import pytest

from repro.core.detector import PhishingDetector
from repro.ml import boosting
from repro.ml.boosting import PAPER_THRESHOLD, GradientBoostingClassifier
from repro.ml.tree import (
    DEFAULT_SEED,
    RegressionTree,
    presort_matrix,
    restrict_presort,
)
from repro.ml.validation import cross_validate, cross_validate_scores
from repro.parallel.executor import WorkerPool
from tests.ml.exact_tree import ExactRegressionTree


def _problem(n=200, n_features=12, ties=False, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, n_features))
    if ties:
        # Low-cardinality columns force equal-value runs, the hard case
        # for stable-sort tie-breaking.
        X[:, ::2] = rng.integers(0, 4, size=(n, (n_features + 1) // 2))
    w = rng.normal(size=n_features)
    y = (X @ w + rng.normal(size=n) > 0).astype(float)
    return X, y


def _trees_identical(a: RegressionTree, b: RegressionTree) -> bool:
    return (
        np.array_equal(a.feature, b.feature)
        and np.array_equal(a.threshold, b.threshold)
        and np.array_equal(a.left, b.left)
        and np.array_equal(a.right, b.right)
        and np.array_equal(a.value, b.value)
    )


class _BoostFactory:
    """Picklable estimator factory for process-backend CV tests."""

    def __init__(self, **kwargs):
        self.kwargs = kwargs

    def __call__(self) -> GradientBoostingClassifier:
        return GradientBoostingClassifier(**self.kwargs)


class TestPresortMatrix:
    def test_matches_per_column_stable_argsort(self):
        X, _ = _problem(ties=True)
        sorted_idx = presort_matrix(X)
        for feat in range(X.shape[1]):
            expected = np.argsort(X[:, feat], kind="stable")
            assert np.array_equal(sorted_idx[feat], expected)

    def test_restriction_equals_presort_of_submatrix(self):
        X, _ = _problem(n=300, ties=True)
        rows = np.sort(
            np.random.default_rng(1).choice(300, size=200, replace=False)
        )
        restricted = restrict_presort(presort_matrix(X), rows, len(X))
        assert np.array_equal(restricted, presort_matrix(X[rows]))

    def test_restriction_filters_value_matrix_consistently(self):
        X, _ = _problem(n=250, ties=True)
        rows = np.sort(
            np.random.default_rng(2).choice(250, size=140, replace=False)
        )
        sorted_idx = presort_matrix(X)
        cols = np.arange(X.shape[1])[:, None]
        sub_idx, sub_vals = restrict_presort(
            sorted_idx, rows, len(X), X[sorted_idx, cols]
        )
        X_sub = X[rows]
        assert np.array_equal(sub_vals, X_sub[presort_matrix(X_sub), cols])
        assert np.array_equal(sub_idx, presort_matrix(X_sub))

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            presort_matrix(np.arange(5.0))


class TestPresortedTreeBitIdentity:
    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("max_depth", [1, 3, 5])
    def test_tree_identical_to_exact(self, ties, max_depth):
        X, y = _problem(ties=ties)
        exact = ExactRegressionTree(max_depth=max_depth).fit(X, y)
        # Handed a presort, or computing its own: the same tree.
        for fast in (
            RegressionTree(max_depth=max_depth).fit(
                X, y, sorted_idx=presort_matrix(X)
            ),
            RegressionTree(max_depth=max_depth).fit(X, y),
        ):
            assert _trees_identical(exact, fast)
            assert np.array_equal(exact.predict(X), fast.predict(X))

    def test_tree_identical_with_feature_subsampling(self):
        X, y = _problem(ties=True)
        exact = ExactRegressionTree(max_features=5, rng=3).fit(X, y)
        fast = RegressionTree(max_features=5, rng=3).fit(
            X, y, sorted_idx=presort_matrix(X)
        )
        assert _trees_identical(exact, fast)

    def test_leaf_bookkeeping_identical(self):
        X, y = _problem()
        exact = ExactRegressionTree().fit(X, y)
        fast = RegressionTree().fit(X, y, sorted_idx=presort_matrix(X))
        for leaf in exact.leaf_ids():
            assert np.array_equal(
                exact.training_samples_in_leaf(leaf),
                fast.training_samples_in_leaf(leaf),
            )

    def test_rejects_wrong_sorted_idx_shape(self):
        X, y = _problem(n=50, n_features=4)
        with pytest.raises(ValueError):
            RegressionTree().fit(X, y, sorted_idx=presort_matrix(X).T)


class TestBoostingBitIdentity:
    @pytest.mark.parametrize("subsample", [1.0, 0.7])
    @pytest.mark.parametrize("max_features", [None, 5])
    def test_presort_equals_exact(self, subsample, max_features, monkeypatch):
        X, y = _problem(ties=True)
        kwargs = dict(
            n_estimators=10, random_state=0,
            subsample=subsample, max_features=max_features,
        )
        fast = GradientBoostingClassifier(**kwargs).fit(X, y)
        monkeypatch.setattr(boosting, "RegressionTree", ExactRegressionTree)
        exact = GradientBoostingClassifier(**kwargs).fit(X, y)
        assert all(isinstance(t, ExactRegressionTree) for t in exact._trees)
        assert np.array_equal(
            exact.predict_proba(X), fast.predict_proba(X)
        )
        assert exact.train_deviance_ == fast.train_deviance_
        for tree_a, tree_b in zip(exact._trees, fast._trees):
            assert _trees_identical(tree_a, tree_b)

    def test_fit_stats_populated(self):
        X, y = _problem(n=120, n_features=6)
        clf = GradientBoostingClassifier(
            n_estimators=7, random_state=0
        ).fit(X, y)
        stats = clf.fit_stats_
        assert stats.n_stages == 7
        assert stats.n_samples == 120 and stats.n_features == 6
        assert stats.nodes_built == sum(t.n_nodes for t in clf._trees)
        assert stats.split_evaluations > 0
        assert stats.total_seconds > 0
        assert stats.as_dict()["stages_per_sec"] > 0

    def test_payload_with_retired_split_options_loads(self, tmp_path):
        X, y = _problem(n=100, n_features=212)
        detector = PhishingDetector(n_estimators=5).fit(X, y)
        path = tmp_path / "detector.json"
        detector.save(path)
        payload = json.loads(path.read_text())
        hyperparameters = payload["model"]["hyperparameters"]
        assert not {"tree_method", "max_bins"} & set(hyperparameters)
        # The keys a saved detector carried while split search was
        # selectable; loading drops them.
        hyperparameters.update(tree_method="histogram", max_bins=32)
        path.write_text(json.dumps(payload))
        expected = detector.predict_proba(X)
        model = GradientBoostingClassifier.from_dict(payload["model"])
        assert np.array_equal(model.predict_proba(X), expected)
        loaded = PhishingDetector.load(path, extractor=detector.extractor)
        assert np.array_equal(loaded.predict_proba(X), expected)

    def test_payload_with_unknown_hyperparameter_rejected(self):
        X, y = _problem(n=60, n_features=4)
        payload = GradientBoostingClassifier(n_estimators=2).fit(X, y).to_dict()
        payload["hyperparameters"]["max_leaves"] = 8
        with pytest.raises(ValueError, match="malformed model payload"):
            GradientBoostingClassifier.from_dict(payload)


class TestDefaultRngDeterminism:
    def test_feature_subsampling_reproducible_without_rng(self):
        X, y = _problem(ties=True)
        first = RegressionTree(max_features=4).fit(X, y)
        second = RegressionTree(max_features=4).fit(X, y)
        assert _trees_identical(first, second)

    def test_int_seed_accepted(self):
        X, y = _problem()
        a = RegressionTree(max_features=4, rng=11).fit(X, y)
        b = RegressionTree(
            max_features=4, rng=np.random.default_rng(11)
        ).fit(X, y)
        assert _trees_identical(a, b)

    def test_default_seed_is_fixed(self):
        assert DEFAULT_SEED == 0


class TestFoldParallelCrossValidation:
    def _data(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(150, 4))
        y = (X[:, 0] + 0.3 * rng.normal(size=150) > 0).astype(int)
        return X, y

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_cross_validate_matches_serial(self, backend):
        X, y = self._data()
        factory = _BoostFactory(n_estimators=8, random_state=0)
        serial = cross_validate(factory, X, y, n_splits=3, random_state=0)
        with WorkerPool(workers=3, backend=backend) as pool:
            parallel = cross_validate(
                factory, X, y, n_splits=3, random_state=0, pool=pool
            )
        assert parallel == serial

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_cross_validate_scores_matches_serial(self, backend):
        X, y = self._data()
        factory = _BoostFactory(n_estimators=8, random_state=0)
        serial_y, serial_scores = cross_validate_scores(
            factory, X, y, n_splits=3, random_state=0
        )
        with WorkerPool(workers=3, backend=backend) as pool:
            pool_y, pool_scores = cross_validate_scores(
                factory, X, y, n_splits=3, random_state=0, pool=pool
            )
        assert np.array_equal(serial_y, pool_y)
        assert np.array_equal(serial_scores, pool_scores)

    def test_threshold_defaults_to_paper_value(self):
        signature = inspect.signature(cross_validate)
        assert signature.parameters["threshold"].default == PAPER_THRESHOLD
        assert PAPER_THRESHOLD == 0.7

    def test_threshold_default_changes_metrics_consistently(self):
        X, y = self._data()
        factory = _BoostFactory(n_estimators=8, random_state=0)
        default = cross_validate(factory, X, y, n_splits=3, random_state=0)
        explicit = cross_validate(
            factory, X, y, n_splits=3,
            threshold=PAPER_THRESHOLD, random_state=0,
        )
        assert default == explicit
