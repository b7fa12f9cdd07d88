"""Regression trees — the base learners of gradient boosting.

A CART-style regression tree fit by exact greedy variance-reduction
splits.  Split search runs over a **presort**: one global stable
argsort per feature (:func:`presort_matrix`, computed once per ensemble
fit and reused by every stage) that the tree propagates to child nodes
by *partition-stable selection*: restricting a stable sort to a subset
yields exactly the stable sort of that subset, so no node ever sorts
again.  Split search is vectorised across all candidate features at
once, at ``O(features * n)`` per node.

The result equals what argsorting every candidate column at every node
would give, bit for bit — that per-node builder is kept in the test
suite as the oracle the presorted trees are compared against.

Ordering invariant (what makes the presort exact): node sample index
arrays are kept in **ascending order** everywhere — the root is
``arange(n)`` and children are the ascending subset of their parent.
With that canonical order, a stable argsort of a node's column breaks
ties by ascending global index, which is precisely the order obtained
by filtering the global stable argsort down to the node's samples.
Every downstream float computation (prefix sums, node means, the
boosting Newton step) therefore consumes its inputs in the same order
as a per-node sort would, making not just the splits but every stored
float identical.

Only the pieces gradient boosting needs are implemented: squared-error
fitting, optional feature subsampling, externally adjustable leaf values
(for the Newton step of binomial deviance) and fast batch prediction.
"""

from __future__ import annotations

import numpy as np

_LEAF = -1  # sentinel feature index marking a leaf node

#: Seed used when no ``rng`` is given, so feature subsampling is
#: reproducible by default (mirroring
#: ``GradientBoostingClassifier.random_state``).
DEFAULT_SEED = 0

#: Minimum gain a split must exceed (strictly) to be accepted.
_MIN_GAIN = 1e-12


def presort_matrix(X: np.ndarray) -> np.ndarray:
    """Per-feature stable argsort of ``X``: shape ``(n_features, n)``.

    Row ``f`` lists the sample indices sorted ascending by feature ``f``
    with ties broken by sample index (numpy's stable sort).  Computed
    **once per ensemble fit** and reused by every node of every boosting
    stage — targets change between stages, feature order never does.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    # int32 halves the bandwidth of every per-node partition; sample
    # counts are far below 2**31.
    return np.argsort(X.T, axis=1, kind="stable").astype(np.int32)


def restrict_presort(
    sorted_by_feature: np.ndarray,
    rows: np.ndarray,
    n_samples: int,
    sorted_vals: np.ndarray | None = None,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Presort of the submatrix ``X[rows]`` derived without re-sorting.

    ``rows`` must be ascending and unique.  Filtering each globally
    sorted row down to the subset preserves value order and (because
    ``rows`` is ascending) maps global tie-breaking onto local
    tie-breaking, so the result equals ``presort_matrix(X[rows])``
    exactly — at ``O(features * n)`` instead of a fresh
    ``O(features * n log n)`` sort.  Used by stochastic boosting to
    reuse the ensemble-level presort for per-stage subsamples.

    When ``sorted_vals`` (the pre-gathered value matrix aligned with
    ``sorted_by_feature``) is given, it is filtered under the same
    selection and ``(subset_idx, subset_vals)`` is returned, saving the
    caller a per-stage 2-D gather from ``X``.
    """
    mask = np.zeros(n_samples, dtype=bool)
    mask[rows] = True
    selected = mask[sorted_by_feature]
    n_features = sorted_by_feature.shape[0]
    subset = sorted_by_feature[selected].reshape(n_features, len(rows))
    # Rank of each surviving global index within the ascending `rows`,
    # i.e. its local row number in X[rows].
    position = np.cumsum(mask, dtype=np.int32)
    position -= 1
    local = position[subset]
    if sorted_vals is None:
        return local
    subset_vals = sorted_vals[selected].reshape(n_features, len(rows))
    return local, subset_vals


class RegressionTree:
    """A binary regression tree fit with exact greedy splits.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (a depth of 1 is a decision stump).
    min_samples_split:
        Do not split nodes with fewer samples than this.
    min_samples_leaf:
        Each child of a split must keep at least this many samples.
    max_features:
        Number of features examined per split; ``None`` means all.
    rng:
        Randomness for feature subsampling: a
        ``numpy.random.Generator``, an int seed, or ``None`` for the
        fixed :data:`DEFAULT_SEED` — fitting is reproducible by default.
    """

    def __init__(
        self,
        max_depth: int = 3,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        self.max_depth = max_depth
        self.min_samples_split = max(2, min_samples_split)
        self.min_samples_leaf = max(1, min_samples_leaf)
        self.max_features = max_features
        if rng is None:
            rng = DEFAULT_SEED
        if isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(int(rng))
        self._rng = rng
        # Flat array representation, filled by fit().
        self.feature: np.ndarray | None = None
        self.threshold: np.ndarray | None = None
        self.left: np.ndarray | None = None
        self.right: np.ndarray | None = None
        self.value: np.ndarray | None = None
        self.n_nodes = 0
        #: Candidate (node, feature) pairs scored during the last fit.
        self.split_evaluations_ = 0
        # Plain-list mirror of the node arrays, built lazily by
        # predict_row() and dropped whenever the tree changes.
        self._flat: tuple | None = None

    # ------------------------------------------------------------------
    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sorted_idx: np.ndarray | None = None,
        sorted_vals: np.ndarray | None = None,
    ) -> "RegressionTree":
        """Fit the tree to ``(X, y)`` minimising squared error.

        ``sorted_idx`` is the presort of ``X`` (:func:`presort_matrix`);
        without one the tree computes it.  ``sorted_vals`` optionally
        supplies the matching pre-gathered value matrix
        ``X[sorted_idx, arange(F)[:, None]]`` (the ensemble reuses one
        across stages when no subsampling reshuffles rows).
        """
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if len(X) != len(y):
            raise ValueError(f"X and y disagree: {len(X)} vs {len(y)}")
        if len(X) == 0:
            raise ValueError("cannot fit a tree on an empty dataset")
        if sorted_idx is None:
            sorted_idx = presort_matrix(X)
        elif sorted_idx.shape != (X.shape[1], len(X)):
            raise ValueError(
                f"sorted_idx must have shape {(X.shape[1], len(X))}, "
                f"got {sorted_idx.shape}"
            )

        self._features: list[int] = []
        self._thresholds: list[float] = []
        self._lefts: list[int] = []
        self._rights: list[int] = []
        self._values: list[float] = []
        self._leaf_samples: dict[int, np.ndarray] = {}
        self.split_evaluations_ = 0

        # Gather the value and target matrices once per fit; the
        # recursion partitions them instead of re-gathering per node.
        if sorted_vals is None:
            sorted_vals = X[sorted_idx, np.arange(X.shape[1])[:, None]]
        self._build_presorted(
            X, y, sorted_idx, sorted_vals, y[sorted_idx],
            np.arange(len(X)), depth=0,
        )

        self.feature = np.asarray(self._features, dtype=np.int64)
        self.threshold = np.asarray(self._thresholds, dtype=np.float64)
        self.left = np.asarray(self._lefts, dtype=np.int64)
        self.right = np.asarray(self._rights, dtype=np.int64)
        self.value = np.asarray(self._values, dtype=np.float64)
        self.n_nodes = len(self._features)
        self._leaf_sample_indices = self._leaf_samples
        del (self._features, self._thresholds, self._lefts, self._rights,
             self._values, self._leaf_samples)
        self._flat = None
        return self

    # ------------------------------------------------------------------
    # node plumbing
    # ------------------------------------------------------------------
    def _open_node(self, y: np.ndarray, indices: np.ndarray) -> int:
        """Append a provisional leaf for ``indices`` and return its id."""
        node_id = len(self._features)
        self._features.append(_LEAF)
        self._thresholds.append(0.0)
        self._lefts.append(-1)
        self._rights.append(-1)
        self._values.append(float(y[indices].mean()))
        return node_id

    def _splittable(self, indices: np.ndarray, depth: int) -> bool:
        return (
            depth < self.max_depth
            and len(indices) >= self.min_samples_split
        )

    def _candidate_features(self, n_features: int) -> np.ndarray:
        if self.max_features is None or self.max_features >= n_features:
            return np.arange(n_features)
        return self._rng.choice(n_features, size=self.max_features, replace=False)

    # ------------------------------------------------------------------
    # split search over the presort
    # ------------------------------------------------------------------
    def _build_presorted(
        self,
        X: np.ndarray,
        y: np.ndarray,
        node_sorted: np.ndarray,
        node_vals: np.ndarray,
        node_y: np.ndarray,
        indices: np.ndarray,
        depth: int,
    ) -> int:
        node_id = self._open_node(y, indices)
        if not self._splittable(indices, depth):
            self._leaf_samples[node_id] = indices
            return node_id
        split = self._best_split_presorted(
            X, y, node_vals, node_y, indices
        )
        if split is None:
            self._leaf_samples[node_id] = indices
            return node_id
        feat, thresh, pos = split
        # Partition-stable propagation: mark the left samples (a prefix
        # of the winning feature's sorted row) and filter every sorted
        # row through the mask.  Boolean selection preserves per-row
        # order, so each child row remains the stable sort of the child
        # subset; `indices` stays ascending for the same reason.  The
        # value and target matrices partition under the same mask, so no
        # node below ever gathers from X or y again.
        mask = np.zeros(len(X), dtype=bool)
        mask[node_sorted[feat, : pos + 1]] = True
        in_left = mask[indices]
        left_idx = indices[in_left]
        right_idx = indices[~in_left]
        n_features = node_sorted.shape[0]
        n_left = pos + 1
        n_right = node_sorted.shape[1] - n_left
        # Partition the big matrices only for children that can still
        # split — children at the depth limit (or below the sample
        # minimum) become leaves without ever touching them, which skips
        # the entire last level's partitions.
        left_splittable = self._splittable(left_idx, depth + 1)
        right_splittable = self._splittable(right_idx, depth + 1)
        selected = unselected = None
        if left_splittable or right_splittable:
            selected = mask[node_sorted]
        if right_splittable:
            unselected = ~selected
        self._features[node_id] = feat
        self._thresholds[node_id] = thresh
        if left_splittable:
            left_child = self._build_presorted(
                X, y,
                node_sorted[selected].reshape(n_features, n_left),
                node_vals[selected].reshape(n_features, n_left),
                node_y[selected].reshape(n_features, n_left),
                left_idx, depth + 1,
            )
        else:
            left_child = self._open_node(y, left_idx)
            self._leaf_samples[left_child] = left_idx
        if right_splittable:
            right_child = self._build_presorted(
                X, y,
                node_sorted[unselected].reshape(n_features, n_right),
                node_vals[unselected].reshape(n_features, n_right),
                node_y[unselected].reshape(n_features, n_right),
                right_idx, depth + 1,
            )
        else:
            right_child = self._open_node(y, right_idx)
            self._leaf_samples[right_child] = right_idx
        self._lefts[node_id] = left_child
        self._rights[node_id] = right_child
        return node_id

    def _best_split_presorted(
        self,
        X: np.ndarray,
        y: np.ndarray,
        node_vals: np.ndarray,
        node_y: np.ndarray,
        indices: np.ndarray,
    ) -> tuple[int, float, int] | None:
        """Presorted split search, vectorised across candidate features.

        Scores every candidate feature's every boundary in one set of
        2-D array operations.  Each row of the intermediate matrices is
        elementwise identical to the arrays a per-node argsort of that
        feature builds (same elements, same order, same expressions),
        and first-maximum ``argmax`` tie-breaking matches a
        strict-improvement scan over the features, so the chosen split
        is the one that argsort would find, bit for bit.
        """
        n = len(indices)
        y_node = y[indices]
        node_sum = y_node.sum()
        node_sq = float(y_node @ y_node)
        parent_score = node_sum * node_sum / n
        parent_sse = node_sq - parent_score

        # Candidates are drawn before any early return, so every
        # splittable node consumes the rng stream the same way.
        candidates = self._candidate_features(X.shape[1])
        self.split_evaluations_ += len(candidates)
        if n < 2 or not parent_sse > 0:
            return None
        if len(candidates) == node_vals.shape[0]:
            sorted_vals, sorted_y = node_vals, node_y  # all features
        else:
            sorted_vals = node_vals[candidates]           # (C, n)
            sorted_y = node_y[candidates]
        # Prefix sums over the first n-1 positions only (the candidate
        # boundaries) — identical values to cumsum-then-slice, but the
        # result is contiguous and the in-place expressions below reuse
        # its buffers.  Every arithmetic step matches
        # ``left_sum**2 / left_n + right_sum**2 / right_n`` bit for bit.
        counts = np.arange(1, n)
        left_n = counts
        right_n = n - counts
        left_sum = np.cumsum(sorted_y[:, :-1], axis=1)
        right_sum = node_sum - left_sum
        score = left_sum * left_sum
        score /= left_n
        np.multiply(right_sum, right_sum, out=right_sum)
        right_sum /= right_n
        score += right_sum
        valid = sorted_vals[:, 1:] != sorted_vals[:, :-1]
        if self.min_samples_leaf > 1:
            valid &= (left_n >= self.min_samples_leaf) & (
                right_n >= self.min_samples_leaf
            )
        np.logical_not(valid, out=valid)
        score[valid] = -np.inf
        pos = np.argmax(score, axis=1)                    # first max per row
        gains = score[np.arange(len(candidates)), pos] - parent_score
        best_row = int(np.argmax(gains))                  # first max feature
        if not gains[best_row] > _MIN_GAIN:
            return None
        best_pos = int(pos[best_row])
        threshold = 0.5 * (
            sorted_vals[best_row, best_pos] + sorted_vals[best_row, best_pos + 1]
        )
        return int(candidates[best_row]), float(threshold), best_pos

    # ------------------------------------------------------------------
    def apply(self, X: np.ndarray) -> np.ndarray:
        """Return the leaf node id reached by each row of ``X``."""
        if self.feature is None:
            raise RuntimeError("tree is not fitted")
        X = np.asarray(X, dtype=np.float64)
        node_ids = np.zeros(len(X), dtype=np.int64)
        active = np.arange(len(X))
        while len(active):
            nodes = node_ids[active]
            feats = self.feature[nodes]
            internal = feats != _LEAF
            active = active[internal]
            if not len(active):
                break
            nodes = node_ids[active]
            go_left = X[active, self.feature[nodes]] <= self.threshold[nodes]
            node_ids[active] = np.where(
                go_left, self.left[nodes], self.right[nodes]
            )
        return node_ids

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict the leaf value for each row of ``X``."""
        return self.value[self.apply(X)]

    def predict_row(self, row: np.ndarray) -> float:
        """Leaf value for a single row — the scalar hot path.

        Per-page scoring (``predict_proba`` on one snapshot) would pay
        numpy array overhead ``n_estimators`` times per page through
        :meth:`apply`; this walks the tree with plain Python lists
        instead.  ``value.tolist()`` round-trips float64 exactly, so the
        result is bit-identical to ``predict(row.reshape(1, -1))[0]``.
        """
        if self.feature is None:
            raise RuntimeError("tree is not fitted")
        if self._flat is None:
            self._flat = (
                self.feature.tolist(),
                self.threshold.tolist(),
                self.left.tolist(),
                self.right.tolist(),
                self.value.tolist(),
            )
        feature, threshold, left, right, value = self._flat
        node = 0
        feat = feature[0]
        while feat != _LEAF:
            node = left[node] if row[feat] <= threshold[node] else right[node]
            feat = feature[node]
        return value[node]

    # ------------------------------------------------------------------
    def leaf_ids(self) -> np.ndarray:
        """Ids of all leaf nodes."""
        if self.feature is None:
            raise RuntimeError("tree is not fitted")
        return np.flatnonzero(self.feature == _LEAF)

    def training_samples_in_leaf(self, leaf_id: int) -> np.ndarray:
        """Training-set row indices that ended in ``leaf_id`` during fit."""
        return self._leaf_sample_indices[leaf_id]

    def set_leaf_value(self, leaf_id: int, value: float) -> None:
        """Overwrite a leaf's prediction (used by the boosting Newton step)."""
        if self.feature[leaf_id] != _LEAF:
            raise ValueError(f"node {leaf_id} is not a leaf")
        self.value[leaf_id] = value
        self._flat = None

    @property
    def depth_used(self) -> int:
        """Actual depth of the fitted tree."""
        if self.feature is None:
            raise RuntimeError("tree is not fitted")

        def depth_of(node: int) -> int:
            if self.feature[node] == _LEAF:
                return 0
            return 1 + max(depth_of(self.left[node]), depth_of(self.right[node]))

        return depth_of(0)
