"""The per-node argsort tree builder, kept as the oracle for the presort.

:class:`ExactRegressionTree` is a :class:`repro.ml.tree.RegressionTree`
whose builder argsorts every candidate column at every node and scans
the prefix sums of the sorted targets for the best threshold, at
``O(features * n log n)`` per node.  This was the seed's split search.
The shipped tree reaches the same splits from one presort per ensemble
fit, and the tests hold it to this builder bit for bit: same splits,
same stored floats, same leaf bookkeeping.

The oracle keeps the base class's node plumbing and its ``fit``
(validation, and the presort it is handed or computes, which this
builder ignores).  To fit a whole ensemble with it, substitute it for
``repro.ml.boosting.RegressionTree``: the boosting loop hands every
tree its presort, and the oracle builds from ``X`` and ``y`` alone.
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree import _MIN_GAIN, RegressionTree


class ExactRegressionTree(RegressionTree):
    """Regression tree grown by a per-node argsort of every candidate."""

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
        return self._build_exact(X, y, indices, depth)

    def _build_exact(
        self, X: np.ndarray, y: np.ndarray, indices: np.ndarray, depth: int
    ) -> int:
        node_id = self._open_node(y, indices)
        if not self._splittable(indices, depth):
            self._leaf_samples[node_id] = indices
            return node_id
        split = self._best_split(X, y, indices)
        if split is None:
            self._leaf_samples[node_id] = indices
            return node_id
        feat, thresh, left_idx, right_idx = split
        self._features[node_id] = feat
        self._thresholds[node_id] = thresh
        self._lefts[node_id] = self._build_exact(X, y, left_idx, depth + 1)
        self._rights[node_id] = self._build_exact(X, y, right_idx, depth + 1)
        return node_id

    def _best_split(
        self, X: np.ndarray, y: np.ndarray, indices: np.ndarray
    ) -> tuple[int, float, np.ndarray, np.ndarray] | None:
        """Best (feature, threshold) by variance reduction, or None."""
        y_node = y[indices]
        n = len(indices)
        best_gain = _MIN_GAIN  # require strictly positive gain
        best = None
        node_sum = y_node.sum()
        node_sq = float(y_node @ y_node)
        parent_sse = node_sq - node_sum * node_sum / n

        candidates = self._candidate_features(X.shape[1])
        self.split_evaluations_ += len(candidates)
        for feat in candidates:
            column = X[indices, feat]
            order = np.argsort(column, kind="stable")
            sorted_vals = column[order]
            sorted_y = y_node[order]
            # Split positions: between distinct consecutive values only.
            cumsum = np.cumsum(sorted_y)
            counts = np.arange(1, n)
            left_sum = cumsum[:-1]
            right_sum = node_sum - left_sum
            left_n = counts
            right_n = n - counts
            # SSE(parent) - SSE(children) differs from the expression below
            # only by constants, so maximising it maximises variance gain.
            score = left_sum**2 / left_n + right_sum**2 / right_n
            valid = sorted_vals[1:] != sorted_vals[:-1]
            if self.min_samples_leaf > 1:
                valid &= (left_n >= self.min_samples_leaf) & (
                    right_n >= self.min_samples_leaf
                )
            if not valid.any():
                continue
            score = np.where(valid, score, -np.inf)
            pos = int(np.argmax(score))
            gain = float(score[pos]) - node_sum * node_sum / n
            if gain > best_gain and parent_sse > 0:
                threshold = 0.5 * (sorted_vals[pos] + sorted_vals[pos + 1])
                best_gain = gain
                best = (int(feat), float(threshold), order, pos)

        if best is None:
            return None
        feat, threshold, order, pos = best
        # Children in ascending sample order — the canonical ordering
        # that makes tie-breaking (and every downstream float reduction)
        # independent of the path of split features, and therefore
        # reproducible by the presorted partition propagation.
        left_idx = np.sort(indices[order[: pos + 1]])
        right_idx = np.sort(indices[order[pos + 1:]])
        return feat, threshold, left_idx, right_idx
