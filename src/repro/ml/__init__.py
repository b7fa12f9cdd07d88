"""Machine-learning substrate (replaces scikit-learn for this reproduction).

The paper trains a Gradient Boosting classifier [Friedman 2002] over its
212 features.  This subpackage provides a from-scratch implementation on
numpy: regression trees as base learners, stochastic gradient boosting
with binomial deviance loss, plus the evaluation metrics (precision,
recall, F1, FPR, ROC/AUC, precision-recall curves) and stratified
cross-validation used throughout Section VI.

Trees search their splits over one presort of the feature matrix per
ensemble fit (see :mod:`repro.ml.tree`).  Fits expose
:class:`~repro.ml.instrumentation.TrainingStats`, and cross-validation
can fan folds out over a :class:`repro.parallel.executor.WorkerPool`
with results identical to the serial run.
"""

from repro.ml.boosting import PAPER_THRESHOLD, GradientBoostingClassifier
from repro.ml.compiled import CompiledEnsemble
from repro.ml.instrumentation import TrainingStats
from repro.ml.metrics import (
    BinaryMetrics,
    auc,
    binary_metrics,
    confusion_counts,
    precision_recall_curve,
    roc_auc,
    roc_curve,
)
from repro.ml.tree import RegressionTree, presort_matrix, restrict_presort
from repro.ml.validation import (
    cross_validate,
    cross_validate_scores,
    stratified_kfold,
    train_test_split,
)

__all__ = [
    "BinaryMetrics",
    "CompiledEnsemble",
    "GradientBoostingClassifier",
    "PAPER_THRESHOLD",
    "RegressionTree",
    "TrainingStats",
    "auc",
    "binary_metrics",
    "confusion_counts",
    "cross_validate",
    "cross_validate_scores",
    "precision_recall_curve",
    "presort_matrix",
    "restrict_presort",
    "roc_auc",
    "roc_curve",
    "stratified_kfold",
    "train_test_split",
]
