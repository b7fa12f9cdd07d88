"""Training-speed benchmark: the presorted ensemble fit + fold-parallel CV.

Training (100 trees over 212 features, Section IV-C, evaluated by
5-fold CV in Section VI-C) is the remaining hot path after per-page
inference.  This benchmark fits the detector's ensemble on the standard
corpus feature matrix, fits it again with the per-node argsort oracle
(``tests/ml/exact_tree.py``) in place of the shipped tree, and runs
scenario1-style cross-validation serially and fold-parallel, recording
everything to the machine-readable ``benchmarks/results/training.json``
(fit time, per-stage timings, split-search counters, speedup ratios).

Two guarantees are asserted, not just measured:

* the presorted fit is at least 2x the oracle's with **bit-identical**
  ``predict_proba`` output (the presort is an execution strategy, not
  an approximation);
* fold-parallel cross-validation returns pooled scores exactly equal
  to the serial run; its speedup is recorded, and asserted to exceed
  1x only on machines that actually have more than one core (process
  workers cannot beat serial on a single CPU).
"""

import os

import numpy as np

from repro.evaluation.reporting import format_table
from repro.evaluation.runner import _timed_round
from repro.ml import boosting
from tests.ml.exact_tree import ExactRegressionTree

PRESORT_MIN_SPEEDUP = 2.0
CV_WORKERS = 4


def _timed_fit(X, y, n_estimators):
    """``(seconds, predict_proba on X)`` of one fit, as the Lab fits."""
    clf = boosting.GradientBoostingClassifier(
        n_estimators=n_estimators, random_state=0, subsample=0.9
    )
    seconds, _ = _timed_round(lambda: clf.fit(X, y))
    return seconds, clf.predict_proba(X)


def test_training_speed(lab, save_result, save_json, monkeypatch):
    result = lab.training_benchmark(
        cv_workers=CV_WORKERS, cv_backend="process"
    )
    X, y = lab.train_matrix()
    stages = result["n_estimators"]
    presort_seconds, presort_proba = _timed_fit(X, y, stages)
    with monkeypatch.context() as patch:
        patch.setattr(boosting, "RegressionTree", ExactRegressionTree)
        oracle_seconds, oracle_proba = _timed_fit(X, y, stages)
    result["oracle"] = {
        "oracle_fit_seconds": oracle_seconds,
        "presort_fit_seconds": presort_seconds,
        "speedup": oracle_seconds / presort_seconds,
        "proba_identical": bool(np.array_equal(presort_proba, oracle_proba)),
    }
    save_json("training", result)

    oracle = result["oracle"]
    cv = result["cross_validation"]
    save_result("training_speed", "\n\n".join([
        format_table(
            ["tree_builder", "fit_seconds", "stages_per_sec", "speedup",
             "proba_identical"],
            [["oracle", round(oracle_seconds, 3),
              round(stages / oracle_seconds, 1), 1.0, True],
             ["presort", round(presort_seconds, 3),
              round(stages / presort_seconds, 1),
              round(oracle["speedup"], 2), oracle["proba_identical"]]],
        ),
        format_table(
            ["cv_run", "workers", "seconds", "speedup", "scores_identical"],
            [["serial", 1, round(cv["serial_seconds"], 3), 1.0, True],
             [f"fold-parallel ({cv['backend']})", cv["workers"],
              round(cv["parallel_seconds"], 3), round(cv["speedup"], 2),
              cv["scores_identical"]]],
        ),
    ]))

    # The acceptance bar: presort is >=2x the per-node argsort oracle...
    assert oracle["speedup"] >= PRESORT_MIN_SPEEDUP, (
        f"presort reached only {oracle['speedup']:.2f}x"
    )
    # ...with bit-identical predictions (not approximately equal).
    assert oracle["proba_identical"]

    # Fold-parallel CV: identical pooled scores, recorded speedup.
    assert cv["scores_identical"], "parallel CV diverged from serial"
    assert cv["workers"] == CV_WORKERS
    assert cv["speedup"] > 0.0
    if (os.cpu_count() or 1) > 1:
        assert cv["speedup"] > 1.0, (
            f"fold-parallel CV was not faster ({cv['speedup']:.2f}x)"
        )
