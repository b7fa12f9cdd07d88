"""Lightweight training instrumentation for the boosting engine.

:class:`TrainingStats` summarises one
:meth:`repro.ml.boosting.GradientBoostingClassifier.fit`: per-stage wall
times, the one-off preparation cost (the global presort), and
split-search counters aggregated over every tree.  Since the
observability layer landed, the timings come from the fit's ``train.*``
span tree (:meth:`TrainingStats.from_spans`) rather than bespoke timer
calls, so the same numbers are available to trace exporters and to the
machine-readable training benchmark
(``benchmarks/test_training_speed.py`` →
``benchmarks/results/training.json``) and the ``ext-training`` CLI
experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs.trace import Span


@dataclass
class TrainingStats:
    """Timing and split-search counters for one ensemble ``fit``.

    Attributes
    ----------
    n_samples, n_features:
        Shape of the training matrix.
    prep_seconds:
        One-off preparation paid before the first stage: the global
        stable argsort of every feature and its gathered values.
    stage_seconds:
        Wall time of each boosting stage (tree fit + Newton step +
        raw-score update).
    nodes_built:
        Total tree nodes created across all stages.
    split_evaluations:
        Candidate ``(node, feature)`` pairs scored across all stages —
        the unit of split-search work.
    """

    n_samples: int = 0
    n_features: int = 0
    prep_seconds: float = 0.0
    stage_seconds: list[float] = field(default_factory=list)
    nodes_built: int = 0
    split_evaluations: int = 0

    @classmethod
    def from_spans(
        cls,
        fit_span: "Span",
        nodes_built: int = 0,
        split_evaluations: int = 0,
    ) -> "TrainingStats":
        """Stats distilled from a ``train.fit`` span tree.

        ``fit_span`` is the root span recorded by
        :meth:`~repro.ml.boosting.GradientBoostingClassifier.fit`
        (attrs carry the matrix shape; children are one
        ``train.prep`` plus one ``train.stage`` per boosting stage).
        """
        stats = cls(
            n_samples=int(fit_span.attrs.get("n_samples", 0)),
            n_features=int(fit_span.attrs.get("n_features", 0)),
            nodes_built=nodes_built,
            split_evaluations=split_evaluations,
        )
        for child in fit_span.children:
            if child.name == "train.prep":
                stats.prep_seconds = child.duration
            elif child.name == "train.stage":
                stats.stage_seconds.append(child.duration)
        return stats

    @property
    def n_stages(self) -> int:
        """Number of boosting stages timed."""
        return len(self.stage_seconds)

    @property
    def total_seconds(self) -> float:
        """End-to-end fit time: preparation plus every stage."""
        return self.prep_seconds + float(sum(self.stage_seconds))

    @property
    def stages_per_sec(self) -> float:
        """Boosting stages fit per second (the fit-throughput number)."""
        total = self.total_seconds
        return self.n_stages / total if total > 0 else float("inf")

    def as_dict(self) -> dict:
        """Machine-readable summary for benchmark artifacts."""
        stage = np.asarray(self.stage_seconds, dtype=np.float64)
        return {
            "n_samples": self.n_samples,
            "n_features": self.n_features,
            "n_stages": self.n_stages,
            "prep_seconds": self.prep_seconds,
            "total_seconds": self.total_seconds,
            "stages_per_sec": self.stages_per_sec,
            "stage_seconds_mean": float(stage.mean()) if len(stage) else 0.0,
            "stage_seconds_max": float(stage.max()) if len(stage) else 0.0,
            "nodes_built": self.nodes_built,
            "split_evaluations": self.split_evaluations,
        }
