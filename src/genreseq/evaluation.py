"""Multi-label confusion counting, the four metrics, and sub-genre trimming.

Counting is micro-style: one yes/no cell per (sample, genre), pooled into
a single TP/FP/FN/TN quadruple.  A genre is predicted "yes" when its
probability strictly exceeds the threshold, so ties count as negatives.

Trimming targets clusters whose weaker of precision and recall falls below a
threshold: genre columns that occur in fewer than a fixed fraction of the
cluster's movie events are zeroed (kept as dimensions, not removed), and
the cluster's model is retrained on the masked data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import NonFinitePrediction, ShapeMismatch
from .genres import N_GENRES
from .ingest import SEQUENCE_LENGTH
from .transitions import Dataset

DEFAULT_THRESHOLD = 0.5


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class Metrics:
    recall: float
    precision: float
    accuracy: float
    f1: float


@dataclass(frozen=True)
class ClusterMetrics:
    """One cluster's metrics plus ``p_min``, the lower of its precision and recall."""

    cluster: int
    recall: float
    precision: float
    accuracy: float
    f1: float
    p_min: float
    n_samples: int = 0


def confusion_counts(
    predictions: Sequence[np.ndarray] | np.ndarray,
    targets: Sequence[np.ndarray] | np.ndarray,
) -> ConfusionCounts:
    """Pool per-(sample, genre) decisions into one confusion quadruple.

    Predictions (float32 in the pipeline) and targets (uint8) are compared
    in their own dtypes, where :data:`DEFAULT_THRESHOLD` 0.5 is exact.  A NaN
    or infinite prediction raises :class:`NonFinitePrediction`, not a "no".
    """
    preds = np.asarray(predictions)
    targs = np.asarray(targets)
    if preds.shape != targs.shape:
        raise ShapeMismatch(f"predictions {preds.shape} vs targets {targs.shape}")
    finite = np.count_nonzero(np.isfinite(preds))
    if finite != preds.size:
        raise NonFinitePrediction(preds.size - finite, preds.size)
    yes = preds > DEFAULT_THRESHOLD
    actual = targs > 0.5
    tp = int(np.sum(yes & actual))
    fp = int(np.sum(yes & ~actual))
    fn = int(np.sum(~yes & actual))
    tn = int(np.sum(~yes & ~actual))
    return ConfusionCounts(tp, fp, fn, tn)


def metrics(c: ConfusionCounts) -> Metrics:
    """Precision, recall, accuracy, F1; degenerate denominators give 0."""
    precision = c.tp / (c.tp + c.fp) if c.tp + c.fp > 0 else 0.0
    recall = c.tp / (c.tp + c.fn) if c.tp + c.fn > 0 else 0.0
    accuracy = (c.tp + c.tn) / c.total if c.total > 0 else 0.0
    f1 = (
        2.0 * recall * precision / (recall + precision)
        if recall + precision > 0
        else 0.0
    )
    return Metrics(recall, precision, accuracy, f1)


def cluster_metrics(cluster: int, counts: ConfusionCounts) -> ClusterMetrics:
    """Metrics for one cluster, with its p_min."""
    m = metrics(counts)
    return ClusterMetrics(
        cluster,
        m.recall,
        m.precision,
        m.accuracy,
        m.f1,
        min(m.precision, m.recall),
        n_samples=counts.total // N_GENRES,
    )


def select_trim_clusters(all_metrics: Iterable[ClusterMetrics], eta: float) -> set[int]:
    """Clusters whose ``p_min`` falls below ``eta``."""
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must be in (0, 1)")
    return {m.cluster for m in all_metrics if m.p_min < eta}


@dataclass(frozen=True)
class MovieGenreMatrix:
    """Per-user genre occurrence counts over a cluster's movie events.

    counts[u, j] is how many of user u's 5 movies carry genre j;
    ``length`` is the cluster's total movie events (5 per member).
    """

    counts: np.ndarray

    @property
    def length(self) -> int:
        return SEQUENCE_LENGTH * len(self.counts)

    @classmethod
    def from_sequences(cls, genres: np.ndarray) -> "MovieGenreMatrix":
        return cls(genres.sum(axis=1, dtype=np.int64))


def trim_genres(m: MovieGenreMatrix, theta: float) -> tuple[MovieGenreMatrix, frozenset[int]]:
    """Zero the columns of genres occurring in under theta of the events.

    A genre column j is zeroed when its total count is strictly below
    theta * length.  Returns the trimmed matrix and the zeroed indices;
    applying the operation twice equals applying it once.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must be in (0, 1)")
    totals = m.counts.sum(axis=0)
    cutoff = theta * m.length
    zeroed = frozenset(int(j) for j in np.flatnonzero(totals < cutoff))
    trimmed = m.counts.copy()
    trimmed[:, sorted(zeroed)] = 0
    return MovieGenreMatrix(trimmed), zeroed


def apply_trim_to_dataset(samples: Dataset, zeroed: Iterable[int]) -> tuple[Dataset, int]:
    """Mask zeroed genre dimensions out of every raw input step and target.

    Dimensions are kept (set to 0), not removed.  A sample is dropped and
    tallied when any of its movies loses its whole genre set, since its
    transition vector would be undefined.  Kept samples stay in input
    order and keep their dtype.  Returns (samples, dropped).
    """
    mask = np.ones(N_GENRES, dtype=bool)
    mask[list(zeroed)] = False
    steps = samples.inputs * mask
    targets = samples.targets * mask
    keep = (steps.sum(axis=2) != 0).all(axis=1) & (targets.sum(axis=1) != 0)
    return Dataset(steps[keep], targets[keep]), int(np.count_nonzero(~keep))


def mean_cluster_metrics(values: Sequence[ClusterMetrics]) -> Metrics:
    """Plain mean per metric over clusters, summed as 1/n-weighted values (the reports' rounding)."""
    if not values:
        return Metrics(0.0, 0.0, 0.0, 0.0)
    w = 1.0 / len(values)
    return Metrics(
        float(sum(w * v.recall for v in values)),
        float(sum(w * v.precision for v in values)),
        float(sum(w * v.accuracy for v in values)),
        float(sum(w * v.f1 for v in values)),
    )
