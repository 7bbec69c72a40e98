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

from .errors import LengthMismatch, NonFinitePrediction
from .genres import N_GENRES
from .ingest import SEQUENCE_LENGTH, Users
from .transitions import Dataset

DEFAULT_THRESHOLD = 0.5
DEFAULT_TRIM_METRICS = ("precision", "recall")


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
    """One cluster's metrics plus ``p_min``, the minimum over :data:`DEFAULT_TRIM_METRICS`."""

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
    threshold: float = DEFAULT_THRESHOLD,
) -> ConfusionCounts:
    """Pool per-(sample, genre) decisions into one confusion quadruple.

    Targets of any real dtype (the pipeline's are uint8) are compared as
    they are, without a float copy.  A NaN or infinite prediction raises
    :class:`NonFinitePrediction` rather than counting as a "no".
    """
    preds = np.asarray(predictions, dtype=np.float64)
    targs = np.asarray(targets)
    if preds.shape != targs.shape:
        raise LengthMismatch(f"predictions {preds.shape} vs targets {targs.shape}")
    finite = np.count_nonzero(np.isfinite(preds))
    if finite != preds.size:
        raise NonFinitePrediction(preds.size - finite, preds.size)
    yes = preds > threshold
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
    """Metrics for one cluster, with p_min over :data:`DEFAULT_TRIM_METRICS`."""
    m = metrics(counts)
    p_min = min(getattr(m, name) for name in DEFAULT_TRIM_METRICS)
    return ClusterMetrics(
        cluster,
        m.recall,
        m.precision,
        m.accuracy,
        m.f1,
        p_min,
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

    cluster: int
    counts: np.ndarray
    length: int

    @classmethod
    def from_sequences(cls, cluster: int, users: Users) -> "MovieGenreMatrix":
        counts = users.genres.sum(axis=1, dtype=np.int64)
        return cls(cluster, counts, SEQUENCE_LENGTH * len(users))


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
    return MovieGenreMatrix(m.cluster, trimmed, m.length), zeroed


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


def mean_cluster_metrics(
    values: Sequence[ClusterMetrics], weighted: bool = False
) -> Metrics:
    """Mean per metric over clusters; optionally weighted by sample count."""
    if not values:
        return Metrics(0.0, 0.0, 0.0, 0.0)
    if weighted:
        weights = np.array([max(v.n_samples, 0) for v in values], dtype=np.float64)
        if weights.sum() == 0:
            weights = np.ones(len(values))
    else:
        weights = np.ones(len(values))
    weights = weights / weights.sum()
    return Metrics(
        float(sum(w * v.recall for w, v in zip(weights, values))),
        float(sum(w * v.precision for w, v in zip(weights, values))),
        float(sum(w * v.accuracy for w, v in zip(weights, values))),
        float(sum(w * v.f1 for w, v in zip(weights, values))),
    )
