"""Genre-to-genre transition estimation and training feature encodings.

Transitions are counted over consecutive movie pairs: every genre of the
earlier movie contributes one count toward every genre of the later one.
Row-normalizing the counts gives the per-cluster transition matrix; the
average of its rows over a movie's genres is that movie's predicted
next-genre distribution (the "average transition vector", ATV).

Training inputs combine a movie's multi-hot genre vector with its ATV in
one of four ways: element-wise sum, element-wise product, concatenation,
or the genre vector alone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptyGenreSupport
from .genres import GENRES, N_GENRES, is_row_stochastic
from .ingest import SEQUENCE_LENGTH, Users


class FeatureMode(enum.Enum):
    """How a movie's genre vector and its ATV are merged into one input."""

    SUM = "Sum"
    PRODUCT = "Product"
    CONCAT = "Concat"
    GENRE_ONLY = "GenreOnly"


def feature_dim(mode: FeatureMode) -> int:
    return 2 * N_GENRES if mode is FeatureMode.CONCAT else N_GENRES


@dataclass(frozen=True)
class TransitionModel:
    """Raw pair counts and the row-stochastic matrix they normalize to."""

    cluster: int
    counts: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        if self.counts.shape != (N_GENRES, N_GENRES):
            raise ValueError(f"counts shape {self.counts.shape}")
        if not is_row_stochastic(self.probs):
            raise ValueError("probs must be row-stochastic")
        if not np.allclose(self.probs, normalize_transitions(self.counts)):
            raise ValueError("probs do not match normalized counts")

    @classmethod
    def from_sequences(cls, cluster: int, users: Users) -> "TransitionModel":
        counts = count_transitions(users)
        return cls(cluster, counts, normalize_transitions(counts))


# count_transitions casts this many users' genres to float32 at a time
# (a 1.5 MB block, which counted faster than larger ones).  Each GEMM then
# sums at most this many 0/1 products per count, exact far below 2**24.
_COUNT_ROWS = 4096


def count_transitions(users: Users) -> np.ndarray:
    """Count genre co-transitions over every consecutive movie pair.

    For movies at steps t-1 and t, counts[i, j] gains 1 for every genre i
    of the earlier movie and every genre j of the later one.  The uint8
    genres are cast to float32 one row block at a time, and each block
    takes one (rows, 19) GEMM per step pair on strided views.  The sums
    are of 0/1 products, so every block's counts are exact integers and
    neither the blocks nor their order change the total.
    """
    genres = users.genres
    counts = np.zeros((N_GENRES, N_GENRES))
    for start in range(0, len(genres), _COUNT_ROWS):
        block = genres[start : start + _COUNT_ROWS].astype(np.float32)
        for t in range(1, SEQUENCE_LENGTH):
            counts += block[:, t - 1].T @ block[:, t]
    return counts.astype(np.int64)


def normalize_transitions(counts: np.ndarray) -> np.ndarray:
    """Row-normalize counts; rows with no observations become uniform."""
    counts = np.asarray(counts, dtype=np.float64)
    sums = counts.sum(axis=1, keepdims=True)
    probs = np.full_like(counts, 1.0 / N_GENRES)
    np.divide(counts, sums, out=probs, where=sums > 0)
    return probs


def atv(prev_genres: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Mean of the transition rows indexed by the movie's genres."""
    sup = np.flatnonzero(prev_genres)
    if sup.size == 0:
        raise EmptyGenreSupport("no genres set; transition vector undefined")
    return probs[sup].mean(axis=0)


def combine(genre: np.ndarray, atv_vec: np.ndarray, mode: FeatureMode) -> np.ndarray:
    """Merge a genre vector with its ATV according to ``mode``."""
    if mode is FeatureMode.SUM:
        return genre + atv_vec
    if mode is FeatureMode.PRODUCT:
        return genre * atv_vec
    if mode is FeatureMode.CONCAT:
        return np.concatenate([genre, atv_vec])
    return genre.copy()


@dataclass(frozen=True)
class Dataset:
    """Samples as inputs (N, 4, d) and multi-hot targets (N, 19)."""

    inputs: np.ndarray
    targets: np.ndarray

    def __len__(self) -> int:
        return self.inputs.shape[0]


def genre_samples(users: Users) -> Dataset:
    """Raw (``GenreOnly``) samples: each user's 4 input genre rows and 5th-movie target.

    Both are read-only uint8 views of ``users.genres``.
    """
    return Dataset(users.genres[:, :4], users.genres[:, 4])


# featurize casts this many samples' steps to float64 at a time (a 156 KB
# block).  Casting the whole set raised a run's peak memory, and 1,024-row
# blocks still raised it by about 0.2 MB and were slower.
_FEATURIZE_ROWS = 256


def featurize(samples: Dataset, probs: np.ndarray, mode: FeatureMode) -> Dataset:
    """Attach each input movie's ATV to raw samples and combine per ``mode``.

    The ATVs are ``support @ probs / |support|``: each block of at most
    :data:`_FEATURIZE_ROWS` samples casts its genre support into one
    float64 buffer and takes one GEMM over all of its steps.  The GEMM sums
    the support rows in another order than :func:`atv`'s mean, so an ATV
    may differ from it in the last bit.  The 0/1 steps, uint8 or float,
    enter the float64 inputs as the same values.  ``GenreOnly`` returns
    ``samples`` itself, not a copy.
    """
    steps = samples.inputs
    n = len(samples)
    dim = feature_dim(mode)
    support_rows = np.empty((4 * min(n, _FEATURIZE_ROWS), N_GENRES))
    sizes_rows = np.empty(len(support_rows))
    inputs = None if mode is FeatureMode.GENRE_ONLY else np.empty((n, 4, dim))
    for first in range(0, n, _FEATURIZE_ROWS):
        block = steps[first : first + _FEATURIZE_ROWS]
        # Contiguous slabs, so each reshape is a view: (b, 4, .) <-> (4b, .).
        support = support_rows[: 4 * len(block)]
        np.not_equal(block, 0, out=support.reshape(block.shape))
        sizes = np.add.reduce(support, axis=1, out=sizes_rows[: len(support)])
        if not sizes.all():
            raise EmptyGenreSupport("no genres set; transition vector undefined")
        if inputs is None:
            continue
        out = inputs[first : first + len(block)]
        atvs = out.reshape(-1, dim)[:, dim - N_GENRES :]
        np.matmul(support, probs, out=atvs)
        atvs /= sizes[:, None]
        if mode is FeatureMode.SUM:
            out += block
        elif mode is FeatureMode.PRODUCT:
            out *= block
        elif mode is FeatureMode.CONCAT:
            out[:, :, :N_GENRES] = block
    return samples if inputs is None else Dataset(inputs, samples.targets)


def write_probability_csv(probs: np.ndarray, path: str | Path) -> None:
    """Dump a transition matrix as CSV with a genre-name header row."""
    lines = [",".join(GENRES)]
    for row in np.asarray(probs):
        lines.append(",".join(f"{v:.6f}" for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
