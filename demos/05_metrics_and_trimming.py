#!/usr/bin/env python3
"""Micro-averaged metrics and sub-genre trimming.

Counts per-(sample, genre) confusion cells, computes the four metrics,
selects weak clusters by their minimum metric, zeroes rare genre columns
in a cluster's movie-genre matrix, and masks a training dataset the same
way (dropping samples whose movies lose every genre).
"""

import numpy as np

from genreseq import (
    ClusterMetrics,
    Dataset,
    GENRES,
    MovieGenreMatrix,
    apply_trim_to_dataset,
    confusion_counts,
    genre_index,
    metrics,
    select_trim_clusters,
    trim_genres,
)

rng = np.random.default_rng(5)

# --- confusion counting and the four metrics -------------------------------
targets = (rng.uniform(size=(200, 19)) < 0.15).astype(float)
noise = rng.uniform(-0.35, 0.35, size=targets.shape)
predictions = np.clip(targets * 0.8 + 0.12 + noise, 0.01, 0.99)

c = confusion_counts(predictions, targets)
m = metrics(c)
print(f"confusion cells over 200 samples x 19 genres: tp={c.tp} fp={c.fp} fn={c.fn} tn={c.tn}")
print(f"recall={m.recall:.3f} precision={m.precision:.3f} accuracy={m.accuracy:.3f} f1={m.f1:.3f}")
print("(accuracy runs highest: negatives dominate 19-genre targets)")

# --- selecting clusters to trim ---------------------------------------------
report = [
    ClusterMetrics(2, 0.70, 0.60, 0.86, 0.65, p_min=0.60),
    ClusterMetrics(7, 0.60, 0.55, 0.84, 0.57, p_min=0.55),
    ClusterMetrics(3, 0.45, 0.52, 0.80, 0.48, p_min=0.45),
]
selected = select_trim_clusters(report, eta=0.5)
print(f"\nclusters with min(metric) below 0.5: {sorted(selected)} (only the weakest)")

# --- zeroing rare genre columns -----------------------------------------------
# 20 users x 5 movies = 100 events; Documentary and War stay under 10.
counts = np.zeros((20, 19), dtype=np.int64)
for name in ("Action", "Comedy", "Drama", "Thriller"):
    counts[:, genre_index(name)] = 3
counts[:7, genre_index("War")] = 1
counts[:4, genre_index("Documentary")] = 1
matrix = MovieGenreMatrix(counts)

trimmed, zeroed = trim_genres(matrix, theta=0.1)
named = [GENRES[j] for j in sorted(zeroed) if counts[:, j].sum() > 0]
print(f"\ntheta=0.1 of 100 events = 10; columns under it get zeroed")
print(f"rare genres zeroed: {named} (plus all empty columns)")
print(f"War column total before/after: {counts[:, genre_index('War')].sum()} -> "
      f"{trimmed.counts[:, genre_index('War')].sum()}")

# --- masking a dataset ----------------------------------------------------------
def one_hot(*names):
    v = np.zeros(19)
    for n in names:
        v[genre_index(n)] = 1.0
    return v

# Two raw samples: four input movies each, then the 5th-movie target.
samples = Dataset(
    np.array([
        [one_hot("Action"), one_hot("Action", "War"), one_hot("Drama"), one_hot("Comedy")],
        [one_hot("War"), one_hot("Action"), one_hot("Drama"), one_hot("Comedy")],
    ]),
    np.array([one_hot("Action", "War"), one_hot("Action")]),
)
masked, dropped = apply_trim_to_dataset(samples, {genre_index("War")})
print(f"\nmasking 'War' out of 2 samples: kept {len(masked)}, dropped {dropped} "
      "(a movie that was only 'War' loses its whole genre set)")
print("first kept target:", masked.targets[0].astype(int).tolist())
