#!/usr/bin/env python3
"""Genre transition counting, normalization, ATV, and feature encodings.

Counts genre-to-genre transitions over consecutive movie pairs (every
genre of the earlier movie votes for every genre of the later one),
normalizes rows into a transition matrix, averages rows over a movie's
genres to get its next-genre distribution, and shows the four ways that
distribution can be merged with the movie's own genre vector.
"""

import numpy as np

from genreseq import (
    FeatureMode,
    GENRES,
    atv,
    combine,
    count_transitions,
    encode_genres,
    featurize,
    genre_samples,
    genre_index,
    normalize_transitions,
    generate_synthetic,
    SyntheticSpec,
)

# A planted chain: every genre mostly repeats itself, sometimes moves on.
planted = 0.7 * np.eye(19) + 0.3 / 19
planted = planted / planted.sum(axis=1, keepdims=True)
users, _ = generate_synthetic(SyntheticSpec(2000, planted, genres_per_movie=(1, 2), seed=1))

counts = count_transitions(users.genres)
probs = normalize_transitions(counts)
a, c = genre_index("Action"), genre_index("Comedy")
print(f"observed transitions out of Action: {counts[a].sum()}")
print(f"estimated P(Action -> Action) = {probs[a, a]:.3f}  (planted {planted[a, a]:.3f})")
print(f"estimated P(Action -> Comedy) = {probs[a, c]:.3f}  (planted {planted[a, c]:.3f})")

movie = encode_genres(["Romance", "Action", "Comedy"])
distribution = atv(movie, probs)
print("\naverage transition vector for a Romance|Action|Comedy movie:")
top = np.argsort(distribution)[::-1][:5]
for j in top:
    print(f"  {GENRES[j]:<10} {distribution[j]:.3f}")
print(f"  (sums to {distribution.sum():.6f})")

print("\nfour feature encodings of (genre vector, ATV):")
for mode in FeatureMode:
    merged = combine(movie, distribution, mode)
    print(f"  {mode.value:<10} length {len(merged):>2}  first five: "
          + ", ".join(f"{v:.2f}" for v in merged[:5]))

dataset = featurize(genre_samples(users.genres[:500]), probs, FeatureMode.PRODUCT)
print(f"\ntraining dataset from 500 users: inputs {dataset.inputs.shape}, targets {dataset.targets.shape}")
