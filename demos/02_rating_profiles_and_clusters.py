#!/usr/bin/env python3
"""Per-genre rating profiles and k-means user clustering.

Generates synthetic users from two planted taste groups and shows that
seeded k-means on their rating profiles recovers the groups, that the
Lloyd iterations only ever lower the objective.
"""

import numpy as np

from genreseq import (
    GENRES,
    Users,
    encode_genres,
    kmeans,
    rating_profile,
)

rng = np.random.default_rng(0)


def make_users(first_id, n, loved, rating_pool):
    """n users who watch movies from `loved` genres at a rating level."""
    genres = np.array(
        [[encode_genres(rng.choice(loved, size=2, replace=False)) for _ in range(5)] for _ in range(n)]
    )
    return Users(
        user_id=np.arange(first_id, first_id + n),
        movie_id=np.tile(100 + np.arange(5), (n, 1)),
        rating=rng.choice(rating_pool, size=(n, 5)),
        timestamp=np.tile(1000 + 10 * np.arange(5), (n, 1)),
        genres=genres,
    )


def profiles(users):
    return np.array([rating_profile(g, r) for g, r in zip(users.genres, users.rating)])


action_fans = profiles(make_users(1, 30, ["Action", "Thriller", "Crime"], [4.0, 4.5, 5.0]))
romance_fans = profiles(make_users(31, 30, ["Romance", "Comedy", "Drama"], [3.5, 4.0]))
points = np.concatenate([action_fans, romance_fans])

print("one action fan's profile (nonzero entries):")
for j, value in enumerate(points[0]):
    if value > 0:
        print(f"  {GENRES[j]:<10} {value:.2f}")

model = kmeans(points, k=2, seed=7)
print(f"\nk-means with k=2: inertia {model.inertia:.2f} after {len(model.inertia_history)} recorded steps")
print("inertia history (always non-increasing):",
      [round(v, 1) for v in model.inertia_history])

action_clusters = set(model.labels[:30].tolist())
romance_clusters = set(model.labels[30:].tolist())
print(f"action fans land in cluster(s) {action_clusters}, romance fans in {romance_clusters}")
