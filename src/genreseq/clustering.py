"""Per-user genre rating profiles and seeded k-means over them.

A rating profile is the user's average rating per genre over their
5-movie window (0 where a genre never occurs).  Users are partitioned
with Lloyd's algorithm from k-means++ starts; everything is driven by an
explicit seed so runs reproduce exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TooFewUsers

DEFAULT_K = 7
DEFAULT_MAX_ITER = 300
DEFAULT_TOL = 1e-6


@dataclass(frozen=True)
class ClusterModel:
    """k centroids plus the cluster label of each clustered point, in input order."""

    k: int
    centroids: np.ndarray
    labels: np.ndarray
    inertia: float
    inertia_history: tuple[float, ...]


def rating_profile(genres: np.ndarray, ratings: np.ndarray) -> np.ndarray:
    """Mean rating over the user's movies containing each genre (0 = genre unseen).

    ``genres`` is one user's (5, 19) window and ``ratings`` its (5,) ratings.
    """
    counts = genres.sum(axis=0)
    sums = genres.T @ ratings
    return np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)


# Distances are computed this many rows at a time, so no (n, d) temporary is built.
_DISTANCE_ROWS = 4096


def _sq_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(n, k) squared distances from every point to every centroid, in row blocks."""
    d2 = np.empty((points.shape[0], len(centroids)))
    for start in range(0, points.shape[0], _DISTANCE_ROWS):
        block = points[start : start + _DISTANCE_ROWS]
        for j, c in enumerate(centroids):
            d2[start : start + _DISTANCE_ROWS, j] = ((block - c) ** 2).sum(axis=1)
    return d2


def _nearest(points: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Labels and squared distances to the nearest centroid (ties: lowest index)."""
    d2 = _sq_distances(points, centroids)
    labels = np.argmin(d2, axis=1)
    return labels, d2[np.arange(points.shape[0]), labels]


def _plus_plus_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread starts proportionally to squared distance."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = _sq_distances(points, centroids[:1])[:, 0]
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)
        centroids[j] = points[idx]
        d2 = np.minimum(d2, _sq_distances(points, centroids[j : j + 1])[:, 0])
    return centroids


def kmeans(profiles: np.ndarray, k: int = DEFAULT_K, seed: int = 0) -> ClusterModel:
    """Lloyd iterations from seeded k-means++ starts over (n, 19) profiles.

    Stops when the largest centroid shift falls below :data:`DEFAULT_TOL`
    or after :data:`DEFAULT_MAX_ITER` iterations.  An empty cluster is
    reseeded to the point farthest from its assigned centroid, keeping k
    fixed.  The recorded inertia history is non-increasing.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    points = np.asarray(profiles, dtype=np.float64)
    if k > points.shape[0]:
        raise TooFewUsers(f"k={k} exceeds {points.shape[0]} profiles")
    rng = np.random.default_rng(seed)
    centroids = _plus_plus_init(points, k, rng)

    history: list[float] = []
    labels = np.zeros(points.shape[0], dtype=np.intp)
    for _ in range(DEFAULT_MAX_ITER):
        labels, d2 = _nearest(points, centroids)
        history.append(float(d2.sum()))
        new_centroids = centroids.copy()
        empty: list[int] = []
        for j in range(k):
            members = points[labels == j]
            if members.shape[0] > 0:
                new_centroids[j] = members.mean(axis=0)
            else:
                empty.append(j)
        if empty:
            point_d2 = ((points - new_centroids[labels]) ** 2).sum(axis=1)
            for j in empty:
                far = int(np.argmax(point_d2))
                new_centroids[j] = points[far]
                point_d2[far] = -1.0  # a point can seed at most one empty cluster
        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        if shift < DEFAULT_TOL:
            break

    labels, d2 = _nearest(points, centroids)
    inertia = float(d2.sum())
    history.append(inertia)
    return ClusterModel(k, centroids, labels, inertia, tuple(history))

