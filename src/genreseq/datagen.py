"""Seeded MovieLens-format dataset with planted user archetypes.

Writes ``movies.csv`` and ``ratings.csv`` describing seven user
populations with distinct genre habits:

* two look-alike pairs that watch the same movie pools with identically
  distributed histories but follow different next-movie rules, told apart
  only by how high they rate (so clustering on rating profiles separates
  what pooled training cannot);
* a horror-leaning group and a westerns group with strongly patterned,
  easily predicted next movies;
* one diffuse group whose next movie is independent of its history and
  sprinkled with rare genres, which makes it the weakest cluster and the
  natural target for sub-genre trimming.

Histories are coverage-forced (each user touches their whole genre pool)
so that rating profiles form tight, well-separated blobs.  Every user
carries six rating events (the 5-most-recent window drops the oldest),
some users carry an extra event on a genre-less movie, and a few casual
users fall below the eligibility threshold on purpose.

A given ``(users_per_archetype, seed)`` writes the same bytes on a given
numpy build.  The draw order: the catalog, then user by user the bucket
draws of the history followed by one bounded-int draw of every event's
(movie, rating) index pair, in event order.  numpy takes bounded ints from
the stream element by element (a bound of 1 takes nothing), so that one
call equals the scalar per-event loop that ``tests/test_datagen.py`` keeps.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .errors import InvalidSpec
from .ingest import NO_GENRES_TOKEN

N_ARCHETYPES = 7

_POOL_ONE = ("Action", "Thriller", "Crime", "Sci-Fi")
_POOL_TWO = ("Romance", "Comedy", "Drama", "Musical")

_TWIN_HI_RATINGS = (4.5, 5.0)
_TWIN_LO_RATINGS = (2.0, 2.5, 3.0)
_SHARP_RATINGS = (3.5, 4.0, 4.5)
_CLASSICS_RATINGS = (4.5, 5.0)
_DIFFUSE_RATINGS = (0.5, 1.0)

_DIFFUSE_POOL_SIZE = 500
_DIFFUSE_MIDS = ("Animation", "Children", "IMAX", "Musical")
_DIFFUSE_RARES = ("War", "Western", "Documentary", "Film-Noir")
_MID_SLOTS = 210  # per mid genre, out of 1000 co-genre slots
_RARE_SLOTS = 40  # per rare genre; keeps each under 10% of movie events

_IDS_PER_BUCKET = 30


def _title(movie_id: int) -> str:
    if movie_id % 13 == 0:
        return f"Feature, The (Part {movie_id}) (2020)"
    return f"Synthetic Feature #{movie_id} (2020)"


def _build_diffuse_sets(rng: np.random.Generator) -> list[tuple[str, ...]]:
    """Genre sets for the diffuse pool: probabilistic anchors, wide co-genres."""
    n = _DIFFUSE_POOL_SIZE
    anchors: list[tuple[str, ...]] = (
        [("Adventure", "Fantasy")] * 175
        + [("Adventure",)] * 135
        + [("Fantasy",)] * 115
        + [()] * 75
    )
    rng.shuffle(anchors)

    slots: list[str] = []
    for genre in _DIFFUSE_MIDS:
        slots.extend([genre] * _MID_SLOTS)
    for genre in _DIFFUSE_RARES:
        slots.extend([genre] * _RARE_SLOTS)
    slots_arr = np.array(slots)
    rng.shuffle(slots_arr)

    sets = []
    for i in range(n):
        cogenres = {str(slots_arr[2 * i]), str(slots_arr[2 * i + 1])}
        sets.append(tuple(sorted(set(anchors[i]) | cogenres)))
    return sets


def _catalog_specs(rng: np.random.Generator) -> list[tuple[str, tuple[str, ...], int]]:
    """(bucket key, genres, count) of every movie bucket, in movie-id order.

    Each twin pool is a ring of four 2-genre templates where neighbors
    share one genre; the diffuse pool is one movie per bucket.
    """
    specs = [
        (f"{name}_t{i}", (pool[i], pool[(i + 1) % 4]), _IDS_PER_BUCKET)
        for name, pool in (("p1", _POOL_ONE), ("p2", _POOL_TWO))
        for i in range(4)
    ]
    specs += [
        ("sharp_base", ("Horror", "Mystery"), _IDS_PER_BUCKET),
        ("sharp_solo", ("Horror",), _IDS_PER_BUCKET),
        ("sharp_full", ("Horror", "Mystery", "Thriller"), _IDS_PER_BUCKET),
        ("cls_base", ("War", "Western"), _IDS_PER_BUCKET),
        ("cls_solo", ("War",), _IDS_PER_BUCKET),
        ("cls_full", ("Documentary", "War", "Western"), _IDS_PER_BUCKET),
    ]
    specs += [(f"dif_{i}", g, 1) for i, g in enumerate(_build_diffuse_sets(rng))]
    specs.append(("none", (NO_GENRES_TOKEN,), 5))
    return specs


def _twin_buckets(rng: np.random.Generator, pool_name: str, shift: int) -> list[str]:
    """Coverage-forced history; the sixth movie follows a ring shift rule.

    The first four movies are a permutation of all four templates, so the
    kept window always spans the whole pool even after the oldest event
    drops out; the fifth is uniform and the sixth applies the rule to it.
    """
    history = list(rng.permutation(4)) + [int(rng.integers(0, 4))]
    if rng.random() < 0.9:
        target = (history[4] + shift) % 4
    else:
        target = int(rng.integers(0, 4))
    return [f"{pool_name}_t{int(i)}" for i in history] + [f"{pool_name}_t{target}"]


def _patterned_buckets(rng: np.random.Generator, prefix: str) -> list[str]:
    """History = 3 base + 2 full-pool movies shuffled; noisy ruled target.

    Two full-pool movies guarantee the third genre survives the window
    drop.  The target is the base pair most of the time, sometimes the
    solo movie (a false positive for the pair model) and sometimes the
    full triple (an unpredictable extra genre).
    """
    history = [f"{prefix}_base"] * 3 + [f"{prefix}_full"] * 2
    rng.shuffle(history)
    target = str(
        rng.choice([f"{prefix}_base", f"{prefix}_solo", f"{prefix}_full"], p=[0.72, 0.12, 0.16])
    )
    return history + [target]


def _diffuse_buckets(rng: np.random.Generator) -> list[str]:
    idx = rng.integers(0, _DIFFUSE_POOL_SIZE, size=6)
    return [f"dif_{i}" for i in idx]


def write_archetype_dataset(
    out_dir: str | Path,
    users_per_archetype: int = 1500,
    seed: int = 0,
) -> tuple[Path, Path]:
    """Write movies.csv and ratings.csv; returns their paths.

    The twin pairs split 60/40 so pooled training cannot sit exactly on
    the decision boundary between their two next-movie rules.  Total
    eligible users = 7 * users_per_archetype.
    """
    if users_per_archetype < 1:
        raise InvalidSpec("users_per_archetype must be >= 1")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    buckets: dict[str, range] = {}
    movie_rows: list[tuple[int, str, str]] = []
    for key, genres, count in _catalog_specs(rng):
        first = len(movie_rows) + 1
        buckets[key] = range(first, first + count)
        movie_rows += [(i, _title(i), "|".join(genres)) for i in buckets[key]]

    heavy = int(round(users_per_archetype * 1.2))
    light = 2 * users_per_archetype - heavy
    # (users, rating grid, bucket draw) per archetype, in user-id order, then
    # a few casual users below the five-movie eligibility threshold.
    roster = [
        (heavy, _TWIN_HI_RATINGS, lambda: _twin_buckets(rng, "p1", 1)),
        (light, _TWIN_LO_RATINGS, lambda: _twin_buckets(rng, "p1", 2)),
        (heavy, _TWIN_HI_RATINGS, lambda: _twin_buckets(rng, "p2", 1)),
        (light, _TWIN_LO_RATINGS, lambda: _twin_buckets(rng, "p2", 2)),
        (users_per_archetype, _SHARP_RATINGS, lambda: _patterned_buckets(rng, "sharp")),
        (users_per_archetype, _CLASSICS_RATINGS, lambda: _patterned_buckets(rng, "cls")),
        (users_per_archetype, _DIFFUSE_RATINGS, lambda: _diffuse_buckets(rng)),
        (25, (3.0,), lambda: ["p1_t0"] * 3),
    ]

    # Per user: the bucket draws, then one draw of every event's (movie, rating) pair.
    keys: list[str] = []
    sizes: list[int] = []
    picks: list[np.ndarray] = []
    ratings: list[np.ndarray] = []
    for count, grid, draw in roster:
        before = len(sizes)
        for user_id in range(before + 1, before + count + 1):
            user_keys = draw()
            if user_id % 50 == 0 and user_id <= N_ARCHETYPES * users_per_archetype:
                user_keys.append("none")  # a genre-less movie; filtered out by ingestion
            picks.append(rng.integers(0, [n for k in user_keys for n in (len(buckets[k]), len(grid))]))
            keys += user_keys
            sizes.append(len(user_keys))
        ratings.append(np.asarray(grid)[np.concatenate(picks[before:])[1::2]])

    movie = np.array([buckets[k].start for k in keys]) + np.concatenate(picks)[0::2]
    rating = np.concatenate(ratings)
    user = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    event = np.arange(user.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    timestamp = 1_000_000_000 + 100 * user + np.array([0, 10, 20, 30, 40, 50, 25])[event]

    movies_path = out / "movies.csv"
    with open(movies_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["movieId", "title", "genres"])
        writer.writerows(movie_rows)

    ratings_path = out / "ratings.csv"
    with open(ratings_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["userId", "movieId", "rating", "timestamp"])
        writer.writerows(zip(user.tolist(), movie.tolist(), rating.tolist(), timestamp.tolist()))

    return movies_path, ratings_path
