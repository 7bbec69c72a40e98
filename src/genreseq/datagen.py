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

A movie bucket is an integer id, its index in ``_catalog_specs``, and a
table of first movie ids built from the bucket sizes maps it to movies.
All buckets an archetype draws from hold the same number of movies (30
in a twin or patterned bucket, 1 in a diffuse one, 5 in the genre-less
one), so each archetype has two fixed bound arrays for the pair draw, one
for six events and one for seven.  The event columns are allocated once
from the known event counts, and ``ratings.csv`` is written in chunks of
``_RATING_ROWS`` rows with the bytes ``csv.writer`` gives: CRLF line ends
and ``repr`` floats.  Both files are written under a temporary name and
renamed into place, so an interrupted call leaves no partial file.
"""

from __future__ import annotations

import csv
import os
from bisect import bisect_right
from functools import partial
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
_GENRELESS_IDS = 5

# Bucket ids: each twin pool's four ring templates, then the base, solo
# and full buckets of each patterned archetype, the diffuse pool and the
# genre-less bucket.
_P1, _P2, _SHARP, _CLASSICS, _DIFFUSE = 0, 4, 8, 11, 14
_GENRELESS = _DIFFUSE + _DIFFUSE_POOL_SIZE

# A patterned target is base, solo or full with these odds, drawn the way
# numpy's rng.choice(p=...) draws: one random() searched in the cdf.
_TARGET_CDF = np.cumsum([0.72, 0.12, 0.16])
_TARGET_CDF = (_TARGET_CDF / _TARGET_CDF[-1]).tolist()

_CASUAL_USERS = 25
_CASUAL_EVENTS = 3
_STAMP_OFFSETS = np.array([0, 10, 20, 30, 40, 50, 25])  # seconds after the user's base, per event
_RATING_ROWS = 4096  # ratings.csv rows formatted per write


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


def _catalog_specs(rng: np.random.Generator) -> list[tuple[tuple[str, ...], int]]:
    """(genres, movie count) of every bucket, in bucket-id and movie-id order.

    Each twin pool is a ring of four 2-genre templates where neighbors
    share one genre; the diffuse pool is one movie per bucket.
    """
    specs = [
        ((pool[i], pool[(i + 1) % 4]), _IDS_PER_BUCKET)
        for pool in (_POOL_ONE, _POOL_TWO)
        for i in range(4)
    ]
    specs += [
        (("Horror", "Mystery"), _IDS_PER_BUCKET),
        (("Horror",), _IDS_PER_BUCKET),
        (("Horror", "Mystery", "Thriller"), _IDS_PER_BUCKET),
        (("War", "Western"), _IDS_PER_BUCKET),
        (("War",), _IDS_PER_BUCKET),
        (("Documentary", "War", "Western"), _IDS_PER_BUCKET),
    ]
    specs += [(genres, 1) for genres in _build_diffuse_sets(rng)]
    specs.append(((NO_GENRES_TOKEN,), _GENRELESS_IDS))
    return specs


def _twin_buckets(rng: np.random.Generator, first: int, shift: int) -> list[int]:
    """Coverage-forced history; the sixth movie follows a ring shift rule.

    The pool's templates are buckets ``first`` to ``first + 3``.  The first
    four movies are a permutation of all four templates, so the kept
    window always spans the whole pool even after the oldest event drops
    out; the fifth is uniform and the sixth applies the rule to it.
    """
    history = rng.permutation(4).tolist()
    fifth = int(rng.integers(0, 4))
    target = (fifth + shift) % 4 if rng.random() < 0.9 else int(rng.integers(0, 4))
    return [first + t for t in history] + [first + fifth, first + target]


def _patterned_buckets(rng: np.random.Generator, base: int) -> list[int]:
    """History = 3 base + 2 full-pool movies shuffled; noisy ruled target.

    ``base``, ``base + 1`` and ``base + 2`` are the base, solo and full
    buckets.  Two full-pool movies guarantee the third genre survives the
    window drop.  The target is the base pair most of the time, sometimes
    the solo movie (a false positive for the pair model) and sometimes
    the full triple (an unpredictable extra genre).
    """
    history = [base, base, base, base + 2, base + 2]
    rng.shuffle(history)
    return history + [base + bisect_right(_TARGET_CDF, rng.random())]


def _diffuse_buckets(rng: np.random.Generator) -> np.ndarray:
    return rng.integers(_DIFFUSE, _DIFFUSE + _DIFFUSE_POOL_SIZE, size=6)


def _write_movies(path: Path, specs: list[tuple[tuple[str, ...], int]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["movieId", "title", "genres"])
        movie_id = 0
        for genres, count in specs:
            joined = "|".join(genres)
            for movie_id in range(movie_id + 1, movie_id + count + 1):
                writer.writerow((movie_id, _title(movie_id), joined))


def _write_ratings(
    path: Path, user: np.ndarray, movie: np.ndarray, rating: np.ndarray, stamp: np.ndarray
) -> None:
    """csv.writer's bytes for the rating rows, one %-format per chunk of rows."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write("userId,movieId,rating,timestamp\r\n")
        for start in range(0, user.size, _RATING_ROWS):
            rows = slice(start, start + _RATING_ROWS)
            n = len(user[rows])
            fields: list[object] = [None] * (4 * n)
            for i, column in enumerate((user, movie, rating, stamp)):
                fields[i::4] = column[rows].tolist()
            handle.write("%d,%d,%r,%d\r\n" * n % tuple(fields))


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
    specs = _catalog_specs(rng)
    counts = np.array([count for _, count in specs])
    starts = np.cumsum(counts) - counts + 1  # first movie id of every bucket

    heavy = int(round(users_per_archetype * 1.2))
    light = 2 * users_per_archetype - heavy
    # (users, rating grid, movies per bucket, bucket draw) per archetype, in
    # user-id order.
    roster = [
        (heavy, _TWIN_HI_RATINGS, _IDS_PER_BUCKET, partial(_twin_buckets, rng, _P1, 1)),
        (light, _TWIN_LO_RATINGS, _IDS_PER_BUCKET, partial(_twin_buckets, rng, _P1, 2)),
        (heavy, _TWIN_HI_RATINGS, _IDS_PER_BUCKET, partial(_twin_buckets, rng, _P2, 1)),
        (light, _TWIN_LO_RATINGS, _IDS_PER_BUCKET, partial(_twin_buckets, rng, _P2, 2)),
        (users_per_archetype, _SHARP_RATINGS, _IDS_PER_BUCKET, partial(_patterned_buckets, rng, _SHARP)),
        (users_per_archetype, _CLASSICS_RATINGS, _IDS_PER_BUCKET, partial(_patterned_buckets, rng, _CLASSICS)),
        (users_per_archetype, _DIFFUSE_RATINGS, 1, partial(_diffuse_buckets, rng)),
    ]

    # Six events per archetype user, a seventh on a genre-less movie for
    # every 50th, then a few casual users below the five-movie threshold.
    # The columns are allocated once; bucket and pairs become movie ids.
    n_archetype = N_ARCHETYPES * users_per_archetype
    sizes = np.full(n_archetype + _CASUAL_USERS, 6)
    sizes[49:n_archetype:50] = 7
    sizes[n_archetype:] = _CASUAL_EVENTS
    bucket = np.empty(sizes.sum(), dtype=np.int64)
    pairs = np.empty(2 * bucket.size, dtype=np.int64)  # (movie, rating) index per event
    rating = np.empty(bucket.size)

    # Per user: the bucket draws, then one draw of every event's (movie, rating) pair.
    pos = user_id = 0
    for count, grid, ids, draw in roster:
        six = np.array([ids, len(grid)] * 6)
        seven = np.append(six, [_GENRELESS_IDS, len(grid)])
        first = pos
        for user_id in range(user_id + 1, user_id + count + 1):
            bucket[pos : pos + 6] = draw()
            if user_id % 50:
                pairs[2 * pos : 2 * pos + 12] = rng.integers(0, six)
                pos += 6
            else:
                bucket[pos + 6] = _GENRELESS
                pairs[2 * pos : 2 * pos + 14] = rng.integers(0, seven)
                pos += 7
        rating[first:pos] = np.asarray(grid)[pairs[2 * first + 1 : 2 * pos : 2]]
    # Casual users: three events in the first p1 template, all rated 3.0.
    casual = pos
    three = np.array([_IDS_PER_BUCKET, 1] * _CASUAL_EVENTS)
    for pos in range(casual, bucket.size, _CASUAL_EVENTS):
        pairs[2 * pos : 2 * pos + 2 * _CASUAL_EVENTS] = rng.integers(0, three)
    bucket[casual:] = _P1
    rating[casual:] = 3.0

    movie = starts[bucket] + pairs[0::2]
    del bucket, pairs
    user = np.repeat(np.arange(1, sizes.size + 1), sizes)
    event = np.arange(user.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    stamp = 1_000_000_000 + 100 * user + _STAMP_OFFSETS[event]
    del event

    paths = out / "movies.csv", out / "ratings.csv"
    staged = [path.with_name(path.name + ".tmp") for path in paths]
    try:
        _write_movies(staged[0], specs)
        _write_ratings(staged[1], user, movie, rating, stamp)
        for tmp, path in zip(staged, paths):
            os.replace(tmp, path)
    finally:
        for tmp in staged:
            tmp.unlink(missing_ok=True)
    return paths
