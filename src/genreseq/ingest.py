"""MovieLens-format ingestion and per-user chronological 5-movie sequences.

Input files are comma-separated UTF-8 with the standard headers
``movieId,title,genres`` and ``userId,movieId,rating,timestamp``; genre
names are pipe-separated and quoted titles may contain commas.  Users end
up as :class:`UserSequence` values: their five most recent movies (by
timestamp, ties broken by ascending movie id), each paired with a
multi-hot genre vector.

A seeded synthetic generator with a planted transition matrix is included
so that estimators downstream can be checked against a known ground truth.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .errors import InvalidSpec, MalformedRow, RatingOutOfRange, UnknownGenre
from .genres import N_GENRES, encode_genres, is_row_stochastic

SEQUENCE_LENGTH = 5

RATING_MIN = 0.5
RATING_MAX = 5.0

# The half-point grid ratings can take.
RATING_GRID = np.arange(1, 11) * 0.5

NO_GENRES_TOKEN = "(no genres listed)"

_MOVIES_HEADER = ["movieId", "title", "genres"]
_RATINGS_HEADER = ["userId", "movieId", "rating", "timestamp"]


@dataclass(frozen=True)
class RatingEvent:
    """One rating action: a user rated a movie at a point in time."""

    user_id: int
    movie_id: int
    rating: float
    timestamp: int

    def __post_init__(self):
        if not RATING_MIN <= self.rating <= RATING_MAX:
            raise RatingOutOfRange(
                f"rating {self.rating} outside [{RATING_MIN}, {RATING_MAX}]"
            )


@dataclass(frozen=True)
class UserSequence:
    """A user's five most recent movies, chronological, with genre vectors.

    ``genres`` is a (5, 19) multi-hot matrix, row t for event t.
    """

    user_id: int
    events: tuple[RatingEvent, ...]
    genres: np.ndarray

    def __post_init__(self):
        if len(self.events) != SEQUENCE_LENGTH:
            raise ValueError(f"expected {SEQUENCE_LENGTH} events, got {len(self.events)}")
        keys = [(e.timestamp, e.movie_id) for e in self.events]
        if keys != sorted(keys):
            raise ValueError("events not ordered by (timestamp, movie_id)")
        genres = np.asarray(self.genres, dtype=np.float64)
        if genres.shape != (SEQUENCE_LENGTH, N_GENRES):
            raise ValueError(f"genre matrix shape {genres.shape}")
        if not np.all((genres == 0.0) | (genres == 1.0)):
            raise ValueError("genre matrix must be multi-hot")
        if not np.all(genres.sum(axis=1) >= 1):
            raise ValueError("every movie needs at least one genre")
        genres.setflags(write=False)
        object.__setattr__(self, "genres", genres)

    @property
    def ratings(self) -> np.ndarray:
        return np.array([e.rating for e in self.events], dtype=np.float64)


@dataclass
class MovieCatalog:
    """Mapping movie_id -> multi-hot genre vector, plus a skip tally."""

    genres: dict[int, np.ndarray] = field(default_factory=dict)
    skipped_no_genre: int = 0

    def __contains__(self, movie_id: int) -> bool:
        return movie_id in self.genres

    def __getitem__(self, movie_id: int) -> np.ndarray:
        return self.genres[movie_id]

    def get(self, movie_id: int, default=None):
        return self.genres.get(movie_id, default)

    def __len__(self) -> int:
        return len(self.genres)


def load_movies(path: str | Path) -> MovieCatalog:
    """Parse a movies CSV into a :class:`MovieCatalog`.

    Movies whose genre field is ``(no genres listed)`` are omitted and
    counted in ``skipped_no_genre``.  Rows with the wrong column count,
    unparsable ids, or an empty genre field raise :class:`MalformedRow`.
    """
    catalog = MovieCatalog()
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != _MOVIES_HEADER:
            raise MalformedRow(1, f"expected header {','.join(_MOVIES_HEADER)}")
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) != 3:
                raise MalformedRow(line, f"expected 3 columns, got {len(row)}")
            raw_id, _title, raw_genres = row
            try:
                movie_id = int(raw_id)
            except ValueError:
                raise MalformedRow(line, f"bad movie id {raw_id!r}") from None
            if raw_genres == NO_GENRES_TOKEN:
                catalog.skipped_no_genre += 1
                continue
            if not raw_genres:
                raise MalformedRow(line, "empty genre field")
            try:
                catalog.genres[movie_id] = encode_genres(raw_genres.split("|"))
            except UnknownGenre as exc:
                raise MalformedRow(line, str(exc)) from None
    return catalog


def load_ratings(path: str | Path) -> list[RatingEvent]:
    """Parse a ratings CSV into events in file order (:func:`build_sequences` sorts)."""
    events: list[RatingEvent] = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != _RATINGS_HEADER:
            raise MalformedRow(1, f"expected header {','.join(_RATINGS_HEADER)}")
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) != 4:
                raise MalformedRow(line, f"expected 4 columns, got {len(row)}")
            try:
                user_id = int(row[0])
                movie_id = int(row[1])
                rating = float(row[2])
                timestamp = int(row[3])
            except ValueError:
                raise MalformedRow(line, f"unparsable row {row!r}") from None
            events.append(RatingEvent(user_id, movie_id, rating, timestamp))
    return events


def build_sequences(
    events: Iterable[RatingEvent],
    movies: MovieCatalog | Mapping[int, np.ndarray],
) -> tuple[list[UserSequence], int]:
    """Per-user 5-movie windows from rating events.

    Events whose movie is not in ``movies`` (unknown id or genre-less) are
    removed first; users left with fewer than five events are dropped.
    Returns ``(sequences, dropped_users)`` so that
    ``dropped + len(sequences)`` equals the number of distinct users seen.
    """
    ordered = sorted(events, key=lambda e: (e.user_id, e.timestamp, e.movie_id))
    sequences: list[UserSequence] = []
    dropped = 0
    for user_id, group in itertools.groupby(ordered, key=lambda e: e.user_id):
        valid = [e for e in group if e.movie_id in movies]
        if len(valid) < SEQUENCE_LENGTH:
            dropped += 1
            continue
        window = valid[-SEQUENCE_LENGTH:]
        genres = np.stack([movies[e.movie_id] for e in window])
        sequences.append(UserSequence(user_id, tuple(window), genres))
    return sequences, dropped


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for seeded synthetic sequences with a planted genre chain.

    ``genres_per_movie`` is an inclusive (low, high) range for how many
    genres each synthetic movie carries.
    """

    n_users: int
    planted_matrix: np.ndarray
    genres_per_movie: tuple[int, int] = (1, 1)
    seed: int = 0


def generate_synthetic(spec: SyntheticSpec) -> tuple[list[UserSequence], np.ndarray]:
    """Deterministic synthetic sequences drawn from a planted chain.

    The first movie's genres are uniform; each later movie's genres are
    drawn from the planted matrix rows averaged over the previous movie's
    genres.  Ratings are uniform on the half-point grid.  Returns the
    sequences and a copy of the planted matrix.
    """
    planted = np.asarray(spec.planted_matrix, dtype=np.float64)
    if spec.n_users < 1:
        raise InvalidSpec("n_users must be >= 1")
    if not is_row_stochastic(planted):
        raise InvalidSpec("planted matrix must be 19x19 row-stochastic")
    low, high = spec.genres_per_movie
    if not (1 <= low <= high <= N_GENRES):
        raise InvalidSpec(f"genres_per_movie range {spec.genres_per_movie} invalid")

    rng = np.random.default_rng(spec.seed)
    sequences: list[UserSequence] = []
    next_movie_id = 1
    for u in range(spec.n_users):
        user_id = u + 1
        sizes = rng.integers(low, high + 1, size=SEQUENCE_LENGTH)
        genres = np.zeros((SEQUENCE_LENGTH, N_GENRES))
        chosen = rng.choice(N_GENRES, size=int(sizes[0]), replace=False)
        genres[0, chosen] = 1.0
        for t in range(1, SEQUENCE_LENGTH):
            prev = np.flatnonzero(genres[t - 1])
            probs = planted[prev].mean(axis=0)
            probs = probs / probs.sum()
            # A sparse row can support fewer distinct genres than asked for.
            size = min(int(sizes[t]), int(np.count_nonzero(probs)))
            chosen = rng.choice(N_GENRES, size=size, replace=False, p=probs)
            genres[t, chosen] = 1.0
        ratings = rng.choice(RATING_GRID, size=SEQUENCE_LENGTH)
        base = 1_000_000 + u * 1_000
        events = tuple(
            RatingEvent(user_id, next_movie_id + t, float(ratings[t]), base + 10 * t)
            for t in range(SEQUENCE_LENGTH)
        )
        next_movie_id += SEQUENCE_LENGTH
        sequences.append(UserSequence(user_id, events, genres))
    return sequences, planted.copy()
