"""MovieLens-format ingestion and per-user chronological 5-movie windows.

Input files are comma-separated UTF-8 with the standard headers
``movieId,title,genres`` and ``userId,movieId,rating,timestamp``; genre
names are pipe-separated and quoted titles may contain commas.  Ratings
load as one structured array of four columns (:data:`RATING_DTYPE`) in
file order.  The kept users end up as one :class:`Users` table: row i
holds one user's five most recent movies (by timestamp, ties broken by
ascending movie id), each with a multi-hot genre vector.

A seeded synthetic generator with a planted transition matrix is included
so that estimators downstream can be checked against a known ground truth.
"""

from __future__ import annotations

import copy
import csv
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import InvalidSpec, MalformedRow, RatingOutOfRange, UnknownGenre
from .genres import N_GENRES, encode_genres, is_row_stochastic

SEQUENCE_LENGTH = 5

RATING_MIN = 0.5
RATING_MAX = 5.0

# The half-point grid ratings can take.
RATING_GRID = np.arange(1, 11) * 0.5

NO_GENRES_TOKEN = "(no genres listed)"

# One ratings row; load_ratings returns an array of these in file order.
RATING_DTYPE = np.dtype(
    [("user_id", np.int64), ("movie_id", np.int64), ("rating", np.float64), ("timestamp", np.int64)]
)

_INT64 = np.iinfo(np.int64)

_MOVIES_HEADER = ["movieId", "title", "genres"]
_RATINGS_HEADER = ["userId", "movieId", "rating", "timestamp"]


def _out_of_range(rating: float) -> RatingOutOfRange:
    return RatingOutOfRange(f"rating {rating} outside [{RATING_MIN}, {RATING_MAX}]")


def _check_ratings(ratings: np.ndarray) -> None:
    """Raise for the first rating outside [RATING_MIN, RATING_MAX]; NaN fails too."""
    bad = ~((ratings >= RATING_MIN) & (ratings <= RATING_MAX))
    if bad.any():
        raise _out_of_range(float(ratings.flat[np.argmax(bad)]))


def _multi_hot(genres) -> np.ndarray:
    """``genres`` as a read-only uint8 0/1 array; raises unless every value is 0 or 1.

    The values are checked as given, before the cast, which would wrap
    256 to 0 and truncate 0.5 to 0.
    """
    raw = np.asarray(genres)
    # uint8 holds no value below 0, so its max alone checks it, with no temporary.
    if not (raw.max(initial=0) <= 1 if raw.dtype == np.uint8 else np.all((raw == 0) | (raw == 1))):
        raise ValueError("genre matrix must be multi-hot")
    column = raw.astype(np.uint8, copy=False)
    column.setflags(write=False)
    return column


@dataclass(frozen=True, eq=False)
class Users:
    """Each kept user's five most recent movies, one row per user.

    ``user_id`` is (n,); ``movie_id``, ``rating`` and ``timestamp`` are
    (n, 5), chronological, ties broken by ascending movie id; ``genres``
    is (n, 5, 19) uint8 multi-hot, ``genres[i, t]`` the genres of user
    i's movie t.  The columns are validated once, in bulk, and read-only.
    """

    user_id: np.ndarray
    movie_id: np.ndarray
    rating: np.ndarray
    timestamp: np.ndarray
    genres: np.ndarray

    def __post_init__(self):
        n = np.size(self.user_id)
        shapes = {
            "user_id": (np.int64, (n,)),
            "movie_id": (np.int64, (n, SEQUENCE_LENGTH)),
            "rating": (np.float64, (n, SEQUENCE_LENGTH)),
            "timestamp": (np.int64, (n, SEQUENCE_LENGTH)),
            "genres": (None, (n, SEQUENCE_LENGTH, N_GENRES)),  # uint8, by _multi_hot
        }
        for name, (dtype, shape) in shapes.items():
            column = np.asarray(getattr(self, name), dtype=dtype)
            if column.shape != shape:
                raise ValueError(f"{name} shape {column.shape}, expected {shape}")
            column = _multi_hot(column) if dtype is None else column
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        if not self.genres.any(axis=2).all():
            raise ValueError("every movie needs at least one genre")
        _check_ratings(self.rating)
        # Adjacent events compared as one-byte booleans, with no int64 differences.
        t0, t1 = self.timestamp[:, :-1], self.timestamp[:, 1:]
        m0, m1 = self.movie_id[:, :-1], self.movie_id[:, 1:]
        if not np.all((t1 > t0) | ((t1 == t0) & (m1 >= m0))):
            raise ValueError("events not ordered by (timestamp, movie_id)")

    def __len__(self) -> int:
        return self.user_id.shape[0]

    def __getitem__(self, rows) -> "Users":
        """The users at ``rows`` (an index array, a boolean mask or a slice), in that order.

        Rows of a valid table are valid, so they are not checked again.
        """
        picked = copy.copy(self)
        for f in fields(self):
            column = getattr(self, f.name)[rows]
            column.setflags(write=False)
            object.__setattr__(picked, f.name, column)
        return picked


@dataclass(frozen=True, eq=False)
class MovieCatalog:
    """The movies that have genres, as two aligned columns.

    ``ids`` is (m,) int64, ascending and unique; ``genres`` is (m, 19)
    uint8 multi-hot and read-only, ``genres[i]`` the genres of movie
    ``ids[i]``.  ``skipped_no_genre`` counts the genre-less movies left out.
    """

    ids: np.ndarray
    genres: np.ndarray
    skipped_no_genre: int = 0

    def __post_init__(self):
        if self.genres.shape != (self.ids.size, N_GENRES) or np.any(self.ids[1:] <= self.ids[:-1]):
            raise ValueError("catalog ids must be ascending and unique, one genre row each")
        object.__setattr__(self, "genres", _multi_hot(self.genres))


def load_movies(path: str | Path) -> MovieCatalog:
    """Parse a movies CSV into a :class:`MovieCatalog`.

    Movies whose genre field is ``(no genres listed)`` are omitted and
    counted in ``skipped_no_genre``; a repeated id keeps its last row with
    genres.  Rows with the wrong column count, unparsable ids, ids outside
    int64, or an empty genre field raise :class:`MalformedRow`.
    """
    genres: dict[int, np.ndarray] = {}
    skipped = 0
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
            if not _INT64.min <= movie_id <= _INT64.max:
                raise MalformedRow(line, f"movie id {raw_id!r} outside int64")
            if raw_genres == NO_GENRES_TOKEN:
                skipped += 1
                continue
            if not raw_genres:
                raise MalformedRow(line, "empty genre field")
            try:
                genres[movie_id] = encode_genres(raw_genres.split("|"))
            except UnknownGenre as exc:
                raise MalformedRow(line, str(exc)) from None
    ids = np.array(list(genres), dtype=np.int64)
    order = np.argsort(ids)
    rows = np.array(list(genres.values()), dtype=np.uint8).reshape(-1, N_GENRES)
    return MovieCatalog(ids[order], rows[order], skipped)


def load_ratings(path: str | Path) -> np.ndarray:
    """Parse a ratings CSV into a :data:`RATING_DTYPE` array in file order.

    The rows parse in one C pass.  When that pass fails, :func:`_scan_ratings`
    reads the file again: it raises the diagnostic for the first bad line,
    or returns the columns of rows only it accepts (quoted numbers, say).
    A rating outside [0.5, 5.0], NaN included, raises
    :class:`RatingOutOfRange` for the first such row in file order.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        if next(csv.reader(handle), None) != _RATINGS_HEADER:
            raise MalformedRow(1, f"expected header {','.join(_RATINGS_HEADER)}")
    try:
        with warnings.catch_warnings():
            # A file with no data rows only warns; the scan returns it empty.
            warnings.simplefilter("error")
            ratings = np.loadtxt(
                path,
                delimiter=",",
                comments=None,
                dtype=RATING_DTYPE,
                skiprows=1,
                ndmin=1,
                encoding="utf-8",
            )
    except (ValueError, Warning):
        return _scan_ratings(path)
    _check_ratings(ratings["rating"])
    return ratings


def _scan_ratings(path: str | Path) -> np.ndarray:
    """Row-by-row parse of a ratings CSV: the one place diagnostics come from.

    Rows are checked in file order; the first one that is malformed (wrong
    column count, unparsable or outside int64) raises :class:`MalformedRow`
    with its 1-based line number, and the first rating out of range raises
    :class:`RatingOutOfRange`.  Empty lines are skipped.
    """
    rows: list[tuple[int, int, float, int]] = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        if next(reader, None) != _RATINGS_HEADER:
            raise MalformedRow(1, f"expected header {','.join(_RATINGS_HEADER)}")
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) != 4:
                raise MalformedRow(line, f"expected 4 columns, got {len(row)}")
            try:
                user_id, movie_id, timestamp = int(row[0]), int(row[1]), int(row[3])
                rating = float(row[2])
            except ValueError:
                raise MalformedRow(line, f"unparsable row {row!r}") from None
            if not all(_INT64.min <= v <= _INT64.max for v in (user_id, movie_id, timestamp)):
                raise MalformedRow(line, f"id or timestamp outside int64 in {row!r}")
            if not RATING_MIN <= rating <= RATING_MAX:
                raise _out_of_range(rating)
            rows.append((user_id, movie_id, rating, timestamp))
    return np.array(rows, dtype=RATING_DTYPE)


def build_sequences(ratings: np.ndarray, catalog: MovieCatalog) -> tuple[Users, int]:
    """Per-user 5-movie windows from a :data:`RATING_DTYPE` array.

    Rows whose movie is not in ``catalog`` (unknown id or genre-less) are
    removed first; users left with fewer than five rows are dropped.  The
    rest sort by (user, timestamp, movie id), stably, so exact duplicates
    keep file order, and each user keeps the last five.  Returns
    ``(users, dropped_users)`` so that ``dropped + len(users)`` equals the
    number of distinct users seen; ``users`` is sorted by user id.
    """
    ids = catalog.ids
    user, movie, timestamp = ratings["user_id"], ratings["movie_id"], ratings["timestamp"]

    # One sort of every row counts the users seen; its known rows keep
    # the order a sort of the known rows alone would give.  Each row index
    # array is int32 and freed before the next is built.
    rows = np.lexsort((movie, timestamp, user)).astype(np.int32 if len(ratings) < 2**31 else np.int64)
    grouped = user[rows]
    seen = np.count_nonzero(grouped[1:] != grouped[:-1]) + int(grouped.size > 0)
    del grouped
    # A movie id past the last catalog id is clipped onto it, which differs.
    pos = np.searchsorted(ids, movie)
    known = ids.take(pos, mode="clip") == movie if ids.size else np.zeros(len(ratings), dtype=bool)
    del pos
    rows = rows[known[rows]]
    del known
    grouped = user[rows]
    ends = np.flatnonzero(np.r_[grouped[1:] != grouped[:-1], grouped.size > 0])
    del grouped
    sizes = np.diff(ends, prepend=-1)
    ends = ends[sizes >= SEQUENCE_LENGTH]
    window = rows[ends[:, None] + np.arange(1 - SEQUENCE_LENGTH, 1)]
    del rows

    movie_id = movie[window]
    users = Users(
        user_id=user[window[:, -1]],
        movie_id=movie_id,
        rating=ratings["rating"][window],
        timestamp=timestamp[window],
        genres=catalog.genres[np.searchsorted(ids, movie_id)],
    )
    return users, seen - len(users)


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


def generate_synthetic(spec: SyntheticSpec) -> tuple[Users, np.ndarray]:
    """Deterministic synthetic users drawn from a planted chain.

    The first movie's genres are uniform; each later movie's genres are
    drawn from the planted matrix rows averaged over the previous movie's
    genres.  Ratings are uniform on the half-point grid.  User u (from 1)
    watches movies 5(u-1)+1 .. 5(u-1)+5.  Returns the users and a copy of
    the planted matrix.
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
    n = spec.n_users
    genres = np.zeros((n, SEQUENCE_LENGTH, N_GENRES), dtype=np.uint8)
    ratings = np.empty((n, SEQUENCE_LENGTH))
    for u in range(n):
        sizes = rng.integers(low, high + 1, size=SEQUENCE_LENGTH)
        chosen = rng.choice(N_GENRES, size=int(sizes[0]), replace=False)
        genres[u, 0, chosen] = 1
        for t in range(1, SEQUENCE_LENGTH):
            prev = np.flatnonzero(genres[u, t - 1])
            probs = planted[prev].mean(axis=0)
            probs = probs / probs.sum()
            # A sparse row can support fewer distinct genres than asked for.
            size = min(int(sizes[t]), int(np.count_nonzero(probs)))
            chosen = rng.choice(N_GENRES, size=size, replace=False, p=probs)
            genres[u, t, chosen] = 1
        ratings[u] = rng.choice(RATING_GRID, size=SEQUENCE_LENGTH)
    steps = np.arange(SEQUENCE_LENGTH)
    users = Users(
        user_id=np.arange(1, n + 1),
        movie_id=1 + SEQUENCE_LENGTH * np.arange(n)[:, None] + steps,
        rating=ratings,
        timestamp=1_000_000 + 1_000 * np.arange(n)[:, None] + 10 * steps,
        genres=genres,
    )
    return users, planted.copy()
