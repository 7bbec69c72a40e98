import itertools
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from genreseq.errors import InvalidSpec, MalformedRow, RatingOutOfRange
from genreseq.genres import GENRES, genre_index
from genreseq.ingest import (
    RATING_DTYPE,
    MovieCatalog,
    SyntheticSpec,
    Users,
    _scan_ratings,
    build_sequences,
    generate_synthetic,
    load_movies,
    load_ratings,
)
from genreseq.transitions import count_transitions, genre_samples, normalize_transitions

from .helpers import frozen_build_sequences, make_sequence


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadMovies:
    def test_basic_rows(self, tmp_path):
        path = write(
            tmp_path,
            "movies.csv",
            "movieId,title,genres\n"
            "7,Sample (2001),Action|War\n"
            '11,"Heat, The (1995)",Crime|Thriller\n',
        )
        catalog = load_movies(path)
        assert catalog.ids.dtype == np.int64 and catalog.ids.tolist() == [7, 11]
        assert set(np.flatnonzero(catalog.genres[0])) == {genre_index("Action"), genre_index("War")}
        assert set(np.flatnonzero(catalog.genres[1])) == {genre_index("Crime"), genre_index("Thriller")}
        assert catalog.genres.shape == (2, 19)

    def test_no_genres_listed_skipped_and_tallied(self, tmp_path):
        path = write(
            tmp_path,
            "movies.csv",
            "movieId,title,genres\n8,Empty (2002),(no genres listed)\n9,Ok,Drama\n",
        )
        catalog = load_movies(path)
        assert catalog.ids.tolist() == [9]
        assert catalog.skipped_no_genre == 1

    def test_ids_sorted_and_repeated_id_keeps_last_row(self, tmp_path):
        path = write(
            tmp_path,
            "movies.csv",
            "movieId,title,genres\n30,A,Drama\n-4,B,Horror\n30,C,Comedy|War\n30,D,(no genres listed)\n",
        )
        catalog = load_movies(path)
        assert catalog.ids.tolist() == [-4, 30]
        assert set(np.flatnonzero(catalog.genres[0])) == {genre_index("Horror")}
        assert set(np.flatnonzero(catalog.genres[1])) == {genre_index("Comedy"), genre_index("War")}
        assert catalog.skipped_no_genre == 1

    def test_catalog_columns_checked(self):
        one_hot = np.eye(19)[:2]
        with pytest.raises(ValueError, match="ascending and unique"):
            MovieCatalog(np.array([5, 3]), one_hot)
        with pytest.raises(ValueError, match="ascending and unique"):
            MovieCatalog(np.array([3, 3]), one_hot)
        with pytest.raises(ValueError, match="one genre row each"):
            MovieCatalog(np.array([3]), one_hot)

    @pytest.mark.parametrize("bad", [0.5, 2, 256, -1, np.nan])
    def test_catalog_genres_checked_before_uint8_cast(self, bad):
        genres = np.eye(19)[:2]
        genres[0, 5] = bad
        with pytest.raises(ValueError, match="genre matrix must be multi-hot"):
            MovieCatalog(np.array([3, 5]), genres)

    @pytest.mark.parametrize("bad", [2, 255])
    def test_catalog_uint8_genres_checked(self, bad):
        genres = np.eye(19, dtype=np.uint8)[:2]
        genres[0, 5] = bad
        with pytest.raises(ValueError, match="genre matrix must be multi-hot"):
            MovieCatalog(np.array([3, 5]), genres)

    def test_no_movies(self, tmp_path):
        catalog = load_movies(write(tmp_path, "movies.csv", "movieId,title,genres\n"))
        assert catalog.ids.shape == (0,) and catalog.genres.shape == (0, 19)

    def test_ids_at_both_ends_of_int64(self, tmp_path):
        # Their difference overflows int64, so the order check compares neighbours.
        path = write(
            tmp_path,
            "movies.csv",
            "movieId,title,genres\n9223372036854775807,A,Drama\n-9223372036854775808,B,Comedy\n",
        )
        catalog = load_movies(path)
        assert catalog.ids.tolist() == [-9223372036854775808, 9223372036854775807]
        assert set(np.flatnonzero(catalog.genres[0])) == {genre_index("Comedy")}

    @pytest.mark.parametrize("raw_id", ["99999999999999999999", "-9223372036854775809"])
    def test_id_outside_int64_is_malformed(self, tmp_path, raw_id):
        path = write(tmp_path, "movies.csv", f"movieId,title,genres\n1,A,Drama\n{raw_id},B,Comedy\n")
        with pytest.raises(MalformedRow) as err:
            load_movies(path)
        assert err.value.line_number == 3

    def test_empty_genre_field(self, tmp_path):
        path = write(tmp_path, "movies.csv", "movieId,title,genres\n9,Bad,\n")
        with pytest.raises(MalformedRow) as err:
            load_movies(path)
        assert err.value.line_number == 2

    def test_wrong_column_count(self, tmp_path):
        path = write(tmp_path, "movies.csv", "movieId,title,genres\n9,Drama\n")
        with pytest.raises(MalformedRow):
            load_movies(path)

    def test_bad_movie_id(self, tmp_path):
        path = write(tmp_path, "movies.csv", "movieId,title,genres\nx,Bad,Drama\n")
        with pytest.raises(MalformedRow):
            load_movies(path)

    def test_bad_header(self, tmp_path):
        path = write(tmp_path, "movies.csv", "id,name,tags\n1,A,Drama\n")
        with pytest.raises(MalformedRow):
            load_movies(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_movies(tmp_path / "nope.csv")


HEADER = "userId,movieId,rating,timestamp\n"


class TestLoadRatings:
    def test_keeps_file_order(self, tmp_path):
        path = write(
            tmp_path,
            "ratings.csv",
            "userId,movieId,rating,timestamp\n2,1,3.0,50\n1,5,4.0,200\n1,6,3.0,100\n",
        )
        ratings = load_ratings(path)
        assert ratings.dtype == RATING_DTYPE and len(ratings) == 3
        assert list(zip(ratings["user_id"].tolist(), ratings["timestamp"].tolist())) == [
            (2, 50),
            (1, 200),
            (1, 100),
        ]

    def test_rating_below_range(self, tmp_path):
        path = write(tmp_path, "ratings.csv", "userId,movieId,rating,timestamp\n1,5,0.0,100\n")
        with pytest.raises(RatingOutOfRange):
            load_ratings(path)

    def test_rating_above_range(self, tmp_path):
        path = write(tmp_path, "ratings.csv", "userId,movieId,rating,timestamp\n1,5,5.5,100\n")
        with pytest.raises(RatingOutOfRange):
            load_ratings(path)

    def test_malformed_row(self, tmp_path):
        path = write(tmp_path, "ratings.csv", "userId,movieId,rating,timestamp\n1,5,zz,100\n")
        with pytest.raises(MalformedRow):
            load_ratings(path)

    def test_first_bad_rating_in_file_order(self, tmp_path):
        path = write(tmp_path, "ratings.csv", HEADER + "1,5,3.0,1\n1,6,7.0,2\n1,7,0.0,3\n")
        with pytest.raises(RatingOutOfRange, match="rating 7.0 "):
            load_ratings(path)

    def test_id_above_int64_is_malformed(self, tmp_path):
        path = write(tmp_path, "ratings.csv", HEADER + "1,5,3.0,1\n9223372036854775808,5,3.0,2\n")
        with pytest.raises(MalformedRow) as err:
            load_ratings(path)
        assert err.value.line_number == 3


# Files the one-pass parse and the row scan could read differently.  Each
# must parse to the same columns on both paths or fail the same way.
PARSE_CORPUS = {
    "clean": "1,5,3.0,100\n2,6,4.5,50\n",
    "comment line": "1,5,3.0,100\n# a comment\n2,6,4.5,50\n",
    "whitespace-only line": "1,5,3.0,100\n   \n2,6,4.5,50\n",
    "empty line": "1,5,3.0,100\n\n2,6,4.5,50\n",
    "trailing comma": "1,5,3.0,100,\n",
    "quoted numeric field": '"1",5,3.0,100\n',
    "float id": "1.0,5,3.0,100\n",
    "underscore id": "1_0,5,3.0,100\n",
    "id above int64": "1,5,3.0,100\n1,99999999999999999999,3.0,100\n",
    "timestamp above int64": "1,5,3.0,9223372036854775808\n",
    "nan rating": "1,5,3.0,100\n1,6,nan,200\n",
    "inf rating": "1,5,inf,100\n",
    "out of range before malformed": "1,5,9.0,100\n1,x,3.0,100\n",
    "malformed before out of range": "1,x,3.0,100\n1,5,9.0,100\n",
    "crlf line endings": "1,5,3.0,100\r\n2,6,4.5,50\r\n",
    "header only": "",
    "no final newline": "1,5,3.0,100",
    "short row": "1,5,3.0\n",
}


def outcome(load, path):
    try:
        return load(path)
    except (MalformedRow, RatingOutOfRange) as exc:
        return exc


class TestParseAgreement:
    @pytest.mark.parametrize("body", PARSE_CORPUS.values(), ids=PARSE_CORPUS.keys())
    def test_fast_parse_agrees_with_row_scan(self, tmp_path, body):
        path = write(tmp_path, "ratings.csv", HEADER + body)
        scanned, loaded = outcome(_scan_ratings, path), outcome(load_ratings, path)
        if isinstance(scanned, Exception):
            assert type(loaded) is type(scanned)
            assert getattr(loaded, "line_number", None) == getattr(scanned, "line_number", None)
            assert str(loaded) == str(scanned)
        else:
            assert isinstance(loaded, np.ndarray), loaded
            assert loaded.dtype == scanned.dtype == RATING_DTYPE
            assert loaded.shape == scanned.shape
            for name in RATING_DTYPE.names:
                assert np.array_equal(loaded[name], scanned[name]), name

    def test_corpus_exercises_both_outcomes(self, tmp_path):
        kinds = set()
        for body in PARSE_CORPUS.values():
            kinds.add(type(outcome(_scan_ratings, write(tmp_path, "r.csv", HEADER + body))))
        assert {np.ndarray, MalformedRow, RatingOutOfRange} <= kinds


def event(user, movie, ts, rating=3.0):
    return (user, movie, rating, ts)


def table(events):
    return np.array(events, dtype=RATING_DTYPE)


@pytest.fixture
def catalog():
    """Movies 1-7, one genre each."""
    names = ["Action", "Comedy", "Drama", "Horror", "Romance", "War", "Western"]
    genres = np.zeros((len(names), 19))
    genres[np.arange(len(names)), [genre_index(name) for name in names]] = 1.0
    return MovieCatalog(np.arange(1, len(names) + 1), genres)


class TestBuildSequences:
    # load_ratings keeps file order; build_sequences is the one place that
    # orders events, so these two feed it unsorted rows from a file.
    def test_sorted_by_time(self, tmp_path, catalog):
        path = write(
            tmp_path,
            "ratings.csv",
            "userId,movieId,rating,timestamp\n"
            "2,1,3.0,50\n1,5,4.0,500\n1,1,3.0,100\n2,2,3.0,10\n1,3,3.0,300\n"
            "1,6,4.0,600\n1,2,3.0,200\n1,4,3.0,400\n",
        )
        users, dropped = build_sequences(load_ratings(path), catalog)
        assert dropped == 1 and len(users) == 1
        assert users.timestamp[0].tolist() == [200, 300, 400, 500, 600]

    def test_tie_broken_by_movie_id(self, tmp_path, catalog):
        path = write(
            tmp_path,
            "ratings.csv",
            "userId,movieId,rating,timestamp\n"
            "1,7,4.0,100\n1,3,3.0,100\n1,5,3.0,100\n1,1,3.0,200\n1,6,3.0,100\n1,2,3.0,100\n",
        )
        users, _ = build_sequences(load_ratings(path), catalog)
        assert len(users) == 1
        assert users.movie_id[0].tolist() == [3, 5, 6, 7, 1]

    def test_five_most_recent_kept(self, catalog):
        events = [event(1, (t % 7) + 1, ts=t) for t in range(1, 8)]
        users, dropped = build_sequences(table(events), catalog)
        assert dropped == 0 and len(users) == 1
        assert users.timestamp[0].tolist() == [3, 4, 5, 6, 7]

    def test_below_threshold_dropped(self, catalog):
        events = [event(1, 1, ts=t) for t in range(4)]
        users, dropped = build_sequences(table(events), catalog)
        assert len(users) == 0
        assert dropped == 1

    def test_unknown_movie_removed_before_threshold(self, catalog):
        # Six events, one referencing a movie outside the catalog: the
        # stated filter order removes it first, five remain, the user is
        # kept and the window is the five surviving events.
        events = [event(1, m, ts=t) for t, m in enumerate([1, 2, 999, 3, 4, 5], start=1)]
        users, dropped = build_sequences(table(events), catalog)
        assert dropped == 0 and len(users) == 1
        assert users.movie_id[0].tolist() == [1, 2, 3, 4, 5]

    def test_exactly_five_valid_kept(self, catalog):
        events = [event(2, m, ts=m) for m in range(1, 6)]
        users, dropped = build_sequences(table(events), catalog)
        assert len(users) == 1 and dropped == 0

    def test_tally_conservation(self, catalog):
        rng = np.random.default_rng(5)
        events = []
        for user in range(1, 40):
            n = int(rng.integers(1, 10))
            for t in range(n):
                movie = int(rng.integers(1, 9))  # movie 8 is unknown
                events.append(event(user, movie, ts=t, rating=2.5))
        users, dropped = build_sequences(table(events), catalog)
        assert dropped + len(users) == 39

    def test_deterministic(self, catalog):
        events = table([event(1, (t % 7) + 1, ts=t) for t in range(10)])
        first = build_sequences(events, catalog)
        second = build_sequences(events, catalog)
        assert first[1] == second[1]
        for name in ("user_id", "movie_id", "rating", "timestamp", "genres"):
            assert np.array_equal(getattr(first[0], name), getattr(second[0], name))

    def test_no_known_movies(self, catalog):
        users, dropped = build_sequences(table([event(3, 999, ts=t) for t in range(6)]), catalog)
        assert len(users) == 0 and users.genres.shape == (0, 5, 19)
        assert dropped == 1


def reference_windows(ratings_path, movies):
    """Plain-Python windowing: sort rows by (user, timestamp, movie), group, keep the last five.

    ``movies`` maps each movie id with genres to its genre row.
    """
    with open(ratings_path, encoding="utf-8") as handle:
        next(handle)
        rows = []
        for line in handle:
            user, movie, rating, ts = line.strip().split(",")
            rows.append((int(user), int(movie), float(rating), int(ts)))
    ordered = sorted(rows, key=lambda r: (r[0], r[3], r[1]))
    windows, dropped = [], 0
    for _, group in itertools.groupby(ordered, key=lambda r: r[0]):
        known = [r for r in group if r[1] in movies]
        if len(known) < 5:
            dropped += 1
        else:
            windows.append(known[-5:])
    return windows, dropped


def windowing_files(tmp_path):
    """(movies, ratings) paths of a small file with unknown movies, short users and ties."""
    rng = np.random.default_rng(61)
    movie_lines = ["movieId,title,genres"]
    for movie in range(1, 41):
        if movie % 9 == 0:
            movie_lines.append(f"{movie},Blank {movie},(no genres listed)")
        else:
            names = rng.choice(GENRES, size=int(rng.integers(1, 4)), replace=False)
            movie_lines.append(f"{movie},Movie {movie},{'|'.join(names)}")
    movies_path = write(tmp_path, "movies.csv", "\n".join(movie_lines) + "\n")

    # Sparse, unordered user ids; few distinct timestamps, so ties are
    # common; ids 41-45 are not in the catalog and multiples of 9 have
    # no genres.
    user_ids = rng.choice(10**12, size=120, replace=False) - 5 * 10**11
    rating_lines = [HEADER.strip()]
    for user in user_ids.tolist():
        kind = rng.integers(4)
        n = int(rng.integers(1, 5)) if kind == 0 else int(rng.integers(1, 14))
        for _ in range(n):
            movie = int(rng.integers(41, 46)) if kind == 1 else int(rng.integers(1, 46))
            rating = float(rng.choice(np.arange(1, 11) * 0.5))
            ts = int(rng.integers(0, 6))
            rating_lines.append(f"{user},{movie},{rating},{ts}")
            if rng.uniform() < 0.2:  # an exact (user, movie, timestamp) duplicate
                rating_lines.append(f"{user},{movie},{float(rng.choice([0.5, 5.0]))},{ts}")
    order = rng.permutation(len(rating_lines) - 1) + 1
    ratings_path = write(
        tmp_path, "ratings.csv", "\n".join([rating_lines[0]] + [rating_lines[i] for i in order]) + "\n"
    )
    return movies_path, ratings_path


class TestWindowingDifferential:
    def test_matches_plain_python_reference(self, tmp_path):
        movies_path, ratings_path = windowing_files(tmp_path)
        catalog = load_movies(movies_path)
        users, dropped = build_sequences(load_ratings(ratings_path), catalog)
        movies = dict(zip(catalog.ids.tolist(), catalog.genres))
        windows, expected_dropped = reference_windows(ratings_path, movies)

        assert dropped == expected_dropped
        assert 0 < len(users) == len(windows) < 120
        assert users.user_id.tolist() == [w[0][0] for w in windows]
        assert users.movie_id.tolist() == [[r[1] for r in w] for w in windows]
        assert users.rating.tolist() == [[r[2] for r in w] for w in windows]
        assert users.timestamp.tolist() == [[r[3] for r in w] for w in windows]
        expected_genres = np.array([[movies[r[1]] for r in w] for w in windows])
        assert np.array_equal(users.genres, expected_genres)

    @pytest.mark.parametrize("empty_catalog", [False, True])
    def test_matches_the_int64_windowing(self, tmp_path, empty_catalog):
        # The int32 indices and the lookup of the kept windows alone give
        # the columns and the dropped count of the windowing on int64
        # indices over every row.
        movies_path, ratings_path = windowing_files(tmp_path)
        catalog = load_movies(movies_path)
        if empty_catalog:
            catalog = MovieCatalog(catalog.ids[:0], catalog.genres[:0])
        ratings = load_ratings(ratings_path)
        users, dropped = build_sequences(ratings, catalog)
        expected, expected_dropped = frozen_build_sequences(ratings, catalog)
        assert dropped == expected_dropped > 0
        assert (len(users) == 0) is empty_catalog
        for f in fields(Users):
            got, ref = getattr(users, f.name), getattr(expected, f.name)
            assert got.dtype == ref.dtype and np.array_equal(got, ref), f.name


def columns(n=1, **overrides):
    """Valid Users columns for n users, with some replaced."""
    cols = {
        "user_id": np.arange(1, n + 1),
        "movie_id": np.tile(100 + np.arange(5), (n, 1)),
        "rating": np.full((n, 5), 3.0),
        "timestamp": np.tile(1000 + np.arange(5), (n, 1)),
        "genres": np.tile(np.eye(19)[0], (n, 5, 1)),
    }
    cols.update(overrides)
    return cols


class TestSequenceInvariants:
    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            Users(**columns(movie_id=np.zeros((1, 0), dtype=np.int64)))
        with pytest.raises(ValueError):
            Users(**columns(genres=np.zeros((1, 4, 19))))

    def test_order_enforced(self):
        with pytest.raises(ValueError):
            Users(**columns(timestamp=np.array([[1000 - t for t in range(5)]])))
        # A timestamp tie is ordered by movie id.
        with pytest.raises(ValueError):
            Users(**columns(timestamp=np.zeros((1, 5), dtype=np.int64), movie_id=np.array([[5, 4, 3, 2, 1]])))
        Users(**columns(timestamp=np.zeros((1, 5), dtype=np.int64)))

    def test_order_check_holds_no_int64_temporary(self):
        # The columns are given in their stored dtypes, so Users copies
        # none of them; every traced byte is a check's temporary.  Two
        # int64 (n, 4) differences of the adjacent columns made the order
        # check the peak of a large table's validation.
        n = 20_000
        cols = columns(n, genres=np.tile(np.eye(19, dtype=np.uint8)[0], (n, 5, 1)))
        tracemalloc.start()
        try:
            Users(**cols)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * 4 * np.dtype(np.int64).itemsize

    def test_empty_genre_row_rejected(self):
        with pytest.raises(ValueError):
            Users(**columns(genres=np.zeros((1, 5, 19))))
        with pytest.raises(ValueError):
            Users(**columns(genres=np.full((1, 5, 19), 0.5)))

    @pytest.mark.parametrize(
        "bad, dtype",
        [(v, np.float64) for v in (0.5, 2, 256, -1, np.nan)]
        + [(v, np.int64) for v in (2, 256, -1)]
        + [(v, np.uint8) for v in (2, 255)],
    )
    def test_genres_checked_before_uint8_cast(self, bad, dtype):
        # Each row keeps a genre, so a check after the cast would pass 256
        # and 0.5 as 0 (and nan, cast, as 0 too).
        genres = np.tile(np.eye(19)[0], (1, 5, 1)).astype(dtype)
        genres[0, 2, 5] = bad
        with pytest.raises(ValueError, match="genre matrix must be multi-hot"):
            Users(**columns(genres=genres))

    def test_rating_bounds(self):
        for bad in (0.0, 5.5, np.nan):
            with pytest.raises(RatingOutOfRange):
                Users(**columns(rating=np.full((1, 5), bad)))

    def test_valid_sequence_builds(self):
        users = make_sequence([["Action"], ["Comedy"], ["Drama"], ["War"], ["Western"]])
        assert users.genres.shape == (1, 5, 19) and len(users) == 1
        assert not users.genres.flags.writeable

    def test_row_selection_keeps_order(self):
        users = Users(**columns(4))
        picked = users[np.array([3, 1])]
        assert picked.user_id.tolist() == [4, 2]
        assert picked.genres.shape == (2, 5, 19)
        assert not picked.rating.flags.writeable
        assert users[users.user_id > 2].user_id.tolist() == [3, 4]


class TestGenreColumn:
    """Genres are stored once, as read-only uint8 0/1 values."""

    def test_uint8_from_every_source(self, tmp_path, catalog):
        ratings = table([(1, m, 3.0, 100 + m) for m in range(1, 6)])
        built, _ = build_sequences(ratings, catalog)
        synthetic, _ = generate_synthetic(SyntheticSpec(3, np.full((19, 19), 1.0 / 19), seed=1))
        movies = load_movies(write(tmp_path, "movies.csv", "movieId,title,genres\n1,A,Drama|War\n"))
        for genres in (built.genres, synthetic.genres, Users(**columns(2)).genres, catalog.genres, movies.genres):
            assert genres.dtype == np.uint8
            assert not genres.flags.writeable
        assert np.flatnonzero(movies.genres[0]).tolist() == [genre_index("Drama"), genre_index("War")]
        assert built.genres.sum() == 5 and movies.genres.sum() == 2

    def test_row_bytes(self):
        # user_id, three (5,) columns of 8-byte values, 5 x 19 genre bytes.
        users = Users(**columns(3))
        assert users.genres.dtype == np.uint8
        row = sum(getattr(users, f.name).nbytes for f in fields(users)) / len(users)
        assert row == 8 + 3 * 40 + 95 == 223

    def test_genre_samples_are_views(self):
        users = Users(**columns(3))
        samples = genre_samples(users.genres)
        assert np.shares_memory(samples.inputs, users.genres)
        assert np.shares_memory(samples.targets, users.genres)
        assert samples.inputs.dtype == samples.targets.dtype == np.uint8


class TestGenerateSynthetic:
    def test_deterministic(self):
        spec = SyntheticSpec(n_users=20, planted_matrix=np.full((19, 19), 1.0 / 19), seed=3)
        a, _ = generate_synthetic(spec)
        b, _ = generate_synthetic(spec)
        for name in ("user_id", "movie_id", "rating", "timestamp", "genres"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_identity_chain_repeats_one_genre(self):
        spec = SyntheticSpec(n_users=30, planted_matrix=np.eye(19), genres_per_movie=(1, 1), seed=9)
        users, _ = generate_synthetic(spec)
        for window in users.genres:
            first = np.flatnonzero(window[0])
            for t in range(5):
                assert np.array_equal(np.flatnonzero(window[t]), first)

    def test_uniform_chain_estimate_close(self):
        planted = np.full((19, 19), 1.0 / 19)
        spec = SyntheticSpec(n_users=10_000, planted_matrix=planted, genres_per_movie=(1, 1), seed=12)
        users, _ = generate_synthetic(spec)
        estimate = normalize_transitions(count_transitions(users.genres))
        assert np.max(np.abs(estimate - planted)) < 0.02

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpec):
            generate_synthetic(SyntheticSpec(0, np.eye(19)))
        with pytest.raises(InvalidSpec):
            generate_synthetic(SyntheticSpec(5, np.ones((19, 19))))
        with pytest.raises(InvalidSpec):
            generate_synthetic(SyntheticSpec(5, np.eye(19), genres_per_movie=(0, 2)))
        with pytest.raises(InvalidSpec):
            generate_synthetic(SyntheticSpec(5, np.eye(19), genres_per_movie=(2, 20)))

    def test_ratings_on_half_grid(self):
        spec = SyntheticSpec(n_users=10, planted_matrix=np.full((19, 19), 1.0 / 19), seed=4)
        users, _ = generate_synthetic(spec)
        grid = set((np.arange(1, 11) * 0.5).tolist())
        assert set(users.rating.ravel().tolist()) <= grid
