import numpy as np
import pytest

from genreseq.errors import InvalidSpec, MalformedRow, RatingOutOfRange
from genreseq.genres import genre_index
from genreseq.ingest import (
    RatingEvent,
    SyntheticSpec,
    UserSequence,
    build_sequences,
    generate_synthetic,
    load_movies,
    load_ratings,
)
from genreseq.transitions import count_transitions, normalize_transitions

from .helpers import make_sequence


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
        assert set(np.flatnonzero(catalog[7])) == {genre_index("Action"), genre_index("War")}
        assert set(np.flatnonzero(catalog[11])) == {genre_index("Crime"), genre_index("Thriller")}
        assert len(catalog) == 2

    def test_no_genres_listed_skipped_and_tallied(self, tmp_path):
        path = write(
            tmp_path,
            "movies.csv",
            "movieId,title,genres\n8,Empty (2002),(no genres listed)\n9,Ok,Drama\n",
        )
        catalog = load_movies(path)
        assert 8 not in catalog
        assert 9 in catalog
        assert catalog.skipped_no_genre == 1

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


class TestLoadRatings:
    def test_keeps_file_order(self, tmp_path):
        path = write(
            tmp_path,
            "ratings.csv",
            "userId,movieId,rating,timestamp\n2,1,3.0,50\n1,5,4.0,200\n1,6,3.0,100\n",
        )
        assert [(e.user_id, e.timestamp) for e in load_ratings(path)] == [(2, 50), (1, 200), (1, 100)]

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


def event(user, movie, ts, rating=3.0):
    return RatingEvent(user, movie, rating, ts)


@pytest.fixture
def movie_map():
    movies = {}
    names = ["Action", "Comedy", "Drama", "Horror", "Romance", "War", "Western"]
    for i, name in enumerate(names, start=1):
        vec = np.zeros(19)
        vec[genre_index(name)] = 1.0
        movies[i] = vec
    return movies


class TestBuildSequences:
    # load_ratings keeps file order; build_sequences is the one place that
    # orders events, so these two feed it unsorted rows from a file.
    def test_sorted_by_time(self, tmp_path, movie_map):
        path = write(
            tmp_path,
            "ratings.csv",
            "userId,movieId,rating,timestamp\n"
            "2,1,3.0,50\n1,5,4.0,500\n1,1,3.0,100\n2,2,3.0,10\n1,3,3.0,300\n"
            "1,6,4.0,600\n1,2,3.0,200\n1,4,3.0,400\n",
        )
        (seq,), dropped = build_sequences(load_ratings(path), movie_map)
        assert dropped == 1
        assert [e.timestamp for e in seq.events] == [200, 300, 400, 500, 600]

    def test_tie_broken_by_movie_id(self, tmp_path, movie_map):
        path = write(
            tmp_path,
            "ratings.csv",
            "userId,movieId,rating,timestamp\n"
            "1,7,4.0,100\n1,3,3.0,100\n1,5,3.0,100\n1,1,3.0,200\n1,6,3.0,100\n1,2,3.0,100\n",
        )
        (seq,), _ = build_sequences(load_ratings(path), movie_map)
        assert [e.movie_id for e in seq.events] == [3, 5, 6, 7, 1]

    def test_five_most_recent_kept(self, movie_map):
        events = [event(1, (t % 7) + 1, ts=t) for t in range(1, 8)]
        sequences, dropped = build_sequences(events, movie_map)
        assert dropped == 0
        (seq,) = sequences
        assert [e.timestamp for e in seq.events] == [3, 4, 5, 6, 7]

    def test_below_threshold_dropped(self, movie_map):
        events = [event(1, 1, ts=t) for t in range(4)]
        sequences, dropped = build_sequences(events, movie_map)
        assert sequences == []
        assert dropped == 1

    def test_unknown_movie_removed_before_threshold(self, movie_map):
        # Six events, one referencing a movie outside the catalog: the
        # stated filter order removes it first, five remain, the user is
        # kept and the window is the five surviving events.
        events = [event(1, m, ts=t) for t, m in enumerate([1, 2, 999, 3, 4, 5], start=1)]
        sequences, dropped = build_sequences(events, movie_map)
        assert dropped == 0
        (seq,) = sequences
        assert [e.movie_id for e in seq.events] == [1, 2, 3, 4, 5]

    def test_exactly_five_valid_kept(self, movie_map):
        events = [event(2, m, ts=m) for m in range(1, 6)]
        sequences, dropped = build_sequences(events, movie_map)
        assert len(sequences) == 1 and dropped == 0

    def test_tally_conservation(self, movie_map):
        rng = np.random.default_rng(5)
        events = []
        for user in range(1, 40):
            n = int(rng.integers(1, 10))
            for t in range(n):
                movie = int(rng.integers(1, 9))  # movie 8 is unknown
                events.append(event(user, movie, ts=t, rating=2.5))
        sequences, dropped = build_sequences(events, movie_map)
        assert dropped + len(sequences) == 39

    def test_deterministic(self, movie_map):
        events = [event(1, (t % 7) + 1, ts=t) for t in range(10)]
        first = build_sequences(events, movie_map)
        second = build_sequences(events, movie_map)
        assert first[1] == second[1]
        for a, b in zip(first[0], second[0]):
            assert a.events == b.events
            assert np.array_equal(a.genres, b.genres)


class TestSequenceInvariants:
    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            UserSequence(1, tuple(), np.zeros((5, 19)))

    def test_order_enforced(self):
        events = tuple(RatingEvent(1, 100 + t, 3.0, 1000 - t) for t in range(5))
        genres = np.tile(np.eye(19)[0], (5, 1))
        with pytest.raises(ValueError):
            UserSequence(1, events, genres)

    def test_empty_genre_row_rejected(self):
        events = tuple(RatingEvent(1, 100 + t, 3.0, 1000 + t) for t in range(5))
        with pytest.raises(ValueError):
            UserSequence(1, events, np.zeros((5, 19)))

    def test_rating_bounds(self):
        with pytest.raises(RatingOutOfRange):
            RatingEvent(1, 1, 0.0, 0)
        with pytest.raises(RatingOutOfRange):
            RatingEvent(1, 1, 5.5, 0)

    def test_valid_sequence_builds(self):
        seq = make_sequence([["Action"], ["Comedy"], ["Drama"], ["War"], ["Western"]])
        assert seq.genres.shape == (5, 19)
        assert not seq.genres.flags.writeable


class TestGenerateSynthetic:
    def test_deterministic(self):
        spec = SyntheticSpec(n_users=20, planted_matrix=np.full((19, 19), 1.0 / 19), seed=3)
        a, _ = generate_synthetic(spec)
        b, _ = generate_synthetic(spec)
        for x, y in zip(a, b):
            assert x.events == y.events
            assert np.array_equal(x.genres, y.genres)

    def test_identity_chain_repeats_one_genre(self):
        spec = SyntheticSpec(n_users=30, planted_matrix=np.eye(19), genres_per_movie=(1, 1), seed=9)
        sequences, _ = generate_synthetic(spec)
        for seq in sequences:
            first = np.flatnonzero(seq.genres[0])
            for t in range(5):
                assert np.array_equal(np.flatnonzero(seq.genres[t]), first)

    def test_uniform_chain_estimate_close(self):
        planted = np.full((19, 19), 1.0 / 19)
        spec = SyntheticSpec(n_users=10_000, planted_matrix=planted, genres_per_movie=(1, 1), seed=12)
        sequences, _ = generate_synthetic(spec)
        estimate = normalize_transitions(count_transitions(sequences))
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
        sequences, _ = generate_synthetic(spec)
        grid = set((np.arange(1, 11) * 0.5).tolist())
        for seq in sequences:
            assert set(seq.ratings.tolist()) <= grid
