import numpy as np
import pytest

from genreseq.errors import EmptyGenreList, UnknownGenre
from genreseq.genres import (
    GENRES,
    N_GENRES,
    encode_genres,
    genre_index,
    is_row_stochastic,
    support_names,
)


class TestGenreIndex:
    def test_first_and_last(self):
        assert genre_index("Action") == 0
        assert genre_index("Western") == 18

    def test_unknown_genre(self):
        with pytest.raises(UnknownGenre):
            genre_index("Cooking")

    def test_no_genres_token_is_not_a_genre(self):
        with pytest.raises(UnknownGenre):
            genre_index("(no genres listed)")

    def test_bijection(self):
        assert len(GENRES) == N_GENRES == 19
        assert len(set(GENRES)) == 19
        indices = [genre_index(name) for name in GENRES]
        assert indices == list(range(19))


class TestEncodeGenres:
    def test_named_positions(self):
        vec = encode_genres(["Romance", "Action", "Comedy"])
        assert set(np.flatnonzero(vec)) == {14, 0, 4}
        assert vec.sum() == 3

    def test_full_alphabet(self):
        assert np.array_equal(encode_genres(list(GENRES)), np.ones(19))

    def test_empty_list(self):
        with pytest.raises(EmptyGenreList):
            encode_genres([])

    def test_duplicates_collapse(self):
        vec = encode_genres(["Drama", "Drama", "Drama"])
        assert vec.sum() == 1
        assert vec[genre_index("Drama")] == 1

    def test_unknown_name(self):
        with pytest.raises(UnknownGenre):
            encode_genres(["Action", "Cooking"])

    def test_encode_then_support_is_identity(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            size = int(rng.integers(1, 20))
            names = set(rng.choice(GENRES, size=size, replace=False))
            assert set(support_names(encode_genres(sorted(names)))) == names


class TestValueKinds:
    def test_matrix_kinds(self):
        assert is_row_stochastic(np.full((19, 19), 1.0 / 19))
        assert not is_row_stochastic(np.eye(19) * 0.5)
