import numpy as np
import pytest

from genreseq.clustering import kmeans, rating_profile
from genreseq.errors import TooFewUsers
from genreseq.experiment import _PROFILE_ROWS, _profiles
from genreseq.genres import genre_index

from .helpers import frozen_kmeans, make_sequence, random_genres, random_users, users_from


class TestRatingProfile:
    def test_two_movie_example(self):
        seq = make_sequence(
            [["Action", "Comedy"], ["Comedy"], ["Drama"], ["Drama"], ["Drama"]],
            ratings=[4.0, 2.0, 1.0, 1.0, 1.0],
        )
        profile = rating_profile(seq.genres[0], seq.rating[0])
        assert profile[genre_index("Action")] == pytest.approx(4.0)
        assert profile[genre_index("Comedy")] == pytest.approx(3.0)
        assert profile[genre_index("Drama")] == pytest.approx(1.0)
        assert profile[genre_index("War")] == 0.0

    def test_constant_case(self):
        seq = make_sequence([["Horror", "Mystery"]] * 5, ratings=[5.0] * 5)
        profile = rating_profile(seq.genres[0], seq.rating[0])
        assert profile[genre_index("Horror")] == 5.0
        assert profile[genre_index("Mystery")] == 5.0
        assert profile.sum() == 10.0

    def test_matches_bruteforce_mean(self):
        users = random_users(np.random.default_rng(17), 20)
        for genres, user_ratings in zip(users.genres, users.rating):
            profile = rating_profile(genres, user_ratings)
            for j in range(19):
                ratings = [user_ratings[t] for t in range(5) if genres[t, j] == 1.0]
                expected = sum(ratings) / len(ratings) if ratings else 0.0
                assert profile[j] == pytest.approx(expected)

    def test_uint8_matches_float64(self):
        users = random_users(np.random.default_rng(18), 40, max_genres=6)
        assert users.genres.dtype == np.uint8
        for genres, user_ratings in zip(users.genres, users.rating):
            got = rating_profile(genres, user_ratings)
            expected = rating_profile(genres.astype(np.float64), user_ratings)
            assert got.dtype == np.float64
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_run_profiles_match_per_user_calls(self):
        # Two cast blocks, the second short: one row per user, each the bits
        # of that user's call on float64 genres.
        rng = np.random.default_rng(19)
        n = _PROFILE_ROWS + 5
        users = users_from(random_genres(rng, n), rng.choice(np.arange(1, 11) * 0.5, size=(n, 5)))
        points = _profiles(users)
        expected = np.array([rating_profile(g.astype(np.float64), r) for g, r in zip(users.genres, users.rating)])
        assert points.shape == (n, 19)
        assert np.array_equal(points.view(np.uint64), expected.view(np.uint64))


def profiles_from(points):
    return np.asarray(points, dtype=float)


def pad(*values):
    vec = np.zeros(19)
    vec[: len(values)] = values
    return vec


class TestKMeans:
    def test_well_separated_pairs(self):
        points = [pad(0.0), pad(0.1), pad(5.0, 5.0), pad(5.1, 5.0)]
        model = kmeans(profiles_from(points), k=2, seed=0)
        groups = model.labels.tolist()
        assert groups[0] == groups[1]
        assert groups[2] == groups[3]
        assert groups[0] != groups[2]

    def test_k1_centroid_is_mean(self):
        rng = np.random.default_rng(2)
        points = rng.uniform(0, 5, size=(12, 19))
        model = kmeans(profiles_from(points), k=1, seed=0)
        assert np.max(np.abs(model.centroids[0] - points.mean(axis=0))) < 1e-9

    def test_k_equals_points_zero_inertia(self):
        rng = np.random.default_rng(3)
        points = rng.uniform(0, 5, size=(6, 19))
        model = kmeans(profiles_from(points), k=6, seed=1)
        assert model.inertia == pytest.approx(0.0, abs=1e-12)

    def test_too_few_users(self):
        with pytest.raises(TooFewUsers):
            kmeans(profiles_from([pad(1.0)]), k=2)

    def test_k_below_one(self):
        with pytest.raises(ValueError):
            kmeans(profiles_from([pad(1.0)]), k=0)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(4)
        points = rng.uniform(0, 5, size=(40, 19))
        a = kmeans(profiles_from(points), k=5, seed=9)
        b = kmeans(profiles_from(points), k=5, seed=9)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.centroids, b.centroids)
        assert a.inertia_history == b.inertia_history

    def test_inertia_history_non_increasing(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            points = rng.uniform(0, 5, size=(rng.integers(10, 60), 19))
            model = kmeans(profiles_from(points), k=int(rng.integers(2, 6)), seed=trial)
            history = np.array(model.inertia_history)
            assert np.all(np.diff(history) <= 1e-9)

    def test_every_cluster_non_empty(self):
        rng = np.random.default_rng(6)
        points = rng.uniform(0, 5, size=(50, 19))
        model = kmeans(profiles_from(points), k=7, seed=2)
        assert set(model.labels.tolist()) == set(range(7))

    def test_assignment_matches_nearest_scan(self):
        rng = np.random.default_rng(7)
        points = rng.uniform(0, 5, size=(30, 19))
        profs = profiles_from(points)
        model = kmeans(profs, k=4, seed=3)
        for prof, label in zip(profs, model.labels):
            dists = [np.sum((prof - c) ** 2) for c in model.centroids]
            assert label == int(np.argmin(dists))

    @pytest.mark.parametrize("n, k", [(10500, 7), (3000, 13), (257, 3)])
    def test_blocked_distances_match_whole_array_kmeans(self, n, k):
        # Rating profiles of random users (many exact zeros and ties), over
        # one or several distance blocks: labels, centroids and the inertia
        # history equal those of the whole-array k-means.
        rng = np.random.default_rng(n)
        users = users_from(random_genres(rng, n), rng.choice(np.arange(1, 11) * 0.5, size=(n, 5)))
        points = _profiles(users)
        model = kmeans(points, k=k, seed=k)
        labels, centroids, history = frozen_kmeans(points, k, seed=k)
        assert np.array_equal(model.labels, labels)
        assert np.array_equal(model.centroids, centroids)
        assert model.inertia_history == history
        assert len(history) > 2
