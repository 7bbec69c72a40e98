import numpy as np
import pytest

from genreseq.errors import GenreSeqError, LengthMismatch, NonFinitePrediction
from genreseq.evaluation import (
    ClusterMetrics,
    ConfusionCounts,
    MovieGenreMatrix,
    apply_trim_to_dataset,
    cluster_metrics,
    confusion_counts,
    mean_cluster_metrics,
    metrics,
    select_trim_clusters,
    trim_genres,
)
from genreseq.genres import genre_index
from genreseq.transitions import Dataset, genre_samples

from .helpers import confusion_oracle, make_sequence, metrics_oracle, random_users, stack_users


class TestConfusionCounts:
    def test_basic_cells(self):
        c = confusion_counts([[0.9, 0.1]], [[1.0, 0.0]])
        assert (c.tp, c.fp, c.fn, c.tn) == (1, 0, 0, 1)

    def test_tie_is_negative(self):
        c = confusion_counts([[0.5, 0.5]], [[1.0, 0.0]], threshold=0.5)
        assert (c.tp, c.fp, c.fn, c.tn) == (0, 0, 1, 1)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            confusion_counts(np.zeros((3, 19)), np.zeros((4, 19)))
        with pytest.raises(LengthMismatch):
            confusion_counts(np.zeros((3, 19)), np.zeros((3, 18)))

    def test_non_finite_predictions_raise(self):
        # An all-NaN prediction set against all-positive targets used to
        # count as 38 plain "no" answers: ConfusionCounts(tp=0, fp=0, fn=38, tn=0).
        targets = np.ones((2, 19), dtype=np.uint8)
        with pytest.raises(NonFinitePrediction, match="38 of 38 predictions") as caught:
            confusion_counts(np.full((2, 19), np.nan), targets)
        assert caught.value.count == 38
        assert isinstance(caught.value, GenreSeqError)
        preds = np.full((2, 19), 0.9)
        preds[0, 3], preds[1, 0], preds[1, 5] = np.inf, -np.inf, np.nan
        with pytest.raises(NonFinitePrediction, match="3 of 38") as caught:
            confusion_counts(preds, targets)
        assert caught.value.count == 3

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(61)
        preds = rng.uniform(0, 1, size=(50, 19))
        targets = (rng.uniform(size=(50, 19)) < 0.25).astype(float)
        c = confusion_counts(preds, targets)
        assert (c.tp, c.fp, c.fn, c.tn) == confusion_oracle(preds, targets)
        assert c.total == 50 * 19

    def test_uint8_targets_match_float64(self):
        rng = np.random.default_rng(39)
        targets = (rng.uniform(size=(50, 19)) < 0.3).astype(np.uint8)
        preds = rng.uniform(size=(50, 19))
        assert confusion_counts(preds, targets) == confusion_counts(preds, targets.astype(np.float64))


class TestMetrics:
    def test_worked_numbers(self):
        m = metrics(ConfusionCounts(3, 1, 1, 5))
        assert m.precision == pytest.approx(0.75)
        assert m.recall == pytest.approx(0.75)
        assert m.accuracy == pytest.approx(0.8)
        assert m.f1 == pytest.approx(0.75)

    def test_degenerate_counts(self):
        m = metrics(ConfusionCounts(0, 0, 0, 10))
        assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)
        assert m.accuracy == 1.0

    def test_all_zero_counts(self):
        m = metrics(ConfusionCounts(0, 0, 0, 0))
        assert (m.recall, m.precision, m.accuracy, m.f1) == (0.0, 0.0, 0.0, 0.0)

    def test_f1_harmonic_fixed_point(self):
        m = metrics(ConfusionCounts(1, 1, 1, 0))
        assert m.precision == 0.5 and m.recall == 0.5
        assert m.f1 == pytest.approx(0.5)

    def test_accuracy_identity_on_randoms(self):
        rng = np.random.default_rng(62)
        for _ in range(200):
            tp, fp, fn, tn = (int(v) for v in rng.integers(0, 50, size=4))
            m = metrics(ConfusionCounts(tp, fp, fn, tn))
            total = tp + fp + fn + tn
            if total:
                assert m.accuracy == (tp + tn) / total

    def test_matches_scalar_oracle_exactly(self):
        rng = np.random.default_rng(63)
        for _ in range(100):
            preds = rng.uniform(0, 1, size=(rng.integers(1, 100), 19))
            targets = (rng.uniform(size=preds.shape) < 0.3).astype(float)
            c = confusion_counts(preds, targets)
            m = metrics(c)
            expected = metrics_oracle(c.tp, c.fp, c.fn, c.tn)
            assert (m.recall, m.precision, m.accuracy, m.f1) == expected


class TestClusterMetrics:
    def test_p_min_over_default_set(self):
        cm = cluster_metrics(3, ConfusionCounts(3, 1, 9, 50))
        assert cm.recall == pytest.approx(0.25)
        assert cm.precision == pytest.approx(0.75)
        assert cm.p_min == pytest.approx(0.25)
        assert cm.n_samples == (3 + 1 + 9 + 50) // 19


def cm(cluster, p_min):
    return ClusterMetrics(cluster, 0.5, 0.5, 0.5, 0.5, p_min)


class TestSelectTrimClusters:
    def test_threshold_example(self):
        values = [cm(2, 0.6), cm(7, 0.55), cm(3, 0.45)]
        assert select_trim_clusters(values, eta=0.5) == {3}

    def test_none_selected(self):
        assert select_trim_clusters([cm(0, 0.6), cm(1, 0.9)], eta=0.5) == set()

    def test_all_selected_near_one(self):
        values = [cm(i, 0.8) for i in range(4)]
        assert select_trim_clusters(values, eta=1.0 - 1e-9) == {0, 1, 2, 3}

    def test_monotone_in_eta(self):
        rng = np.random.default_rng(64)
        values = [cm(i, float(p)) for i, p in enumerate(rng.uniform(0, 1, size=30))]
        etas = sorted(rng.uniform(0.01, 0.99, size=10))
        previous = set()
        for eta in etas:
            selected = select_trim_clusters(values, eta)
            assert previous <= selected
            previous = selected

    def test_eta_bounds(self):
        with pytest.raises(ValueError):
            select_trim_clusters([cm(0, 0.5)], eta=0.0)
        with pytest.raises(ValueError):
            select_trim_clusters([cm(0, 0.5)], eta=1.0)


class TestMovieGenreMatrix:
    def test_counts_and_length(self):
        seqs = stack_users([
            make_sequence([["Action"], ["Action", "Comedy"], ["Drama"], ["Drama"], ["Action"]]),
            make_sequence([["Comedy"]] * 5, user_id=2),
        ])
        m = MovieGenreMatrix.from_sequences(0, seqs)
        assert m.length == 10
        A, C, Dr = genre_index("Action"), genre_index("Comedy"), genre_index("Drama")
        assert m.counts[0, A] == 3
        assert m.counts[0, C] == 1
        assert m.counts[0, Dr] == 2
        assert m.counts[1, C] == 5

    def test_rows_sum_at_least_five(self):
        rng = np.random.default_rng(65)
        m = MovieGenreMatrix.from_sequences(0, random_users(rng, 10))
        assert np.all(m.counts.sum(axis=1) >= 5)


class TestTrimGenres:
    def hundred_event_matrix(self):
        # 20 users x 5 movies = 100 events; Documentary and War kept rare.
        rng = np.random.default_rng(66)
        counts = np.zeros((20, 19), dtype=np.int64)
        doc, war = genre_index("Documentary"), genre_index("War")
        popular = [genre_index(g) for g in ("Action", "Comedy", "Drama", "Thriller")]
        for u in range(20):
            for j in popular:
                counts[u, j] = 3
        counts[0, doc] = 4  # total 4 < 10
        counts[1, war] = 9  # total 9 < 10
        return MovieGenreMatrix(0, counts, 100)

    def test_rare_columns_zeroed(self):
        m = self.hundred_event_matrix()
        trimmed, zeroed = trim_genres(m, theta=0.1)
        doc, war = genre_index("Documentary"), genre_index("War")
        totals = m.counts.sum(axis=0)
        expected = {int(j) for j in np.flatnonzero(totals < 10)}
        assert doc in zeroed and war in zeroed
        assert zeroed == expected
        assert trimmed.counts[:, doc].sum() == 0
        assert trimmed.counts[:, war].sum() == 0

    def test_popular_columns_untouched(self):
        m = self.hundred_event_matrix()
        trimmed, zeroed = trim_genres(m, theta=0.1)
        for j in range(19):
            if j not in zeroed:
                assert np.array_equal(trimmed.counts[:, j], m.counts[:, j])

    def test_no_op_when_all_frequent(self):
        counts = np.full((4, 19), 2, dtype=np.int64)  # totals 8 of length 20
        m = MovieGenreMatrix(0, counts, 20)
        trimmed, zeroed = trim_genres(m, theta=0.1)
        assert zeroed == frozenset()
        assert np.array_equal(trimmed.counts, counts)

    def test_idempotent(self):
        m = self.hundred_event_matrix()
        once, zeroed_once = trim_genres(m, theta=0.1)
        twice, zeroed_twice = trim_genres(once, theta=0.1)
        assert np.array_equal(once.counts, twice.counts)
        assert zeroed_once == zeroed_twice

    def test_never_touches_frequent_columns_random(self):
        rng = np.random.default_rng(67)
        for _ in range(25):
            counts = rng.integers(0, 4, size=(12, 19)).astype(np.int64)
            m = MovieGenreMatrix(0, counts, 60)
            theta = float(rng.uniform(0.05, 0.5))
            trimmed, zeroed = trim_genres(m, theta)
            totals = counts.sum(axis=0)
            for j in range(19):
                if totals[j] >= theta * 60:
                    assert j not in zeroed
                    assert np.array_equal(trimmed.counts[:, j], counts[:, j])

    def test_theta_bounds(self):
        m = self.hundred_event_matrix()
        with pytest.raises(ValueError):
            trim_genres(m, 0.0)
        with pytest.raises(ValueError):
            trim_genres(m, 1.0)


class TestApplyTrim:
    def sample(self, steps, target):
        return Dataset(np.array([steps], dtype=float), np.array([target], dtype=float))

    def vec(self, *indices):
        out = np.zeros(19)
        out[list(indices)] = 1.0
        return out

    def test_empty_zero_set_is_identity(self):
        s = self.sample([self.vec(0), self.vec(1), self.vec(2), self.vec(3)], self.vec(4))
        kept, dropped = apply_trim_to_dataset(s, frozenset())
        assert dropped == 0
        assert np.array_equal(kept.inputs, s.inputs)
        assert np.array_equal(kept.targets, s.targets)

    def test_target_masking(self):
        s = self.sample(
            [self.vec(0, 2), self.vec(0, 2), self.vec(0, 2), self.vec(0, 2)], self.vec(0, 2)
        )
        kept, dropped = apply_trim_to_dataset(s, {0})
        assert dropped == 0
        assert np.array_equal(kept.targets[0], self.vec(2))
        for t in range(4):
            assert np.array_equal(kept.inputs[0, t], self.vec(2))

    def test_fully_zeroed_movie_drops_sample(self):
        # The second input movie carries only genre 5: masking genre 5
        # empties it, its transition vector is undefined, sample dropped.
        s = self.sample(
            [self.vec(0, 5), self.vec(5), self.vec(0), self.vec(0)], self.vec(0)
        )
        kept, dropped = apply_trim_to_dataset(s, {5})
        assert len(kept) == 0
        assert dropped == 1

    def test_fully_zeroed_target_drops_sample(self):
        s = self.sample(
            [self.vec(0), self.vec(0), self.vec(0), self.vec(0)], self.vec(5)
        )
        kept, dropped = apply_trim_to_dataset(s, {5})
        assert len(kept) == 0
        assert dropped == 1

    def test_dimensions_kept_not_removed(self):
        s = self.sample(
            [self.vec(0, 1), self.vec(0, 1), self.vec(0, 1), self.vec(0, 1)], self.vec(0, 1)
        )
        kept, _ = apply_trim_to_dataset(s, {1})
        assert kept.inputs.shape == (1, 4, 19)
        assert kept.targets.shape == (1, 19)

    def test_interleaved_rows_match_per_row_reference(self):
        # Kept and dropped rows alternate; the kept ones must come out in
        # input order, each masked exactly as a one-row call masks it.
        rng = np.random.default_rng(36)
        zeroed = {0, 3, 7, 11}
        rows = [(window[:4], window[4]) for window in random_users(rng, 60, max_genres=2).genres]
        samples = Dataset(np.array([r[0] for r in rows]), np.array([r[1] for r in rows]))
        kept, dropped = apply_trim_to_dataset(samples, zeroed)

        mask = np.ones(19)
        mask[list(zeroed)] = 0.0
        expected, kept_flags = [], []
        for steps, target in rows:
            steps, target = steps * mask, target * mask
            kept_flags.append(bool(np.all(steps.sum(axis=1) > 0) and target.sum() > 0))
            if kept_flags[-1]:
                expected.append((steps, target))
        assert np.count_nonzero(np.diff(kept_flags)) >= 4  # kept and dropped interleave
        assert dropped == len(rows) - len(expected)
        assert np.array_equal(kept.inputs, np.array([e[0] for e in expected]))
        assert np.array_equal(kept.targets, np.array([e[1] for e in expected]))

    def test_uint8_matches_float64(self):
        # The trim keeps its input dtype, and uint8 rows come out with the
        # values of the same rows in float64.
        samples = genre_samples(random_users(np.random.default_rng(37), 80, max_genres=3))
        table = Dataset(samples.inputs.astype(np.float64), samples.targets.astype(np.float64))
        zeroed = {0, 3, 7, 11}
        kept, dropped = apply_trim_to_dataset(samples, zeroed)
        expected, expected_dropped = apply_trim_to_dataset(table, zeroed)
        assert 0 < dropped == expected_dropped < len(samples)
        assert kept.inputs.dtype == kept.targets.dtype == np.uint8
        assert expected.inputs.dtype == expected.targets.dtype == np.float64
        assert np.array_equal(kept.inputs, expected.inputs)
        assert np.array_equal(kept.targets, expected.targets)


class TestMeanClusterMetrics:
    def build(self, f1s, sizes):
        return [
            ClusterMetrics(i, f, f, f, f, f, n_samples=n)
            for i, (f, n) in enumerate(zip(f1s, sizes))
        ]

    def test_unweighted(self):
        values = self.build([0.2, 0.4, 0.9], [10, 10, 1000])
        m = mean_cluster_metrics(values)
        assert m.f1 == pytest.approx(0.5)

    def test_weighted(self):
        values = self.build([0.0, 1.0], [1, 3])
        m = mean_cluster_metrics(values, weighted=True)
        assert m.f1 == pytest.approx(0.75)

    def test_empty(self):
        m = mean_cluster_metrics([])
        assert m.f1 == 0.0
