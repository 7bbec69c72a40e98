import tracemalloc

import numpy as np
import pytest

from genreseq.errors import EmptyGenreSupport
from genreseq.evaluation import apply_trim_to_dataset
from genreseq.genres import GENRES, N_GENRES, genre_index
from genreseq.ingest import SyntheticSpec, generate_synthetic
from genreseq.transitions import (
    _COUNT_ROWS,
    _FEATURIZE_ROWS,
    Dataset,
    FeatureMode,
    TransitionModel,
    atv,
    combine,
    count_transitions,
    featurize,
    feature_dim,
    genre_samples,
    normalize_transitions,
    write_probability_csv,
)

from .helpers import (
    make_sequence,
    random_genres,
    random_users,
    stack_users,
    transition_counts_oracle,
    users_from,
)

A = genre_index("Action")
C = genre_index("Comedy")
R = genre_index("Romance")


class TestCountTransitions:
    def test_hand_counted_sequence(self):
        # Pairs: ({Action,Comedy} -> {Comedy}) then {Comedy} -> {Comedy} x3.
        seq = make_sequence([["Action", "Comedy"], ["Comedy"], ["Comedy"], ["Comedy"], ["Comedy"]])
        counts = count_transitions(seq.genres)
        assert counts[A, C] == 1
        assert counts[C, C] == 4
        assert counts.sum() == 5

    def test_multi_genre_source_counts_each_genre(self):
        # A three-genre movie contributes one count from each of its
        # genres to every genre of the next movie.
        seq = make_sequence(
            [["Romance", "Action", "Comedy"], ["Drama"], ["Drama"], ["Drama"], ["Drama"]]
        )
        counts = count_transitions(seq.genres)
        D = genre_index("Drama")
        assert counts[R, D] == 1
        assert counts[A, D] == 1
        assert counts[C, D] == 1
        assert counts[D, D] == 3
        assert counts.sum() == 6

    def test_empty_input(self):
        empty = users_from(np.zeros((0, 5, 19)))
        assert np.array_equal(count_transitions(empty.genres), np.zeros((19, 19), dtype=np.int64))

    def test_matches_bruteforce_enumeration(self):
        rng = np.random.default_rng(21)
        users = random_users(rng, 100)
        assert np.array_equal(count_transitions(users.genres), transition_counts_oracle(users))

    def test_row_blocks_match_float64_table(self):
        # Three float32 row blocks, the last one short, against the whole
        # float64 table's per-step GEMMs and an integer sum.
        genres = random_genres(np.random.default_rng(22), 2 * _COUNT_ROWS + 37)
        users = users_from(genres)
        assert users.genres.dtype == np.uint8
        table = genres.astype(np.float64)
        expected = sum(table[:, t - 1].T @ table[:, t] for t in range(1, 5)).astype(np.int64)
        exact = np.einsum("nti,ntj->ij", genres[:, :-1].astype(np.int64), genres[:, 1:].astype(np.int64))
        counts = count_transitions(users.genres)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, expected) and np.array_equal(counts, exact)


class TestNormalizeTransitions:
    def test_simple_row(self):
        counts = np.zeros((19, 19))
        counts[0, 0] = 2
        counts[0, 1] = 2
        probs = normalize_transitions(counts)
        assert probs[0, 0] == pytest.approx(0.5)
        assert probs[0, 1] == pytest.approx(0.5)
        assert probs[0, 2:].sum() == 0.0

    def test_zero_row_becomes_uniform(self):
        probs = normalize_transitions(np.zeros((19, 19)))
        assert np.allclose(probs, 1.0 / 19)

    def test_rows_sum_to_one_over_random_matrices(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            counts = rng.integers(0, 30, size=(19, 19)).astype(float)
            counts[rng.integers(0, 19)] = 0.0
            probs = normalize_transitions(counts)
            assert np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-9)
            assert np.all(probs >= 0.0)


class TestAtv:
    def test_singleton_support_is_exact_row(self):
        rng = np.random.default_rng(23)
        probs = normalize_transitions(rng.integers(1, 20, size=(19, 19)).astype(float))
        for i in range(19):
            one_hot = np.zeros(19)
            one_hot[i] = 1.0
            assert np.array_equal(atv(one_hot, probs), probs[i])

    def test_uniform_matrix_gives_uniform_output(self):
        probs = np.full((19, 19), 1.0 / 19)
        vec = np.zeros(19)
        vec[[2, 5, 11]] = 1.0
        assert np.allclose(atv(vec, probs), 1.0 / 19)

    def test_two_row_average(self):
        rng = np.random.default_rng(24)
        probs = normalize_transitions(rng.integers(1, 20, size=(19, 19)).astype(float))
        vec = np.zeros(19)
        vec[[3, 8]] = 1.0
        expected = (probs[3] + probs[8]) / 2.0
        assert np.allclose(atv(vec, probs), expected)

    def test_empty_support(self):
        with pytest.raises(EmptyGenreSupport):
            atv(np.zeros(19), np.full((19, 19), 1.0 / 19))

    def test_output_sums_to_one(self):
        rng = np.random.default_rng(25)
        probs = normalize_transitions(rng.integers(0, 9, size=(19, 19)).astype(float))
        for _ in range(25):
            vec = np.zeros(19)
            vec[rng.choice(19, size=rng.integers(1, 6), replace=False)] = 1.0
            assert atv(vec, probs).sum() == pytest.approx(1.0, abs=1e-9)

    def test_convex_combination_bounds(self):
        rng = np.random.default_rng(26)
        probs = normalize_transitions(rng.integers(0, 9, size=(19, 19)).astype(float))
        lo = probs.min(axis=0)
        hi = probs.max(axis=0)
        for _ in range(25):
            vec = np.zeros(19)
            vec[rng.choice(19, size=rng.integers(1, 19), replace=False)] = 1.0
            out = atv(vec, probs)
            assert np.all(out >= lo - 1e-12)
            assert np.all(out <= hi + 1e-12)


class TestCombine:
    g = np.array([1.0, 0.0, 1.0])
    a = np.array([0.2, 0.5, 0.3])

    def test_sum(self):
        assert np.allclose(combine(self.g, self.a, FeatureMode.SUM), [1.2, 0.5, 1.3])

    def test_product(self):
        assert np.allclose(combine(self.g, self.a, FeatureMode.PRODUCT), [0.2, 0.0, 0.3])

    def test_concat(self):
        assert np.allclose(
            combine(self.g, self.a, FeatureMode.CONCAT), [1, 0, 1, 0.2, 0.5, 0.3]
        )

    def test_genre_only(self):
        assert np.allclose(combine(self.g, self.a, FeatureMode.GENRE_ONLY), self.g)

    def test_feature_dims(self):
        assert feature_dim(FeatureMode.CONCAT) == 38
        for mode in (FeatureMode.SUM, FeatureMode.PRODUCT, FeatureMode.GENRE_ONLY):
            assert feature_dim(mode) == 19


class TestBuildDataset:
    def sequences(self, n=6, seed=27):
        return random_users(np.random.default_rng(seed), n)

    def test_genre_only_inputs_are_genre_vectors(self):
        seqs = self.sequences()
        probs = np.full((19, 19), 1.0 / 19)
        ds = featurize(genre_samples(seqs.genres), probs, FeatureMode.GENRE_ONLY)
        for i, window in enumerate(seqs.genres):
            assert np.array_equal(ds.inputs[i], window[:4])
            assert np.array_equal(ds.targets[i], window[4])

    def test_sample_count_matches_sequences(self):
        seqs = self.sequences(9)
        probs = np.full((19, 19), 1.0 / 19)
        for mode in FeatureMode:
            ds = featurize(genre_samples(seqs.genres), probs, mode)
            assert len(ds) == 9
            assert ds.inputs.shape == (9, 4, feature_dim(mode))

    def test_fixed_point_identical_movies(self):
        seq = make_sequence([["War"]] * 5)
        probs = np.eye(19)
        for mode in FeatureMode:
            ds = featurize(genre_samples(seq.genres), probs, mode)
            for t in range(1, 4):
                assert np.array_equal(ds.inputs[0, t], ds.inputs[0, 0])

    # Set from float64 rounding before the test first ran.  An ATV entry
    # is a mean of k <= 19 probabilities in [0, 1]: the GEMM and atv's mean
    # each sum the k non-negative terms within 18u of the exact sum, u =
    # 2**-53, and divide by k with one more rounding, so the two ATVs differ
    # by at most 2 * 19u.  Sum adds a 0/1 genre, one more rounding of a
    # value <= 2 on each side: 4u more.
    ATV_BOUND = (2 * N_GENRES + 4) * 2.0**-53

    def test_featurize_matches_manual_combination(self):
        # The vectorized featurize reproduces atv + combine within ATV_BOUND
        # (its GEMM sums in another order) before its float32 rounding, and
        # the genre columns exactly, on raw samples and on samples with
        # trimmed genre columns.
        rng = np.random.default_rng(29)
        probs = normalize_transitions(rng.integers(0, 9, size=(19, 19)).astype(float))
        seqs = stack_users([self.sequences(40, seed=28), random_users(rng, 160, max_genres=8, first_id=100)])
        samples = genre_samples(seqs.genres)
        trimmed, dropped = apply_trim_to_dataset(samples, range(0, 19, 3))
        assert trimmed and dropped
        for batch in (samples, trimmed):
            for mode in FeatureMode:
                ds = featurize(batch, probs, mode)
                assert ds.inputs.shape == (len(batch), 4, feature_dim(mode))
                for i, (steps, target) in enumerate(zip(batch.inputs, batch.targets)):
                    assert np.array_equal(ds.targets[i], target)
                    for t in range(4):
                        expected = combine(steps[t], atv(steps[t], probs), mode)
                        got = ds.inputs[i, t]
                        if mode is FeatureMode.CONCAT:
                            assert np.array_equal(got[:N_GENRES], expected[:N_GENRES])
                            got, expected = got[N_GENRES:], expected[N_GENRES:]
                        if mode is FeatureMode.GENRE_ONLY:
                            assert np.array_equal(got, expected)
                        else:
                            # Then rounded to the nearest float32: half its spacing more.
                            bound = self.ATV_BOUND + np.spacing(np.abs(expected).astype(np.float32)) / 2
                            assert np.all(np.abs(got - expected) <= bound)

    def test_featurize_uint8_matches_float64(self):
        # genre_samples gives strided uint8 views; the same values as a
        # float64 table give the same bits in every mode.
        rng = np.random.default_rng(30)
        probs = normalize_transitions(rng.integers(0, 9, size=(19, 19)).astype(float))
        samples = genre_samples(random_users(rng, 120, max_genres=6).genres)
        assert samples.inputs.dtype == np.uint8
        table = Dataset(samples.inputs.astype(np.float64), samples.targets.astype(np.float64))
        for mode in FeatureMode:
            got, expected = featurize(samples, probs, mode), featurize(table, probs, mode)
            assert np.array_equal(got.inputs, expected.inputs)
            if mode is not FeatureMode.GENRE_ONLY:
                assert got.inputs.dtype == np.float32
                assert np.array_equal(got.inputs.view(np.uint32), expected.inputs.view(np.uint32))
            assert np.array_equal(got.targets, expected.targets)

    @pytest.mark.parametrize("mode", list(FeatureMode))
    def test_featurize_memory_is_output_plus_one_cast_block(self, mode):
        # 8,400 samples, an acceptance-sized training set, as strided uint8
        # views.  Beyond its output, featurize holds one cast block at a
        # time: the float64 support of at most 1,024 samples' 4 steps and
        # its row sums, plus numpy's buffers for one strided ufunc (three
        # operands of getbufsize() float64 each) and 4 KiB of small objects.
        # A whole-set cast or a whole-set support mask exceeds it.
        assert _FEATURIZE_ROWS <= 1024
        table = random_genres(np.random.default_rng(31), 8400)
        samples = Dataset(table[:, :4], table[:, 4])
        probs = normalize_transitions(np.random.default_rng(32).integers(0, 9, size=(19, 19)).astype(float))
        block = 4 * 1024 * (N_GENRES + 1) * 8 + 3 * np.getbufsize() * 8 + 4096
        tracemalloc.start()
        try:
            ds = featurize(samples, probs, mode)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        output = 0 if ds is samples else ds.inputs.nbytes
        assert peak <= output + block

    def test_featurize_no_samples(self):
        probs = np.full((19, 19), 1.0 / 19)
        for mode in FeatureMode:
            ds = featurize(genre_samples(users_from(np.zeros((0, 5, 19))).genres), probs, mode)
            assert ds.inputs.shape == (0, 4, feature_dim(mode))
            assert ds.targets.shape == (0, 19)

    def test_featurize_rejects_empty_input_step(self):
        raw = genre_samples(self.sequences(3, seed=34).genres)
        steps = raw.inputs.copy()
        steps[1, 2] = 0.0
        samples = Dataset(steps, raw.targets)
        probs = np.full((19, 19), 1.0 / 19)
        for mode in FeatureMode:
            with pytest.raises(EmptyGenreSupport):
                featurize(samples, probs, mode)


class TestTransitionModel:
    def test_from_sequences_consistent(self):
        rng = np.random.default_rng(30)
        seqs = random_users(rng, 10)
        model = TransitionModel.from_sequences(seqs.genres)
        assert np.array_equal(model.counts, count_transitions(seqs.genres))
        assert np.allclose(model.probs, normalize_transitions(model.counts))

    def test_planted_chain_recovered(self):
        # Single-genre movies drawn from a known chain: the estimator has
        # to converge to the planted matrix at scale.
        rng = np.random.default_rng(31)
        raw = 0.75 + 0.5 * rng.uniform(size=(19, 19))
        planted = raw / raw.sum(axis=1, keepdims=True)
        spec = SyntheticSpec(10_000, planted, genres_per_movie=(1, 1), seed=77)
        sequences, _ = generate_synthetic(spec)
        estimate = normalize_transitions(count_transitions(sequences.genres))
        assert np.max(np.abs(estimate - planted)) < 0.02


class TestProbabilityCsv:
    def test_round_trip_layout(self, tmp_path):
        rng = np.random.default_rng(32)
        probs = normalize_transitions(rng.integers(0, 9, size=(19, 19)).astype(float))
        path = tmp_path / "transitions.csv"
        write_probability_csv(probs, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(GENRES)
        assert len(lines) == 20
        parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.allclose(parsed, probs, atol=1e-6)
