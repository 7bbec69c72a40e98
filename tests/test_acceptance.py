"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
verdict lines as they print).  The directional-reproduction criteria run
a full pipeline over a generated MovieLens-format dataset with >= 10,000
eligible users and are shared by a module-scoped fixture.
"""

import time

import numpy as np
import pytest

from genreseq.clustering import kmeans
from genreseq.datagen import write_archetype_dataset
from genreseq.evaluation import (
    ClusterMetrics,
    ConfusionCounts,
    MovieGenreMatrix,
    confusion_counts,
    metrics,
    select_trim_clusters,
    trim_genres,
)
from genreseq.experiment import ExperimentConfig, run_experiment
from genreseq.genres import genre_index
from genreseq.ingest import SyntheticSpec, build_sequences, generate_synthetic, load_movies, load_ratings
from genreseq.nets import CellKind, TrainConfig, backward, forward_sequence, init_params
from genreseq.transitions import FeatureMode, atv, count_transitions, normalize_transitions

from .helpers import confusion_oracle, fd_gradients, max_relative_error, metrics_oracle


def verdict(ok: bool, label: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def test_criterion_1_gradient_fidelity():
    started = time.monotonic()
    worst = {}
    for cell in CellKind:
        cell_worst = 0.0
        for trial in range(20):
            rng = np.random.default_rng(1000 + trial)
            params = init_params(cell, input_dim=19, hidden_dim=8, init_scale=0.5, seed=2000 + trial)
            x = rng.uniform(0, 1, (1, 4, 19))
            target = (rng.uniform(size=(1, 19)) < 0.3).astype(float)
            _, cache = forward_sequence(x, params)
            analytic = backward(cache, target, params)
            numeric = fd_gradients(params, x, target, step=1e-5)
            cell_worst = max(cell_worst, max_relative_error(analytic, numeric))
        worst[cell.value] = cell_worst
    elapsed = time.monotonic() - started
    ok = all(v < 1e-4 for v in worst.values()) and elapsed < 30.0
    verdict(
        ok,
        "criterion 1 gradient fidelity: worst rel err "
        + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
        + f"; elapsed {elapsed:.1f}s < 30s",
    )


def test_criterion_2_estimator_oracle():
    rng = np.random.default_rng(31)
    raw = 0.75 + 0.5 * rng.uniform(size=(19, 19))
    planted = raw / raw.sum(axis=1, keepdims=True)
    spec = SyntheticSpec(10_000, planted, genres_per_movie=(1, 1), seed=77)
    sequences, _ = generate_synthetic(spec)
    estimate = normalize_transitions(count_transitions(sequences.genres))
    max_err = float(np.max(np.abs(estimate - planted)))

    singleton_exact = True
    for i in range(19):
        one_hot = np.zeros(19)
        one_hot[i] = 1.0
        singleton_exact = singleton_exact and np.array_equal(atv(one_hot, estimate), estimate[i])

    ok = max_err < 0.02 and singleton_exact
    verdict(
        ok,
        f"criterion 2 estimator oracle: max-abs err {max_err:.4f} < 0.02 on 10,000 users; "
        f"singleton ATV equals matrix rows exactly: {singleton_exact}",
    )


def test_criterion_3_worked_example_fidelity():
    # Trim-cluster selection on the documented threshold example.
    values = [
        ClusterMetrics(2, 0.7, 0.6, 0.8, 0.65, 0.60),
        ClusterMetrics(7, 0.6, 0.55, 0.8, 0.57, 0.55),
        ClusterMetrics(3, 0.45, 0.5, 0.8, 0.47, 0.45),
    ]
    selected = select_trim_clusters(values, eta=0.5)
    selection_ok = selected == {3}

    # A 100-movie-event cluster at theta=0.1: exactly the columns with
    # totals under 10 are zeroed.
    counts = np.zeros((20, 19), dtype=np.int64)
    for j in (0, 4, 7, 16):  # popular genres: totals 60 each
        counts[:, j] = 3
    doc, war = genre_index("Documentary"), genre_index("War")
    counts[:9, war] = counts[:9, war] + 1  # total 9 < 10
    counts[:4, doc] = 1  # total 4 < 10
    matrix = MovieGenreMatrix(counts)
    trimmed, zeroed = trim_genres(matrix, theta=0.1)
    expected = {int(j) for j in np.flatnonzero(counts.sum(axis=0) < 10)}
    trim_ok = (
        zeroed == expected
        and doc in zeroed
        and war in zeroed
        and np.all(trimmed.counts[:, sorted(zeroed)] == 0)
    )
    ok = selection_ok and trim_ok
    verdict(
        ok,
        f"criterion 3 worked examples: selection {sorted(selected)} == [3]; "
        f"zeroed columns {sorted(zeroed)} == columns under 10/100",
    )


def test_criterion_4_metric_oracle():
    rng = np.random.default_rng(44)
    exact = True
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        preds = rng.uniform(0, 1, size=(n, 19))
        targets = (rng.uniform(size=(n, 19)) < rng.uniform(0.05, 0.5)).astype(float)
        c = confusion_counts(preds, targets)
        if (c.tp, c.fp, c.fn, c.tn) != confusion_oracle(preds, targets):
            exact = False
            break
        m = metrics(c)
        if (m.recall, m.precision, m.accuracy, m.f1) != metrics_oracle(c.tp, c.fp, c.fn, c.tn):
            exact = False
            break
    degenerate = metrics(ConfusionCounts(0, 0, 0, 10))
    degenerate_ok = (
        degenerate.accuracy == 1.0
        and degenerate.precision == 0.0
        and degenerate.recall == 0.0
        and degenerate.f1 == 0.0
    )
    ok = exact and degenerate_ok
    verdict(
        ok,
        f"criterion 4 metric oracle: 1000 random instances exact={exact}; "
        f"degenerate counts give accuracy 1.0 and zero precision/recall/F1: {degenerate_ok}",
    )


@pytest.fixture(scope="module")
def directional_run(tmp_path_factory):
    """Full pipeline over a generated MovieLens-format file, k=7, RNN,
    modes Product and GenreOnly, defaults elsewhere."""
    data_dir = tmp_path_factory.mktemp("movielens")
    movies_path, ratings_path = write_archetype_dataset(data_dir, users_per_archetype=1500, seed=0)
    eligible, _ = build_sequences(load_ratings(ratings_path), load_movies(movies_path))
    started = time.monotonic()
    config = ExperimentConfig(
        ratings_path=ratings_path,
        movies_path=movies_path,
        k=7,
        cells=(CellKind.RNN,),
        modes=(FeatureMode.PRODUCT, FeatureMode.GENRE_ONLY),
        train=TrainConfig(seed=0),
        seed=42,
    )
    report = run_experiment(config)
    elapsed = time.monotonic() - started
    return len(eligible), report, elapsed


def test_criterion_5_directional_reproduction(directional_run):
    n_eligible, report, elapsed = directional_run
    assert n_eligible >= 10_000, f"only {n_eligible} eligible users"

    bc = report.get("RNN", "Product", "BC")
    ac_best = report.get("RNN", "Product", "AC-best")
    bt_worst = report.get("RNN", "Product", "BT-worst")
    at_worst = report.get("RNN", "Product", "AT-worst")

    gap_ok = ac_best.f1 - bc.f1 >= 0.05
    recall_ok = at_worst.recall >= bt_worst.recall
    accuracy_ok = all(
        row.accuracy >= max(row.recall, row.precision, row.f1) for row in report.rows
    )
    time_ok = elapsed < 15 * 60
    ok = gap_ok and recall_ok and accuracy_ok and time_ok
    verdict(
        ok,
        "criterion 5 directional reproduction: "
        f"(a) AC-best F1 {ac_best.f1:.4f} - BC F1 {bc.f1:.4f} = {ac_best.f1 - bc.f1:.4f} >= 0.05: {gap_ok}; "
        f"(b) AT-worst recall {at_worst.recall:.4f} >= BT-worst recall {bt_worst.recall:.4f}: {recall_ok}; "
        f"(c) accuracy largest metric in every aggregate row: {accuracy_ok}; "
        f"runtime {elapsed:.0f}s < 900s: {time_ok}",
    )


def test_criterion_6_atv_effect(directional_run):
    _, report, _ = directional_run
    product_f1 = report.get("RNN", "Product", "AC-mean").f1
    genre_only_f1 = report.get("RNN", "GenreOnly", "AC-mean").f1
    diff = abs(genre_only_f1 - product_f1)
    ok = diff < 0.1
    verdict(
        ok,
        f"criterion 6 ATV effect: |AC-mean F1 GenreOnly {genre_only_f1:.4f} - "
        f"Product {product_f1:.4f}| = {diff:.4f} < 0.1",
    )


def test_criterion_7_determinism(tmp_path):
    planted = np.full((19, 19), 1.0 / 19) * 0.4 + 0.6 * np.eye(19)

    def config(out_dir):
        return ExperimentConfig(
            synthetic=SyntheticSpec(200, planted, genres_per_movie=(1, 2), seed=6),
            k=4,
            cells=(CellKind.GRU,),
            modes=(FeatureMode.PRODUCT,),
            train=TrainConfig(epochs=15, hidden_dim=8, seed=0),
            seed=13,
            out_dir=out_dir,
        )

    run_experiment(config(tmp_path / "first"))
    run_experiment(config(tmp_path / "second"))
    first = (tmp_path / "first" / "report.csv").read_bytes()
    second = (tmp_path / "second" / "report.csv").read_bytes()
    ok = first == second
    verdict(ok, f"criterion 7 determinism: identical configs give byte-identical report.csv: {ok}")


def test_criterion_8_kmeans_properties():
    rng = np.random.default_rng(88)
    monotone = True
    for trial in range(100):
        n = int(rng.integers(8, 60))
        points = rng.uniform(0, 5, size=(n, 19))
        k = int(rng.integers(1, min(8, n + 1)))
        model = kmeans(points, k, seed=trial)
        history = np.array(model.inertia_history)
        if not np.all(np.diff(history) <= 1e-9):
            monotone = False
            break

    points = np.random.default_rng(89).uniform(0, 5, size=(25, 19))
    model = kmeans(points, k=1, seed=5)
    mean_err = float(np.max(np.abs(model.centroids[0] - points.mean(axis=0))))
    mean_ok = mean_err < 1e-9

    ok = monotone and mean_ok
    verdict(
        ok,
        f"criterion 8 k-means properties: inertia non-increasing on 100 instances: {monotone}; "
        f"k=1 centroid equals mean within 1e-9 (err {mean_err:.1e}): {mean_ok}",
    )
