import json
import math
import weakref
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from genreseq import experiment, nets
from genreseq.cli import _KEYS, _build_parser, build_config, main
from genreseq.datagen import write_archetype_dataset
from genreseq.errors import EmptyDataset
from genreseq.experiment import (
    STAGES,
    EvalReport,
    ExperimentConfig,
    ReportRow,
    derive_seed,
    emit_report,
    report_csv_text,
    run_experiment,
    split_users,
)
from genreseq.ingest import SyntheticSpec
from genreseq.nets import CellKind, TrainConfig
from genreseq.transitions import FeatureMode

from .helpers import random_users, read_report_csv


def sequences(n, seed=0):
    return random_users(np.random.default_rng(seed), n)


class TestSplitUsers:
    def test_eighty_twenty(self):
        train, test = split_users(sequences(10), 0.8, seed=1)
        assert len(train) == 8 and len(test) == 2

    def test_ceil_behavior(self):
        train, test = split_users(sequences(7), 0.5, seed=1)
        assert len(train) == math.ceil(3.5) == 4 and len(test) == 3

    def test_deterministic(self):
        seqs = sequences(20)
        a = split_users(seqs, 0.5, seed=3)
        b = split_users(seqs, 0.5, seed=3)
        assert a[0].user_id.tolist() == b[0].user_id.tolist()
        assert a[1].user_id.tolist() == b[1].user_id.tolist()

    def test_partition(self):
        seqs = sequences(13)
        train, test = split_users(seqs, 0.6, seed=4)
        train_ids = set(train.user_id.tolist())
        test_ids = set(test.user_id.tolist())
        assert train_ids | test_ids == set(seqs.user_id.tolist())
        assert train_ids & test_ids == set()

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            split_users(sequences(5), 0.0, seed=0)
        with pytest.raises(ValueError):
            split_users(sequences(5), 1.0, seed=0)


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(1, "kmeans") == derive_seed(1, "kmeans")

    def test_distinct_roles(self):
        seeds = {derive_seed(1, role) for role in ("kmeans", "split-global", "train-bc")}
        assert len(seeds) == 3

    def test_distinct_base_seeds(self):
        assert derive_seed(1, "kmeans") != derive_seed(2, "kmeans")


def report_of(rows):
    return EvalReport(tuple(rows))


class TestEmitReport:
    row = ReportRow("RNN", "Product", "BC", "all", 0.75, 0.5, 0.25, 0.125)

    def test_single_row_csv(self, tmp_path):
        emit_report(report_of([self.row]), tmp_path)
        text = (tmp_path / "report.csv").read_text()
        lines = text.strip().splitlines()
        assert len(lines) == 2
        assert lines[0] == "cell,mode,stage,cluster,recall,precision,accuracy,f1"
        assert lines[1] == "RNN,Product,BC,all,0.7500,0.5000,0.2500,0.1250"

    def test_four_decimal_fixed_point(self):
        text = report_csv_text(report_of([self.row]))
        assert "0.7500" in text

    def test_json_records_match(self, tmp_path):
        emit_report(report_of([self.row]), tmp_path)
        records = json.loads((tmp_path / "report.json").read_text())
        assert records == [
            {
                "cell": "RNN",
                "mode": "Product",
                "stage": "BC",
                "cluster": "all",
                "recall": 0.75,
                "precision": 0.5,
                "accuracy": 0.25,
                "f1": 0.125,
            }
        ]

    def test_json_matches_csv_at_written_precision(self, tmp_path):
        # Unrounded metrics: report.json holds each CSV row's values, at
        # the CSV's four decimals, under the CSV header's names in order.
        rng = np.random.default_rng(72)
        rows = [ReportRow("LSTM", "Sum", stage, "mean", *rng.uniform(0, 1, 4)) for stage in STAGES]
        emit_report(report_of(rows), tmp_path)
        records = json.loads((tmp_path / "report.json").read_text())
        header = (tmp_path / "report.csv").read_text().splitlines()[0].split(",")
        assert [list(r) for r in records] == [header] * len(rows)
        parsed = read_report_csv(tmp_path / "report.csv")
        assert records == [vars(r) for r in parsed]
        assert records[0]["recall"] != rows[0].recall

    def test_round_trip_parse(self, tmp_path):
        rng = np.random.default_rng(71)
        rows = [
            ReportRow(
                "GRU",
                "Concat",
                STAGES[i % len(STAGES)],
                str(i),
                *(float(round(v, 4)) for v in rng.uniform(0, 1, size=4)),
            )
            for i in range(10)
        ]
        emit_report(report_of(rows), tmp_path)
        parsed = read_report_csv(tmp_path / "report.csv")
        assert parsed == tuple(rows)

    def test_no_tmp_files_left(self, tmp_path):
        emit_report(report_of([self.row]), tmp_path)
        assert list(tmp_path.glob("*.tmp")) == []

    def test_transition_dumps(self, tmp_path):
        probs = np.full((19, 19), 1.0 / 19)
        emit_report(report_of([self.row]), tmp_path, {"all": probs, "0": probs})
        assert (tmp_path / "transitions_all.csv").exists()
        assert (tmp_path / "transitions_0.csv").exists()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_failed_rename_leaves_old_report_and_no_tmp(self, tmp_path, monkeypatch):
        emit_report(report_of([self.row]), tmp_path)
        old = (tmp_path / "report.csv").read_text()

        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(experiment.os, "replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            emit_report(report_of([replace(self.row, recall=0.25)]), tmp_path)
        assert list(tmp_path.glob("*.tmp")) == []
        assert (tmp_path / "report.csv").read_text() == old


def small_config(tmp_path=None, **overrides):
    planted = np.full((19, 19), 1.0 / 19) * 0.4 + 0.6 * np.eye(19)
    base = dict(
        synthetic=SyntheticSpec(120, planted, genres_per_movie=(1, 2), seed=5),
        k=3,
        cells=(CellKind.RNN,),
        modes=(FeatureMode.PRODUCT,),
        train=TrainConfig(epochs=8, hidden_dim=8, seed=0),
        seed=11,
        out_dir=tmp_path,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_row_structure(self, tmp_path):
        config = small_config(
            tmp_path, cells=(CellKind.RNN, CellKind.GRU), modes=(FeatureMode.PRODUCT, FeatureMode.GENRE_ONLY)
        )
        report = run_experiment(config)
        assert len(report.rows) == 2 * 2 * len(STAGES)
        for cell in ("RNN", "GRU"):
            for mode in ("Product", "GenreOnly"):
                for stage in STAGES:
                    row = report.get(cell, mode, stage)
                    assert 0.0 <= row.f1 <= 1.0

    def test_ac_mean_matches_cluster_details(self, tmp_path):
        report = run_experiment(small_config(tmp_path))
        key = ("RNN", "Product")
        # The config retrains a cluster, so the AT details differ from AC's.
        assert report.at_metrics[key] != report.ac_metrics[key]
        for stage, details in (("AC-mean", report.ac_metrics[key]), ("AT-mean", report.at_metrics[key])):
            mean_row = report.get(*key, stage)
            assert mean_row.recall == pytest.approx(np.mean([d.recall for d in details]))
            assert mean_row.precision == pytest.approx(np.mean([d.precision for d in details]))
            assert mean_row.accuracy == pytest.approx(np.mean([d.accuracy for d in details]))
            assert mean_row.f1 == pytest.approx(np.mean([d.f1 for d in details]))

    def test_best_worst_selected_by_f1(self, tmp_path):
        report = run_experiment(small_config(tmp_path))
        details = report.ac_metrics[("RNN", "Product")]
        f1s = [d.f1 for d in details]
        best_row = report.get("RNN", "Product", "AC-best")
        worst_row = report.get("RNN", "Product", "AC-worst")
        assert best_row.f1 == pytest.approx(max(f1s))
        assert worst_row.f1 == pytest.approx(min(f1s))
        assert best_row.cluster == str(details[int(np.argmax(f1s))].cluster)

    def test_untested_clusters_left_out(self, monkeypatch):
        # In small_config cluster 1 has 3 users, all of whom train.
        fitted = []
        fit_and_score = experiment._fit_and_score

        def fit(fits, cell, config):
            fitted.append(sorted({g for g, _ in fits}))
            return fit_and_score(fits, cell, config)

        monkeypatch.setattr(experiment, "_fit_and_score", fit)
        report = run_experiment(small_config())
        assert report.untested == (1,)
        # BC alone, then clusters 0 and 2 as one stack, then the AT retrains.
        assert fitted[:2] == [[-1], [0, 2]]
        assert not any(1 in groups for groups in fitted)
        for details in (report.ac_metrics, report.at_metrics):
            assert [d.cluster for d in details[("RNN", "Product")]] == [0, 2]
        assert {r.cluster for r in report.rows} == {"all", "mean", "0", "2"}

    def test_no_tested_cluster_raises(self):
        # 12 users in 7 clusters: no cluster has the 5 users a test user needs.
        config = small_config(
            synthetic=SyntheticSpec(12, np.full((19, 19), 1.0 / 19), seed=5), k=7
        )
        with pytest.raises(EmptyDataset, match="no cluster has a test sample"):
            run_experiment(config)

    def test_skipped_at_retrain_recorded(self, monkeypatch):
        trims = []
        apply_trim = experiment.apply_trim_to_dataset

        def trim(samples, zeroed):
            trimmed, dropped = apply_trim(samples, zeroed)
            trims.append((len(samples), dropped))
            return trimmed, dropped

        monkeypatch.setattr(experiment, "apply_trim_to_dataset", trim)
        report = run_experiment(small_config())
        tags = ("RNN", "Product")
        # Cluster 2's trim drops all 19 of its test samples, so it is not retrained.
        assert (19, 19) in trims
        assert report.at_skipped == {tags: {2: "trim left no test samples"}}
        ac = {d.cluster: d for d in report.ac_metrics[tags]}
        at = {d.cluster: d for d in report.at_metrics[tags]}
        assert at[2] == ac[2]
        assert at[0] != ac[0]

    def test_trim_that_zeroes_nothing_recorded(self):
        # A uniform chain spreads every genre over far more than 1% of a
        # cluster's events, so no selected cluster's trim zeroes a genre.
        uniform = np.full((19, 19), 1.0 / 19)
        report = run_experiment(small_config(synthetic=SyntheticSpec(300, uniform, seed=5), theta=0.01))
        tags = ("RNN", "Product")
        assert report.at_skipped == {tags: {c: "trim zeroed no genre" for c in (0, 1, 2)}}
        assert report.at_metrics[tags] == report.ac_metrics[tags]

    def test_bt_rows_copy_ac_rows(self, tmp_path):
        report = run_experiment(small_config(tmp_path))
        assert report.get("RNN", "Product", "BT-mean").f1 == report.get("RNN", "Product", "AC-mean").f1
        assert report.get("RNN", "Product", "BT-worst").f1 == report.get("RNN", "Product", "AC-worst").f1

    def test_report_files_written(self, tmp_path):
        run_experiment(small_config(tmp_path, dump_transitions=True))
        assert (tmp_path / "report.csv").exists()
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "transitions_all.csv").exists()
        assert (tmp_path / "transitions_0.csv").exists()

    def test_deterministic_reports(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        run_experiment(small_config(a_dir))
        run_experiment(small_config(b_dir))
        assert (a_dir / "report.csv").read_bytes() == (b_dir / "report.csv").read_bytes()

    def test_train_seed_has_no_effect(self, tmp_path):
        # Each fit's seed derives from the run seed, its role, the cell and
        # the mode; the run replaces train.seed with it.  The config
        # retrains a cluster, so BC, AC and AT fits are all covered.
        base = small_config(modes=(FeatureMode.PRODUCT, FeatureMode.GENRE_ONLY))
        reports = [
            run_experiment(replace(base, out_dir=tmp_path / str(seed), train=replace(base.train, seed=seed)))
            for seed in (0, 12345)
        ]
        assert reports[0] == reports[1]
        for name in ("report.csv", "report.json"):
            assert (tmp_path / "0" / name).read_bytes() == (tmp_path / "12345" / name).read_bytes()

    def test_max_users_subsample(self, tmp_path):
        config = small_config(tmp_path, max_users=40)
        report = run_experiment(config)
        details = report.ac_metrics[("RNN", "Product")]
        assert sum(d.n_samples for d in details) <= 40

    @pytest.mark.parametrize("max_users", [0, -3])
    def test_max_users_below_one_rejected(self, max_users):
        with pytest.raises(ValueError, match=rf"max_users \(--max-users\) must be >= 1, got {max_users}"):
            run_experiment(small_config(max_users=max_users))

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"eta": 1.5}, r"eta \(--eta\) must be in \(0, 1\), got 1.5"),
            ({"eta": 0.0}, r"eta \(--eta\) must be in \(0, 1\), got 0.0"),
            ({"theta": 1.5, "eta": 0.01}, r"theta \(--theta\) must be in \(0, 1\), got 1.5"),
            ({"theta": 0.0}, r"theta \(--theta\) must be in \(0, 1\), got 0.0"),
            ({"split_fraction": 1.0}, r"split_fraction \(--split\) must be in \(0, 1\), got 1.0"),
            ({"k": 0}, r"k \(--k\) must be >= 1, got 0"),
            ({"k": -2}, r"k \(--k\) must be >= 1, got -2"),
            ({"max_users": 0}, r"max_users \(--max-users\) must be >= 1, got 0"),
            ({"cells": ()}, "no cells given"),
            ({"modes": ()}, "no modes given"),
            # small_config's users are synthetic: a CSV path is a second source.
            ({"ratings_path": "r.csv"}, r"synthetic \(--synthetic\) and ratings_path \(--ratings\) are both set"),
            ({"movies_path": "m.csv"}, r"synthetic \(--synthetic\) and movies_path \(--movies\) are both set"),
        ],
        ids=[
            "eta-1.5", "eta-0", "theta-1.5", "theta-0", "split-1",
            "k-0", "k-neg", "max_users-0", "no-cells", "no-modes",
            "synthetic-and-ratings", "synthetic-and-movies",
        ],
    )
    def test_bad_value_rejected_before_ingest(self, monkeypatch, overrides, message):
        # Each value is checked up front: no user is generated and no
        # model is fit before the error.
        def fail(*args, **kwargs):
            pytest.fail("a bad config value reached ingest or training")

        monkeypatch.setattr(experiment, "generate_synthetic", fail)
        monkeypatch.setattr(experiment, "train", fail)
        with pytest.raises(ValueError, match=message):
            run_experiment(small_config(**overrides))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"modes": (FeatureMode.PRODUCT, FeatureMode.GENRE_ONLY, FeatureMode.PRODUCT)},
            {"cells": (CellKind.GRU, CellKind.GRU)},
        ],
    )
    def test_repeated_cell_or_mode_rejected(self, overrides):
        # A repeat would write rows with the same (cell, mode, stage) key.
        with pytest.raises(ValueError, match="repeat"):
            run_experiment(small_config(**overrides))

    @pytest.mark.parametrize(
        "config, name, value",
        [(ExperimentConfig(), "k", 0), (ExperimentConfig(), "train", None), (TrainConfig(), "epochs", 0)],
    )
    def test_built_config_cannot_change(self, config, name, value):
        # A config is checked once, when built, so it stays as checked.
        with pytest.raises(FrozenInstanceError):
            setattr(config, name, value)

    def test_profiles_dropped_after_kmeans(self, monkeypatch):
        # The (n, 19) rating profiles are freed once k-means has run, so no
        # fit holds them.
        profiles, alive = [], []
        kmeans_, train_ = experiment.kmeans, experiment.train

        def cluster(points, *args, **kwargs):
            profiles.append(weakref.ref(points))
            return kmeans_(points, *args, **kwargs)

        def fit(*args):
            alive.append(profiles[0]() is not None)
            return train_(*args)

        monkeypatch.setattr(experiment, "kmeans", cluster)
        monkeypatch.setattr(experiment, "train", fit)
        run_experiment(small_config())
        assert len(profiles) == 1
        assert alive and not any(alive)

    def test_users_table_dropped_after_profiles(self, monkeypatch):
        # Past the rating profiles a run keeps only the genres, so no
        # k-means or fit holds the Users table.
        tables, alive = [], []
        profiles_, kmeans_, train_ = experiment._profiles, experiment.kmeans, experiment.train

        def profile(users):
            tables.append(weakref.ref(users))
            return profiles_(users)

        def cluster(*args, **kwargs):
            alive.append(tables[0]() is not None)
            return kmeans_(*args, **kwargs)

        def fit(*args):
            alive.append(tables[0]() is not None)
            return train_(*args)

        monkeypatch.setattr(experiment, "_profiles", profile)
        monkeypatch.setattr(experiment, "kmeans", cluster)
        monkeypatch.setattr(experiment, "train", fit)
        run_experiment(small_config())
        assert len(tables) == 1
        assert len(alive) > 1 and not any(alive)

    @pytest.mark.parametrize("eta", [0.1, 0.9])
    def test_stacked_modes_match_lone_mode_runs(self, eta):
        # Sum, Product and GenreOnly train as one stack, Concat alone; each
        # mode's rows equal those of a run of that mode by itself.  At eta
        # 0.9 every mode retrains cluster 0, in one AT stack; at 0.1 only
        # GenreOnly selects it.
        modes = (FeatureMode.CONCAT, FeatureMode.SUM, FeatureMode.PRODUCT, FeatureMode.GENRE_ONLY)
        stacked = run_experiment(small_config(modes=modes, eta=eta))
        assert [(r.mode, r.stage) for r in stacked.rows] == [(m.value, s) for m in modes for s in STAGES]
        for mode in modes:
            alone = run_experiment(small_config(modes=(mode,), eta=eta))
            tags = ("RNN", mode.value)
            assert [r for r in stacked.rows if r.mode == mode.value] == list(alone.rows)
            assert stacked.ac_metrics[tags] == alone.ac_metrics[tags]
            assert stacked.at_metrics[tags] == alone.at_metrics[tags]
            assert stacked.at_skipped[tags] == alone.at_skipped[tags]

    def test_funnel_counts_the_csv_input(self, tmp_path):
        movies, ratings = write_archetype_dataset(tmp_path / "data", users_per_archetype=10, seed=3)
        config = small_config(ratings_path=ratings, movies_path=movies, synthetic=None, max_users=50)
        funnel = run_experiment(config).funnel

        rows = [line.split(",") for line in ratings.read_text().splitlines()[1:]]
        no_genre = movies.read_text().count(",(no genres listed)\n")
        assert funnel["rating_rows"] == len(rows)
        assert funnel["movies_skipped_no_genre"] == no_genre > 0
        assert funnel["users_kept"] + funnel["users_dropped"] == len({r[0] for r in rows})
        assert funnel["users_dropped"] > 0
        assert funnel["users_after_max_users"] == 50 < funnel["users_kept"]

    def test_needs_inputs(self):
        with pytest.raises(ValueError):
            run_experiment(ExperimentConfig())

    def test_identity_chain_highly_predictable(self):
        # Every synthetic user repeats a single genre five times, so the
        # next genre is fully determined and per-cluster recall is high.
        config = small_config(
            synthetic=SyntheticSpec(400, np.eye(19), genres_per_movie=(1, 1), seed=2),
            k=7,
            modes=(FeatureMode.GENRE_ONLY,),
            train=TrainConfig(learning_rate=0.2, epochs=200, hidden_dim=16, seed=0),
        )
        report = run_experiment(config)
        assert report.get("RNN", "GenreOnly", "AC-mean").recall > 0.9


class TestStageProtocol:
    """Which seed and how many training users each model gets, and which models
    share a stacked fit, on any build."""

    def test_split_and_fit_seeds_and_train_sizes(self, monkeypatch):
        splits, fits, models = [], [], []
        split_users_, train_, kmeans_ = experiment.split_users, experiment.train, experiment.kmeans

        def split(users, fraction, seed):
            splits.append((seed, len(users)))
            return split_users_(users, fraction, seed)

        def fit(datasets, cell, configs):
            fits.append([(config.seed, len(dataset)) for dataset, config in zip(datasets, configs)])
            return train_(datasets, cell, configs)

        def cluster(*args, **kwargs):
            models.append(kmeans_(*args, **kwargs))
            return models[-1]

        monkeypatch.setattr(experiment, "split_users", split)
        monkeypatch.setattr(experiment, "train", fit)
        monkeypatch.setattr(experiment, "kmeans", cluster)
        modes = (FeatureMode.PRODUCT, FeatureMode.CONCAT, FeatureMode.GENRE_ONLY)
        # At eta 0.1 GenreOnly selects a cluster for trimming that Product
        # does not, so that cluster's AT stack holds GenreOnly alone.
        config = small_config(modes=modes, eta=0.1)
        report = run_experiment(config)

        s = config.seed
        sizes = Counter(models[0].labels.tolist())
        clusters = sorted(sizes)
        n_users = sum(sizes.values())
        n_train = lambda n: math.ceil(config.split_fraction * n)  # noqa: E731
        assert splits == [(derive_seed(s, "split-global"), n_users)] + [
            (derive_seed(s, "split-cluster", c), sizes[c]) for c in clusters
        ]
        # A cluster whose users all train has nothing to score, so it gets no fit.
        assert report.untested == tuple(c for c in clusters if n_train(sizes[c]) == sizes[c])
        assert report.untested
        clusters = [c for c in clusters if c not in report.untested]

        at_fits = partial = 0
        # The modes of one input width (d = 19, then Concat's d = 38) train
        # as one stack: a model per mode in each train call.
        for stack in (("RNN", "Product"), ("RNN", "GenreOnly")), (("RNN", "Concat"),):
            # BC on every user, then every tested cluster's AC fits in one call.
            expected = [[(derive_seed(s, "train-bc", *tags), n_train(n_users)) for tags in stack]]
            ac = [(derive_seed(s, "train-ac", c, *tags), n_train(sizes[c])) for c in clusters for tags in stack]
            expected.append(ac)
            assert fits[:2] == expected
            del fits[:2]
            # AT retrains trimmed clusters in one call, in cluster order: a
            # model for each of the stack's modes that selected the cluster,
            # each with its AC seed, on the cluster's training users less the
            # samples trimming dropped.
            ac_seed = {derive_seed(s, "train-ac", c, *tags): (c, tags) for c in clusters for tags in stack}
            selected = {
                tags: {m.cluster for m in report.ac_metrics[tags] if m.p_min < config.eta} for tags in stack
            }
            partial += len({frozenset(selected[tags]) for tags in stack}) > 1
            retrained = {tags: selected[tags] - set(report.at_skipped[tags]) for tags in stack}
            at = [(c, t) for c in sorted(set().union(*retrained.values())) for t in stack if c in retrained[t]]
            if at:
                call = fits.pop(0)
                assert [ac_seed[seed] for seed, _ in call] == at
                trimmed_size = {}
                for seed, size in call:
                    c = ac_seed[seed][0]
                    assert 0 < trimmed_size.setdefault(c, size) == size <= n_train(sizes[c])
                at_fits += len(call)
        assert fits == []
        assert at_fits > 0
        assert partial

    def test_stacking_moves_nothing(self, monkeypatch):
        # A budget of no rows trains every model alone; the report is the
        # same in every field as with the stacks the default budget makes.
        stacks = []
        train_stack = nets._train_stack

        def recorded(datasets, cell, configs):
            stacks.append(len(datasets))
            return train_stack(datasets, cell, configs)

        monkeypatch.setattr(nets, "_train_stack", recorded)
        modes = (FeatureMode.SUM, FeatureMode.PRODUCT, FeatureMode.GENRE_ONLY, FeatureMode.CONCAT)
        config = small_config(cells=(CellKind.RNN, CellKind.LSTM), modes=modes, k=5, eta=0.9)
        stacked = run_experiment(config)
        assert max(stacks) > 1
        models = sum(stacks)
        stacks.clear()
        monkeypatch.setattr(nets, "_STACK_ROWS", 0)
        alone = run_experiment(config)
        assert stacks == [1] * models
        assert alone == stacked


class TestCli:
    def test_synthetic_run(self, tmp_path, capsys):
        out = tmp_path / "results"
        code = main(
            [
                "--synthetic", "90",
                "--k", "3",
                "--epochs", "5",
                "--hidden-dim", "8",
                "--seed", "7",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert (out / "report.csv").exists()
        printed = capsys.readouterr().out
        assert "BC" in printed and "AT-mean" in printed

    def test_error_is_diagnosed(self, tmp_path, capsys):
        code = main(["--ratings", str(tmp_path / "missing.csv"), "--movies", str(tmp_path / "m.csv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"synthetic_users": 90, "k": 5, "epochs": 4, "hidden_dim": 8}))
        out = tmp_path / "results"
        code = main(["--config", str(cfg), "--k", "3", "--out", str(out)])
        assert code == 0
        text = (out / "report.csv").read_text()
        clusters = {line.split(",")[3] for line in text.strip().splitlines()[1:]}
        # k=3 from the flag wins over k=5 in the file
        assert clusters <= {"all", "mean", "0", "1", "2"}

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--mode", "Product", "--mode", "Product"], "modes repeat: Product, Product"),
            (["--cell", "RNN", "--cell", "LSTM", "--cell", "RNN"], "cells repeat: RNN, LSTM, RNN"),
            (["--epochs", "0"], "must be positive"),
            (["--max-users", "0"], "--max-users"),
            (["--max-users", "-3"], "--max-users"),
            (["--eta", "1.5"], "eta (--eta) must be in (0, 1), got 1.5"),
            (["--theta", "1.5", "--eta", "0.01"], "theta (--theta) must be in (0, 1), got 1.5"),
            (["--split", "1"], "split_fraction (--split) must be in (0, 1), got 1.0"),
            (["--k", "0"], "k (--k) must be >= 1, got 0"),
            (["--synthetic", "0"], "n_users must be >= 1"),
            (["--learning-rate", "nan"], "learning_rate must be finite and >= 0, got nan"),
            # Neither CSV exists: a run that took the synthetic users exited 0.
            (
                ["--ratings", "missing/r.csv", "--movies", "missing/m.csv"],
                "synthetic (--synthetic) and ratings_path (--ratings) are both set",
            ),
        ],
    )
    def test_invalid_run_is_diagnosed(self, tmp_path, capsys, flags, message):
        code = main(["--synthetic", "90", "--k", "3", "--epochs", "1", "--out", str(tmp_path), *flags])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "report.csv").exists()

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert main(["--config", str(cfg)]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["5", "[]", '"k"', "null"])
    def test_config_file_must_hold_an_object(self, tmp_path, capsys, text):
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        assert main(["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: config file {cfg} does not hold a JSON object\n"

    def test_config_file_that_is_not_json_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text('{"k": 3,\n')
        assert main(["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: config file {cfg} is not valid JSON: "
            "Expecting property name enclosed in double quotes: line 2 column 1 (char 9)\n"
        )

    def test_non_finite_config_value_fails_before_any_fit(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"synthetic_users": 90, "k": 3, "epochs": 1, "out": str(tmp_path), "init_scale": "inf"}))
        assert main(["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == "error: init_scale must be finite and > 0, got inf\n"
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("k", None), ("cells", 5), ("max_users", "fifty"), ("out", 5), ("modes", ["Bogus"]),
            ("dump_transitions", "false"), ("k", 3.7), ("epochs", 2.5), ("k", True), ("learning_rate", True),
            ("cells", "RNN"), ("modes", "Product"),
        ],
        ids=[
            "k-null", "cells-5", "max_users-fifty", "out-5", "modes-Bogus",
            "dump_transitions-false-string", "k-3.7", "epochs-2.5", "k-true", "learning_rate-true",
            "cells-string", "modes-string",
        ],
    )
    def test_wrongly_typed_config_is_diagnosed(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "config.json"
        settings = {"synthetic_users": 90, "k": 3, "epochs": 1, "out": str(tmp_path), key: value}
        cfg.write_text(json.dumps(settings))
        assert main(["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config key {key!r}: ") and err.count("\n") == 1
        if key in ("cells", "modes") and not isinstance(value, list):
            assert err == f"error: config key {key!r}: expected a list, got {value!r}\n"
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize(
        "flag, key, value",
        [
            ("--k", "k", "abc"), ("--k", "k", "3.0"), ("--epochs", "epochs", "2.5"),
            ("--cell", "cells", "Bogus"), ("--synthetic", "synthetic_users", "x"),
        ],
    )
    def test_bad_flag_value_is_diagnosed_as_in_a_config_file(self, tmp_path, capsys, flag, key, value):
        assert main(["--synthetic", "90", "--out", str(tmp_path), flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config key {key!r}: ") and err.count("\n") == 1
        # --cell appends, so its config value is a list of the string.
        value = [value] if flag == "--cell" else value
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"synthetic_users": "90", "out": str(tmp_path), key: value}))
        assert main(["--config", str(cfg)]) == 2
        assert capsys.readouterr().err == err
        assert not (tmp_path / "report.csv").exists()


def test_every_flag_stores_under_its_config_key():
    # The CLI merges parsed flags into the config settings by dest name.
    flags = set(vars(_build_parser().parse_args([]))) - {"config"}
    assert flags <= set(_KEYS)


def test_default_settings_build_the_dataclass_defaults():
    config = build_config({"synthetic_users": 90})
    assert config.synthetic.n_users == 90
    for f in fields(ExperimentConfig):
        if f.name != "synthetic":
            assert getattr(config, f.name) == getattr(ExperimentConfig(), f.name), f.name
    for f in fields(TrainConfig):
        assert getattr(config.train, f.name) == getattr(TrainConfig(), f.name), f.name


def test_whole_floats_and_booleans_cast_to_their_keys():
    config = build_config({"synthetic_users": 90, "k": 3.0, "dump_transitions": True})
    assert (config.k, type(config.k), config.dump_transitions) == (3, int, True)


def test_config_numbers_given_as_strings_are_cast():
    config = build_config({"synthetic_users": "90", "k": "3", "max_users": "50"})
    assert (config.synthetic.n_users, config.k, config.max_users) == (90, 3, 50)


def test_every_key_reaches_its_field():
    settings = {
        "synthetic_users": "90", "k": "3", "eta": "0.25", "theta": "0.2", "cells": ["GRU", "LSTM"],
        "modes": ["Sum", "Concat"], "seed": "5", "split": "0.7", "out": "results", "max_users": "50",
        "epochs": "4", "hidden_dim": "8", "learning_rate": "0.1", "momentum": "0.5", "batch_size": "16",
        "init_scale": "0.2", "dump_transitions": True,
    }
    assert set(settings) | {"ratings", "movies"} == set(_KEYS)
    config = build_config(settings)
    assert (config.synthetic.n_users, config.synthetic.seed) == (90, derive_seed(5, "synthetic"))
    assert (config.k, config.eta, config.theta, config.seed, config.split_fraction) == (3, 0.25, 0.2, 5, 0.7)
    assert config.cells == (CellKind.GRU, CellKind.LSTM)
    assert config.modes == (FeatureMode.SUM, FeatureMode.CONCAT)
    assert (config.out_dir, config.max_users, config.dump_transitions) == ("results", 50, True)
    assert config.train == TrainConfig(
        learning_rate=0.1, momentum=0.5, epochs=4, batch_size=16, hidden_dim=8, init_scale=0.2
    )
    files = build_config({"ratings": "r.csv", "movies": "m.csv"})
    assert (files.ratings_path, files.movies_path) == ("r.csv", "m.csv")
