"""End-to-end experiment runner: ingest, cluster, train, trim, report.

One run walks the full pipeline for each requested cell x feature-mode
combination: a pooled baseline over all users (stage BC), per-cluster
models after k-means (AC rows), and per-cluster models retrained on
sub-genre-trimmed data (BT/AT rows).  Every random choice derives from
the single config seed, so identical configs produce byte-identical
report files.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .clustering import ClusterModel, kmeans, rating_profile
from .errors import EmptyDataset
from .evaluation import (
    ClusterMetrics,
    Metrics,
    MovieGenreMatrix,
    apply_trim_to_dataset,
    cluster_metrics,
    confusion_counts,
    mean_cluster_metrics,
    select_trim_clusters,
    trim_genres,
)
from .genres import N_GENRES
from .ingest import (
    SyntheticSpec,
    Users,
    build_sequences,
    generate_synthetic,
    load_movies,
    load_ratings,
)
from .nets import CellKind, TrainConfig, predict, train
from .transitions import (
    Dataset,
    FeatureMode,
    TransitionModel,
    feature_dim,
    featurize,
    genre_samples,
    write_probability_csv,
)

STAGES = (
    "BC",
    "AC-best",
    "AC-worst",
    "AC-mean",
    "BT-mean",
    "BT-worst",
    "AT-worst",
    "AT-mean",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs; all randomness flows from ``seed``.

    A bad value, or a synthetic spec given with a CSV path, raises
    ``ValueError`` when the config is built; a missing data source is
    found when :func:`run_experiment` reads it.  ``train.seed``
    has no effect on a run: the run replaces it with each fit's seed,
    derived from ``seed``, the fit's role, the cell and the feature mode.
    """

    ratings_path: str | Path | None = None
    movies_path: str | Path | None = None
    synthetic: SyntheticSpec | None = None
    k: int = 7
    eta: float = 0.5
    theta: float = 0.1
    cells: tuple[CellKind, ...] = (CellKind.RNN,)
    modes: tuple[FeatureMode, ...] = (FeatureMode.PRODUCT,)
    train: TrainConfig = field(default_factory=TrainConfig)
    split_fraction: float = 0.8
    seed: int = 0
    out_dir: str | Path | None = None
    max_users: int | None = None
    dump_transitions: bool = False

    def __post_init__(self):
        for name, values in (("cells", self.cells), ("modes", self.modes)):
            if not values:
                raise ValueError(f"no {name} given")
            if len(set(values)) < len(values):
                raise ValueError(f"{name} repeat: {', '.join(v.value for v in values)}")
        for name, flag in (("eta", "eta"), ("theta", "theta"), ("split_fraction", "split")):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} (--{flag}) must be in (0, 1), got {value}")
        for name, flag in (("k", "k"), ("max_users", "max-users")):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} (--{flag}) must be >= 1, got {value}")
        for name, flag in (("ratings_path", "ratings"), ("movies_path", "movies")):
            if self.synthetic is not None and getattr(self, name) is not None:
                raise ValueError(
                    f"synthetic (--synthetic) and {name} (--{flag}) are both set; give one data source"
                )


@dataclass(frozen=True)
class ReportRow:
    cell: str
    mode: str
    stage: str
    cluster: str
    recall: float
    precision: float
    accuracy: float
    f1: float


# The report columns in file order, each flagged when it is a metric:
# labels are written as they are, metrics at 4 decimals.
_COLUMNS = tuple((f.name, f.type in (float, "float")) for f in fields(ReportRow))
REPORT_HEADER = ",".join(name for name, _ in _COLUMNS)


@dataclass(frozen=True)
class EvalReport:
    """Aggregate stage rows plus the per-cluster detail behind them.

    ``untested`` names the clusters with no test sample: they get no fit
    and stay out of the AC and AT rows.  ``at_skipped[(cell, mode)]`` maps
    each cluster selected for trimming but not retrained, because the trim
    zeroed no genre or emptied its training or test set, to that reason;
    its AT score is its AC score.  ``funnel`` counts the data left after
    each ingest step (see :func:`run_experiment`); it stays out of the
    report files.
    """

    rows: tuple[ReportRow, ...]
    ac_metrics: dict[tuple[str, str], tuple[ClusterMetrics, ...]] = field(default_factory=dict)
    at_metrics: dict[tuple[str, str], tuple[ClusterMetrics, ...]] = field(default_factory=dict)
    untested: tuple[int, ...] = ()
    at_skipped: dict[tuple[str, str], dict[int, str]] = field(default_factory=dict)
    funnel: dict[str, int] = field(default_factory=dict)

    def get(self, cell: str, mode: str, stage: str) -> ReportRow:
        for row in self.rows:
            if (row.cell, row.mode, row.stage) == (cell, mode, stage):
                return row
        raise KeyError((cell, mode, stage))


def derive_seed(*parts: int | str) -> int:
    """Stable derived seed from the experiment seed and a role tag."""
    entropy: list[int] = []
    for part in parts:
        if isinstance(part, str):
            entropy.extend(part.encode("utf-8"))
        else:
            entropy.append(int(part) & 0xFFFFFFFFFFFFFFFF)
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def split_users(users: Users | np.ndarray, fraction: float, seed: int) -> tuple:
    """Seeded shuffle; the first ceil(fraction * N) users train, the rest test.

    ``users`` is anything an index array selects from: a :class:`Users`
    table, or the row indices of one, as :func:`run_experiment` passes.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    n = len(users)
    n_train = math.ceil(fraction * n)
    perm = np.random.default_rng(seed).permutation(n)
    return users[perm[:n_train]], users[perm[n_train:]]


def _load_users(config: ExperimentConfig) -> tuple[Users, dict[str, int]]:
    """The eligible users and the funnel counts of how ingest got to them."""
    if config.synthetic is not None:
        users, _ = generate_synthetic(config.synthetic)
        return users, {"users_kept": len(users)}
    if config.ratings_path is None or config.movies_path is None:
        raise ValueError("config needs ratings_path and movies_path or a synthetic spec")
    movies = load_movies(config.movies_path)
    ratings = load_ratings(config.ratings_path)
    users, dropped = build_sequences(ratings, movies)
    return users, {
        "rating_rows": len(ratings),
        "movies_skipped_no_genre": movies.skipped_no_genre,
        "users_dropped": dropped,
        "users_kept": len(users),
    }


def _subsample(users: Users, config: ExperimentConfig) -> Users:
    if config.max_users is None or len(users) <= config.max_users:
        return users
    rng = np.random.default_rng(derive_seed(config.seed, "sample"))
    idx = rng.choice(len(users), size=config.max_users, replace=False)
    return users[np.sort(idx)]


# _profiles casts this many users' genres to float64 at a time.
_PROFILE_ROWS = 4096


def _profiles(users: Users) -> np.ndarray:
    """(n, 19) rating profiles, one :func:`rating_profile` call per user.

    Each call gets its user's genres as float64 rows of a cast block, so it
    computes on the same arrays as on a float64 table.
    """
    points = np.empty((len(users), N_GENRES))
    for start in range(0, len(users), _PROFILE_ROWS):
        block = users.genres[start : start + _PROFILE_ROWS].astype(np.float64)
        for i, (g, r) in enumerate(zip(block, users.rating[start : start + _PROFILE_ROWS]), start):
            points[i] = rating_profile(g, r)
    return points


def _fit_and_score(
    fits: dict[tuple[int, FeatureMode], tuple[tuple[Dataset, Dataset], np.ndarray, int]],
    cell: CellKind,
    config: ExperimentConfig,
) -> dict[tuple[int, FeatureMode], ClusterMetrics]:
    """Fit a model per (group, mode) key as one ragged stack, and score each.

    Each value holds the group's (train, test) samples, its transition
    probabilities and the fit's seed; the modes share an input width.  The
    test sets are featurized and scored one model at a time after the
    stack's training inputs are dropped, so none is alive with them.
    """
    results = train(
        [featurize(samples[0], probs, mode) for (_, mode), (samples, probs, _) in fits.items()],
        cell,
        [replace(config.train, seed=seed) for _, _, seed in fits.values()],
    )
    scores = {}
    for ((g, mode), (samples, probs, _)), result in zip(fits.items(), results):
        test = featurize(samples[1], probs, mode)
        counts = confusion_counts(predict(result.params, test.inputs), test.targets)
        scores[g, mode] = cluster_metrics(g, counts)
    return scores


def _summary(scores: dict[int, ClusterMetrics]) -> list[tuple[str, ClusterMetrics | Metrics]]:
    """(cluster, metrics) of the best and the worst cluster by F1, then of the mean."""
    best = min(scores, key=lambda c: (-scores[c].f1, c))
    worst = min(scores, key=lambda c: (scores[c].f1, c))
    mean = mean_cluster_metrics(list(scores.values()))
    return [(str(best), scores[best]), (str(worst), scores[worst]), ("mean", mean)]


def run_experiment(config: ExperimentConfig) -> EvalReport:
    """Execute the full pipeline and (optionally) write report files.

    The report's ``funnel`` holds ``users_kept`` (eligible users) and
    ``users_after_max_users``; on CSV input also ``rating_rows``,
    ``movies_skipped_no_genre`` and ``users_dropped`` (fewer than five
    rated movies with genres).  Past the rating profiles a run reads
    nothing but the users' genres, so it keeps that one (n, 5, 19) array and
    drops the rest of the table.
    """
    users, funnel = _load_users(config)
    users = _subsample(users, config)
    funnel["users_after_max_users"] = len(users)

    points = _profiles(users)
    genres = users.genres
    del users
    cmodel: ClusterModel = kmeans(points, config.k, seed=derive_seed(config.seed, "kmeans"))
    del points
    clusters = np.unique(cmodel.labels).tolist()

    # Group -1 holds every user (BC); group c holds cluster c (AC, and AT
    # once trimmed).  Each group has its row mask of ``genres`` (rows are
    # copied when needed, so no group's copy outlives its use) and the seed
    # roles of its split and its fits.
    groups = {-1: (np.ones(len(genres), dtype=bool), ("split-global",), ("train-bc",))}
    groups.update({c: (cmodel.labels == c, ("split-cluster", c), ("train-ac", c)) for c in clusters})
    probs: dict[int, np.ndarray] = {}
    samples: dict[int, tuple[Dataset, Dataset]] = {}
    for g, (selection, split_role, _) in groups.items():
        train_rows, test_rows = split_users(
            np.flatnonzero(selection), config.split_fraction, derive_seed(config.seed, *split_role)
        )
        train_genres = genres[train_rows]
        probs[g] = TransitionModel.from_sequences(train_genres).probs
        samples[g] = (genre_samples(train_genres), genre_samples(genres[test_rows]))
    untested = tuple(c for c in clusters if not samples[c][1])
    if len(untested) == len(clusters):
        raise EmptyDataset(
            f"no cluster has a test sample ({len(genres)} users in {len(clusters)} clusters)"
        )

    # The modes of one input width train as one stack per group: Concat
    # alone, the others together.
    widths = [feature_dim(mode) for mode in config.modes]
    stacks = [
        [mode for mode, w in zip(config.modes, widths) if w == width] for width in dict.fromkeys(widths)
    ]
    # Every per-(cell, mode) result is keyed in report order.
    order = [(cell.value, mode.value) for cell in config.cells for mode in config.modes]
    tables: dict[tuple[str, str], tuple] = {}
    ac_details = dict.fromkeys(order, ())
    at_details = dict.fromkeys(order, ())
    at_skipped: dict[tuple[str, str], dict[int, str]] = {tags: {} for tags in order}

    for cell in config.cells:
        for modes in stacks:
            seeds = {
                (g, mode): derive_seed(config.seed, *fit, cell.value, mode.value)
                for g, (_, _, fit) in groups.items()
                for mode in modes
            }
            # BC trains alone, then every tested cluster's AC fits as one
            # ragged stack.
            fits = {key: (samples[key[0]], probs[key[0]], seed) for key, seed in seeds.items()}
            fitted = _fit_and_score({key: fits[key] for key in fits if key[0] < 0}, cell, config)
            tested = {key: fits[key] for key in fits if key[0] >= 0 and key[0] not in untested}
            fitted |= _fit_and_score(tested, cell, config)
            scores = {mode: {g: fitted[g, mode] for g in groups if (g, mode) in fitted} for mode in modes}
            bc = {mode: scores[mode].pop(-1) for mode in modes}
            ac = {mode: _summary(scores[mode]) for mode in modes}
            selected = {mode: select_trim_clusters(scores[mode].values(), config.eta) for mode in modes}

            # AT retrains every selected cluster, each for the modes that
            # selected it with its AC seed, as one more ragged stack.
            at = {mode: dict(scores[mode]) for mode in modes}
            retrain = {}
            for c in sorted(set().union(*selected.values())):
                chosen = [mode for mode in modes if c in selected[mode]]
                mgm = MovieGenreMatrix.from_sequences(genres[groups[c][0]])
                _, zeroed = trim_genres(mgm, config.theta)
                if not zeroed:
                    reason = "trim zeroed no genre"
                else:
                    trimmed = tuple(apply_trim_to_dataset(d, zeroed)[0] for d in samples[c])
                    if all(trimmed):
                        retrain.update({(c, mode): (trimmed, probs[c], seeds[c, mode]) for mode in chosen})
                        continue
                    emptied = [name for name, d in zip(("training", "test"), trimmed) if not d]
                    reason = f"trim left no {' or '.join(emptied)} samples"
                for mode in chosen:
                    at_skipped[(cell.value, mode.value)][c] = reason
            if retrain:
                for (c, mode), m in _fit_and_score(retrain, cell, config).items():
                    at[mode][c] = m

            for mode in modes:
                tags = (cell.value, mode.value)
                _, at_worst, at_mean = _summary(at[mode])
                ac_best, ac_worst, ac_mean = ac[mode]
                tables[tags] = (
                    ("all", bc[mode]), ac_best, ac_worst, ac_mean, ac_mean, ac_worst, at_worst, at_mean
                )
                ac_details[tags] = tuple(scores[mode].values())
                at_details[tags] = tuple(at[mode].values())

    rows = [
        ReportRow(*tags, stage, cluster, m.recall, m.precision, m.accuracy, m.f1)
        for tags in order
        for stage, (cluster, m) in zip(STAGES, tables[tags])
    ]

    report = EvalReport(tuple(rows), ac_details, at_details, untested, at_skipped, funnel)
    if config.out_dir is not None:
        transitions = {"all" if g < 0 else str(g): p for g, p in probs.items()}
        emit_report(report, config.out_dir, transitions if config.dump_transitions else None)
    return report


def _atomic_write(path: Path, write: Callable[[Path], object]) -> None:
    """``write`` a temporary file, then rename it to ``path``; no temporary outlives a failure."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def report_csv_text(report: EvalReport) -> str:
    lines = [REPORT_HEADER]
    for r in report.rows:
        values = ((getattr(r, n), metric) for n, metric in _COLUMNS)
        lines.append(",".join(f"{v:.4f}" if metric else v for v, metric in values))
    return "\n".join(lines) + "\n"


def emit_report(
    report: EvalReport,
    out_dir: str | Path,
    transitions: dict[str, np.ndarray] | None = None,
) -> None:
    """Write report.csv / report.json (and matrix dumps) atomically."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = [
        {n: round(getattr(r, n), 4) if metric else getattr(r, n) for n, metric in _COLUMNS}
        for r in report.rows
    ]
    texts = {"report.csv": report_csv_text(report), "report.json": json.dumps(records, indent=2) + "\n"}
    for name, text in texts.items():
        _atomic_write(out / name, lambda tmp: tmp.write_text(text, encoding="utf-8"))
    for name, probs in (transitions or {}).items():
        _atomic_write(out / f"transitions_{name}.csv", lambda tmp: write_probability_csv(probs, tmp))
