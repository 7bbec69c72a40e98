"""Run-vs-history check: a small pinned experiment writes pinned report bytes.

The determinism tests compare two runs of the same code; this one compares
a run against a report recorded earlier, so an optimization that moves any
reported digit fails here.  A change that alters the numbers on purpose
re-pins the digest and says why.  The archetype CSVs the report is
built from are pinned as well, so a generator change fails on its own
bytes.  The pins hold only for the numpy/BLAS build in
``helpers.PINNED_BUILD``, where they were recorded; elsewhere the tests
skip.
"""

import hashlib

import pytest

from genreseq import (
    CellKind,
    ExperimentConfig,
    FeatureMode,
    TrainConfig,
    run_experiment,
    write_archetype_dataset,
)

from .helpers import read_report_csv, requires_pinned_build

# Recorded on helpers.PINNED_BUILD.
GOLDEN_REPORT_SHA256 = "2a6607ac03d7e95ce743d487f8f2d16e0692d8a1271d7039a0c4e8ccf0cf215a"

# sha256 of write_archetype_dataset's (movies.csv, ratings.csv) per
# (users_per_archetype, seed), recorded on helpers.PINNED_BUILD.  These
# check the generator itself, not only through the reports built on it.
ARCHETYPE_CSV_SHA256 = {
    (20, 0): (
        "9a9c8bb69bfdc730ec017b6d09ef1248db1664a4f968ccee500bacdb076ec72a",
        "4ab3482c29b1ad72e7bef08b8204d04af0432a46552ed9703dbf572fbbadc961",
    ),
    (60, 3): (
        "9a5fc84e0a579d20417098e5fc251f2a8f86f76a0f30dff3763f25c4cb5a5dfa",
        "2b70bcafe90f9f502f03368a52d23bf4b101e1e68982972830c305a426920fdb",
    ),
}


@requires_pinned_build
@pytest.mark.parametrize("users_per_archetype, seed", sorted(ARCHETYPE_CSV_SHA256))
def test_pinned_archetype_csv_bytes(tmp_path, users_per_archetype, seed):
    paths = write_archetype_dataset(tmp_path, users_per_archetype=users_per_archetype, seed=seed)
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in paths)
    assert digests == ARCHETYPE_CSV_SHA256[(users_per_archetype, seed)]


@requires_pinned_build
def test_pinned_config_report_bytes(tmp_path):
    movies, ratings = write_archetype_dataset(tmp_path / "data", users_per_archetype=60, seed=0)
    config = ExperimentConfig(
        ratings_path=ratings,
        movies_path=movies,
        k=7,
        cells=(CellKind.RNN, CellKind.GRU),
        modes=(FeatureMode.PRODUCT, FeatureMode.CONCAT),
        train=TrainConfig(epochs=10),
        seed=42,
        out_dir=tmp_path / "out",
    )
    run_experiment(config)
    report = tmp_path / "out" / "report.csv"
    # 2 cells x 2 modes x 8 stages, and the trim stage retrained something.
    rows = read_report_csv(report)
    assert len(rows) == 32
    assert [r.f1 for r in rows if r.stage == "AT-mean"] != [
        r.f1 for r in rows if r.stage == "AC-mean"
    ]
    assert hashlib.sha256(report.read_bytes()).hexdigest() == GOLDEN_REPORT_SHA256
