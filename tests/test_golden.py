"""Run-vs-history check: a small pinned experiment writes pinned report bytes.

The determinism tests compare two runs of the same code; this one compares
a run against a report recorded earlier, so an optimization that moves any
reported digit fails here.  A change that alters the numbers on purpose
re-pins the digest and says why.  The pin holds only for the numpy/BLAS
build in ``helpers.PINNED_BUILD``, where it was recorded; elsewhere the
test skips.
"""

import hashlib

from genreseq import (
    CellKind,
    ExperimentConfig,
    FeatureMode,
    TrainConfig,
    read_report_csv,
    run_experiment,
    write_archetype_dataset,
)

from .helpers import requires_pinned_build

# Recorded on helpers.PINNED_BUILD.
GOLDEN_REPORT_SHA256 = "2a6607ac03d7e95ce743d487f8f2d16e0692d8a1271d7039a0c4e8ccf0cf215a"


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
