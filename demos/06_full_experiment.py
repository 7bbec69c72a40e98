#!/usr/bin/env python3
"""The full pipeline end to end on a generated MovieLens-format dataset.

Writes a small archetype dataset (seven planted user populations),
then runs: pooled baseline (BC) -> k-means clustering -> per-cluster
transition matrices and models (AC) -> sub-genre trimming of weak
clusters and retraining (BT/AT), and prints the stage table that also
lands in report.csv / report.json.

The same run is available from the command line:

    genreseq --ratings ratings.csv --movies movies.csv \
             --k 7 --cell RNN --mode Product --seed 42 --out results/
"""

import tempfile
import time
from pathlib import Path

from genreseq import (
    CellKind,
    ExperimentConfig,
    FeatureMode,
    TrainConfig,
    run_experiment,
    write_archetype_dataset,
)

with tempfile.TemporaryDirectory(prefix="genreseq_experiment_") as tmp:
    workdir = Path(tmp)
    movies_path, ratings_path = write_archetype_dataset(workdir, users_per_archetype=300, seed=0)
    print(f"wrote {movies_path.name} and {ratings_path.name} under {workdir}")

    config = ExperimentConfig(
        ratings_path=ratings_path,
        movies_path=movies_path,
        k=7,
        cells=(CellKind.RNN,),
        modes=(FeatureMode.PRODUCT,),
        train=TrainConfig(epochs=120, seed=0),
        seed=42,
        out_dir=workdir / "results",
        dump_transitions=True,
    )

    started = time.monotonic()
    report = run_experiment(config)
    print(f"pipeline finished in {time.monotonic() - started:.1f}s\n")
    written = sorted(p.name for p in (workdir / "results").iterdir())

print(f"{'stage':<9} {'cluster':<8} {'recall':>7} {'precision':>10} {'accuracy':>9} {'f1':>7}")
for row in report.rows:
    print(f"{row.stage:<9} {row.cluster:<8} {row.recall:>7.4f} {row.precision:>10.4f} "
          f"{row.accuracy:>9.4f} {row.f1:>7.4f}")

print("\nreading the table:")
bc = report.get("RNN", "Product", "BC")
best = report.get("RNN", "Product", "AC-best")
bt_worst = report.get("RNN", "Product", "BT-worst")
at_worst = report.get("RNN", "Product", "AT-worst")
print(f"  clustering lifts the best cluster F1 to {best.f1:.3f} from the pooled {bc.f1:.3f}")
print(f"  trimming moves the worst cluster recall {bt_worst.recall:.3f} -> {at_worst.recall:.3f}")

print(f"\nfiles in results/: {written}")
