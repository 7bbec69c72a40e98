"""The benchmark's workloads: dataset size plus the experiment they run.

Every workload runs on ``write_archetype_dataset`` output generated from
the workload seed, with k=7, experiment seed 42 and the ``TrainConfig``
defaults except where a field below says otherwise.  Epochs set the run
length.  ``golden`` pins the sha256 of ``report.csv`` at
``DEFAULT_SEED``; a change that alters the reported numbers on purpose
re-pins it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0
EXPERIMENT_SEED = 42


@dataclass(frozen=True)
class Workload:
    name: str
    users_per_archetype: int
    cells: tuple[str, ...]
    modes: tuple[str, ...]
    epochs: int
    batch_size: int
    golden: str


WORKLOADS = {
    w.name: w
    for w in (
        # North-star acceptance config, shortened: the batch-32 RNN train
        # step (per-call overhead bound) does most of the work.
        Workload(
            "acceptance-rnn",
            users_per_archetype=1500,
            cells=("RNN",),
            modes=("Product", "GenreOnly"),
            epochs=10,
            batch_size=32,
            golden="9e6036bc24c042b2a5d182aff55355c6b559c307580747fa1db25779c9105d20",
        ),
        # Gated cells on wide (d=38) inputs at a GEMM-heavier batch, with
        # more AT retrains per fit than acceptance-rnn.
        Workload(
            "gated-concat",
            users_per_archetype=600,
            cells=("LSTM", "GRU"),
            modes=("Concat",),
            epochs=10,
            batch_size=224,
            golden="abde7b5ff1d8fd03a5842bfa10a2ce20867e8042df101072681bc498441bb299",
        ),
        # The >=100k-user ingest run: ingest, clustering and transitions
        # do nearly all the work, training almost none.  It runs by name
        # but is not in BENCHMARK.json: one call takes 23-32 s on a shared
        # 2-vCPU VM, so a run holds a single call and its time swings with
        # the load of the other tenants.
        Workload(
            "data-140k",
            users_per_archetype=20000,
            cells=("RNN",),
            modes=("GenreOnly",),
            epochs=1,
            batch_size=32,
            golden="3927fdafe8fbeaf7df9c4e4aca40cdac9c0a17bf3b83fab1736f9dfeb0878dfa",
        ),
    )
}


def experiment_config(workload: Workload, data_dir: Path, out_dir: Path):
    from genreseq import CellKind, ExperimentConfig, FeatureMode, TrainConfig

    return ExperimentConfig(
        ratings_path=data_dir / "ratings.csv",
        movies_path=data_dir / "movies.csv",
        k=7,
        cells=tuple(CellKind(c) for c in workload.cells),
        modes=tuple(FeatureMode(m) for m in workload.modes),
        train=TrainConfig(epochs=workload.epochs, batch_size=workload.batch_size, seed=0),
        seed=EXPERIMENT_SEED,
        out_dir=out_dir,
    )
