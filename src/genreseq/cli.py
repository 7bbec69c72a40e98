"""Command-line experiment runner.

Options can come from a flat JSON config file (``--config``), with every
command-line flag overriding its config key.  Exit code 0 on success,
nonzero with a diagnostic line on stderr otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .errors import GenreSeqError
from .experiment import ExperimentConfig, derive_seed, run_experiment
from .ingest import SyntheticSpec
from .nets import CellKind, TrainConfig
from .transitions import FeatureMode

_CONFIG_KEYS = {
    "ratings": None,
    "movies": None,
    "synthetic_users": None,
    "k": 7,
    "eta": 0.5,
    "theta": 0.1,
    "cells": ["RNN"],
    "modes": ["Product"],
    "seed": 0,
    "split": 0.8,
    "out": None,
    "max_users": None,
    "epochs": 200,
    "hidden_dim": 32,
    "learning_rate": 0.05,
    "momentum": 0.9,
    "batch_size": 32,
    "init_scale": 0.1,
    "dump_transitions": False,
    "weighted_means": False,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genreseq",
        description="Run the sequential genre-prediction pipeline and emit report tables.",
    )
    parser.add_argument("--config", help="flat JSON config file; flags override its keys")
    parser.add_argument("--ratings", help="ratings CSV (userId,movieId,rating,timestamp)")
    parser.add_argument("--movies", help="movies CSV (movieId,title,genres)")
    parser.add_argument(
        "--synthetic",
        dest="synthetic_users",
        type=int,
        metavar="N_USERS",
        help="skip files; generate N users from a seeded planted-chain model",
    )
    parser.add_argument("--k", type=int, help="number of user clusters (default 7)")
    parser.add_argument("--eta", type=float, help="trim-cluster selection threshold (default 0.5)")
    parser.add_argument("--theta", type=float, help="sub-genre trim fraction (default 0.1)")
    parser.add_argument(
        "--cell",
        dest="cells",
        action="append",
        choices=[c.value for c in CellKind],
        help="cell kind; repeat for several (default RNN)",
    )
    parser.add_argument(
        "--mode",
        dest="modes",
        action="append",
        choices=[m.value for m in FeatureMode],
        help="feature mode; repeat for several (default Product)",
    )
    parser.add_argument("--seed", type=int, help="master seed (default 0)")
    parser.add_argument("--split", type=float, help="train fraction in (0,1) (default 0.8)")
    parser.add_argument("--out", help="directory for report.csv / report.json")
    parser.add_argument("--max-users", type=int, help="seeded subsample of eligible users")
    parser.add_argument("--epochs", type=int, help="training epochs (default 200)")
    parser.add_argument("--hidden-dim", type=int, help="hidden units (default 32)")
    parser.add_argument("--learning-rate", type=float, help="SGD learning rate (default 0.05)")
    parser.add_argument(
        "--dump-transitions",
        action="store_true",
        default=None,
        help="also write transitions_<cluster>.csv matrices",
    )
    parser.add_argument(
        "--weighted-means",
        action="store_true",
        default=None,
        help="weight cluster means by cluster test size instead of equally",
    )
    return parser


def _default_planted(seed: int) -> np.ndarray:
    """A self-affine random chain: learnable structure for demo runs."""
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(0.2, 1.0, (19, 19)) + 3.0 * np.eye(19)
    return matrix / matrix.sum(axis=1, keepdims=True)


def _merge_settings(args: argparse.Namespace) -> dict:
    settings = dict(_CONFIG_KEYS)
    if args.config:
        loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        unknown = set(loaded) - set(_CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        settings.update(loaded)
    # Every flag but --config stores under its config key.
    settings.update({k: v for k, v in vars(args).items() if k != "config" and v is not None})
    return settings


def build_config(settings: dict) -> ExperimentConfig:
    seed = int(settings["seed"])
    synthetic = None
    if settings["synthetic_users"] is not None:
        synthetic = SyntheticSpec(
            n_users=int(settings["synthetic_users"]),
            planted_matrix=_default_planted(derive_seed(seed, "planted")),
            genres_per_movie=(1, 3),
            seed=derive_seed(seed, "synthetic"),
        )
    train = TrainConfig(
        learning_rate=float(settings["learning_rate"]),
        momentum=float(settings["momentum"]),
        epochs=int(settings["epochs"]),
        batch_size=int(settings["batch_size"]),
        hidden_dim=int(settings["hidden_dim"]),
        init_scale=float(settings["init_scale"]),
        seed=seed,
    )
    return ExperimentConfig(
        ratings_path=settings["ratings"],
        movies_path=settings["movies"],
        synthetic=synthetic,
        k=int(settings["k"]),
        eta=float(settings["eta"]),
        theta=float(settings["theta"]),
        cells=tuple(CellKind(c) for c in settings["cells"]),
        modes=tuple(FeatureMode(m) for m in settings["modes"]),
        train=train,
        split_fraction=float(settings["split"]),
        seed=seed,
        out_dir=settings["out"],
        max_users=settings["max_users"],
        dump_transitions=bool(settings["dump_transitions"]),
        weighted_means=bool(settings["weighted_means"]),
    )


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = build_config(_merge_settings(args))
        report = run_experiment(config)
    except (GenreSeqError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    width = max(len(r.stage) for r in report.rows)
    for row in report.rows:
        print(
            f"{row.cell:<5} {row.mode:<10} {row.stage:<{width}} cluster={row.cluster:<5} "
            f"recall={row.recall:.4f} precision={row.precision:.4f} "
            f"accuracy={row.accuracy:.4f} f1={row.f1:.4f}"
        )
    if config.out_dir is not None:
        print(f"report written to {Path(config.out_dir) / 'report.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
