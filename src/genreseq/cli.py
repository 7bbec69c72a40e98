"""Command-line experiment runner.

Options can come from a flat JSON config file (``--config``), with every
command-line flag overriding its config key.  Exit code 0 on success,
2 with one ``error:`` line on stderr otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable
from pathlib import Path

import numpy as np

from .errors import GenreSeqError
from .experiment import ExperimentConfig, derive_seed, run_experiment
from .ingest import SyntheticSpec
from .nets import CellKind, TrainConfig
from .transitions import FeatureMode

_DEFAULTS = ExperimentConfig()
_TRAIN = TrainConfig()
_CONFIG_KEYS = {
    "ratings": _DEFAULTS.ratings_path,
    "movies": _DEFAULTS.movies_path,
    "synthetic_users": None,
    "k": _DEFAULTS.k,
    "eta": _DEFAULTS.eta,
    "theta": _DEFAULTS.theta,
    "cells": [c.value for c in _DEFAULTS.cells],
    "modes": [m.value for m in _DEFAULTS.modes],
    "seed": _DEFAULTS.seed,
    "split": _DEFAULTS.split_fraction,
    "out": _DEFAULTS.out_dir,
    "max_users": _DEFAULTS.max_users,
    "epochs": _TRAIN.epochs,
    "hidden_dim": _TRAIN.hidden_dim,
    "learning_rate": _TRAIN.learning_rate,
    "momentum": _TRAIN.momentum,
    "batch_size": _TRAIN.batch_size,
    "init_scale": _TRAIN.init_scale,
    "dump_transitions": _DEFAULTS.dump_transitions,
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
        help="generate N users from a seeded planted-chain model, in place of --ratings and --movies",
    )
    parser.add_argument("--k", type=int, help=f"number of user clusters (default {_DEFAULTS.k})")
    parser.add_argument("--eta", type=float, help=f"trim-cluster selection threshold (default {_DEFAULTS.eta})")
    parser.add_argument("--theta", type=float, help=f"sub-genre trim fraction (default {_DEFAULTS.theta})")
    parser.add_argument(
        "--cell",
        dest="cells",
        action="append",
        choices=[c.value for c in CellKind],
        help=f"cell kind; repeat for several (default {', '.join(_CONFIG_KEYS['cells'])})",
    )
    parser.add_argument(
        "--mode",
        dest="modes",
        action="append",
        choices=[m.value for m in FeatureMode],
        help=f"feature mode; repeat for several (default {', '.join(_CONFIG_KEYS['modes'])})",
    )
    parser.add_argument("--seed", type=int, help=f"master seed (default {_DEFAULTS.seed})")
    parser.add_argument("--split", type=float, help=f"train fraction in (0,1) (default {_DEFAULTS.split_fraction})")
    parser.add_argument("--out", help="directory for report.csv / report.json")
    parser.add_argument("--max-users", type=int, help="seeded subsample of eligible users")
    parser.add_argument("--epochs", type=int, help=f"training epochs (default {_TRAIN.epochs})")
    parser.add_argument("--hidden-dim", type=int, help=f"hidden units (default {_TRAIN.hidden_dim})")
    parser.add_argument("--learning-rate", type=float, help=f"SGD learning rate (default {_TRAIN.learning_rate})")
    parser.add_argument(
        "--dump-transitions",
        action="store_true",
        default=None,
        help="also write transitions_<cluster>.csv matrices",
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
        try:
            loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file {args.config} is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {args.config} does not hold a JSON object")
        unknown = set(loaded) - set(_CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        settings.update(loaded)
    # Every flag but --config stores under its config key.
    settings.update({k: v for k, v in vars(args).items() if k != "config" and v is not None})
    return settings


def _value(settings: dict, key: str, kind: Callable):
    """``kind(settings[key])``, or None where None is the default; a bad value's error names its key."""
    value = settings[key]
    if value is None and _CONFIG_KEYS[key] is None:
        return None
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config key {key!r}: {exc}") from None


def _whole(value) -> int:
    """``int(value)`` for a whole number or a numeric string; a fraction or a boolean is refused."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected a whole number, got {value!r}")
    return int(value)


def _real(value) -> float:
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def build_config(settings: dict) -> ExperimentConfig:
    seed = _value(settings, "seed", _whole)
    n_users = _value(settings, "synthetic_users", _whole)
    synthetic = None
    if n_users is not None:
        synthetic = SyntheticSpec(
            n_users=n_users,
            planted_matrix=_default_planted(derive_seed(seed, "planted")),
            genres_per_movie=(1, 3),
            seed=derive_seed(seed, "synthetic"),
        )
    train = TrainConfig(
        learning_rate=_value(settings, "learning_rate", _real),
        momentum=_value(settings, "momentum", _real),
        epochs=_value(settings, "epochs", _whole),
        batch_size=_value(settings, "batch_size", _whole),
        hidden_dim=_value(settings, "hidden_dim", _whole),
        init_scale=_value(settings, "init_scale", _real),
    )
    return ExperimentConfig(
        ratings_path=_value(settings, "ratings", os.fspath),
        movies_path=_value(settings, "movies", os.fspath),
        synthetic=synthetic,
        k=_value(settings, "k", _whole),
        eta=_value(settings, "eta", _real),
        theta=_value(settings, "theta", _real),
        cells=_value(settings, "cells", lambda cells: tuple(CellKind(c) for c in cells)),
        modes=_value(settings, "modes", lambda modes: tuple(FeatureMode(m) for m in modes)),
        train=train,
        split_fraction=_value(settings, "split", _real),
        seed=seed,
        out_dir=_value(settings, "out", os.fspath),
        max_users=_value(settings, "max_users", _whole),
        dump_transitions=_value(settings, "dump_transitions", _boolean),
    )


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = build_config(_merge_settings(args))
        report = run_experiment(config)
    except (GenreSeqError, OSError, ValueError) as exc:
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
