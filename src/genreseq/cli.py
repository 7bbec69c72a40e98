"""Command-line experiment runner.

Options can come from a flat JSON config file (``--config``), with every
command-line flag overriding its config key; a flag's value converts as
the same string would in the file.  Exit code 0 on success, 2 with one
``error:`` line on stderr otherwise; an unknown flag or a missing flag
value gets argparse's usage message.
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


def _members(kind: type, names) -> tuple:
    """The list ``names`` as a tuple of ``kind`` members."""
    if not isinstance(names, list):
        raise ValueError(f"expected a list, got {names!r}")
    return tuple(kind(name) for name in names)


# Each config key's converter and the ExperimentConfig field it sets;
# "train." marks a TrainConfig field.
_KEYS: dict[str, tuple[Callable, str]] = {
    "ratings": (os.fspath, "ratings_path"),
    "movies": (os.fspath, "movies_path"),
    "synthetic_users": (_whole, "synthetic"),
    "k": (_whole, "k"),
    "eta": (_real, "eta"),
    "theta": (_real, "theta"),
    "cells": (lambda names: _members(CellKind, names), "cells"),
    "modes": (lambda names: _members(FeatureMode, names), "modes"),
    "seed": (_whole, "seed"),
    "split": (_real, "split_fraction"),
    "out": (os.fspath, "out_dir"),
    "max_users": (_whole, "max_users"),
    "epochs": (_whole, "train.epochs"),
    "hidden_dim": (_whole, "train.hidden_dim"),
    "learning_rate": (_real, "train.learning_rate"),
    "momentum": (_real, "train.momentum"),
    "batch_size": (_whole, "train.batch_size"),
    "init_scale": (_real, "train.init_scale"),
    "dump_transitions": (_boolean, "dump_transitions"),
}


def _build_parser() -> argparse.ArgumentParser:
    # Every flag but --config stores its raw value under its config key,
    # so build_config converts it as it would the same value from a file.
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
        metavar="N_USERS",
        help="generate N users from a seeded planted-chain model, in place of --ratings and --movies",
    )
    parser.add_argument("--k", help=f"number of user clusters (default {_DEFAULTS.k})")
    parser.add_argument("--eta", help=f"trim-cluster selection threshold (default {_DEFAULTS.eta})")
    parser.add_argument("--theta", help=f"sub-genre trim fraction (default {_DEFAULTS.theta})")
    for flag, label, kind, default in (
        ("cell", "cell kind", CellKind, _DEFAULTS.cells),
        ("mode", "feature mode", FeatureMode, _DEFAULTS.modes),
    ):
        parser.add_argument(
            f"--{flag}",
            dest=f"{flag}s",
            action="append",
            metavar=flag.upper(),
            help=f"{label}: {', '.join(m.value for m in kind)}; repeat for several "
            f"(default {', '.join(m.value for m in default)})",
        )
    parser.add_argument("--seed", help=f"master seed (default {_DEFAULTS.seed})")
    parser.add_argument("--split", help=f"train fraction in (0,1) (default {_DEFAULTS.split_fraction})")
    parser.add_argument("--out", help="directory for report.csv / report.json")
    parser.add_argument("--max-users", help="seeded subsample of eligible users")
    parser.add_argument("--epochs", help=f"training epochs (default {_TRAIN.epochs})")
    parser.add_argument("--hidden-dim", help=f"hidden units (default {_TRAIN.hidden_dim})")
    parser.add_argument("--learning-rate", help=f"SGD learning rate (default {_TRAIN.learning_rate})")
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
    settings = {}
    if args.config:
        try:
            settings = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file {args.config} is not valid JSON: {exc}") from None
        if not isinstance(settings, dict):
            raise ValueError(f"config file {args.config} does not hold a JSON object")
        unknown = set(settings) - set(_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
    settings.update({k: v for k, v in vars(args).items() if k != "config" and v is not None})
    return settings


def build_config(settings: dict) -> ExperimentConfig:
    """``settings`` (config key -> raw value) converted; a key left out keeps its field's default.

    A bad value's error names its key; None is taken where the default is None.
    """
    config, train = {}, {}
    for key, (convert, field) in _KEYS.items():
        if key not in settings:
            continue
        name = field.removeprefix("train.")
        owner, defaults = (train, _TRAIN) if name != field else (config, _DEFAULTS)
        value = settings[key]
        if value is not None or getattr(defaults, name) is not None:
            try:
                value = convert(value)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"config key {key!r}: {exc}") from None
        owner[name] = value
    if config.get("synthetic") is not None:
        seed = config.get("seed", _DEFAULTS.seed)
        config["synthetic"] = SyntheticSpec(
            n_users=config["synthetic"],
            planted_matrix=_default_planted(derive_seed(seed, "planted")),
            genres_per_movie=(1, 3),
            seed=derive_seed(seed, "synthetic"),
        )
    return ExperimentConfig(**config, train=TrainConfig(**train))


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
