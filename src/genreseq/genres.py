"""Fixed movie-genre alphabet and shared genre vector/matrix helpers.

Every other module works over the same 19-genre alphabet.  The order is
frozen so that report columns and serialized matrices stay bit-stable
across runs.  Movies are encoded as multi-hot vectors (several genres at
once); predicted distributions are non-negative vectors summing to one.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import EmptyGenreList, UnknownGenre

GENRES: tuple[str, ...] = (
    "Action",
    "Adventure",
    "Animation",
    "Children",
    "Comedy",
    "Crime",
    "Documentary",
    "Drama",
    "Fantasy",
    "Film-Noir",
    "Horror",
    "IMAX",
    "Musical",
    "Mystery",
    "Romance",
    "Sci-Fi",
    "Thriller",
    "War",
    "Western",
)

N_GENRES: int = len(GENRES)

_INDEX: dict[str, int] = {name: i for i, name in enumerate(GENRES)}


def genre_index(name: str) -> int:
    """Position of ``name`` in the fixed alphabet (0..18)."""
    try:
        return _INDEX[name]
    except KeyError:
        raise UnknownGenre(f"unknown genre: {name!r}") from None


def encode_genres(names: Iterable[str]) -> np.ndarray:
    """Multi-hot vector with a 1 at each named genre; duplicates collapse."""
    names = list(names)
    if not names:
        raise EmptyGenreList("movie carries no genres")
    vec = np.zeros(N_GENRES, dtype=np.float64)
    for name in names:
        vec[genre_index(name)] = 1.0
    return vec


def support_names(vec: np.ndarray) -> tuple[str, ...]:
    """Genre names at the nonzero entries, in alphabet order."""
    return tuple(GENRES[i] for i in np.flatnonzero(vec))


def is_row_stochastic(mat: np.ndarray, tol: float = 1e-9) -> bool:
    mat = np.asarray(mat)
    return (
        mat.shape == (N_GENRES, N_GENRES)
        and bool(np.all(mat >= 0.0))
        and bool(np.all(np.abs(mat.sum(axis=1) - 1.0) <= tol))
    )
