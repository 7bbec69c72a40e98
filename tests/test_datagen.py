"""The archetype generator against its scalar reference and its own spec.

``write_archetype_dataset`` keys buckets by integer id and draws each
user's events with one bounded-int call.  ``_reference_dataset`` keeps the
generator it replaced: string-keyed buckets and the scalar per-event loop
(two RNG calls per event), in private copies that share no function with
the code under test.  So the byte comparison runs on any numpy build,
unlike the sha256 pins in ``test_golden.py``.  ``TestNumpyStream`` pins
the numpy behaviour that makes the two equal; if a numpy upgrade breaks
it, those tests name the broken equivalence.
"""

from __future__ import annotations

import csv
import errno
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from genreseq import datagen
from genreseq.datagen import (
    _CLASSICS_RATINGS,
    _DIFFUSE_MIDS,
    _DIFFUSE_POOL_SIZE,
    _DIFFUSE_RARES,
    _DIFFUSE_RATINGS,
    _MID_SLOTS,
    _POOL_ONE,
    _POOL_TWO,
    _RARE_SLOTS,
    _SHARP_RATINGS,
    _TWIN_HI_RATINGS,
    _TWIN_LO_RATINGS,
    N_ARCHETYPES,
    write_archetype_dataset,
)
from genreseq.errors import InvalidSpec
from genreseq.ingest import NO_GENRES_TOKEN, build_sequences, load_movies, load_ratings


def _title(movie_id):
    if movie_id % 13 == 0:
        return f"Feature, The (Part {movie_id}) (2020)"
    return f"Synthetic Feature #{movie_id} (2020)"


def _build_diffuse_sets(rng):
    anchors = [("Adventure", "Fantasy")] * 175 + [("Adventure",)] * 135 + [("Fantasy",)] * 115 + [()] * 75
    rng.shuffle(anchors)
    slots = []
    for genre in _DIFFUSE_MIDS:
        slots.extend([genre] * _MID_SLOTS)
    for genre in _DIFFUSE_RARES:
        slots.extend([genre] * _RARE_SLOTS)
    slots_arr = np.array(slots)
    rng.shuffle(slots_arr)
    return [
        tuple(sorted(set(anchors[i]) | {str(slots_arr[2 * i]), str(slots_arr[2 * i + 1])}))
        for i in range(_DIFFUSE_POOL_SIZE)
    ]


def _catalog_specs(rng):
    """(bucket key, genres, count) of every movie bucket, in movie-id order."""
    specs = [
        (f"{name}_t{i}", (pool[i], pool[(i + 1) % 4]), 30)
        for name, pool in (("p1", _POOL_ONE), ("p2", _POOL_TWO))
        for i in range(4)
    ]
    specs += [
        ("sharp_base", ("Horror", "Mystery"), 30),
        ("sharp_solo", ("Horror",), 30),
        ("sharp_full", ("Horror", "Mystery", "Thriller"), 30),
        ("cls_base", ("War", "Western"), 30),
        ("cls_solo", ("War",), 30),
        ("cls_full", ("Documentary", "War", "Western"), 30),
    ]
    specs += [(f"dif_{i}", g, 1) for i, g in enumerate(_build_diffuse_sets(rng))]
    specs.append(("none", (NO_GENRES_TOKEN,), 5))
    return specs


def _twin_buckets(rng, pool_name, shift):
    history = list(rng.permutation(4)) + [int(rng.integers(0, 4))]
    if rng.random() < 0.9:
        target = (history[4] + shift) % 4
    else:
        target = int(rng.integers(0, 4))
    return [f"{pool_name}_t{int(i)}" for i in history] + [f"{pool_name}_t{target}"]


def _patterned_buckets(rng, prefix):
    history = [f"{prefix}_base"] * 3 + [f"{prefix}_full"] * 2
    rng.shuffle(history)
    target = str(rng.choice([f"{prefix}_base", f"{prefix}_solo", f"{prefix}_full"], p=[0.72, 0.12, 0.16]))
    return history + [target]


def _diffuse_buckets(rng):
    return [f"dif_{i}" for i in rng.integers(0, _DIFFUSE_POOL_SIZE, size=6)]


def _reference_dataset(out_dir, users_per_archetype, seed):
    """The scalar per-event generator: rng.integers and rng.choice per event."""
    rng = np.random.default_rng(seed)
    buckets = {}
    movie_rows = []
    for key, genres, count in _catalog_specs(rng):
        first = len(movie_rows) + 1
        buckets[key] = range(first, first + count)
        movie_rows += [(i, _title(i), "|".join(genres)) for i in buckets[key]]

    heavy = int(round(users_per_archetype * 1.2))
    light = 2 * users_per_archetype - heavy
    roster = [
        (heavy, _TWIN_HI_RATINGS, lambda: _twin_buckets(rng, "p1", 1)),
        (light, _TWIN_LO_RATINGS, lambda: _twin_buckets(rng, "p1", 2)),
        (heavy, _TWIN_HI_RATINGS, lambda: _twin_buckets(rng, "p2", 1)),
        (light, _TWIN_LO_RATINGS, lambda: _twin_buckets(rng, "p2", 2)),
        (users_per_archetype, _SHARP_RATINGS, lambda: _patterned_buckets(rng, "sharp")),
        (users_per_archetype, _CLASSICS_RATINGS, lambda: _patterned_buckets(rng, "cls")),
        (users_per_archetype, _DIFFUSE_RATINGS, lambda: _diffuse_buckets(rng)),
    ]
    genreless = buckets["none"]
    ratings_rows = []
    user_id = 0
    for count, grid, draw in roster:
        for _ in range(count):
            user_id += 1
            base = 1_000_000_000 + user_id * 100
            for j, bucket in enumerate(draw()):
                ids = buckets[bucket]
                movie_id = ids[rng.integers(0, len(ids))]
                rating = float(rng.choice(grid))
                ratings_rows.append((user_id, movie_id, rating, base + 10 * j))
            if user_id % 50 == 0:
                movie_id = genreless[rng.integers(0, len(genreless))]
                ratings_rows.append((user_id, movie_id, float(rng.choice(grid)), base + 25))
    any_bucket = buckets["p1_t0"]
    for _ in range(25):
        user_id += 1
        base = 1_000_000_000 + user_id * 100
        for j in range(3):
            movie_id = any_bucket[rng.integers(0, len(any_bucket))]
            ratings_rows.append((user_id, movie_id, 3.0, base + 10 * j))

    out_dir.mkdir(parents=True)
    paths = out_dir / "movies.csv", out_dir / "ratings.csv"
    for path, header, rows in zip(
        paths,
        (["movieId", "title", "genres"], ["userId", "movieId", "rating", "timestamp"]),
        (movie_rows, ratings_rows),
    ):
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(rows)
    return paths


# (1, 11) has one user per light twin archetype; (150, 1) has 21 genre-less
# events; (5, 7) puts a casual user on id 50, which gets no genre-less event;
# (600, 0) is the gated-concat benchmark's data.
@pytest.mark.parametrize("users_per_archetype, seed", [(1, 11), (5, 7), (20, 0), (60, 3), (150, 1), (600, 0)])
def test_bytes_match_scalar_reference(tmp_path, users_per_archetype, seed):
    expected = _reference_dataset(tmp_path / "ref", users_per_archetype, seed)
    got = write_archetype_dataset(tmp_path / "new", users_per_archetype, seed=seed)
    for want, have in zip(expected, got):
        assert have.read_bytes() == want.read_bytes(), have.name


@pytest.mark.parametrize("users_per_archetype", [0, -5])
def test_fewer_than_one_user_per_archetype_rejected(tmp_path, users_per_archetype):
    with pytest.raises(InvalidSpec, match="users_per_archetype"):
        write_archetype_dataset(tmp_path / "out", users_per_archetype)
    assert not (tmp_path / "out").exists()


class _FullDisk:
    """A text handle that writes ``room`` characters, then fails as a full disk would."""

    def __init__(self, handle, room):
        self.handle, self.room = handle, room

    def write(self, text):
        if len(text) > self.room:
            self.handle.write(text[: self.room])
            raise OSError(errno.ENOSPC, "No space left on device")
        self.room -= len(text)
        return self.handle.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()


def _fill_disk_in_ratings(monkeypatch):
    """Make ratings.csv writes stop with ENOSPC after 10,000 characters."""

    def open_(path, *args, **kwargs):
        handle = open(path, *args, **kwargs)
        return _FullDisk(handle, 10_000) if Path(path).name.startswith("ratings") else handle

    monkeypatch.setattr(datagen, "open", open_, raising=False)


def test_interrupted_write_leaves_no_partial_file(tmp_path, monkeypatch):
    _fill_disk_in_ratings(monkeypatch)
    with pytest.raises(OSError, match="No space left"):
        write_archetype_dataset(tmp_path / "out", 20)
    assert list((tmp_path / "out").iterdir()) == []


def test_interrupted_rewrite_keeps_previous_files(tmp_path, monkeypatch):
    paths = write_archetype_dataset(tmp_path, 5, seed=1)
    before = [path.read_bytes() for path in paths]
    _fill_disk_in_ratings(monkeypatch)
    with pytest.raises(OSError, match="No space left"):
        write_archetype_dataset(tmp_path, 20, seed=2)
    assert [path.read_bytes() for path in paths] == before
    assert sorted(path.name for path in tmp_path.iterdir()) == ["movies.csv", "ratings.csv"]


def test_peak_memory_is_seven_event_columns(tmp_path):
    # One 1,500-per-archetype call: 63,285 events.  The call holds its event
    # columns (8 bytes an event each), at most seven at once while the
    # timestamps are built, and then one chunk of ratings.csv rows as Python
    # objects and text, which at 4,096 rows fits in the three columns freed
    # by then.  Measured: 3.19 MB against this bound of 3.80 MB (numpy
    # 2.4.6).  Whole-file row lists or a whole-file string exceed it; the
    # string-keyed generator peaked at 17.7 MB.
    assert datagen._RATING_ROWS <= 4096
    n = 1500
    events = 6 * N_ARCHETYPES * n + N_ARCHETYPES * n // 50 + 3 * 25
    tracemalloc.start()
    try:
        write_archetype_dataset(tmp_path, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 7 * 8 * events + 256 * 1024


class TestNumpyStream:
    """The numpy Generator behaviour the one-draw-per-user generator rests on."""

    BOUNDS = [1, 2, 4, 30, 500, 5, 3, 1, 1, 2, 30, 7, 1000, 2**31, 2**40]

    def test_per_element_bounds_equal_scalar_loop(self):
        for seed in range(5):
            bounds = np.random.default_rng(100 + seed).choice(self.BOUNDS, size=2000)
            loop, bulk = np.random.default_rng(seed), np.random.default_rng(seed)
            expected = [int(loop.integers(0, b)) for b in bounds]
            assert bulk.integers(0, bounds.tolist()).tolist() == expected
            assert bulk.random() == loop.random()

    def test_bound_one_draws_nothing(self):
        loop, bulk = np.random.default_rng(3), np.random.default_rng(3)
        assert bulk.integers(0, [1, 1, 1]).tolist() == [0, 0, 0]
        assert bulk.random() == loop.random()

    def test_choice_equals_index_draw(self):
        grid = (2.0, 2.5, 3.0)
        for seed in range(5):
            choose, index = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(200):
                assert float(choose.choice(grid)) == grid[index.integers(0, len(grid))]
            assert choose.random() == index.random()

    def test_weighted_choice_equals_cdf_search(self):
        names = ["base", "solo", "full"]
        p = [0.72, 0.12, 0.16]
        cdf = np.cumsum(p)
        cdf /= cdf[-1]
        for seed in range(5):
            choose, search = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(200):
                want = names[int(np.searchsorted(cdf, search.random(), side="right"))]
                assert str(choose.choice(names, p=p)) == want
            assert choose.random() == search.random()


class TestStructure:
    """What the module docstring promises, read back from the files."""

    N = 60

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        return write_archetype_dataset(tmp_path_factory.mktemp("arch"), self.N, seed=3)

    @pytest.fixture(scope="class")
    def events(self, files):
        by_user = defaultdict(list)
        with open(files[1], newline="", encoding="utf-8") as handle:
            for row in list(csv.reader(handle))[1:]:
                user, movie, rating, stamp = row
                by_user[int(user)].append((int(movie), float(rating), int(stamp)))
        return by_user

    def test_event_counts_and_timestamps(self, files, events):
        with open(files[0], newline="", encoding="utf-8") as handle:
            genreless = {int(r[0]) for r in list(csv.reader(handle))[1:] if r[2] == NO_GENRES_TOKEN}
        n_archetype = N_ARCHETYPES * self.N
        assert sorted(events) == list(range(1, n_archetype + 26))
        for user, rows in events.items():
            base = 1_000_000_000 + 100 * user
            if user > n_archetype:
                assert [t for _, _, t in rows] == [base, base + 10, base + 20]
                assert [r for _, r, _ in rows] == [3.0] * 3
                continue
            stamps = [base + 10 * j for j in range(6)]
            if user % 50 == 0:
                stamps.append(base + 25)
                assert rows[-1][0] in genreless
            assert [t for _, _, t in rows] == stamps
            assert not {m for m, _, _ in rows[:6]} & genreless

    def test_ratings_lie_in_archetype_grid(self, events):
        heavy = round(1.2 * self.N)
        light = 2 * self.N - heavy
        grids = [
            (heavy, _TWIN_HI_RATINGS),
            (light, _TWIN_LO_RATINGS),
            (heavy, _TWIN_HI_RATINGS),
            (light, _TWIN_LO_RATINGS),
            (self.N, _SHARP_RATINGS),
            (self.N, _CLASSICS_RATINGS),
            (self.N, _DIFFUSE_RATINGS),
        ]
        user = 0
        for count, grid in grids:
            seen = set()
            for user in range(user + 1, user + count + 1):
                seen |= {r for _, r, _ in events[user]}
            assert seen <= set(grid)

    def test_build_sequences_keeps_archetype_users(self, files):
        users, dropped = build_sequences(load_ratings(files[1]), load_movies(files[0]))
        assert len(users) == N_ARCHETYPES * self.N
        assert dropped == 25
