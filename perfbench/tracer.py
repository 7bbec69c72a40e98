"""Span tracer for one traced ``run_experiment``, installed from outside.

The tracer never edits ``genreseq``: it rebinds the names that
``genreseq.experiment`` and ``genreseq.nets`` look up at call time to
timing wrappers.  Coarse calls (ingest, k-means, featurize, each fit,
trim, emit) become spans of (id, name, start, end, parent id, info); a
run has a few hundred.  Per-call work that runs thousands of times
(the per-step ``forward_sequence`` / ``backward`` / ``bce_loss`` and the
per-user ``rating_profile``) is tallied as calls + seconds + samples
under its parent span instead.  Everything stays in memory until
:meth:`Tracer.dump` writes it once at the end of the run.

:func:`layer_metrics` turns a dumped trace into the per-layer metrics
named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import types
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = "experiment.run"
CELLS = ("RNN", "LSTM", "GRU")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.tallies: dict[tuple[int | None, str], list] = {}
        self._stack: list[int | None] = [None]

    def span(self, name, fn, info=None):
        """Wrap ``fn`` so each call records a span; ``info(args, result)`` adds fields."""

        def wrapper(*args, **kwargs):
            record = {"id": len(self.spans), "name": name, "parent": self._stack[-1]}
            self.spans.append(record)
            self._stack.append(record["id"])
            record["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = perf_counter()
                self._stack.pop()
            if info is not None:
                record.update(info(args, result))
            return result

        return wrapper

    def tally(self, name, fn, samples=None):
        """Wrap ``fn`` so calls add to a (calls, seconds, samples) tally under the open span."""

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tally = self.tallies.setdefault((self._stack[-1], name), [0, 0.0, 0])
                tally[0] += 1
                tally[1] += elapsed
                tally[2] += samples(args) if samples is not None else 0

        return wrapper

    def dump(self, path: Path) -> None:
        tallies = [
            {"parent": parent, "name": name, "calls": c, "seconds": s, "samples": n}
            for (parent, name), (c, s, n) in self.tallies.items()
        ]
        Path(path).write_text(json.dumps({"spans": self.spans, "tallies": tallies}))


def install(tracer: Tracer) -> None:
    """Rebind the layer entry points that ``run_experiment`` and ``train`` call."""
    from genreseq import experiment as ex
    from genreseq import nets

    def rows(args, result):
        return {"rows": len(result)}

    def sequences(args, result):
        return {"kept": len(result[0]), "dropped": int(result[1])}

    def iters(args, result):
        # inertia_history holds one entry per Lloyd iteration plus the final one.
        return {"iters": len(result.inertia_history) - 1}

    def fit(args, result):
        return {"cell": args[1].value}

    def trimmed(args, result):
        return {"zeroed": len(result[1])}

    def dropped(args, result):
        return {"dropped": int(result[1])}

    ex.load_movies = tracer.span("ingest.load_movies", ex.load_movies)
    ex.load_ratings = tracer.span("ingest.load_ratings", ex.load_ratings, rows)
    ex.build_sequences = tracer.span("ingest.build_sequences", ex.build_sequences, sequences)
    ex.split_users = tracer.span("experiment.split", ex.split_users)
    ex.rating_profile = tracer.tally("clustering.rating_profile", ex.rating_profile)
    ex.kmeans = tracer.span("clustering.kmeans", ex.kmeans, iters)
    ex.TransitionModel = types.SimpleNamespace(
        from_sequences=tracer.span("transitions.count", ex.TransitionModel.from_sequences)
    )
    ex.genre_samples = tracer.span("transitions.genre_samples", ex.genre_samples)
    ex.featurize = tracer.span("transitions.featurize", ex.featurize, rows)
    ex.train = tracer.span("nets.train", ex.train, fit)
    ex.predict = tracer.span("nets.predict", ex.predict)
    ex.confusion_counts = tracer.span("evaluation.confusion", ex.confusion_counts)
    ex.cluster_metrics = tracer.span("evaluation.cluster_metrics", ex.cluster_metrics)
    ex.mean_cluster_metrics = tracer.span("evaluation.mean", ex.mean_cluster_metrics)
    ex.select_trim_clusters = tracer.span("evaluation.select_trim", ex.select_trim_clusters)
    ex.MovieGenreMatrix = types.SimpleNamespace(
        from_sequences=tracer.span("evaluation.trim_matrix", ex.MovieGenreMatrix.from_sequences)
    )
    ex.trim_genres = tracer.span("evaluation.trim_genres", ex.trim_genres, trimmed)
    ex.apply_trim_to_dataset = tracer.span("evaluation.apply_trim", ex.apply_trim_to_dataset, dropped)
    ex.emit_report = tracer.span("experiment.emit", ex.emit_report)

    batch = lambda args: len(args[0])  # noqa: E731  (inputs or logits come first)
    nets.forward_sequence = tracer.tally("nets.fwd", nets.forward_sequence, batch)
    nets.backward = tracer.tally("nets.bwd", nets.backward, lambda args: len(args[1]))
    nets.bce_loss = tracer.tally("nets.loss", nets.bce_loss, batch)
    ex.run_experiment = tracer.span(ROOT, ex.run_experiment)


def _train_metrics(prefix: str, fits: list[dict], steps: dict, cells: tuple[str, ...]) -> dict:
    """Training time split into forward, backward, loss and the rest (update)."""
    group = [s for s in fits if s["cell"] in cells]
    train_s = sum(s["end"] - s["start"] for s in group)
    fwd, bwd, loss = (
        [sum(steps[(c, name)][i] for c in cells) for i in range(3)]
        for name in ("nets.fwd", "nets.bwd", "nets.loss")
    )
    update_s = train_s - fwd[1] - bwd[1] - loss[1]
    stepped = bwd[2]
    per = lambda x: x / stepped * 1e6 if stepped else 0.0  # noqa: E731
    return {
        f"{prefix}.train_s": train_s,
        f"{prefix}.fits": len(group),
        f"{prefix}.train_steps": bwd[0],
        f"{prefix}.samples_stepped": stepped,
        f"{prefix}.fwd_s": fwd[1],
        f"{prefix}.bwd_s": bwd[1],
        f"{prefix}.loss_s": loss[1],
        f"{prefix}.loss_calls": loss[0],
        f"{prefix}.update_s": update_s,
        f"{prefix}.fwd_us_per_sample": per(fwd[1]),
        f"{prefix}.bwd_us_per_sample": per(bwd[1]),
        f"{prefix}.update_us_per_sample": per(update_s),
    }


def layer_metrics(trace: dict, untraced_run_s: float) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics from a dumped trace (spans + tallies).

    Returns the metrics every workload has, and the training metrics split
    per cell (``nets.<CELL>.*``) for the cells this workload runs.
    """
    spans = trace["spans"]
    by_id = {s["id"]: s for s in spans}
    (root,) = [s for s in spans if s["name"] == ROOT]
    dur = lambda s: s["end"] - s["start"]  # noqa: E731

    seconds: dict[str, float] = defaultdict(float)
    for s in spans:
        seconds[s["name"]] += dur(s)

    # Tallies are split by the kind of span they ran under: per-step work
    # inside a fit counts as training, forward calls inside predict do not.
    steps: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0])
    top_tallied = 0.0
    for t in trace["tallies"]:
        parent = by_id[t["parent"]]
        if parent is root:
            top_tallied += t["seconds"]
        owner = parent["cell"] if parent["name"] == "nets.train" else parent["name"]
        acc = steps[(owner, t["name"])]
        acc[0] += t["calls"]
        acc[1] += t["seconds"]
        acc[2] += t["samples"]

    top = [s for s in spans if s["parent"] == root["id"]]
    run_s = dur(root)
    m: dict[str, float] = {}
    per_cell: dict[str, float] = {}

    rows = sum(s.get("rows", 0) for s in spans if s["name"] == "ingest.load_ratings")
    m["ingest.load_movies_s"] = seconds["ingest.load_movies"]
    m["ingest.load_ratings_s"] = seconds["ingest.load_ratings"]
    m["ingest.build_sequences_s"] = seconds["ingest.build_sequences"]
    m["ingest.rows"] = rows
    m["ingest.rows_per_s"] = rows / seconds["ingest.load_ratings"] if rows else 0.0
    built = [s for s in spans if s["name"] == "ingest.build_sequences"]
    m["ingest.users_kept"] = sum(s["kept"] for s in built)
    m["ingest.users_dropped"] = sum(s["dropped"] for s in built)

    profile = [t for t in trace["tallies"] if t["name"] == "clustering.rating_profile"]
    m["clustering.rating_profile_s"] = sum(t["seconds"] for t in profile)
    m["clustering.rating_profile_calls"] = sum(t["calls"] for t in profile)
    m["clustering.kmeans_s"] = seconds["clustering.kmeans"]
    m["clustering.kmeans_iters"] = sum(s.get("iters", 0) for s in spans)

    samples = sum(s.get("rows", 0) for s in spans if s["name"] == "transitions.featurize")
    m["transitions.count_s"] = seconds["transitions.count"]
    m["transitions.genre_samples_s"] = seconds["transitions.genre_samples"]
    m["transitions.featurize_s"] = seconds["transitions.featurize"]
    m["transitions.featurize_samples"] = samples
    m["transitions.featurize_us_per_sample"] = (
        seconds["transitions.featurize"] / samples * 1e6 if samples else 0.0
    )

    fits = [s for s in spans if s["name"] == "nets.train"]
    m.update(_train_metrics("nets", fits, steps, CELLS))
    for cell in sorted({s["cell"] for s in fits}, key=CELLS.index):
        per_cell.update(_train_metrics(f"nets.{cell}", fits, steps, (cell,)))
    m["nets.predict_s"] = seconds["nets.predict"]

    # AT fits are the ones made between a trim selection and the AT-mean.
    at_fits, after_select = 0, False
    for s in sorted(spans, key=lambda s: s["start"]):
        if s["name"] == "evaluation.select_trim":
            after_select = True
        elif s["name"] == "evaluation.mean":
            after_select = False
        elif s["name"] == "nets.train" and after_select:
            at_fits += 1
    m["evaluation.confusion_s"] = seconds["evaluation.confusion"]
    m["evaluation.trim_s"] = sum(
        seconds[n] for n in ("evaluation.trim_matrix", "evaluation.trim_genres", "evaluation.apply_trim")
    )
    m["evaluation.trimmed_clusters"] = sum(1 for s in spans if s.get("zeroed", 0) > 0)
    m["evaluation.at_fits"] = at_fits
    m["evaluation.trim_dropped_samples"] = sum(
        s["dropped"] for s in spans if s["name"] == "evaluation.apply_trim"
    )

    top_s = sum(dur(s) for s in top) + top_tallied
    m["experiment.split_s"] = seconds["experiment.split"]
    m["experiment.emit_s"] = seconds["experiment.emit"]
    m["experiment.traced_run_s"] = run_s
    m["experiment.top_spans_s"] = top_s
    m["experiment.self_s"] = run_s - top_s
    m["experiment.trace_overhead_s"] = run_s - untraced_run_s
    m["experiment.spans"] = len(spans)
    return m, per_cell
