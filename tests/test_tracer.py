"""The benchmark's span tracer still sees every layer a run calls.

``perfbench/tracer.py`` times a run by rebinding the names
``genreseq.experiment`` looks up at call time.  A refactor that stops
calling one of those names would make the traced metrics silently wrong,
so this installs the tracer on a small run (in a subprocess, since it
rebinds module globals) and checks that the fit counts add up.  The
synthetic run skips ingest, so a second run on a small CSV dataset checks
the ingest counts.  The tracer counts ``train`` calls, so a stacked fit of
several models counts once: per cell and input width, one BC call, one
call for every cluster's AC fits and one for every AT retrain.  The span
counts of the traced names check that the run still calls each of them:
per group (BC and each cluster) one split and one transition count, two
``genre_samples`` calls, and per cluster selected for trimming one trim
matrix.
"""

import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
from collections import Counter
import numpy as np
sys.path.insert(0, sys.argv[1])
from tracer import Tracer, install, layer_metrics
from genreseq import experiment
from genreseq import CellKind, ExperimentConfig, FeatureMode, SyntheticSpec, TrainConfig

planted = np.full((19, 19), 1.0 / 19) * 0.4 + 0.6 * np.eye(19)
config = ExperimentConfig(
    synthetic=SyntheticSpec(120, planted, genres_per_movie=(1, 2), seed=5),
    k=3,
    cells=(CellKind.RNN,),
    modes=tuple(FeatureMode(m) for m in sys.argv[2].split(",")),
    train=TrainConfig(epochs=8, hidden_dim=8, seed=0),
    seed=11,
)
# The dataset lengths of each train call, recorded under the tracer's span.
lengths = []
train = experiment.train


def recorded(datasets, cell, configs):
    lengths.append([len(d) for d in datasets])
    return train(datasets, cell, configs)


experiment.train = recorded
tracer = Tracer()
install(tracer)
report = experiment.run_experiment(config)
tracer.dump("trace.json")
metrics, _ = layer_metrics(json.loads(open("trace.json").read()), 0.0)
tags = [("RNN", m.value) for m in config.modes]
k = len(report.ac_metrics[tags[0]])
# Clusters retrained in some mode: each is one stacked AT fit.
retrained = {
    m.cluster
    for t in tags
    for m in report.ac_metrics[t]
    if m.p_min < config.eta and m.cluster not in report.at_skipped[t]
}
selected = {m.cluster for t in tags for m in report.ac_metrics[t] if m.p_min < config.eta}
spans = Counter(s["name"] for s in tracer.spans)
print(json.dumps({
    "k": k, "groups": config.k + 1, "retrained": len(retrained), "selected": len(selected),
    "lengths": lengths, "metrics": metrics, "spans": spans,
}))
"""


def traced_run(tmp_path, modes):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(REPO / "perfbench"), modes],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def samples_stepped(result):
    """Each model steps ceil(n / batch) batches per epoch: 8 epochs at batch 32."""
    return sum(8 * math.ceil(n / 32) for call in result["lengths"] for n in call)


def test_traced_fit_counts_add_up(tmp_path):
    result = traced_run(tmp_path, "Product")
    m = result["metrics"]
    # One BC call, one AC call for every cluster and one AT call.
    assert result["retrained"] > 0
    assert m["evaluation.at_fits"] == 1
    assert m["nets.fits"] == len(result["lengths"]) == 3
    assert [len(call) for call in result["lengths"]] == [1, result["k"], result["retrained"]]
    assert m["nets.loss_calls"] == m["nets.train_steps"] > 0
    assert m["nets.samples_stepped"] == samples_stepped(result)
    assert m["clustering.rating_profile_calls"] == 120
    assert m["transitions.featurize_samples"] > 0
    assert_group_spans(result)


def assert_group_spans(result):
    """One split and one count per group, two genre_samples, one trim matrix per selected cluster."""
    spans = Counter(result["spans"])
    assert spans["experiment.split"] == spans["transitions.count"] == result["groups"]
    assert spans["transitions.genre_samples"] == 2 * result["groups"]
    assert spans["evaluation.trim_matrix"] == result["selected"] >= result["retrained"]
    assert spans["clustering.kmeans"] == 1


def test_traced_stacked_fits_count_once(tmp_path):
    # Product and GenreOnly share an input width, so each call trains a
    # model per mode: the BC stack, every cluster's AC stack and the AT
    # stack of the clusters either mode retrains.
    result = traced_run(tmp_path, "Product,GenreOnly")
    m = result["metrics"]
    assert result["retrained"] > 0
    assert m["evaluation.at_fits"] == 1
    assert m["nets.fits"] == len(result["lengths"]) == 3
    assert [len(call) for call in result["lengths"][:2]] == [2, 2 * result["k"]]
    assert m["nets.loss_calls"] == m["nets.train_steps"] > 0
    # Each stacked step counts its models as samples: one per model step.
    assert m["nets.train_steps"] < m["nets.samples_stepped"] == samples_stepped(result)
    assert_group_spans(result)


CSV_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer, install, layer_metrics
from genreseq import experiment
from genreseq import CellKind, ExperimentConfig, FeatureMode, TrainConfig, write_archetype_dataset

movies, ratings = write_archetype_dataset("data", users_per_archetype=20, seed=0)
config = ExperimentConfig(
    ratings_path=ratings,
    movies_path=movies,
    k=3,
    cells=(CellKind.RNN,),
    modes=(FeatureMode.GENRE_ONLY,),
    train=TrainConfig(epochs=2, hidden_dim=8, seed=0),
    seed=11,
)
tracer = Tracer()
install(tracer)
experiment.run_experiment(config)
tracer.dump("trace.json")
metrics, _ = layer_metrics(json.loads(open("trace.json").read()), 0.0)
print(json.dumps({"metrics": metrics}))
"""


def test_traced_ingest_counts_match_the_file(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", CSV_SCRIPT, str(REPO / "perfbench")],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    m = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    rows = (tmp_path / "data" / "ratings.csv").read_text().splitlines()[1:]
    assert m["ingest.rows"] == len(rows) > 0
    assert m["ingest.users_kept"] == m["clustering.rating_profile_calls"] > 0
    distinct = {row.split(",")[0] for row in rows}
    assert m["ingest.users_kept"] + m["ingest.users_dropped"] == len(distinct)
    assert m["ingest.users_dropped"] > 0
