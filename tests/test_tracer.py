"""The benchmark's span tracer still sees every layer a run calls.

``perfbench/tracer.py`` times a run by rebinding the names
``genreseq.experiment`` looks up at call time.  A refactor that stops
calling one of those names would make the traced metrics silently wrong,
so this installs the tracer on a small run (in a subprocess, since it
rebinds module globals) and checks that the fit counts add up.  The
synthetic run skips ingest, so a second run on a small CSV dataset checks
the ingest counts.  The tracer counts ``train`` calls, so a stacked fit of
several models counts once.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
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
print(json.dumps({"k": k, "at_stacks": len(retrained), "metrics": metrics}))
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


def test_traced_fit_counts_add_up(tmp_path):
    result = traced_run(tmp_path, "Product")
    m = result["metrics"]
    # One BC fit, one AC fit per cluster, and the AT retrains.
    assert m["evaluation.at_fits"] > 0
    assert m["nets.fits"] == 1 + result["k"] + m["evaluation.at_fits"]
    assert m["nets.loss_calls"] == m["nets.train_steps"] > 0
    assert m["clustering.rating_profile_calls"] == 120
    assert m["transitions.featurize_samples"] > 0


def test_traced_stacked_fits_count_once(tmp_path):
    # Product and GenreOnly share an input width, so each group's two
    # models train in one call: a BC stack, an AC stack per cluster and an
    # AT stack per cluster either mode retrains.
    result = traced_run(tmp_path, "Product,GenreOnly")
    m = result["metrics"]
    assert result["at_stacks"] > 0
    assert m["evaluation.at_fits"] == result["at_stacks"]
    assert m["nets.fits"] == 1 + result["k"] + result["at_stacks"]
    assert m["nets.loss_calls"] == m["nets.train_steps"] > 0
    # Each stacked step counts its models as samples: 2 in the BC and AC stacks.
    assert m["nets.train_steps"] < m["nets.samples_stepped"] <= 2 * m["nets.train_steps"]


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
