"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q

They drive ``run.main`` on a tiny workload so that the whole command,
children included, runs in seconds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import DEFAULT_SEED, WORKLOADS, Workload

REPO = Path(__file__).resolve().parent.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())

TINY = Workload(
    "tiny",
    users_per_archetype=30,
    cells=("RNN", "GRU"),
    modes=("Product",),
    epochs=1,
    batch_size=32,
    golden="0" * 64,
)


def bench(monkeypatch, capsys, trace: int, seed: int, workload: Workload = TINY) -> dict:
    """The result line of one run of the command; its calls under ``"calls"``."""
    monkeypatch.chdir(REPO)
    monkeypatch.setitem(run.WORKLOADS, workload.name, workload)
    argv = ["--workload", workload.name, "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines() if line.startswith("{")]
    result = lines[-1]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    per_cell = [line["per_cell"] for line in lines if "per_cell" in line]
    return {**result, "calls": [line for line in lines if "call" in line], "per_cell": per_cell[-1] if per_cell else {}}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == ["acceptance-rnn", "gated-concat"]
    assert set(WORKLOADS) == {"acceptance-rnn", "gated-concat", "data-140k"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert {m["name"] for m in SPEC["end_to_end"]} >= {"run_s", "cpu_s", "peak_rss_mb", "setup_s"}
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(monkeypatch, capsys, trace, section):
    result = bench(monkeypatch, capsys, trace, seed=1)
    assert result["correct"] and result["failed"] == 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[section]}


def test_traced_spans_account_for_the_traced_run(monkeypatch, capsys):
    result = bench(monkeypatch, capsys, 1, seed=2)
    value = {name: m["value"] for name, m in result["metrics"].items()}
    assert value["experiment.self_s"] >= 0
    assert value["experiment.top_spans_s"] + value["experiment.self_s"] == pytest.approx(
        value["experiment.traced_run_s"], rel=1e-12
    )
    per_cell = result["per_cell"]
    assert value["nets.fits"] == per_cell["nets.RNN.fits"] + per_cell["nets.GRU.fits"]
    assert "nets.LSTM.fits" not in per_cell
    assert value["nets.loss_calls"] == value["nets.train_steps"]
    assert value["ingest.users_kept"] == value["clustering.rating_profile_calls"] == 7 * 30


def test_report_bytes_are_checked_against_the_pin(monkeypatch, capsys):
    wrong = bench(monkeypatch, capsys, 0, seed=DEFAULT_SEED)
    assert not wrong["correct"]
    assert wrong["failed"] == wrong["attempted"] >= 1
    assert wrong["metrics"]["run_s"]["value"] > 0

    # Pinned to the bytes it writes, the workload passes, traced call included.
    pinned = dataclasses.replace(TINY, golden=wrong["calls"][0]["sha256"])
    right = bench(monkeypatch, capsys, 1, seed=DEFAULT_SEED, workload=pinned)
    assert right["correct"] and right["failed"] == 0
    assert [c["trace"] for c in right["calls"]][-1] is True


def test_fails_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    args = ["--workload", "gated-concat", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=tmp_path, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
