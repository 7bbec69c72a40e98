"""genreseq benchmark: end-to-end runs of ``run_experiment`` and a traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload acceptance-rnn --seed 0 --seconds 10 --trace 0

One closed-loop client: ``run_experiment`` runs back to back, each call
in a fresh child process (``perfbench/child.py``) on one BLAS thread,
while the next call is expected to end within ``--seconds``; at least
one call runs.  The dataset is generated once per invocation from
``--seed`` by ``write_archetype_dataset``.

``--trace 0`` prints the end-to-end metrics: the mean over the calls of
wall seconds (``run_s``) and user+sys CPU seconds (``cpu_s``), the
median child peak RSS (``peak_rss_mb``), and the median seconds of the
dataset set-up (``setup_s``, repeated while it is cheap).  A ``calls``
line before the result gives the number of calls and their fastest,
median and slowest times.  The times are means, not medians, because on
a shared 2-vCPU VM other tenants slow every call by up to about 1.7x for
seconds to minutes at a time: the mean weighs the whole run, and across
runs of the same code it spread less than the median did.

``--trace 1`` runs the same loop, then one traced call
(``perfbench/tracer.py``) and the direct-call kernel table
(``perfbench/kernels.py``), and prints the per-layer metrics.

Every call's report is checked: 8 stage rows per cell x mode, every
metric in [0, 1], ``report.json`` agreeing with ``report.csv``, and the
``report.csv`` sha256 equal to the workload's pinned one at the default
seed (at other seeds: equal across the invocation's calls).  The traced
call must write the same bytes as the untraced ones.  A call that fails
any check counts in ``failed``.  The last line of stdout is the result
JSON; the lines before it record the host and every call.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS, Workload  # noqa: E402

STAGES = ("BC", "AC-best", "AC-worst", "AC-mean", "BT-mean", "BT-worst", "AT-worst", "AT-mean")
HEADER = "cell,mode,stage,cluster,recall,precision,accuracy,f1"
METRICS = ("recall", "precision", "accuracy", "f1")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BUDGET_S = 170.0  # the whole invocation must end within 180 s
SETUP_REPS, SETUP_BUDGET_S = 5, 5.0  # repeat set-up while it is cheap


def child_env(root: Path) -> dict[str, str]:
    """The children measure the default path on one BLAS thread.

    A second BLAS thread would compete for the other of a few shared
    cores and spin while idle, which adds scheduler noise to both timings.
    """
    env = dict(os.environ)
    env.pop("GENRESEQ_WORKERS", None)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def host_record(env: dict[str, str]) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: env[var] for var in THREAD_VARS},
        "GENRESEQ_WORKERS": env.get("GENRESEQ_WORKERS", "unset"),
    }


def setup(workload: Workload, seed: int, data_dir: Path) -> float:
    """Median seconds of write_archetype_dataset; the last copy stays for the runs."""
    from genreseq import write_archetype_dataset

    times: list[float] = []
    while not times or (len(times) < SETUP_REPS and sum(times) < SETUP_BUDGET_S):
        start = perf_counter()
        write_archetype_dataset(data_dir, workload.users_per_archetype, seed=seed)
        times.append(perf_counter() - start)
    return statistics.median(times)


def check_report(out_dir: Path, workload: Workload) -> str | None:
    """Why the report files are malformed, or None."""
    lines = (out_dir / "report.csv").read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != HEADER:
        return "report.csv header"
    rows = [line.split(",") for line in lines[1:]]
    expected = [(c, m, s) for c in workload.cells for m in workload.modes for s in STAGES]
    if [tuple(r[:3]) for r in rows] != expected or any(len(r) != 8 for r in rows):
        return "report.csv rows are not 8 stages per cell x mode"
    values = [[float(v) for v in r[4:]] for r in rows]
    if any(not 0.0 <= v <= 1.0 for vs in values for v in vs):
        return "report.csv metric outside [0, 1]"
    records = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    mirrored = [[rec[k] for k in METRICS] for rec in records]
    if [[rec["cell"], rec["mode"], rec["stage"], rec["cluster"]] for rec in records] != [
        r[:4] for r in rows
    ] or mirrored != values:
        return "report.json does not mirror report.csv"
    return None


class Bench:
    def __init__(self, root: Path, workload: Workload, seed: int, work: Path):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = work
        self.data_dir = work / "data"
        self.env = child_env(root)
        self.start = perf_counter()
        self.calls: list[dict] = []
        self.reference = workload.golden if seed == DEFAULT_SEED else None

    def remaining(self) -> float:
        return BUDGET_S - (perf_counter() - self.start)

    def child(self, script: str, *args: str) -> None:
        subprocess.run(
            [sys.executable, str(HERE / script), *args],
            env=self.env,
            cwd=self.root,
            check=True,
            timeout=max(self.remaining(), 1.0),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )

    def call(self, trace: bool) -> dict:
        """One run_experiment in a child, with its report checked."""
        index = len(self.calls)
        out_dir = self.work / f"run{index}"
        result_path = self.work / f"result{index}.json"
        spec = {
            "workload": self.workload.__dict__,
            "data_dir": str(self.data_dir),
            "out_dir": str(out_dir),
            "trace": trace,
            "result": str(result_path),
        }
        spec_path = self.work / f"spec{index}.json"
        spec_path.write_text(json.dumps(spec))
        record: dict = {"call": index, "trace": trace}
        try:
            self.child("child.py", str(spec_path))
            record.update(json.loads(result_path.read_text()))
            problem = check_report(out_dir, self.workload)
            record["sha256"] = hashlib.sha256((out_dir / "report.csv").read_bytes()).hexdigest()
        except subprocess.CalledProcessError as exc:
            tail = exc.stderr.decode(errors="replace").strip().splitlines()[-1:] if exc.stderr else []
            problem = f"child exited {exc.returncode}: {' '.join(tail)}"
        except subprocess.TimeoutExpired:
            problem = "child ran out of time"
        except (OSError, ValueError, KeyError) as exc:
            problem = f"unreadable output: {exc!r}"
        if problem is None:
            if self.reference is None:
                self.reference = record["sha256"]
            if record["sha256"] != self.reference:
                problem = f"report.csv sha256 {record['sha256']} != {self.reference}"
        record["problem"] = problem
        self.calls.append(record)
        print(json.dumps(record), flush=True)
        return record

    def loop(self, seconds: float) -> list[dict]:
        """Untraced calls back to back while the next one, taking as long as
        the last, would end within ``seconds`` (at least one call runs).

        Returns the calls that were timed, including those whose report
        failed a check: those count in ``failed``, not as missing times.
        """
        calls: list[dict] = []
        start = perf_counter()
        while True:
            calls.append(self.call(trace=False))
            last = calls[-1].get("run_s", 0.0)
            if perf_counter() - start + last > seconds or self.remaining() < 2 * last:
                break
        return [c for c in calls if "run_s" in c]

    def result(self, metrics: dict) -> dict:
        failed = sum(1 for c in self.calls if c["problem"] is not None)
        return {
            "correct": failed == 0,
            "attempted": len(self.calls),
            "failed": failed,
            "metrics": metrics,
        }


def unit(name: str) -> str:
    if name.endswith("_us_per_sample"):
        return "us"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    return "count"


def summarize(good: list[dict]) -> dict[str, float]:
    """Mean times and median peak RSS of the timed calls; their spread goes to stdout."""
    spread = {}
    for k in ("run_s", "cpu_s"):
        values = [c[k] for c in good]
        spread[k] = {"n": len(values), "min": min(values), "max": max(values)}
        spread[k]["median"] = statistics.median(values)
    print(json.dumps({"calls": spread}), flush=True)
    return {
        "run_s": statistics.fmean(c["run_s"] for c in good),
        "cpu_s": statistics.fmean(c["cpu_s"] for c in good),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in good),
    }


def end_to_end(bench: Bench, seconds: float) -> dict:
    """Set-up, then the untraced loop, summarized."""
    setup_s = setup(bench.workload, bench.seed, bench.data_dir)
    good = bench.loop(seconds)
    if not good:
        return {}
    return {**summarize(good), "setup_s": setup_s}


def per_layer(bench: Bench, seconds: float) -> dict:
    """Set-up and the untraced loop, then one traced call and the kernel table."""
    from tracer import layer_metrics

    setup(bench.workload, bench.seed, bench.data_dir)
    good = bench.loop(seconds)
    if not good:
        return {}
    untraced = summarize(good)["run_s"]
    traced = bench.call(trace=True)
    if "trace_file" not in traced:
        return {}
    values, per_cell = layer_metrics(json.loads(Path(traced["trace_file"]).read_text()), untraced)
    print(json.dumps({"per_cell": per_cell}), flush=True)
    if values["experiment.self_s"] < 0:
        traced["problem"] = "top-level spans overlap: negative experiment.self_s"
    table = bench.work / "kernels.json"
    bench.child("kernels.py", str(bench.seed), str(table))
    values.update(json.loads(table.read_text()))
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "genreseq" / "__init__.py").is_file():
        print("run from the repository root: src/genreseq not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    bench = Bench(root, WORKLOADS[args.workload], args.seed, work)
    os.environ.update({var: bench.env[var] for var in THREAD_VARS})
    print(json.dumps({"host": host_record(bench.env)}), flush=True)
    try:
        measure = per_layer if args.trace else end_to_end
        values = measure(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another invocation is still using it
            pass

    result = bench.result({k: {"value": v, "unit": unit(k)} for k, v in values.items()})
    print(f"failed_runs {result['failed']} count (of {result['attempted']} attempted)")
    if not values:
        print("no run succeeded; no metrics to report", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
