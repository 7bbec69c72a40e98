"""One ``run_experiment`` in a fresh process, so ``ru_maxrss`` is its own.

Usage: python3 perfbench/child.py SPEC_JSON

SPEC_JSON names the workload spec, the dataset, the output directory,
whether to trace, and where to write the result.  The result holds the
wall and CPU seconds of the call, the process's peak RSS and, when
traced, the path of the dumped trace (``trace_file``).
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import Workload, experiment_config  # noqa: E402


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    workload = Workload(**spec["workload"])
    out_dir = Path(spec["out_dir"])
    config = experiment_config(workload, Path(spec["data_dir"]), out_dir)

    from genreseq import experiment

    tracer = None
    if spec["trace"]:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)

    before = resource.getrusage(resource.RUSAGE_SELF)
    start = perf_counter()
    experiment.run_experiment(config)
    run_s = perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "run_s": run_s,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024.0,
    }
    if tracer is not None:
        trace_path = out_dir / "trace.json"
        tracer.dump(trace_path)
        result["trace_file"] = str(trace_path)
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
