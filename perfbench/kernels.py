"""Per-cell kernel table from direct calls into ``genreseq.nets``.

Usage: python3 perfbench/kernels.py SEED RESULT_JSON

Times ``forward_sequence``, ``backward`` and ``bce_loss`` for each cell
at batch 32, 224 and 1024 (hidden 32, input 19, 4 steps) on seeded
inputs, and writes ``nets.<CELL>.b<B>.{fwd,bwd,loss}_us_per_sample``:
the median over blocks of µs per sample.  Run in a fresh process with
the same thread settings as the experiment runs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

BATCHES = (32, 224, 1024)
CELLS = ("RNN", "LSTM", "GRU")
HIDDEN, INPUT_DIM, STEPS = 32, 19, 4
BLOCKS = 5
BLOCK_S = 0.02


def _us_per_sample(fn, batch: int) -> float:
    fn()  # warm up
    calls = 1
    while True:  # size a block to about BLOCK_S seconds
        start = perf_counter()
        for _ in range(calls):
            fn()
        if perf_counter() - start >= BLOCK_S:
            break
        calls *= 2
    times = []
    for _ in range(BLOCKS):
        start = perf_counter()
        for _ in range(calls):
            fn()
        times.append((perf_counter() - start) / calls)
    return statistics.median(times) / batch * 1e6


def kernel_table(seed: int) -> dict[str, float]:
    from genreseq import nets

    rng = np.random.default_rng(seed)
    table: dict[str, float] = {}
    for cell in CELLS:
        params = nets.init_params(nets.CellKind(cell), INPUT_DIM, HIDDEN, rng=rng)
        for batch in BATCHES:
            x = rng.random((batch, STEPS, INPUT_DIM))
            target = (rng.random((batch, 19)) < 0.2).astype(np.float64)
            y, cache = nets.forward_sequence(x, params)
            prefix = f"nets.{cell}.b{batch}"
            table[f"{prefix}.fwd_us_per_sample"] = _us_per_sample(
                lambda: nets.forward_sequence(x, params), batch
            )
            table[f"{prefix}.bwd_us_per_sample"] = _us_per_sample(
                lambda: nets.backward(cache, target, params), batch
            )
            table[f"{prefix}.loss_us_per_sample"] = _us_per_sample(
                lambda: nets.bce_loss(y, target), batch
            )
    return table


if __name__ == "__main__":
    Path(sys.argv[2]).write_text(json.dumps(kernel_table(int(sys.argv[1]))))
