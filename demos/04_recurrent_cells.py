#!/usr/bin/env python3
"""The three from-scratch cells: forward math, exact gradients, training.

Walks one step of each cell, checks the hand-derived backward pass
against central finite differences, overfits a tiny dataset with each
cell kind, and fits a stack of seeds at once.
"""

import numpy as np

from genreseq import (
    CellKind,
    Dataset,
    TrainConfig,
    backward,
    bce_loss,
    forward_sequence,
    init_params,
    train,
)

rng = np.random.default_rng(3)

# --- single steps --------------------------------------------------------
# One step is a 1-step sequence of a batch of one; cache["h"][t] holds
# h_t for each sample.
params = init_params(CellKind.RNN, input_dim=19, hidden_dim=6, init_scale=0.3, seed=0)
x_t = rng.uniform(0, 1, 19)
_, cache = forward_sequence(x_t[None, None], params)
h = cache["h"][1][0]
print("one RNN step from zero state:", np.round(h, 3).tolist())

# --- full forward + loss ---------------------------------------------------
inputs = rng.uniform(0, 1, (1, 4, 19))  # a batch of one 4-step sample
target = np.zeros((1, 19))
target[0, [0, 7, 14]] = 1.0
y, cache = forward_sequence(inputs, params)
print(f"\nsequence output: genre probabilities in (0,1); loss {bce_loss(y, target):.4f}")

# --- gradient check --------------------------------------------------------
print("\ngradient check vs central finite differences (step 1e-5):")
for cell in CellKind:
    p = init_params(cell, 19, 6, init_scale=0.4, seed=1)
    _, c = forward_sequence(inputs, p)
    analytic = backward(c, target, p)
    worst = 0.0
    for key, grad in analytic.items():
        flat = p.weights[key].ravel()
        for idx in range(0, flat.size, max(1, flat.size // 10)):  # spot-check a tenth
            orig = flat[idx]
            flat[idx] = orig + 1e-5
            up = bce_loss(forward_sequence(inputs, p)[0], target)
            flat[idx] = orig - 1e-5
            down = bce_loss(forward_sequence(inputs, p)[0], target)
            flat[idx] = orig
            numeric = (up - down) / 2e-5
            a = grad.ravel()[idx]
            worst = max(worst, abs(a - numeric) / max(abs(a) + abs(numeric), 1e-6))
    print(f"  {cell.value:<4} worst relative error {worst:.2e}")

# --- training ---------------------------------------------------------------
dataset = Dataset(np.tile(inputs, (12, 1, 1)), np.tile(target, (12, 1)))
print("\noverfitting 12 copies of one sample (loss first -> last):")
for cell in CellKind:
    (result,) = train([dataset], cell, [TrainConfig(epochs=300, hidden_dim=8, batch_size=12, seed=0)])
    print(f"  {cell.value:<4} {result.losses[0]:.4f} -> {result.losses[-1]:.5f}")

# --- stacked fits -----------------------------------------------------------
# train() fits a stack of models that share a cell, one config but the
# seed, and a sample shape (their datasets' lengths may differ); each
# model's result is that of a lone fit.
stack = train([dataset] * 2, CellKind.GRU, [TrainConfig(epochs=50, hidden_dim=8, seed=s) for s in (0, 1)])
(lone,) = train([dataset], CellKind.GRU, [TrainConfig(epochs=50, hidden_dim=8, seed=1)])
print(f"\nstacked fit of 2 seeds: seed 1 equals its lone fit = {stack[1].losses == lone.losses}")
