"""Shared fixtures and independent scalar oracles used across the tests.

The oracles deliberately re-derive results with plain Python loops and
scalar math so the vectorized library paths are checked against an
implementation that shares no code with them.
"""

from __future__ import annotations

import math
import platform
from dataclasses import replace

import numpy as np
import pytest

from genreseq.ingest import Users
from genreseq.genres import encode_genres
from genreseq.nets import CellKind, _views, bce_loss, forward_sequence


# The build the sha256 pins (report bytes, trained weights) were recorded
# on.  Float results depend on numpy's kernels and on BLAS summation order,
# so the pins only hold there; elsewhere the pinned tests skip.
PINNED_BUILD = {
    "numpy": "2.4.6",
    "blas": "scipy-openblas 0.3.31.188.0",
    "machine": "x86_64",
}


def current_build() -> dict[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


requires_pinned_build = pytest.mark.skipif(
    current_build() != PINNED_BUILD,
    reason=f"sha256 pins were recorded on {PINNED_BUILD}",
)


def users_from(genres, ratings=None, first_id=1, t0=1000):
    """Users table from an (n, 5, 19) genre array.

    User ids count up from ``first_id``; every user watches movies 100..104
    at times t0, t0 + 10, ..., with rating 3.0 unless ``ratings`` says otherwise.
    """
    genres = np.asarray(genres, dtype=np.float64).reshape(-1, 5, 19)
    n = genres.shape[0]
    if ratings is None:
        ratings = np.full((n, 5), 3.0)
    return Users(
        user_id=np.arange(first_id, first_id + n),
        movie_id=np.tile(100 + np.arange(5), (n, 1)),
        rating=np.asarray(ratings, dtype=np.float64).reshape(n, 5),
        timestamp=np.tile(t0 + 10 * np.arange(5), (n, 1)),
        genres=genres,
    )


def make_sequence(genre_sets, ratings=None, user_id=1, t0=1000):
    """One-user table from five lists of genre names."""
    assert len(genre_sets) == 5
    if ratings is None:
        ratings = [3.0] * 5
    genres = np.stack([encode_genres(names) for names in genre_sets])
    return users_from(genres, [ratings], first_id=user_id, t0=t0)


def random_users(rng, n, max_genres=3, first_id=1):
    """n seeded random users over the full alphabet."""
    genres = np.zeros((n, 5, 19))
    ratings = np.zeros((n, 5))
    for u in range(n):
        for t in range(5):
            size = int(rng.integers(1, max_genres + 1))
            genres[u, t, rng.choice(19, size=size, replace=False)] = 1.0
        ratings[u] = rng.choice(np.arange(1, 11) * 0.5, size=5)
    return users_from(genres, ratings, first_id=first_id)


def random_genres(rng, n, density=0.15):
    """(n, 5, 19) uint8 random genre windows, every movie with at least one genre."""
    genres = (rng.uniform(size=(n, 5, 19)) < density).astype(np.uint8)
    np.put_along_axis(genres, rng.integers(0, 19, size=(n, 5, 1)), 1, axis=2)
    return genres


def stack_users(parts):
    """The rows of several tables, in order, as one table."""
    columns = ("user_id", "movie_id", "rating", "timestamp", "genres")
    return Users(*(np.concatenate([getattr(u, c) for u in parts]) for c in columns))


# ---------------------------------------------------------------------------
# scalar cell oracles


def sigmoid_scalar(v: float) -> float:
    if v >= 0:
        return 1.0 / (1.0 + math.exp(-v))
    e = math.exp(v)
    return e / (1.0 + e)


def rnn_step_oracle(x, h_prev, U, W, b):
    H = b.shape[0]
    out = np.zeros(H)
    for i in range(H):
        s = b[i]
        for j in range(x.shape[0]):
            s += U[i, j] * x[j]
        for j in range(H):
            s += W[i, j] * h_prev[j]
        out[i] = math.tanh(s)
    return out


def _gate_oracle(concat, Wg, bg, squash):
    H = Wg.shape[0]
    out = np.zeros(H)
    for i in range(H):
        s = 0.0 if bg is None else bg[i]
        for j in range(concat.shape[0]):
            s += Wg[i, j] * concat[j]
        out[i] = squash(s)
    return out


def lstm_step_oracle(x, h_prev, c_prev, w):
    concat = np.concatenate([h_prev, x])
    f = _gate_oracle(concat, w["W_f"], w["b_f"], sigmoid_scalar)
    i = _gate_oracle(concat, w["W_i"], w["b_i"], sigmoid_scalar)
    g = _gate_oracle(concat, w["W_c"], w["b_c"], math.tanh)
    o = _gate_oracle(concat, w["W_o"], w["b_o"], sigmoid_scalar)
    c = np.array([f[k] * c_prev[k] + i[k] * g[k] for k in range(len(f))])
    h = np.array([o[k] * math.tanh(c[k]) for k in range(len(f))])
    return h, c


def gru_step_oracle(x, h_prev, w):
    concat = np.concatenate([h_prev, x])
    z = _gate_oracle(concat, w["W_z"], None, sigmoid_scalar)
    r = _gate_oracle(concat, w["W_r"], None, sigmoid_scalar)
    reset_concat = np.concatenate([r * h_prev, x])
    hbar = _gate_oracle(reset_concat, w["W"], None, math.tanh)
    return np.array(
        [(1.0 - z[k]) * h_prev[k] + z[k] * hbar[k] for k in range(len(z))]
    )


def bce_oracle(y, target):
    eps = 1e-7
    total = 0.0
    for yi, ti in zip(np.ravel(y), np.ravel(target)):
        yc = min(max(yi, eps), 1.0 - eps)
        total += -(ti * math.log(yc) + (1.0 - ti) * math.log(1.0 - yc))
    return total / np.size(y)


# ---------------------------------------------------------------------------
# frozen per-gate gated cells
#
# The LSTM and GRU kernels as they were before their gates became blocks:
# one GEMM, bias add and activation per gate, and a concatenated [h, x]
# per step, each GEMM in its original operand form.  The block kernels in
# genreseq.nets run their GEMMs in other forms, which sum in another order,
# so they must match these within float64 rounding.


def _frozen_sigmoid(x):
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def _frozen_rows(v, n):
    rows = np.empty((*v.shape[:-1], n, v.shape[-1]))
    rows[...] = v[..., None, :]
    return rows


def _frozen_lstm_cell(x_t, state, w, out):
    h_prev, c_prev = state
    zcat = np.concatenate([h_prev, x_t], axis=-1)
    f = _frozen_sigmoid(zcat @ w["W_f"].swapaxes(-1, -2) + w["b_f"])
    i = _frozen_sigmoid(zcat @ w["W_i"].swapaxes(-1, -2) + w["b_i"])
    g = np.tanh(zcat @ w["W_c"].swapaxes(-1, -2) + w["b_c"])
    c = f * c_prev + i * g
    o = _frozen_sigmoid(zcat @ w["W_o"].swapaxes(-1, -2) + w["b_o"])
    tanh_c = np.tanh(c)
    return (np.multiply(o, tanh_c, out=out), c), (zcat, c_prev, f, i, g, o, tanh_c)


def _frozen_gru_cell(x_t, state, w, out):
    (h_prev,) = state
    zcat = np.concatenate([h_prev, x_t], axis=-1)
    z = _frozen_sigmoid(zcat @ w["W_z"].swapaxes(-1, -2))
    r = _frozen_sigmoid(zcat @ w["W_r"].swapaxes(-1, -2))
    acat = np.concatenate([r * h_prev, x_t], axis=-1)
    hbar = np.tanh(acat @ w["W"].swapaxes(-1, -2))
    return (np.add((1.0 - z) * h_prev, z * hbar, out=out),), (zcat, acat, z, r, hbar)


def frozen_gated_forward(x, params):
    """(y, cache) of a batched (B, T, d) or stacked (M, B, T, d) LSTM/GRU forward."""
    stack = params.stack
    batch, steps = x.shape[-3:-1]
    w = {
        name: _frozen_rows(v, batch) if name.startswith("b") and name != "b_out" else v
        for name, v in params.weights.items()
    }
    hs = np.zeros((steps + 1, *stack, batch, params.hidden_dim))
    h0 = hs[0]
    if params.cell is CellKind.LSTM:
        cell, state = _frozen_lstm_cell, (h0, h0)
    else:
        cell, state = _frozen_gru_cell, (h0,)
    xs = x.transpose(-2, *range(x.ndim - 2), -1)
    acts = []
    for t, x_t in enumerate(xs):
        state, a = cell(x_t, state, w, hs[t + 1])
        acts.append(a)
    z = hs[-1] @ w["V"].swapaxes(-1, -2)
    z += w["b_out"][..., None, :]
    return _frozen_sigmoid(z), {"xs": xs, "h": hs, "acts": acts}


def _frozen_add_step(out, first, dz, inputs=None):
    dst = out if first else None
    if inputs is None:
        term = np.add.reduce(dz, axis=-2, out=dst)
    else:
        term = np.matmul(dz.swapaxes(-1, -2), inputs, out=dst)
    if not first:
        out += term


def frozen_gated_backward(y, cache, target, params):
    """Gradients of the loss for :func:`frozen_gated_forward`'s cache."""
    w = params.weights
    grads = {k: np.empty_like(v) for k, v in w.items()}
    steps = len(cache["xs"])
    hidden = params.hidden_dim
    dz_out = (y - target) / (y.shape[-2] * y.shape[-1])
    hs, acts = cache["h"], cache["acts"]
    np.matmul(dz_out.swapaxes(-1, -2), hs[-1], out=grads["V"])
    np.add.reduce(dz_out, axis=-2, out=grads["b_out"])
    dh = dz_out @ w["V"]
    if params.cell is CellKind.LSTM:
        dc_next = np.zeros_like(dh)
        for t in range(steps - 1, -1, -1):
            first = t == steps - 1
            zcat, c_prev, f, i, g, o, tanh_c = acts[t]
            do = dh * tanh_c
            dc = dc_next + dh * o * (1.0 - tanh_c**2)
            df = dc * c_prev
            di = dc * g
            dg = dc * i
            gates = (
                ("f", df * f * (1.0 - f)),
                ("i", di * i * (1.0 - i)),
                ("o", do * o * (1.0 - o)),
                ("c", dg * (1.0 - g**2)),
            )
            for name, dz in gates:
                _frozen_add_step(grads[f"W_{name}"], first, dz, zcat)
                _frozen_add_step(grads[f"b_{name}"], first, dz)
            if t:
                dzcat = gates[0][1] @ w["W_f"]
                for name, dz in gates[1:]:
                    dzcat += dz @ w[f"W_{name}"]
                dh = dzcat[..., :hidden]
                dc_next = dc * f
    else:
        for t in range(steps - 1, -1, -1):
            first = t == steps - 1
            zcat, acat, z, r, hbar = acts[t]
            h_prev = hs[t]
            dhbar = dh * z
            dz_gate = dh * (hbar - h_prev)
            da = dhbar * (1.0 - hbar**2)
            _frozen_add_step(grads["W"], first, da, acat)
            dzz = dz_gate * z * (1.0 - z)
            _frozen_add_step(grads["W_z"], first, dzz, zcat)
            if t:
                dh_prev = dh * (1.0 - z)
                dacat = da @ w["W"]
                dr = dacat[..., :hidden] * h_prev
                dh_prev += dacat[..., :hidden] * r
                dzr = dr * r * (1.0 - r)
                _frozen_add_step(grads["W_r"], first, dzr, zcat)
                dh_prev += (dzz @ w["W_z"])[..., :hidden] + (dzr @ w["W_r"])[..., :hidden]
                dh = dh_prev
        if steps == 1:
            grads["W_r"][...] = 0.0
    return grads


def frozen_rnn_forward(x, params):
    """(y, cache) of the RNN forward as a per-step loop: U x_t is one call per step.

    The cache is the one genreseq.nets.backward reads.
    """
    stack = params.stack
    batch, steps = x.shape[-3:-1]
    w = params.weights
    b = _frozen_rows(w["b"], batch)
    hs = np.zeros((steps + 1, *stack, batch, params.hidden_dim))
    xs = x.transpose(-2, *range(x.ndim - 2), -1)
    for t, x_t in enumerate(xs):
        a = x_t @ w["U"].swapaxes(-1, -2)
        if t:
            a += hs[t] @ w["W"].swapaxes(-1, -2)
        a += b
        np.tanh(a, out=hs[t + 1])
    z = hs[-1] @ w["V"].swapaxes(-1, -2)
    z += w["b_out"][..., None, :]
    y = _frozen_sigmoid(z)
    return y, {"xs": xs, "h": hs, "y": y, "acts": []}


# ---------------------------------------------------------------------------
# per-gate gated cells on the kernels' GEMM forms
#
# The frozen per-gate cells above with the operand forms genreseq.nets
# uses: each forward GEMM is ``zcat @ Wt`` on a contiguous transposed copy
# Wt of its gate matrix (NN), and each backward ``dh`` GEMM multiplies only
# the first h columns of the matrix, copied contiguous.  Every elementwise
# expression is the frozen one, so the block kernels must give these bits.


def _nn(w, name):
    return np.ascontiguousarray(w[name].swapaxes(-1, -2))


def _hidden_cols(w, name):
    return np.ascontiguousarray(w[name][..., : w[name].shape[-2]])


def _pergate_lstm_cell(x_t, state, w, out):
    h_prev, c_prev = state
    zcat = np.concatenate([h_prev, x_t], axis=-1)
    f = _frozen_sigmoid(zcat @ _nn(w, "W_f") + w["b_f"])
    i = _frozen_sigmoid(zcat @ _nn(w, "W_i") + w["b_i"])
    g = np.tanh(zcat @ _nn(w, "W_c") + w["b_c"])
    c = f * c_prev + i * g
    o = _frozen_sigmoid(zcat @ _nn(w, "W_o") + w["b_o"])
    tanh_c = np.tanh(c)
    return (np.multiply(o, tanh_c, out=out), c), (zcat, c_prev, f, i, g, o, tanh_c)


def _pergate_gru_cell(x_t, state, w, out):
    (h_prev,) = state
    zcat = np.concatenate([h_prev, x_t], axis=-1)
    z = _frozen_sigmoid(zcat @ _nn(w, "W_z"))
    r = _frozen_sigmoid(zcat @ _nn(w, "W_r"))
    acat = np.concatenate([r * h_prev, x_t], axis=-1)
    hbar = np.tanh(acat @ _nn(w, "W"))
    return (np.add((1.0 - z) * h_prev, z * hbar, out=out),), (zcat, acat, z, r, hbar)


def pergate_gated_forward(x, params):
    """:func:`frozen_gated_forward` with NN gate GEMMs."""
    stack = params.stack
    batch, steps = x.shape[-3:-1]
    w = {
        name: _frozen_rows(v, batch) if name.startswith("b") and name != "b_out" else v
        for name, v in params.weights.items()
    }
    hs = np.zeros((steps + 1, *stack, batch, params.hidden_dim))
    h0 = hs[0]
    if params.cell is CellKind.LSTM:
        cell, state = _pergate_lstm_cell, (h0, h0)
    else:
        cell, state = _pergate_gru_cell, (h0,)
    xs = x.transpose(-2, *range(x.ndim - 2), -1)
    acts = []
    for t, x_t in enumerate(xs):
        state, a = cell(x_t, state, w, hs[t + 1])
        acts.append(a)
    z = hs[-1] @ w["V"].swapaxes(-1, -2)
    z += w["b_out"][..., None, :]
    return _frozen_sigmoid(z), {"xs": xs, "h": hs, "acts": acts}


def pergate_gated_backward(y, cache, target, params):
    """:func:`frozen_gated_backward` with ``dh`` GEMMs on the first h columns."""
    w = params.weights
    grads = {k: np.empty_like(v) for k, v in w.items()}
    steps = len(cache["xs"])
    dz_out = (y - target) / (y.shape[-2] * y.shape[-1])
    hs, acts = cache["h"], cache["acts"]
    np.matmul(dz_out.swapaxes(-1, -2), hs[-1], out=grads["V"])
    np.add.reduce(dz_out, axis=-2, out=grads["b_out"])
    dh = dz_out @ w["V"]
    if params.cell is CellKind.LSTM:
        dc_next = np.zeros_like(dh)
        for t in range(steps - 1, -1, -1):
            first = t == steps - 1
            zcat, c_prev, f, i, g, o, tanh_c = acts[t]
            do = dh * tanh_c
            dc = dc_next + dh * o * (1.0 - tanh_c**2)
            df = dc * c_prev
            di = dc * g
            dg = dc * i
            gates = (
                ("f", df * f * (1.0 - f)),
                ("i", di * i * (1.0 - i)),
                ("o", do * o * (1.0 - o)),
                ("c", dg * (1.0 - g**2)),
            )
            for name, dz in gates:
                _frozen_add_step(grads[f"W_{name}"], first, dz, zcat)
                _frozen_add_step(grads[f"b_{name}"], first, dz)
            if t:
                dh = gates[0][1] @ _hidden_cols(w, "W_f")
                for name, dz in gates[1:]:
                    dh += dz @ _hidden_cols(w, f"W_{name}")
                dc_next = dc * f
    else:
        for t in range(steps - 1, -1, -1):
            first = t == steps - 1
            zcat, acat, z, r, hbar = acts[t]
            h_prev = hs[t]
            dhbar = dh * z
            dz_gate = dh * (hbar - h_prev)
            da = dhbar * (1.0 - hbar**2)
            _frozen_add_step(grads["W"], first, da, acat)
            dzz = dz_gate * z * (1.0 - z)
            _frozen_add_step(grads["W_z"], first, dzz, zcat)
            if t:
                dh_prev = dh * (1.0 - z)
                dah = da @ _hidden_cols(w, "W")
                dr = dah * h_prev
                dh_prev += dah * r
                dzr = dr * r * (1.0 - r)
                _frozen_add_step(grads["W_r"], first, dzr, zcat)
                dh_prev += dzz @ _hidden_cols(w, "W_z") + dzr @ _hidden_cols(w, "W_r")
                dh = dh_prev
        if steps == 1:
            grads["W_r"][...] = 0.0
    return grads


# ---------------------------------------------------------------------------
# gradient checking


def fd_gradients(params, x, target, step=1e-5):
    """Central finite differences of the loss for every parameter entry.

    Each of the P entries is moved +step in model p and -step in model
    P + p of one (2P, ...) parameter stack, every other entry as it is,
    so one stacked forward gives all 2P losses.  Each model's loss is bit
    for bit that of a lone forward with that one entry moved.
    """
    flat = np.concatenate([w.ravel() for w in params.weights.values()])
    size = flat.size
    moved = np.tile(flat, (2 * size, 1))
    entry = np.arange(size)
    moved[entry, entry] = flat + step
    moved[size + entry, entry] = flat - step
    stack = replace(params, weights=_views(moved, params.weights))
    x = np.asarray(x, dtype=np.float64)
    x = x.reshape(-1, *x.shape[-2:])
    target = np.asarray(target, dtype=np.float64).reshape(len(x), -1)
    y, _ = forward_sequence(np.broadcast_to(x, (2 * size, *x.shape)), stack)
    losses = bce_loss(y, np.broadcast_to(target, (2 * size, *target.shape)))
    return _views((losses[:size] - losses[size:]) / (2.0 * step), params.weights)


def max_relative_error(analytic, numeric, floor=1e-6):
    """Worst normalized deviation; the floor keeps near-zero entries sane."""
    worst = 0.0
    for key in analytic:
        denom = np.maximum(np.abs(analytic[key]) + np.abs(numeric[key]), floor)
        rel = np.abs(analytic[key] - numeric[key]) / denom
        worst = max(worst, float(rel.max()))
    return worst


# ---------------------------------------------------------------------------
# metric oracles


def confusion_oracle(preds, targets, threshold=0.5):
    """Double-loop TP/FP/FN/TN over every (sample, genre) cell."""
    tp = fp = fn = tn = 0
    for row_p, row_t in zip(preds, targets):
        for p, t in zip(row_p, row_t):
            predicted_yes = p > threshold
            actual_yes = t > 0.5
            if predicted_yes and actual_yes:
                tp += 1
            elif predicted_yes and not actual_yes:
                fp += 1
            elif not predicted_yes and actual_yes:
                fn += 1
            else:
                tn += 1
    return tp, fp, fn, tn


def metrics_oracle(tp, fp, fn, tn):
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    total = tp + fp + fn + tn
    accuracy = (tp + tn) / total if total else 0.0
    f1 = 2 * recall * precision / (recall + precision) if recall + precision else 0.0
    return recall, precision, accuracy, f1


def transition_counts_oracle(users):
    """Explicit pair enumeration of genre-to-genre transition counts."""
    counts = np.zeros((19, 19), dtype=np.int64)
    for window in users.genres:
        for t in range(1, 5):
            prev = np.flatnonzero(window[t - 1])
            cur = np.flatnonzero(window[t])
            for i in prev:
                for j in cur:
                    counts[i, j] += 1
    return counts
