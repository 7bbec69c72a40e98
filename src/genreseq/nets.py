"""From-scratch recurrent cells (RNN, LSTM, GRU) with exact backprop.

Cells step over a 4-step feature sequence into a per-genre sigmoid head
trained with mean binary cross-entropy.  Gradients are analytic and
unrolled through time; the tests check each against finite differences.

    RNN    h_t = tanh(U x_t + W h_{t-1} + b)
    LSTM   f_t = sig(W_f [h_{t-1}, x_t] + b_f)
           i_t = sig(W_i [h_{t-1}, x_t] + b_i)
           g_t = tanh(W_c [h_{t-1}, x_t] + b_c)
           c_t = f_t * c_{t-1} + i_t * g_t
           o_t = sig(W_o [h_{t-1}, x_t] + b_o)
           h_t = o_t * tanh(c_t)
    GRU    z_t = sig(W_z [h_{t-1}, x_t])          (gates carry no bias)
           r_t = sig(W_r [h_{t-1}, x_t])
           hb_t = tanh(W [r_t * h_{t-1}, x_t])
           h_t = (1 - z_t) * h_{t-1} + z_t * hb_t
    head   y = sig(V h_T + b_out)

``*`` is the element-wise product, ``[a, b]`` concatenation (h first).

:func:`forward_sequence` and :func:`backward` are the cell API (one step
is a 1-step sequence); the per-cell kernels are private to them.  The
gated cells read each step's ``[h_{t-1}, x_t]`` from one buffer ``zs`` of
(T + 1, ..., B, h + d) and write h_t into it; the GRU writes each step's
[r_t * h_{t-1}, x_t] into a (T, ..., B, h + d) buffer.  A step's gates
are one block: the LSTM's (..., 4, B, h) in the order f, i, o, g, with
one bias add, one sigmoid and one tanh; the GRU's z, r (..., 2, B, h)
with one sigmoid.  Each gate's GEMM runs NN on a contiguous copy of its
matrix's transpose, made once per call, and ``backward`` multiplies
``dz`` by contiguous copies of only the first h columns, the only ones
``dh`` reads.  A fused all-gate GEMM and a batch-major gate block were
measured slower.  The RNN computes U x_t for all T steps as one batched
matmul: one GEMM per (step, model) on a per-step call's operands, so the
same bits.  Walking t down, ``backward`` writes each step's
pre-activation gradients into a (T, ...) buffer; after the loop it sums
each weight's and bias's per-step terms, last step first, as the walk
would add them.

Kernel arrays take the params' dtype.  :func:`train` runs in float32 (its
float64 init cast once), so trained params predict in float32; float64
params, as the finite-difference oracles use, run in float64.

Every sequence starts from h_0 = 0 and no gradient flows back past t = 0,
so dead t = 0 work is skipped: the RNN's ``W h_0`` GEMM, the backward
terms that read h_0 (the RNN's ``W`` term, the GRU's ``W_r`` term) and
every GEMM that only passes a gradient to h_0.  The gated forward GEMMs
still read the zero h_0 columns: dropping them would change the operands
and so the rounding.

The kernels (``forward_sequence``, ``backward``, ``bce_loss``) take an
optional leading model axis: when every weight of a :class:`NetParams`
has one extra leading axis of length M, the params are a stack of M
models of one cell and shape.  Inputs are then (M, B, T, d) and targets
(M, B, 19); every GEMM is a batched ``np.matmul`` (one BLAS call per
model), reductions run over each model's rows, and ``bce_loss`` returns
one mean per model, each bit for bit a lone call's.  :func:`train` steps
a ragged stack of fits: per batch, one call of each kernel for each run
of models that end it on the same row.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import EmptyDataset, ShapeMismatch
from .genres import N_GENRES
from .transitions import Dataset

_EPS = 1e-7


class CellKind(enum.Enum):
    RNN = "RNN"
    LSTM = "LSTM"
    GRU = "GRU"


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for the seeded training loop."""

    learning_rate: float = 0.05
    momentum: float = 0.9
    epochs: int = 200
    batch_size: int = 32
    hidden_dim: int = 32
    seed: int = 0
    init_scale: float = 0.1

    def __post_init__(self):
        if not 0 <= self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        if self.epochs < 1 or self.batch_size < 1 or self.hidden_dim < 1:
            raise ValueError("epochs, batch_size and hidden_dim must be positive")
        if not 0 < self.init_scale < np.inf:
            raise ValueError(f"init_scale must be finite and > 0, got {self.init_scale}")


@dataclass
class NetParams:
    """A cell's weight matrices and bias vectors, keyed by name.

    Every weight may carry one extra leading axis of a common length M;
    the params are then a stack of M models (see the module docstring).
    """

    cell: CellKind
    input_dim: int
    hidden_dim: int
    weights: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        expected = parameter_shapes(self.cell, self.input_dim, self.hidden_dim)
        if set(self.weights) != set(expected):
            raise ShapeMismatch(
                f"parameter names {sorted(self.weights)} != {sorted(expected)}"
            )
        stack = self.stack
        for name, shape in expected.items():
            if self.weights[name].shape != stack + shape:
                raise ShapeMismatch(
                    f"{name}: shape {self.weights[name].shape}, expected {stack + shape}"
                )

    @property
    def stack(self) -> tuple[int, ...]:
        """``(M,)`` for a stack of M models, ``()`` for one model."""
        return self.weights["V"].shape[:-2]


def parameter_shapes(cell: CellKind, input_dim: int, hidden_dim: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape map for a cell; gate matrices span [h, x] columns, the head 19 genres."""
    d, h = input_dim, hidden_dim
    head = {"V": (N_GENRES, h), "b_out": (N_GENRES,)}
    if cell is CellKind.RNN:
        return {"U": (h, d), "W": (h, h), "b": (h,), **head}
    if cell is CellKind.LSTM:
        gates = {}
        for g in ("f", "i", "c", "o"):
            gates[f"W_{g}"] = (h, h + d)
            gates[f"b_{g}"] = (h,)
        return {**gates, **head}
    return {"W_z": (h, h + d), "W_r": (h, h + d), "W": (h, h + d), **head}


def init_params(
    cell: CellKind,
    input_dim: int,
    hidden_dim: int,
    init_scale: float = 0.1,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
) -> NetParams:
    """Uniform init in [-init_scale, init_scale] for every parameter."""
    if rng is None:
        rng = np.random.default_rng(seed)
    shapes = parameter_shapes(cell, input_dim, hidden_dim)
    weights = {k: rng.uniform(-init_scale, init_scale, s) for k, s in shapes.items()}
    return NetParams(cell, input_dim, hidden_dim, weights)


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + e^-x) for x >= 0, e^x / (1 + e^x) below; exp never overflows.

    Writes into ``out`` when given, which may be ``x`` itself.  The
    numerator max(e, [x >= 0]) is 1 where x >= 0 (e <= 1 there) and e
    below (e >= 0).
    """
    e = np.exp(-np.abs(x))
    out = np.maximum(e, x >= 0, out=out)
    e += 1.0
    out /= e
    return out


def _rnn_cell(h_prev: np.ndarray | None, w: dict, out: np.ndarray) -> None:
    """RNN update on (..., B, h) arrays: ``out`` holds U x_t on entry, h_t on return.

    ``h_prev`` None is the zero initial state, so its ``W`` GEMM is skipped.
    """
    if h_prev is not None:
        out += h_prev @ w["W"].swapaxes(-1, -2)
    out += w["b"]
    np.tanh(out, out=out)


# The LSTM gate block's order: the three sigmoid gates, then the candidate
# g, whose weights are W_c and b_c.
_LSTM_GATES = ("f", "i", "o", "c")
_LSTM_MATRICES = tuple(f"W_{g}" for g in _LSTM_GATES)
_GRU_MATRICES = ("W_z", "W_r", "W")


def _transposed(w: dict, names: Sequence[str]) -> list[np.ndarray]:
    """Contiguous copies of the named matrices' transposes, for NN GEMMs."""
    return [np.ascontiguousarray(w[name].swapaxes(-1, -2)) for name in names]


def _hidden_columns(w: dict, names: Sequence[str]) -> list[np.ndarray]:
    """Contiguous copies of the named (..., h, h + d) matrices' first h columns."""
    return [np.ascontiguousarray(w[name][..., : w[name].shape[-2]]) for name in names]


def _gate_bias(w: dict, batch: int) -> np.ndarray:
    """The LSTM biases as one (..., 4, B, h) block of rows, in gate-block order."""
    return _rows(np.stack([w[f"b_{g}"] for g in _LSTM_GATES], axis=-2), batch)


def _lstm_cell(
    zcat: np.ndarray, c_prev: np.ndarray, wt: Sequence[np.ndarray], bias: np.ndarray, out: np.ndarray
) -> tuple[np.ndarray, tuple]:
    """LSTM update on ``zcat`` = [h_{t-1}, x_t]: h_t into ``out``.

    ``wt`` holds the gate matrices' transposes in gate-block order.  Returns
    c_t and ``(c_prev, a, tanh_c)``, ``a`` the gate block f, i, o, g.
    """
    a = np.empty_like(bias)
    for k, m in enumerate(wt):
        np.matmul(zcat, m, out=a[..., k, :, :])
    a += bias
    _sigmoid(a[..., :3, :, :], out=a[..., :3, :, :])
    np.tanh(a[..., 3, :, :], out=a[..., 3, :, :])
    f, i, o, g = (a[..., k, :, :] for k in range(4))
    c = f * c_prev
    c += i * g
    tanh_c = np.tanh(c)
    np.multiply(o, tanh_c, out=out)
    return c, (c_prev, a, tanh_c)


def _gru_cell(zcat: np.ndarray, wt: Sequence[np.ndarray], out: np.ndarray, acat: np.ndarray) -> tuple:
    """GRU update on ``zcat`` = [h_{t-1}, x_t]: h_t into ``out``.

    ``wt`` holds the transposes of W_z, W_r and W.  ``acat`` holds x_t in
    its last d columns on entry and [r * h_{t-1}, x_t] on return.  Returns
    ``(a, hbar)``, ``a`` the gate block z, r.
    """
    hidden = out.shape[-1]
    h_prev = zcat[..., :hidden]
    a = np.empty((*out.shape[:-2], 2, *out.shape[-2:]), out.dtype)
    np.matmul(zcat, wt[0], out=a[..., 0, :, :])
    np.matmul(zcat, wt[1], out=a[..., 1, :, :])
    _sigmoid(a, out=a)
    z, r = a[..., 0, :, :], a[..., 1, :, :]
    np.multiply(r, h_prev, out=acat[..., :hidden])
    hbar = acat @ wt[2]
    np.tanh(hbar, out=hbar)
    np.add((1.0 - z) * h_prev, z * hbar, out=out)
    return a, hbar


def forward_sequence(inputs: np.ndarray, params: NetParams) -> tuple[np.ndarray, dict]:
    """Run the cell over the input steps and apply the sigmoid head.

    ``inputs`` is (B, T, d) for a batch, or (M, B, T, d) for a stack of M
    models; one sample is a batch of one.  The initial hidden (and cell)
    state is zero, and T must be at least 1.  Returns per-genre
    probabilities and a cache of every activation the backward pass needs.
    """
    x = np.asarray(inputs, dtype=params.weights["V"].dtype)
    stack = params.stack
    if x.ndim != len(stack) + 3 or x.shape[:-3] != stack or x.shape[-1] != params.input_dim:
        lead = "".join(f"{m}, " for m in stack)
        raise ShapeMismatch(
            f"inputs: got shape {np.shape(inputs)}, expected ({lead}*, T, {params.input_dim})"
        )
    batch, steps = x.shape[-3:-1]
    if steps < 1:
        raise ShapeMismatch(f"inputs: got shape {np.shape(inputs)}, need at least one step")
    w = params.weights
    hidden = params.hidden_dim
    xs = x.transpose(-2, *range(x.ndim - 2), -1)  # xs[t] is x_t
    # hs[0] is h_0 = 0 and hs[t + 1] receives h_t.  Each bias added per step
    # is copied out to (B, h) rows once per call: a same-shape add costs
    # about half of a broadcast add, with the same sums.
    if params.cell is CellKind.RNN:
        hs = np.zeros((steps + 1, *stack, batch, hidden), x.dtype)
        np.matmul(xs, w["U"].swapaxes(-1, -2), out=hs[1:])
        w = {**w, "b": _rows(w["b"], batch)}
        for t in range(steps):
            _rnn_cell(hs[t] if t else None, w, hs[t + 1])
        acts, cache = [], {}
    else:
        # zs[t] is [hs[t], xs[t]]; the gate GEMMs read the zeros of h_0.
        zs = np.zeros((steps + 1, *stack, batch, hidden + params.input_dim), x.dtype)
        zs[:-1, ..., hidden:] = xs
        hs = zs[..., :hidden]
        cache = {"zcat": zs[:-1]}
        if params.cell is CellKind.LSTM:
            wt = _transposed(w, _LSTM_MATRICES)
            bias = _gate_bias(w, batch)
            c = hs[0]
            acts = []
            for t in range(steps):
                c, a = _lstm_cell(zs[t], c, wt, bias, hs[t + 1])
                acts.append(a)
        else:
            wt = _transposed(w, _GRU_MATRICES)
            cache["acat"] = np.empty_like(zs[:-1])  # row t is [r_t * hs[t], xs[t]]
            cache["acat"][..., hidden:] = xs
            acts = [_gru_cell(zs[t], wt, hs[t + 1], cache["acat"][t]) for t in range(steps)]

    z = hs[-1] @ w["V"].swapaxes(-1, -2)
    z += w["b_out"][..., None, :]
    y = _sigmoid(z, out=z)
    return y, {"xs": xs, "h": hs, "y": y, "acts": acts, **cache}


def _rows(v: np.ndarray, n: int) -> np.ndarray:
    """``v`` (..., h) copied into each of ``n`` rows: (..., n, h)."""
    return np.repeat(v[..., None, :], n, axis=-2)


def bce_loss(y: np.ndarray, target: np.ndarray) -> float | np.ndarray:
    """Mean over all cells of -[t ln y + (1 - t) ln(1 - y)], y clipped.

    For a stack's (M, B, 19) arrays, one mean per model, over its own rows.
    """
    y = np.asarray(y, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if y.shape != target.shape:
        raise ShapeMismatch(f"y {y.shape} vs target {target.shape}")
    y = np.minimum(np.maximum(y, _EPS), 1.0 - _EPS)
    terms = np.log(y)
    terms *= target
    np.subtract(1.0, y, out=y)
    np.log(y, out=y)
    y *= 1.0 - target
    terms += y
    # Each model's cells are one contiguous row, summed as a whole array is.
    rows = terms.reshape(*terms.shape[:-2], -1)
    return -(np.add.reduce(rows, axis=-1) / rows.shape[-1])


def _sum_steps(out: np.ndarray, dz: np.ndarray, inputs: np.ndarray | None = None) -> None:
    """``out = sum over t of dz[t].T @ inputs[t]``, or of ``dz[t].sum(axis=-2)``.

    Each term gets its own GEMM (or row sum), and the terms are added from
    the last step down, as a loop accumulating while it walks t backward
    would add them, so the bits are the same.  Writes every element of
    ``out``: zeros when ``dz`` has no step.
    """
    dz = dz[::-1]
    if inputs is None:
        terms = np.add.reduce(dz, axis=-2)
    else:
        terms = np.matmul(dz.swapaxes(-1, -2), inputs[::-1])
    np.add.reduce(terms, axis=0, out=out)


def backward(
    cache: dict, target: np.ndarray, params: NetParams, out: dict[str, np.ndarray] | None = None
) -> dict[str, np.ndarray]:
    """Analytic gradients of the loss for every parameter.

    Uses the sigmoid+cross-entropy identity at the head (d loss / d logit
    = (y - t) / cells) and unrolls the chosen cell backward through time.
    For a stack, each model's gradients are those of its own mean loss.
    Each gradient is written into ``out[name]`` (fresh arrays when ``out``
    is None), every element of it, and ``out`` is returned.
    """
    w = params.weights
    grads = {k: np.empty_like(v) for k, v in w.items()} if out is None else out
    xs = cache["xs"]
    steps = len(xs)
    y = cache["y"]
    target = np.asarray(target, dtype=y.dtype)
    if target.shape != y.shape:
        raise ShapeMismatch(f"target {target.shape} vs output {y.shape}")

    dz_out = (y - target) / (y.shape[-2] * y.shape[-1])
    hs, acts = cache["h"], cache["acts"]
    np.matmul(dz_out.swapaxes(-1, -2), hs[-1], out=grads["V"])
    np.add.reduce(dz_out, axis=-2, out=grads["b_out"])
    dh = dz_out @ w["V"]

    # Each loop walks t down, skipping the dead t = 0 work, and writes step t's
    # pre-activation gradients into row t; _sum_steps then writes each weight.
    if params.cell is CellKind.RNN:
        dz = np.square(hs[1:])
        np.subtract(1.0, dz, out=dz)  # 1 - h_t^2, then dz_t in place
        for t in range(steps - 1, -1, -1):
            np.multiply(dh, dz[t], out=dz[t])
            if t:
                dh = dz[t] @ w["W"]
        _sum_steps(grads["U"], dz, xs)
        _sum_steps(grads["W"], dz[1:], hs[1:-1])
        _sum_steps(grads["b"], dz)
    elif params.cell is CellKind.LSTM:
        wh = _hidden_columns(w, _LSTM_MATRICES)
        dc_next = np.zeros_like(dh)
        # dz[t], step t's gate-block gradient: df, di, do times s (1 - s)
        # for their sigmoid s, then dg (1 - g^2).
        dz = np.empty((steps, *acts[0][1].shape), dh.dtype)
        for t in range(steps - 1, -1, -1):
            c_prev, a, tanh_c = acts[t]
            f, i, o, g = (a[..., k, :, :] for k in range(4))
            dc = dh * o
            dc *= 1.0 - tanh_c**2
            dc += dc_next
            dz_t = dz[t]
            np.multiply(dc, c_prev, out=dz_t[..., 0, :, :])
            np.multiply(dc, g, out=dz_t[..., 1, :, :])
            np.multiply(dh, tanh_c, out=dz_t[..., 2, :, :])
            s = a[..., :3, :, :]
            dz_t[..., :3, :, :] *= s
            dz_t[..., :3, :, :] *= 1.0 - s
            np.multiply(dc, i, out=dz_t[..., 3, :, :])
            dz_t[..., 3, :, :] *= 1.0 - g**2
            if t:
                dh = dz_t[..., 0, :, :] @ wh[0]
                for k in range(1, 4):
                    dh += dz_t[..., k, :, :] @ wh[k]
                dc_next = dc * f
        for k, name in enumerate(_LSTM_GATES):
            _sum_steps(grads[f"W_{name}"], dz[..., k, :, :], cache["zcat"])
            _sum_steps(grads[f"b_{name}"], dz[..., k, :, :])
    else:
        wh_z, wh_r, wh = _hidden_columns(w, _GRU_MATRICES)
        da, dzz, dzr = np.empty((3, steps, *dh.shape), dh.dtype)  # dzr[0] is unused
        for t in range(steps - 1, -1, -1):
            a, hbar = acts[t]
            z, r = a[..., 0, :, :], a[..., 1, :, :]
            h_prev = hs[t]
            dhbar = dh * z
            dz_gate = dh * (hbar - h_prev)
            np.multiply(dhbar, 1.0 - hbar**2, out=da[t])
            np.multiply(dz_gate * z, 1.0 - z, out=dzz[t])
            if t:
                dh_prev = dh * (1.0 - z)
                dah = da[t] @ wh
                dr = dah * h_prev
                dh_prev += dah * r
                np.multiply(dr * r, 1.0 - r, out=dzr[t])
                dh_prev += dzz[t] @ wh_z + dzr[t] @ wh_r
                dh = dh_prev
        _sum_steps(grads["W"], da, cache["acat"])
        _sum_steps(grads["W_z"], dzz, cache["zcat"])
        _sum_steps(grads["W_r"], dzr[1:], cache["zcat"][1:])
    return grads


# predict runs a large set as near-equal chunks of at most this many rows,
# so no activation cache grows with the set.  OpenBLAS takes another kernel
# for a GEMM of fewer than 64 rows, which moves bits, so no chunk is a
# short tail.
_PREDICT_ROWS = 4096


def predict(params: NetParams, inputs: np.ndarray) -> np.ndarray:
    """One model's per-genre probabilities for (N, T, d) inputs, a chunk's activation cache at a time.

    Inputs are cast to the params' dtype (float32 for trained params) one
    chunk at a time, inside ``forward_sequence``.
    """
    x = np.asarray(inputs)
    chunks = -(-len(x) // _PREDICT_ROWS)
    if chunks <= 1:
        return forward_sequence(x, params)[0]
    return np.concatenate([forward_sequence(part, params)[0] for part in np.array_split(x, chunks)])


# train gathers each epoch in blocks of about this many rows per stack, and
# runs at most _STACK_ROWS batch rows per kernel call: a ragged stack of
# more than _STACK_ROWS // batch_size models trains as several stacks.
_GATHER_ROWS = 1024
_STACK_ROWS = 256


@dataclass(frozen=True)
class TrainResult:
    params: NetParams
    losses: tuple[float, ...]


def train(
    datasets: Sequence[Dataset], cell: CellKind, configs: Sequence[TrainConfig]
) -> list[TrainResult]:
    """Seeded mini-batch gradient descent with momentum, for a ragged stack of fits.

    Model m fits ``datasets[m]`` with ``configs[m]``.  The configs may
    differ only in their seeds, and the datasets must share one sample
    shape; their lengths may differ.  Each model has its own generator: its
    params start uniform in [-init_scale, init_scale] and its samples
    reshuffle each epoch from it, so its seed alone fixes its trajectory,
    bit for bit that of a lone fit.  The models train longest first, in
    stacks of at most ``_STACK_ROWS // batch_size`` (at least one).
    Returns, in input order, each model's final params and per-epoch mean loss.
    """
    if not datasets or len(datasets) != len(configs):
        raise ValueError(f"{len(datasets)} datasets for {len(configs)} configs")
    config = configs[0]
    if any(replace(c, seed=config.seed) != config for c in configs):
        raise ValueError("a stack's configs may differ only in their seeds")
    shapes = {d.inputs.shape[1:] for d in datasets}
    if len(shapes) > 1:
        raise ShapeMismatch(f"stacked datasets differ: samples of {sorted(shapes)}")
    if any(d.targets.shape[1:] != (N_GENRES,) for d in datasets):
        raise ShapeMismatch(f"targets must be {N_GENRES} genres wide")
    if not all(len(d) for d in datasets):
        raise EmptyDataset("no training samples")
    order = sorted(range(len(datasets)), key=lambda m: -len(datasets[m]))
    size = max(1, _STACK_ROWS // config.batch_size)
    results: dict[int, TrainResult] = {}
    for part in (order[i : i + size] for i in range(0, len(order), size)):
        results.update(zip(part, _train_stack([datasets[m] for m in part], cell, [configs[m] for m in part])))
    return [results[m] for m in range(len(datasets))]


def _train_stack(
    datasets: Sequence[Dataset], cell: CellKind, configs: Sequence[TrainConfig]
) -> list[TrainResult]:
    """:func:`train` on one stack, whose datasets run longest first."""
    config = configs[0]
    batch = config.batch_size
    lengths = np.array([len(d) for d in datasets])
    in_shape = datasets[0].inputs.shape[1:]
    dims = (in_shape[-1], config.hidden_dim)
    rngs = [np.random.default_rng(c.seed) for c in configs]
    inits = [init_params(cell, *dims, config.init_scale, rng=rng).weights for rng in rngs]
    # Parameters, gradient and velocity each live in one (M, P) buffer, a
    # row per model, so the momentum update is a few ufuncs on the rows of
    # the models still stepping.  A kernel call on models [lo, hi) runs on
    # views of rows lo:hi: the weights, and the gradients backward writes.
    flat = np.array([np.concatenate([v.ravel() for v in w.values()]) for w in inits], np.float32)
    grad = np.empty_like(flat)
    velocity = np.zeros_like(flat)
    # Each epoch is gathered a block of whole batches at a time (one
    # _take_rows per dataset per block); each batch is a view into it.  The
    # plan, the same every epoch, holds per block its first row, the rows
    # each model still stepping (a prefix) takes, and per batch its start
    # and its runs (lo, hi, stop): models [lo, hi) end the batch at stop.
    block = max(1, _GATHER_ROWS // (batch * len(datasets))) * batch
    plan = []
    for first in range(0, lengths[0], block):
        rows = [r for r in np.minimum(lengths - first, block).tolist() if r > 0]
        ends = [[min(r, start + batch) for r in rows if r > start] for start in range(0, rows[0], batch)]
        runs = [[(e.index(x), e.index(x) + e.count(x), x) for x in dict.fromkeys(e)] for e in ends]
        plan.append((first, rows, list(zip(range(0, rows[0], batch), runs))))
    views = {
        (lo, hi): (NetParams(cell, *dims, _views(flat[lo:hi], inits[0])), _views(grad[lo:hi], inits[0]))
        for lo, hi in {run[:2] for _, _, steps in plan for _, runs in steps for run in runs}
    }
    xblock = np.empty((len(datasets), min(block, lengths[0]), *in_shape), np.float32)
    tblock = np.empty((len(datasets), min(block, lengths[0]), N_GENRES), np.float32)
    losses: list[np.ndarray] = []
    for _ in range(config.epochs):
        orders = [rng.permutation(n) for rng, n in zip(rngs, lengths)]
        total = np.zeros(len(rngs))
        for first, rows, steps in plan:
            for m, r in enumerate(rows):
                idx = orders[m][first : first + r]
                _take_rows(datasets[m].inputs, idx, xblock[m, :r])
                _take_rows(datasets[m].targets, idx, tblock[m, :r])
            for start, runs in steps:
                for lo, hi, stop in runs:
                    params, grads = views[lo, hi]
                    yb, cache = forward_sequence(xblock[lo:hi, start:stop], params)
                    tb = tblock[lo:hi, start:stop]
                    total[lo:hi] += bce_loss(yb, tb) * (stop - start)
                    backward(cache, tb, params, out=grads)
                velocity[:hi] *= config.momentum
                grad[:hi] *= config.learning_rate
                velocity[:hi] -= grad[:hi]
                flat[:hi] += velocity[:hi]
        losses.append(total / lengths)
    return [
        TrainResult(NetParams(cell, *dims, _views(row, inits[0])), tuple(float(epoch[m]) for epoch in losses))
        for m, row in enumerate(flat)
    ]


def _take_rows(src: np.ndarray, idx: np.ndarray, out: np.ndarray) -> None:
    """``out[...] = src[idx]``, written straight into ``out`` where numpy can.

    ``np.take`` copies a strided source (GenreOnly's inputs are a view)
    whole before it gathers, and cannot cast (uint8 or float64 sources into
    the float32 batch), so those cases go through a temporary.
    """
    if src.flags.c_contiguous and src.dtype == out.dtype:
        np.take(src, idx, axis=0, out=out, mode="clip")  # idx is in range; "raise" buffers out
    else:
        out[...] = src[idx]


def _views(flat: np.ndarray, like: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Views into ``flat``, one per name in ``like`` with its shape, packed in order.

    A 2-D ``flat`` is a stack: each view keeps its leading model axis.
    """
    views: dict[str, np.ndarray] = {}
    offset = 0
    for name, v in like.items():
        views[name] = flat[..., offset : offset + v.size].reshape(*flat.shape[:-1], *v.shape)
        offset += v.size
    return views

