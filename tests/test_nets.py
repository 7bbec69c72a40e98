import hashlib
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from genreseq import nets
from genreseq.errors import EmptyDataset, ShapeMismatch
from genreseq.nets import (
    _PREDICT_ROWS,
    _STACK_ROWS,
    _GRU_MATRICES,
    _LSTM_MATRICES,
    CellKind,
    NetParams,
    TrainConfig,
    _gate_bias,
    _gru_cell,
    _lstm_cell,
    _rnn_cell,
    _sigmoid,
    _sum_steps,
    _transposed,
    backward,
    bce_loss,
    forward_sequence,
    init_params,
    parameter_shapes,
    predict,
    train,
)
from genreseq.transitions import Dataset

from .helpers import (
    bce_oracle,
    fd_gradients,
    frozen_gated_backward,
    frozen_gated_forward,
    frozen_rnn_forward,
    gru_step_oracle,
    lstm_step_oracle,
    max_relative_error,
    pergate_gated_backward,
    pergate_gated_forward,
    requires_pinned_build,
    rnn_step_oracle,
)

D, H = 19, 8


def zero_params(cell, input_dim=D, hidden_dim=H):
    shapes = parameter_shapes(cell, input_dim, hidden_dim)
    weights = {k: np.zeros(s) for k, s in shapes.items()}
    return NetParams(cell, input_dim, hidden_dim, weights)


def random_params(cell, seed, scale=0.5):
    return init_params(cell, D, H, init_scale=scale, seed=seed)


def step(cell, x, state, params):
    """The new state after one step of the cell's private kernel, for one sample.

    ``state`` is ``(h,)``, or ``(h, c)`` for the LSTM; the gated kernels
    read h_{t-1} from their [h_{t-1}, x_t] row.
    """
    w = params.weights
    if cell is CellKind.RNN:
        h = x[None] @ w["U"].T  # the input projection the RNN kernel starts from
        _rnn_cell(state[0][None], w, h)
        return (h[0],)
    h = np.empty((1, H))
    zcat = np.concatenate([state[0], x])[None]
    if cell is CellKind.LSTM:
        c, _ = _lstm_cell(zcat, state[1][None], _transposed(w, _LSTM_MATRICES), _gate_bias(w, 1), h)
        return h[0], c[0]
    _gru_cell(zcat, _transposed(w, _GRU_MATRICES), h, zcat.copy())
    return (h[0],)


class TestRnnStep:
    def test_zero_everything(self):
        params = zero_params(CellKind.RNN)
        (h,) = step(CellKind.RNN, np.ones(D), (np.zeros(H),), params)
        assert np.array_equal(h, np.zeros(H))

    def test_large_bias_saturates(self):
        params = zero_params(CellKind.RNN)
        params.weights["b"][:] = 25.0
        (h,) = step(CellKind.RNN, np.zeros(D), (np.zeros(H),), params)
        assert np.all(h > 0.999999)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(41)
        params = random_params(CellKind.RNN, seed=41)
        for _ in range(5):
            x = rng.uniform(-1, 1, D)
            h_prev = rng.uniform(-1, 1, H)
            expected = rnn_step_oracle(
                x, h_prev, params.weights["U"], params.weights["W"], params.weights["b"]
            )
            (h,) = step(CellKind.RNN, x, (h_prev,), params)
            assert np.allclose(h, expected)


class TestLstmStep:
    def test_zero_params_unit_cell(self):
        # All gates sit at 0.5 and the candidate at 0, so with c_prev = 1
        # the new cell is 0.5 and h = 0.5 * tanh(0.5).
        params = zero_params(CellKind.LSTM)
        h, c = step(CellKind.LSTM, np.ones(D), (np.zeros(H), np.ones(H)), params)
        assert np.allclose(c, 0.5)
        assert np.allclose(h, 0.5 * math.tanh(0.5))

    def test_zero_cell_stays_zero(self):
        params = zero_params(CellKind.LSTM)
        h, c = step(CellKind.LSTM, np.ones(D), (np.zeros(H), np.zeros(H)), params)
        assert np.array_equal(c, np.zeros(H))
        assert np.array_equal(h, np.zeros(H))

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(42)
        params = random_params(CellKind.LSTM, seed=42)
        for _ in range(5):
            x = rng.uniform(-1, 1, D)
            h_prev = rng.uniform(-1, 1, H)
            c_prev = rng.uniform(-1, 1, H)
            expected_h, expected_c = lstm_step_oracle(x, h_prev, c_prev, params.weights)
            h, c = step(CellKind.LSTM, x, (h_prev, c_prev), params)
            assert np.allclose(h, expected_h)
            assert np.allclose(c, expected_c)


class TestGruStep:
    def test_zero_weights_halve_state(self):
        params = zero_params(CellKind.GRU)
        h_prev = np.linspace(-1, 1, H)
        (h,) = step(CellKind.GRU, np.ones(D), (h_prev,), params)
        assert np.allclose(h, 0.5 * h_prev)

    def test_zero_state_stays_zero(self):
        params = zero_params(CellKind.GRU)
        (h,) = step(CellKind.GRU, np.ones(D), (np.zeros(H),), params)
        assert np.array_equal(h, np.zeros(H))

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(43)
        params = random_params(CellKind.GRU, seed=43)
        for _ in range(5):
            x = rng.uniform(-1, 1, D)
            h_prev = rng.uniform(-1, 1, H)
            expected = gru_step_oracle(x, h_prev, params.weights)
            (h,) = step(CellKind.GRU, x, (h_prev,), params)
            assert np.allclose(h, expected)

    def test_interpolates_between_state_and_candidate(self):
        rng = np.random.default_rng(44)
        for seed in range(10):
            params = random_params(CellKind.GRU, seed=100 + seed, scale=1.0)
            x = rng.uniform(-1, 1, D)
            h_prev = rng.uniform(-1, 1, H)
            w = params.weights
            zcat = np.concatenate([h_prev, x])
            r = 1.0 / (1.0 + np.exp(-w["W_r"] @ zcat))
            hbar = np.tanh(w["W"] @ np.concatenate([r * h_prev, x]))
            (h,) = step(CellKind.GRU, x, (h_prev,), params)
            lo = np.minimum(h_prev, hbar) - 1e-12
            hi = np.maximum(h_prev, hbar) + 1e-12
            assert np.all(h >= lo) and np.all(h <= hi)


class TestForwardSequence:
    def test_zero_params_give_half_probabilities(self):
        for cell in CellKind:
            params = zero_params(cell)
            y, _ = forward_sequence(np.ones((1, 4, D)), params)
            assert np.allclose(y, 0.5)

    def test_saturated_output_row(self):
        params = zero_params(CellKind.RNN)
        params.weights["b"][:] = 25.0  # hidden saturates near 1
        params.weights["V"][3, :] = 40.0
        y, _ = forward_sequence(np.zeros((1, 4, D)), params)
        assert y[0, 3] > 0.999999

    def test_deterministic(self):
        params = random_params(CellKind.GRU, seed=45)
        x = np.random.default_rng(45).uniform(0, 1, (1, 4, D))
        y1, _ = forward_sequence(x, params)
        y2, _ = forward_sequence(x, params)
        assert np.array_equal(y1, y2)

    def test_probabilities_in_open_interval(self):
        for cell in CellKind:
            params = random_params(cell, seed=46, scale=1.5)
            x = np.random.default_rng(46).uniform(0, 1, (1, 4, D))
            y, _ = forward_sequence(x, params)
            assert np.all(y > 0.0) and np.all(y < 1.0)

    def test_hidden_states_bounded(self):
        for cell in CellKind:
            params = random_params(cell, seed=47, scale=2.0)
            x = np.random.default_rng(47).uniform(0, 1, (6, 4, D))
            _, cache = forward_sequence(x, params)
            for h in cache["h"]:
                assert np.all(np.abs(h) <= 1.0)

    def test_batch_matches_single(self):
        for cell in CellKind:
            params = random_params(cell, seed=48)
            x = np.random.default_rng(48).uniform(0, 1, (3, 4, D))
            batch_y, _ = forward_sequence(x, params)
            for i in range(3):
                single_y, _ = forward_sequence(x[i][None], params)
                assert np.allclose(batch_y[i], single_y[0])

    def test_bad_input_shape(self):
        params = zero_params(CellKind.RNN)
        with pytest.raises(ShapeMismatch):
            forward_sequence(np.zeros((1, 4, D + 2)), params)
        with pytest.raises(ShapeMismatch):  # one sample is a batch of one
            forward_sequence(np.zeros((4, D)), params)

    @pytest.mark.parametrize("cell", list(CellKind))
    @pytest.mark.parametrize("shape", [(3, 0, D), (1, 0, D)])
    def test_zero_steps_rejected(self, cell, shape):
        # With no step, backward would have no term to write into the
        # weight gradients and would hand back uninitialised memory.
        with pytest.raises(ShapeMismatch, match="at least one step"):
            forward_sequence(np.zeros(shape), random_params(cell, seed=60))

    @pytest.mark.parametrize("cell", list(CellKind))
    @pytest.mark.parametrize("shape", [(5, 4, D), (1, 4, D)])
    def test_hidden_states_equal_chained_steps(self, cell, shape):
        # Every cached h_t equals the scalar oracle chained from h_0 = 0
        # over each sample's steps; the oracles share no code with nets.
        params = random_params(cell, seed=49, scale=1.0)
        w = params.weights
        x = np.random.default_rng(49).uniform(0, 1, shape)
        _, cache = forward_sequence(x, params)
        assert len(cache["h"]) == shape[-2] + 1
        assert not cache["h"][0].any()
        for i, sample in enumerate(x.reshape(-1, *shape[-2:])):
            h = c = np.zeros(H)
            for t, x_t in enumerate(sample):
                if cell is CellKind.RNN:
                    h = rnn_step_oracle(x_t, h, w["U"], w["W"], w["b"])
                elif cell is CellKind.LSTM:
                    h, c = lstm_step_oracle(x_t, h, c, w)
                else:
                    h = gru_step_oracle(x_t, h, w)
                assert np.allclose(cache["h"][t + 1].reshape(-1, H)[i], h)


def two_branch_sigmoid(x):
    """The masked two-branch logistic: 1/(1+e^-x) for x >= 0, e^x/(1+e^x) below."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_inputs():
    edges = [0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, 800.0, -800.0, np.inf, -np.inf]
    return np.concatenate([edges, np.random.default_rng(56).normal(0.0, 20.0, 2000)])


def same_bits(a, b):
    """Equal dtypes and bit patterns, so signed zeros and subnormals count too."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and np.array_equal(a.view(f"u{a.itemsize}"), b.view(f"u{b.itemsize}"))


class TestSigmoid:
    def test_bit_identical_to_two_branch_formula(self):
        x = sigmoid_inputs()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _sigmoid(x)
            expected = two_branch_sigmoid(x)
        assert same_bits(got, expected)

    def test_in_place(self):
        x = sigmoid_inputs()
        expected = two_branch_sigmoid(x)
        assert _sigmoid(x, out=x) is x
        assert same_bits(x, expected)

    def test_strided_block_slice(self):
        # The sigmoid gates of a stacked LSTM gate block: a (M, 3, B, h)
        # slice of (M, 4, B, h), written in place; the fourth gate is untouched.
        block = np.random.default_rng(61).normal(0.0, 20.0, (2, 4, 7, 5))
        block[0, 0, 0, :] = [0.0, -0.0, np.inf, -np.inf, 800.0]
        block[1, 2, 6, :] = [-800.0, 745.0, -745.0, 1e-300, -1e-300]
        before = block.copy()
        gates = block[:, :3]
        _sigmoid(gates, out=gates)
        assert same_bits(block[:, :3], two_branch_sigmoid(before[:, :3]))
        assert same_bits(block[:, 3], before[:, 3])

    def test_nan_stays_nan(self):
        x = np.array([np.nan, -np.nan, 0.0])
        got = _sigmoid(x.copy())
        assert np.isnan(got[:2]).all() and got[2] == 0.5
        assert np.isnan(_sigmoid(x, out=x)[:2]).all()


def stacked(params_list):
    """One stack of the given lone params."""
    first = params_list[0]
    weights = {k: np.stack([p.weights[k] for p in params_list]) for k in first.weights}
    return NetParams(first.cell, first.input_dim, first.hidden_dim, weights)


# The gate-block kernels against the frozen per-gate ones, which keep the
# GEMM forms the kernels had before.  Set from float64 rounding before the
# test first ran: only the summation order of the gate GEMMs (at most
# K = h + d = 70 terms) and of the backward dh GEMMs (K = h = 32) differs.
# Reordering a K-term sum moves it by at most 2 K u times the sum of its
# terms' magnitudes (u = 2**-53), so by at most 2 * 70 * u * 7 = 1.1e-13
# on a preactivation here (|W| <= 0.1, |[h, x]| <= 1).  The activations
# are 1-Lipschitz; the 4 steps, the head and the weight gradients' sums
# over B <= 225 rows compound that by far less than the factor 100 that
# takes it to 1e-11 of each array's largest magnitude.  A swapped gate or
# a dropped bias moves results by about 1e-2 of it.
FROZEN_RTOL = 1e-11


def within_rounding(got, ref):
    return np.all(np.abs(got - ref) <= FROZEN_RTOL * np.abs(ref).max())


class TestGateBlocksExact:
    """The gate-block kernels against per-gate ones: bit for bit on the same GEMM forms."""

    @pytest.mark.parametrize("cell", [CellKind.LSTM, CellKind.GRU])
    @pytest.mark.parametrize("models", [None, 1, 2, 3])
    @pytest.mark.parametrize("batch", [1, 7, 32, 224, 225])
    def test_matches_per_gate_kernels(self, cell, models, batch):
        rng = np.random.default_rng(62)
        for d in (19, 38):
            for steps in (1, 4):
                lone = [init_params(cell, d, 32, seed=int(s)) for s in rng.integers(1 << 30, size=models or 1)]
                params = stacked(lone) if models else lone[0]
                lead = (models,) if models else ()
                x = rng.uniform(0, 1, (*lead, batch, steps, d))
                target = (rng.uniform(size=(*lead, batch, 19)) < 0.3).astype(float)
                y, cache = forward_sequence(x, params)
                grads = backward(cache, target, params)
                case = f"d={d} T={steps}"
                assert len(cache["h"]) == steps + 1
                for reference, agrees in (
                    ((pergate_gated_forward, pergate_gated_backward), same_bits),
                    ((frozen_gated_forward, frozen_gated_backward), within_rounding),
                ):
                    ref_forward, ref_backward = reference
                    ref_y, ref_cache = ref_forward(x, params)
                    assert agrees(y, ref_y), (case, ref_forward.__name__)
                    assert len(ref_cache["h"]) == steps + 1
                    for h, ref_h in zip(cache["h"], ref_cache["h"]):
                        assert agrees(h, ref_h), (case, ref_forward.__name__)
                    ref_grads = ref_backward(ref_y, ref_cache, target, params)
                    for key, ref in ref_grads.items():
                        assert agrees(grads[key], ref), (case, ref_backward.__name__, key)


class TestRnnProjection:
    """The T-batched input projection against the per-step RNN loop, bit for bit."""

    @pytest.mark.parametrize("models", [None, 1, 2, 3])
    @pytest.mark.parametrize("batch", [1, 7, 32, 224, 225])
    def test_matches_per_step_loop(self, models, batch):
        rng = np.random.default_rng(66)
        for d in (19, 38):
            for steps in (1, 4):
                lone = [init_params(CellKind.RNN, d, 32, seed=int(s)) for s in rng.integers(1 << 30, size=models or 1)]
                params = stacked(lone) if models else lone[0]
                lead = (models,) if models else ()
                x = rng.uniform(0, 1, (*lead, batch, steps, d))
                target = (rng.uniform(size=(*lead, batch, 19)) < 0.3).astype(float)
                y, cache = forward_sequence(x, params)
                ref_y, ref_cache = frozen_rnn_forward(x, params)
                case = f"d={d} T={steps}"
                assert same_bits(y, ref_y), case
                assert same_bits(cache["h"], ref_cache["h"]), case
                grads = backward(cache, target, params)
                ref_grads = backward(ref_cache, target, params)
                for key, ref in ref_grads.items():
                    assert same_bits(grads[key], ref), (case, key)


class TestBceLoss:
    def test_half_probabilities(self):
        y = np.full(19, 0.5)
        t = np.zeros(19)
        t[:4] = 1.0
        assert bce_loss(y, t) == pytest.approx(math.log(2.0))

    def test_perfect_prediction_tiny_loss(self):
        t = np.zeros(19)
        t[2] = 1.0
        assert bce_loss(t.copy(), t) < 1e-6

    def test_bit_identical_to_clip_and_mean(self):
        rng = np.random.default_rng(58)
        y = rng.uniform(0, 1, (33, 19))
        y.flat[:6] = [0.0, 1.0, 1e-9, 1.0 - 1e-9, 1e-300, 0.5]
        t = (rng.uniform(size=y.shape) < 0.3).astype(float)
        clipped = np.clip(y, 1e-7, 1.0 - 1e-7)
        expected = -np.mean(t * np.log(clipped) + (1.0 - t) * np.log(1.0 - clipped))
        assert np.float64(bce_loss(y, t)).view(np.uint64) == np.float64(expected).view(np.uint64)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(49)
        for _ in range(10):
            y = rng.uniform(0, 1, size=(3, 19))
            t = (rng.uniform(size=(3, 19)) < 0.3).astype(float)
            assert bce_loss(y, t) == pytest.approx(bce_oracle(y, t))


class TestBackward:
    @pytest.mark.parametrize("cell", list(CellKind))
    def test_gradients_match_finite_differences(self, cell):
        rng = np.random.default_rng(50)
        for trial, steps in enumerate((4, 4, 4, 1)):
            params = random_params(cell, seed=300 + trial)
            x = rng.uniform(0, 1, (1, steps, D))
            t = (rng.uniform(size=(1, 19)) < 0.3).astype(float)
            _, cache = forward_sequence(x, params)
            analytic = backward(cache, t, params)
            numeric = fd_gradients(params, x, t)
            assert max_relative_error(analytic, numeric) < 1e-4

    @pytest.mark.parametrize("cell", list(CellKind))
    @pytest.mark.parametrize("steps", [1, 2, 4])
    def test_out_buffers_match_allocating_path(self, cell, steps):
        params = random_params(cell, seed=57)
        rng = np.random.default_rng(57)
        x = rng.uniform(0, 1, (5, steps, D))
        t = (rng.uniform(size=(5, 19)) < 0.3).astype(float)
        _, cache = forward_sequence(x, params)
        fresh = backward(cache, t, params)
        # NaN marks any element backward leaves as it found it.
        out = {k: np.full_like(v, np.nan) for k, v in params.weights.items()}
        assert backward(cache, t, params, out=out) is out
        for key, grad in fresh.items():
            assert not np.isnan(out[key]).any(), key
            assert np.array_equal(out[key].view(np.uint64), grad.view(np.uint64)), key

    def test_target_shape_must_match_output(self):
        # A target that only broadcasts against the output would train
        # every sample toward one row.
        params = random_params(CellKind.RNN, seed=58)
        _, cache = forward_sequence(np.zeros((2, 4, D)), params)
        for shape in [(19,), (1, 19), (2 * 19,)]:
            with pytest.raises(ShapeMismatch):
                backward(cache, np.zeros(shape), params)

    def test_output_bias_closed_form(self):
        # With a mean-over-genres loss the head bias gradient for one
        # sample is (y - target) / n_genres; finite differences agree.
        params = random_params(CellKind.RNN, seed=51)
        x = np.random.default_rng(51).uniform(0, 1, (1, 4, D))
        t = np.zeros((1, 19))
        t[0, [1, 5]] = 1.0
        y, cache = forward_sequence(x, params)
        grads = backward(cache, t, params)
        assert np.allclose(grads["b_out"], (y - t)[0] / 19.0)

    def test_symmetric_targets_zero_bias_gradient(self):
        # Zero parameters put every output at 0.5; two complementary
        # targets cancel exactly in the head bias gradient.
        params = zero_params(CellKind.RNN)
        x = np.zeros((2, 4, D))
        t = np.zeros((2, 19))
        t[0, :10] = 1.0
        t[1, 10:] = 0.0
        t[1] = 1.0 - t[0]
        _, cache = forward_sequence(x, params)
        grads = backward(cache, t, params)
        assert np.allclose(grads["b_out"], 0.0)

    def test_batch_gradient_is_mean_of_singles(self):
        params = random_params(CellKind.GRU, seed=52)
        rng = np.random.default_rng(52)
        x = rng.uniform(0, 1, (4, 4, D))
        t = (rng.uniform(size=(4, 19)) < 0.3).astype(float)
        _, cache = forward_sequence(x, params)
        batch_grads = backward(cache, t, params)
        summed = None
        for i in range(4):
            _, c1 = forward_sequence(x[i][None], params)
            g1 = backward(c1, t[i][None], params)
            summed = g1 if summed is None else {k: summed[k] + g1[k] for k in g1}
        for key in batch_grads:
            assert np.allclose(batch_grads[key], summed[key] / 4.0)


def train_one(dataset, cell, config):
    """A lone fit: a stack of one model."""
    (result,) = train([dataset], cell, [config])
    return result


def constant_dataset(n=10, seed=53):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, (4, D))
    t = np.zeros(19)
    t[[0, 7]] = 1.0
    return Dataset(np.tile(x, (n, 1, 1)), np.tile(t, (n, 1)))


class TestSumSteps:
    @pytest.mark.parametrize("steps", [1, 2, 4])
    def test_bit_identical_to_backward_walking_loop(self, steps):
        rng = np.random.default_rng(59)
        dz = rng.normal(size=(steps, 7, H)) * 10.0 ** rng.integers(-8, 8, size=(steps, 1, 1))
        inputs = rng.normal(size=(steps, 7, D))
        for args, term in (((inputs,), lambda t: dz[t].T @ inputs[t]), ((), lambda t: dz[t].sum(axis=0))):
            expected = term(steps - 1)
            for t in range(steps - 2, -1, -1):
                expected += term(t)
            out = np.full_like(expected, np.nan)
            _sum_steps(out, dz, *args)
            assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))

    def test_no_step_writes_zeros(self):
        out = np.full((H, D), np.nan)
        _sum_steps(out, np.zeros((0, 7, H)), np.zeros((0, 7, D)))
        assert np.array_equal(out, np.zeros((H, D)))

    def test_gate_slab_of_a_stacked_block(self):
        # The LSTM's form: dz[..., k, :, :] of a (T, M, 4, B, h) gate block,
        # against a loop adding each step's term of the whole block as it
        # walks t down.
        rng = np.random.default_rng(60)
        steps, models, batch = 4, 3, 7
        block = rng.normal(size=(steps, models, 4, batch, H))
        block *= 10.0 ** rng.integers(-8, 8, size=(steps, models, 4, 1, 1))
        inputs = rng.normal(size=(steps, models, batch, H + D))
        for k in range(4):
            dz = block[..., k, :, :]
            for args, term in (
                ((inputs,), lambda t: np.matmul(dz[t].swapaxes(-1, -2), inputs[t])),
                ((), lambda t: np.add.reduce(block[t], axis=-2)[..., k, :]),
            ):
                expected = term(steps - 1)
                for t in range(steps - 2, -1, -1):
                    expected += term(t)
                out = np.full_like(expected, np.nan)
                _sum_steps(out, dz, *args)
                assert np.array_equal(out.view(np.uint64), expected.view(np.uint64)), k


class TestTrain:
    def test_overfits_repeated_sample(self):
        ds = constant_dataset()
        cfg = TrainConfig(learning_rate=0.05, epochs=500, batch_size=10, hidden_dim=8, seed=1)
        for cell in CellKind:
            result = train_one(ds, cell, cfg)
            assert result.losses[-1] < 0.05
            assert result.losses[-1] < result.losses[0]

    def test_same_seed_same_trace(self):
        ds = constant_dataset()
        cfg = TrainConfig(epochs=25, hidden_dim=8, seed=9)
        a = train_one(ds, CellKind.RNN, cfg)
        b = train_one(ds, CellKind.RNN, cfg)
        assert a.losses == b.losses
        for key in a.params.weights:
            assert np.array_equal(a.params.weights[key], b.params.weights[key])

    def test_zero_learning_rate_keeps_parameters(self):
        ds = constant_dataset()
        cfg = TrainConfig(learning_rate=0.0, epochs=5, hidden_dim=8, seed=2)
        result = train_one(ds, CellKind.LSTM, cfg)
        fresh = init_params(CellKind.LSTM, D, 8, init_scale=cfg.init_scale, seed=cfg.seed)
        for key in result.params.weights:
            assert same_bits(result.params.weights[key], fresh.weights[key].astype(np.float32))

    def test_empty_dataset(self):
        ds = Dataset(np.zeros((0, 4, D)), np.zeros((0, 19)))
        with pytest.raises(EmptyDataset):
            train_one(ds, CellKind.RNN, TrainConfig(epochs=1))

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(momentum=1.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(init_scale=0.0)
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match="learning_rate must be finite"):
                TrainConfig(learning_rate=value)
            with pytest.raises(ValueError, match="init_scale must be finite"):
                TrainConfig(init_scale=value)


def weights_sha256(params):
    digest = hashlib.sha256()
    for name in sorted(params.weights):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(params.weights[name]).tobytes())
    return digest.hexdigest()


def small_dataset(n=45, seed=7):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, (n, 4, D))
    t = (rng.uniform(size=(n, 19)) < 0.3).astype(float)
    return Dataset(x, t)


def strided(dataset):
    """``dataset`` with its inputs as a strided view, as GenreOnly's are."""
    n = len(dataset)
    wide = np.concatenate([dataset.inputs, np.ones((n, 4, 3))], axis=2)
    return Dataset(wide[:, :, :D], dataset.targets)


def assert_lone_fits(datasets, cell, configs):
    """Each model of one stacked train call is bit for bit its lone fit and the reference loop's."""
    results = train(datasets, cell, configs)
    assert len(results) == len(datasets)
    for dataset, config, result in zip(datasets, configs, results):
        lone = train_one(dataset, cell, config)
        ref_params, ref_losses = per_tensor_train(dataset, cell, config)
        for key, ref in ref_params.weights.items():
            assert same_bits(result.params.weights[key], ref), key
            assert same_bits(lone.params.weights[key], ref), key
        assert result.losses == lone.losses == tuple(ref_losses)


def per_tensor_train(dataset, cell, config, dtype=np.float32):
    """Reference loop: per-tensor momentum updates, loss summed batch by batch.

    The float64 init is cast to ``dtype`` and each batch is cast to it, as
    ``train`` does in float32; float64 gives a double-precision fit.
    """
    n = len(dataset)
    rng = np.random.default_rng(config.seed)
    params = init_params(
        cell, dataset.inputs.shape[2], config.hidden_dim, init_scale=config.init_scale, rng=rng
    )
    params = replace(params, weights={k: v.astype(dtype) for k, v in params.weights.items()})
    velocity = {k: np.zeros_like(v) for k, v in params.weights.items()}
    losses = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            xb, tb = dataset.inputs[idx].astype(dtype), dataset.targets[idx].astype(dtype)
            yb, cache = forward_sequence(xb, params)
            total += bce_loss(yb, tb) * idx.size
            grads = backward(cache, tb, params)
            for k, vel in velocity.items():
                vel *= config.momentum
                vel -= config.learning_rate * grads[k]
                params.weights[k] += vel
        losses.append(total / n)
    return params, losses


# sha256 of the float32 weights after train(small_dataset(), cell,
# PINNED_CONFIG), recorded on helpers.PINNED_BUILD.  A change to the
# training arithmetic that moves any bit must re-pin these on purpose
# (``python -m tests.helpers digests`` prints pinned and current side by side).
PINNED_CONFIG = TrainConfig(epochs=4, batch_size=8, hidden_dim=8, seed=11)
PINNED_WEIGHTS = {
    CellKind.RNN: "2dce1e43b9170b6efc5b4c3f7c22de62e584b3eb62665d2e08a34eb635fd34b6",
    CellKind.LSTM: "bef2b26092d14d4b4da57d1d5f25f5ff6c8f5e2f473a81826c1ae8330da2bad4",
    CellKind.GRU: "c0fb6ddc540e2186c42078a719bc7a79c9a14cd770b6be0294be4eecaa957956",
}

# sha256 of both models' float32 weights after production_stack(cell), a
# 2-model ragged stack at TrainConfig's default hidden size and batch, one
# input strided, recorded on helpers.PINNED_BUILD.  PINNED_CONFIG's small
# GEMMs can keep every bit that a change of GEMM form moves at these shapes.
PRODUCTION_CONFIG = TrainConfig(epochs=2, seed=11)
PRODUCTION_WEIGHTS = {
    CellKind.RNN: "5aecbcafbe8c682a6c8c41b7dc9edc1f9a50ed97890494fe4932761c8a2bd3fe",
    CellKind.LSTM: "47c71d4b3d73de62d4fa69a33240a103fe04d2baff6df35716e5c8194dfca123",
    CellKind.GRU: "2fe95f0f22b236bc18c2cd9c3c4172b77b8a62d1b4c730dab980dd6612de6895",
}


def production_stack(cell):
    """The two trained models of PRODUCTION_WEIGHTS' stack: 100 and 70 samples, batch 32."""
    datasets = [small_dataset(100), strided(small_dataset(70, seed=8))]
    return train(datasets, cell, [PRODUCTION_CONFIG, replace(PRODUCTION_CONFIG, seed=12)])


def stack_sha256(results):
    return hashlib.sha256("".join(weights_sha256(r.params) for r in results).encode()).hexdigest()


class TestTrainExactness:
    @requires_pinned_build
    @pytest.mark.parametrize("cell", list(CellKind))
    def test_pinned_weights(self, cell):
        result = train_one(small_dataset(), cell, PINNED_CONFIG)
        assert weights_sha256(result.params) == PINNED_WEIGHTS[cell]

    @requires_pinned_build
    @pytest.mark.parametrize("cell", list(CellKind))
    def test_pinned_weights_at_default_shapes(self, cell):
        assert stack_sha256(production_stack(cell)) == PRODUCTION_WEIGHTS[cell]

    @pytest.mark.parametrize("cell", list(CellKind))
    def test_matches_per_tensor_loop(self, cell):
        # 45 samples at batch 8 leave a ragged final batch of 5.
        result = train_one(small_dataset(), cell, PINNED_CONFIG)
        ref_params, ref_losses = per_tensor_train(small_dataset(), cell, PINNED_CONFIG)
        for key, ref in ref_params.weights.items():
            assert same_bits(result.params.weights[key], ref)
        assert result.losses == tuple(ref_losses)

    @pytest.mark.parametrize("cell", list(CellKind))
    @pytest.mark.parametrize("models", [2, 3])
    def test_stack_matches_lone_fits(self, cell, models):
        # Each model has its own data, seed and batch order; 45 samples at
        # batch 8 leave every model a ragged final batch of 5.  The last
        # model's inputs are a strided view, as GenreOnly's are.
        datasets = [small_dataset(seed=7 + m) for m in range(models)]
        datasets[-1] = strided(datasets[-1])
        configs = [replace(PINNED_CONFIG, seed=11 + m) for m in range(models)]
        assert_lone_fits(datasets, cell, configs)

    @pytest.mark.parametrize("cell", list(CellKind))
    def test_ragged_stack_matches_lone_fits(self, cell):
        # 37, 45, 12 and 44 samples at batch 8 train longest first: at step
        # 4 models 45 and 44 take 8 rows and 37 its last 5, at step 5 45 and
        # 44 take their last 5 and 4, and 12 stops after step 1.
        datasets = [small_dataset(n, seed=7 + m) for m, n in enumerate((37, 45, 12, 44))]
        datasets[2] = strided(datasets[2])
        configs = [replace(PINNED_CONFIG, seed=11 + m) for m in range(4)]
        assert_lone_fits(datasets, cell, configs)

    @pytest.mark.parametrize("cell", list(CellKind))
    def test_ragged_stacks_split_by_the_row_budget(self, cell, monkeypatch):
        # At half the row budget per batch, five models train as stacks of
        # 2, 2 and 1: (1100, 1030) in three gather blocks of 512 rows each,
        # the last of 76 and 6; (600, 128), where only 600 reaches the
        # second block; and 45 alone.
        stacks = []
        train_stack = nets._train_stack

        def recorded(datasets, cell, configs):
            stacks.append([len(d) for d in datasets])
            return train_stack(datasets, cell, configs)

        monkeypatch.setattr(nets, "_train_stack", recorded)
        config = replace(PINNED_CONFIG, epochs=2, batch_size=_STACK_ROWS // 2)
        datasets = [small_dataset(n, seed=7 + m) for m, n in enumerate((600, 1100, 45, 1030, 128))]
        datasets[3] = strided(datasets[3])
        assert_lone_fits(datasets, cell, [replace(config, seed=11 + m) for m in range(5)])
        assert stacks[:3] == [[1100, 1030], [600, 128], [45]]

    @pytest.mark.parametrize("cell", list(CellKind))
    @pytest.mark.parametrize("models", [1, 2])
    @pytest.mark.parametrize("strided", [False, True])
    def test_uint8_genres_match_float64(self, cell, models, strided):
        # GenreOnly data: 0/1 genre windows as uint8, float32 and float64;
        # all three reach the float32 batches as the same values.  Strided
        # sources are views of one (n, 5, 19) table, as genre_samples gives;
        # contiguous ones are copies, as a trimmed set is.
        def genre_only(seed, dtype):
            table = (np.random.default_rng(seed).uniform(size=(45, 5, D)) < 0.3).astype(dtype)
            inputs, targets = table[:, :4], table[:, 4]
            if not strided:
                inputs, targets = inputs.copy(), targets.copy()
            assert inputs.flags.c_contiguous is not strided
            return Dataset(inputs, targets)

        configs = [replace(PINNED_CONFIG, seed=11 + m) for m in range(models)]
        one_byte = train([genre_only(7 + m, np.uint8) for m in range(models)], cell, configs)
        for dtype in (np.float32, np.float64):
            floats = train([genre_only(7 + m, dtype) for m in range(models)], cell, configs)
            for got, expected in zip(one_byte, floats):
                for key, ref in expected.params.weights.items():
                    assert same_bits(got.params.weights[key], ref), dtype
                assert got.losses == expected.losses

    @pytest.mark.parametrize("cell", list(CellKind))
    @pytest.mark.parametrize("models", [1, 3])
    def test_gather_blocks_match_per_tensor_loop(self, cell, models):
        # 1,100 samples at batch 32: one model takes two gather blocks,
        # 1,024 rows and a ragged 76, whose last batch is a ragged 12; three
        # share the block rows, 320 each.  The sources are strided uint8
        # views, as genre_samples gives.
        def genre_only(seed):
            table = (np.random.default_rng(seed).uniform(size=(1100, 5, D)) < 0.3).astype(np.uint8)
            return Dataset(table[:, :4], table[:, 4])

        datasets = [genre_only(70 + m) for m in range(models)]
        assert not datasets[0].inputs.flags.c_contiguous
        config = TrainConfig(epochs=2, batch_size=32, hidden_dim=H)
        configs = [replace(config, seed=21 + m) for m in range(models)]
        for dataset, config, result in zip(datasets, configs, train(datasets, cell, configs)):
            ref_params, ref_losses = per_tensor_train(dataset, cell, config)
            for key, ref in ref_params.weights.items():
                assert same_bits(result.params.weights[key], ref), key
            assert result.losses == tuple(ref_losses)

    @requires_pinned_build
    @pytest.mark.parametrize("cell", list(CellKind))
    def test_pinned_weights_in_a_stack(self, cell):
        datasets = [small_dataset(), small_dataset(seed=8)]
        results = train(datasets, cell, [PINNED_CONFIG, replace(PINNED_CONFIG, seed=12)])
        assert weights_sha256(results[0].params) == PINNED_WEIGHTS[cell]

    def test_stack_mismatch_raises(self):
        ds = small_dataset()
        wide = Dataset(np.concatenate([ds.inputs, ds.inputs], axis=2), ds.targets)
        with pytest.raises(ShapeMismatch, match="stacked datasets differ"):
            train([ds, wide], CellKind.RNN, [PINNED_CONFIG] * 2)
        narrow = Dataset(ds.inputs, ds.targets[:, :18])  # the head scores the 19 genres
        for stack in ([narrow], [ds, narrow]):
            with pytest.raises(ShapeMismatch, match="19 genres wide"):
                train(stack, CellKind.RNN, [PINNED_CONFIG] * len(stack))
        with pytest.raises(ValueError, match="only in their seeds"):
            train([ds, ds], CellKind.RNN, [PINNED_CONFIG, replace(PINNED_CONFIG, epochs=5)])
        with pytest.raises(ValueError, match="2 datasets for 1 configs"):
            train([ds, ds], CellKind.RNN, [PINNED_CONFIG])
        with pytest.raises(ValueError, match="0 datasets"):
            train([], CellKind.RNN, [])
        empty = Dataset(np.zeros((0, 4, D)), np.zeros((0, 19)))
        with pytest.raises(EmptyDataset):
            train([ds, empty], CellKind.RNN, [PINNED_CONFIG] * 2)


# A float32 fit's predictions may differ from a float64 fit's of the same
# seed by this much.  Measured: at most 8.4e-7 over the three cells at 200
# epochs (each step rounds to 2**-24 relative, and momentum carries it);
# the report thresholds at 0.5 and writes 4 decimals.
FLOAT32_DRIFT = 1e-4


class TestDtype:
    @pytest.mark.parametrize("cell", list(CellKind))
    def test_train_and_predict_in_float32(self, cell):
        result = train_one(small_dataset(), cell, PINNED_CONFIG)
        assert {v.dtype for v in result.params.weights.values()} == {np.dtype(np.float32)}
        uint8 = (small_dataset().inputs > 0.5).astype(np.uint8)
        for inputs in (small_dataset().inputs, uint8):
            assert predict(result.params, inputs).dtype == np.float32

    @pytest.mark.parametrize("cell", list(CellKind))
    def test_float64_params_stay_float64(self, cell):
        # The finite-difference oracles call the kernels with float64
        # params; float32 or uint8 inputs must not lower their precision.
        params = random_params(cell, seed=67)
        x = np.random.default_rng(67).uniform(0, 1, (5, 4, D))
        t = (np.random.default_rng(68).uniform(size=(5, 19)) < 0.3).astype(np.uint8)
        for inputs in (x, x.astype(np.float32), (x > 0.5).astype(np.uint8)):
            y, cache = forward_sequence(inputs, params)
            assert y.dtype == cache["h"].dtype == cache["xs"].dtype == np.float64
            for act in cache["acts"]:
                assert {a.dtype for a in act} == {np.dtype(np.float64)}
            buffers = {CellKind.RNN: set(), CellKind.LSTM: {"zcat"}, CellKind.GRU: {"zcat", "acat"}}[cell]
            assert set(cache) == {"xs", "h", "y", "acts"} | buffers
            for key in set(cache) - {"acts"}:
                assert cache[key].dtype == np.float64, key
            grads = backward(cache, t, params)
            assert {g.dtype for g in grads.values()} == {np.dtype(np.float64)}

    @pytest.mark.parametrize("cell", list(CellKind))
    def test_float32_fit_tracks_float64_fit(self, cell):
        data = small_dataset()
        config = TrainConfig(epochs=200, batch_size=8, hidden_dim=32, seed=11)
        result = train_one(data, cell, config)
        ref_params, ref_losses = per_tensor_train(data, cell, config, dtype=np.float64)
        ref = predict(ref_params, data.inputs)
        assert ref.dtype == np.float64
        assert np.abs(predict(result.params, data.inputs) - ref).max() <= FLOAT32_DRIFT
        assert np.abs(np.subtract(result.losses, ref_losses)).max() <= FLOAT32_DRIFT


class TestPredict:
    @pytest.mark.parametrize("cell", list(CellKind))
    @pytest.mark.parametrize("rows", [_PREDICT_ROWS + 1, 2 * _PREDICT_ROWS + 60])
    def test_chunks_match_one_whole_set_call(self, cell, rows):
        params = init_params(cell, 38, 32, seed=63)
        x = np.random.default_rng(63).uniform(0, 1, (rows, 4, 38))
        assert same_bits(predict(params, x), forward_sequence(x, params)[0])

    @pytest.mark.parametrize("cell", list(CellKind))
    def test_uint8_inputs_match_float64(self, cell):
        # 8,252 rows run as 3 chunks, each cast on its own; the inputs are
        # a strided view, as GenreOnly test inputs are.
        rows = 2 * _PREDICT_ROWS + 60
        table = (np.random.default_rng(65).uniform(size=(rows, 5, 19)) < 0.3).astype(np.uint8)
        params = init_params(cell, 19, 32, seed=65)
        expected = predict(params, table.astype(np.float64)[:, :4])
        assert same_bits(predict(params, table[:, :4]), expected)

    def test_one_sample_and_empty_set(self):
        params = random_params(CellKind.LSTM, seed=64)
        x = np.random.default_rng(64).uniform(0, 1, (1, 4, D))
        assert same_bits(predict(params, x), forward_sequence(x, params)[0])
        assert predict(params, np.zeros((0, 4, D))).shape == (0, 19)
        with pytest.raises(ShapeMismatch):  # one sample is a batch of one
            predict(params, x[0])

