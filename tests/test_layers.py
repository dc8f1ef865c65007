import warnings

import numpy as np
import numpy.testing as npt
import pytest

from intentnet import layers
from intentnet.layers import (
    CONV_WIDTH,
    ConvParams,
    DenseParams,
    Lookup,
    bilstm_backward,
    bilstm_forward,
    conv_backward,
    conv_forward,
    dense_backward,
    dense_forward,
    dropout,
    dropout_backward,
    embedding_backward,
    embedding_forward,
    init_weights,
    lstm_cell_backward,
    lstm_cell_forward,
    maxpool_backward,
    maxpool_over_time,
    pack_chain,
)
from intentnet.tensor import Rng

from helpers import max_rel_error, numeric_gradient, scalar_lstm_cell, zero_lstm_params

GRAD_TOL = 1e-4
N_SEEDS = 20


def random_lstm_params(rng, k, hidden):
    p = zero_lstm_params(k, hidden, np.float64)
    init_weights(rng, p)
    # randomize biases too so the check does not run at a special point
    blocks = p.blocks()
    for name in ("b_f", "b_i", "b_g", "b_o"):
        blocks[name][:] = rng.uniform(-0.5, 0.5, (hidden,))
    return p


class TestEmbedding:
    def test_pad_row_is_zero(self):
        table = np.arange(12, dtype=np.float64).reshape(4, 3) + 1.0
        out = embedding_forward([0, 2], table)
        npt.assert_array_equal(out[0], np.zeros(3))
        npt.assert_array_equal(out[1], table[2])

    def test_lookup_exact_rows(self):
        table = np.arange(20, dtype=np.float64).reshape(5, 4)
        out = embedding_forward([3, 1, 3], table)
        npt.assert_array_equal(out, table[[3, 1, 3]])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            embedding_forward([5], np.zeros((4, 2)))

    def test_duplicate_indices_accumulate_additively(self):
        rng = Rng(100)
        table = rng.uniform(-1, 1, (5, 3))
        indices = [2, 4, 2]  # duplicate on purpose
        weights = rng.uniform(-1, 1, (3, 3))

        def loss():
            return float(np.sum(weights * embedding_forward(indices, table)))

        grad = np.zeros_like(table)
        embedding_backward(indices, weights, grad)
        assert max_rel_error(grad, numeric_gradient(loss, table)) < GRAD_TOL

    def test_pad_gradient_frozen(self):
        table = np.ones((3, 2))
        grad = np.zeros_like(table)
        embedding_backward([0, 1], np.ones((2, 2)), grad)
        npt.assert_array_equal(grad[0], np.zeros(2))
        npt.assert_array_equal(grad[1], np.ones(2))


class TestLSTMCell:
    def test_zero_params_zero_cell(self):
        p = zero_lstm_params(2, 1, np.float64)
        h, c, _ = lstm_cell_forward(np.zeros((1, 2)) @ p.w_x + p.b, np.zeros((1, 1)),
                                    np.zeros((1, 1)), p)
        npt.assert_array_equal(h, [[0.0]])
        npt.assert_array_equal(c, [[0.0]])

    def test_zero_params_unit_cell_state(self):
        # gates collapse to 1/2: new cell = 0.5, hidden = 0.5*tanh(0.5)
        p = zero_lstm_params(2, 1, np.float64)
        h, c, _ = lstm_cell_forward(np.zeros((1, 2)) @ p.w_x + p.b, np.zeros((1, 1)),
                                    np.ones((1, 1)), p)
        npt.assert_allclose(c, [[0.5]], atol=1e-12)
        npt.assert_allclose(h, [[0.23105857863000487]], atol=1e-12)

    def test_matches_scalar_loop_oracle(self):
        for seed in range(5):
            rng = Rng(seed)
            p = random_lstm_params(rng, 3, 3)
            x = rng.uniform(-1, 1, (4, 3))
            h_prev = rng.uniform(-1, 1, (4, 3))
            c_prev = rng.uniform(-1, 1, (4, 3))
            h, c, _ = lstm_cell_forward(x @ p.w_x + p.b, h_prev, c_prev, p)
            for b in range(4):
                h_ref, c_ref = scalar_lstm_cell(x[b], h_prev[b], c_prev[b], p)
                npt.assert_allclose(h[b], h_ref, atol=1e-6)
                npt.assert_allclose(c[b], c_ref, atol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gates_at_extreme_pre_activations(self, dtype):
        # zero weights and states: each gate's pre-activation is its own
        # columns of xw, v (a -0 gains +0 from the zero products, so the
        # candidate, which keeps a zero's sign, is compared by value)
        tiny = np.finfo(dtype).smallest_subnormal
        v = np.array([0.0, -0.0, tiny, -tiny, 1e4, -1e4, np.inf, -np.inf], dtype=dtype)
        H = len(v)
        zeros = np.zeros((1, H), dtype=dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, cache = lstm_cell_forward(np.tile(v, (1, 4)), zeros, zeros,
                                            zero_lstm_params(2, H, dtype))
        sigmoid = 0.5 * np.tanh(0.5 * v) + 0.5
        assert cache.i_f.tobytes() == np.tile(sigmoid, 2).tobytes()
        assert cache.o.tobytes() == sigmoid.tobytes()
        npt.assert_array_equal(cache.g, np.tanh(v)[None])
        for gate in (cache.i_f, cache.o):
            assert np.all((gate >= 0) & (gate <= 1))

    @staticmethod
    def gates_of(v):
        """The cell's cache for one row per value of ``v``, with zero params
        and states and one hidden unit: every gate's pre-activation is v."""
        zeros = np.zeros((len(v), 1), dtype=v.dtype)
        _, _, cache = lstm_cell_forward(np.repeat(v[:, None], 4, axis=1), zeros, zeros,
                                        zero_lstm_params(2, 1, v.dtype))
        return cache

    def test_gates_at_zero_are_one_half(self):
        cache = self.gates_of(np.zeros(1))
        npt.assert_array_equal(cache.i_f, [[0.5, 0.5]])
        npt.assert_array_equal(cache.o, [[0.5]])
        npt.assert_array_equal(cache.g, [[0.0]])

    def test_gates_at_two_have_the_logistic_value(self):
        # 1/(1+e^-2) evaluated at float64 precision
        cache = self.gates_of(np.array([2.0]))
        npt.assert_allclose(cache.i_f, [[0.8807970779778823] * 2], rtol=1e-12)
        npt.assert_allclose(cache.o, [[0.8807970779778823]], rtol=1e-12)

    def test_gates_saturate_at_large_magnitudes(self):
        cache = self.gates_of(np.array([-1000.0, 1000.0]))
        for gate in (cache.i_f, cache.o):
            assert np.all(np.isfinite(gate))
            npt.assert_allclose(gate, [[0.0] * gate.shape[1], [1.0] * gate.shape[1]],
                                atol=1e-12)

    def test_gates_are_symmetric_about_zero(self):
        v = Rng(3).uniform(-8, 8, (100,))
        up, down = self.gates_of(v), self.gates_of(-v)
        npt.assert_allclose(up.i_f + down.i_f, np.ones((100, 2)), atol=1e-6)
        npt.assert_allclose(up.o + down.o, np.ones((100, 1)), atol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gates_have_the_bits_of_the_scalar_form(self, dtype):
        def scalar_form(x):
            out = np.multiply(x, 0.5)
            np.tanh(out, out=out)
            out *= 0.5
            out += 0.5
            return out

        info = np.finfo(dtype)
        special = np.array([0.0, -0.0, info.smallest_subnormal, -info.smallest_subnormal,
                            info.smallest_normal / 3, 1e4, -1e4, np.inf, -np.inf, np.nan],
                           dtype=dtype)
        v = np.concatenate([special, (8 * np.random.default_rng(0).standard_normal(10_000))
                            .astype(dtype)])
        cache = self.gates_of(v)
        expected = scalar_form(v)[:, None]
        assert cache.i_f.tobytes() == np.repeat(expected, 2, axis=1).tobytes()
        assert cache.o.tobytes() == expected.tobytes()

    def test_shape_mismatch_rejected(self):
        p = zero_lstm_params(2, 3, np.float64)
        with pytest.raises(ValueError):  # not the 4H gate columns
            lstm_cell_forward(np.zeros((1, 4)), np.zeros((1, 3)), np.zeros((1, 3)), p)
        with pytest.raises(ValueError):  # batch sizes disagree
            lstm_cell_forward(np.zeros((2, 2)) @ p.w_x + p.b, np.zeros((1, 3)),
                              np.zeros((1, 3)), p)
        with pytest.raises(ValueError):  # no batch axis
            lstm_cell_forward(np.zeros(2) @ p.w_x + p.b, np.zeros(3), np.zeros(3), p)

    def test_zero_upstream_gives_zero_param_grads(self):
        rng = Rng(1)
        p = random_lstm_params(rng, 2, 2)
        x = rng.uniform(-1, 1, (3, 2))
        _, _, cache = lstm_cell_forward(
            x @ p.w_x + p.b, rng.uniform(-1, 1, (3, 2)), rng.uniform(-1, 1, (3, 2)), p
        )
        # every weight and bias gradient is a product with dz
        for arr in lstm_cell_backward(pack_chain([cache], x), slice(0, 3), np.zeros((3, 2)),
                                      np.zeros((3, 2))):
            npt.assert_array_equal(arr, np.zeros_like(arr))

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_backward_matches_finite_differences(self, seed):
        rng = Rng(seed)
        k = 1 + rng.integer(5)
        hidden = 1 + rng.integer(4)
        batch = 1 + rng.integer(3)
        p = random_lstm_params(rng, k, hidden)
        x = rng.uniform(-1, 1, (batch, k))
        h_prev = rng.uniform(-1, 1, (batch, hidden))
        c_prev = rng.uniform(-1, 1, (batch, hidden))
        gh = rng.uniform(-1, 1, (batch, hidden))
        gc = rng.uniform(-1, 1, (batch, hidden))

        def loss():
            h, c, _ = lstm_cell_forward(x @ p.w_x + p.b, h_prev, c_prev, p)
            return float(np.sum(gh * h + gc * c))

        _, _, cache = lstm_cell_forward(x @ p.w_x + p.b, h_prev, c_prev, p)
        dz, dh_prev, dc_prev = lstm_cell_backward(pack_chain([cache], x), slice(0, batch),
                                                  gh.copy(), gc.copy())

        # the bias enters each row's pre-activations once, so the batch sum of
        # dz is d(loss)/d(b); the per-gate weight blocks are checked through
        # TestBiLSTM
        assert max_rel_error(dz.sum(axis=0), numeric_gradient(loss, p.b)) < GRAD_TOL
        # input-side gradients, including both cell-state paths into dc_prev
        assert max_rel_error(dz @ p.w_x.T, numeric_gradient(loss, x)) < GRAD_TOL
        assert max_rel_error(dh_prev, numeric_gradient(loss, h_prev)) < GRAD_TOL
        assert max_rel_error(dc_prev, numeric_gradient(loss, c_prev)) < GRAD_TOL

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 3, 10])
    @pytest.mark.blas_threads
    def test_backward_matches_the_column_slice_cell_bit_for_bit(self, batch, dtype):
        def column_slice_backward(cache, dh, dc_in):
            # the cell backward written on strided column slices of gates
            p, c_prev, tanh_c = cache.params, cache.c_prev, cache.tanh_c
            gates = np.concatenate([cache.i_f, cache.g, cache.o], axis=-1)
            H = p.hidden_size
            i, f, g, o = (gates[:, :H], gates[:, H:2 * H], gates[:, 2 * H:3 * H],
                          gates[:, 3 * H:])
            dz = np.empty_like(gates)
            dz[:, 3 * H:] = dh * tanh_c * o * (1.0 - o)
            dc = dc_in + dh * o * (1.0 - tanh_c * tanh_c) + dz[:, 3 * H:] @ p.w_c[:, 2 * H:].T
            dz[:, :H] = dc * g * i * (1.0 - i)
            dz[:, H:2 * H] = dc * c_prev * f * (1.0 - f)
            dz[:, 2 * H:3 * H] = dc * i * (1.0 - g * g)
            dc_prev = dc * f + dz[:, :2 * H] @ p.w_c[:, :2 * H].T
            dh_prev = dz @ p.w_h.T
            return dz, dh_prev, dc_prev

        rng = Rng(batch)
        k, hidden = 64, 50  # the paper's sizes
        p = zero_lstm_params(k, hidden, dtype)
        init_weights(rng, p)
        p.b[:] = rng.uniform(-0.5, 0.5, p.b.shape)
        x, h_prev, c_prev, dh, dc = (rng.uniform(-1, 1, (batch, n)).astype(dtype)
                                     for n in (k, hidden, hidden, hidden, hidden))
        _, _, cache = lstm_cell_forward(x @ p.w_x + p.b, h_prev, c_prev, p)
        # the step overwrites dh and dc with the previous states' gradients
        for got, expected in zip(lstm_cell_backward(pack_chain([cache], x), slice(0, batch),
                                                    dh.copy(), dc.copy()),
                                 column_slice_backward(cache, dh, dc)):
            assert got.dtype == expected.dtype == dtype
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 3, 10])
    @pytest.mark.blas_threads
    def test_stacked_directions_equal_their_own_calls_bit_for_bit(self, batch, dtype):
        # one call over (2, B, .) operands with (2, ., .) weight stacks, as
        # the model's arena holds them, against each direction's own call
        rng = Rng(100 + batch)
        k, hidden = 64, 50  # the paper's sizes
        stacks = [np.zeros((2, *shape), dtype)
                  for shape in layers.LSTMParams.stack_shapes(k, hidden)]
        directions = [layers.LSTMParams(*(stack[d] for stack in stacks)) for d in (0, 1)]
        for p in directions:
            init_weights(rng, p)
            p.b[:] = rng.uniform(-0.5, 0.5, p.b.shape)
        x, h_prev, c_prev = (rng.uniform(-1, 1, (2, batch, n)).astype(dtype)
                             for n in (k, hidden, hidden))
        xw = np.stack([x[d] @ p.w_x + p.b for d, p in enumerate(directions)])
        h, c, cache = lstm_cell_forward(xw.copy(), h_prev, c_prev, layers.LSTMParams(*stacks))
        for d, p in enumerate(directions):
            own_h, own_c, own = lstm_cell_forward(xw[d].copy(), h_prev[d], c_prev[d], p)
            pairs = [(h[d], own_h), (c[d], own_c),
                     *((getattr(cache, f)[d], getattr(own, f))
                       for f in layers.CellCache._fields if f != "params")]
            for got, expected in pairs:
                assert got.dtype == expected.dtype == dtype
                assert got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()


class TestBiLSTM:
    def test_single_position_equals_one_cell_step(self):
        rng = Rng(3)
        p_fwd = random_lstm_params(rng, 2, 3)
        p_bwd = random_lstm_params(rng, 2, 3)
        X = rng.uniform(-1, 1, (1, 1, 2))
        h_fwd, h_bwd, _ = bilstm_forward(X, [1], p_fwd, p_bwd)
        expect_f, _, _ = lstm_cell_forward(X[:, 0] @ p_fwd.w_x + p_fwd.b, np.zeros((1, 3)),
                                           np.zeros((1, 3)), p_fwd)
        expect_b, _, _ = lstm_cell_forward(X[:, 0] @ p_bwd.w_x + p_bwd.b, np.zeros((1, 3)),
                                           np.zeros((1, 3)), p_bwd)
        npt.assert_array_equal(h_fwd, expect_f)
        npt.assert_array_equal(h_bwd, expect_b)

    def test_palindrome_with_shared_params(self):
        rng = Rng(4)
        p = random_lstm_params(rng, 2, 3)
        row_a = rng.uniform(-1, 1, (2,))
        row_b = rng.uniform(-1, 1, (2,))
        X = np.stack([row_a, row_b, row_a])[None]  # palindromic sequence
        h_fwd, h_bwd, _ = bilstm_forward(X, [3], p, p)
        npt.assert_array_equal(h_fwd, h_bwd)

    @pytest.mark.blas_threads
    def test_padding_never_enters(self):
        rng = Rng(5)
        p_fwd = random_lstm_params(rng, 3, 2)
        p_bwd = random_lstm_params(rng, 3, 2)
        for _ in range(10):
            batch = 1 + rng.integer(3)
            lengths = [1 + rng.integer(4) for _ in range(batch)]
            width = max(lengths)
            X = rng.uniform(-1, 1, (batch, width, 3))
            clean = X.copy()
            for b, n in enumerate(lengths):
                clean[b, n:] = 0
            pad = rng.uniform(-9, 9, (batch, 2 + rng.integer(4), 3))
            # a sample's rows past its length hold garbage, and more rows follow
            padded = np.concatenate([X, pad], axis=1)
            out_clean = bilstm_forward(clean, lengths, p_fwd, p_bwd)[:2]
            out_padded = bilstm_forward(padded, lengths, p_fwd, p_bwd)[:2]
            npt.assert_array_equal(out_clean[0], out_padded[0])
            npt.assert_array_equal(out_clean[1], out_padded[1])

    @pytest.mark.parametrize("lead", [(1,), (3,), (4, 1)], ids=["B1", "B3", "stack"])
    @pytest.mark.blas_threads
    def test_full_length_batches_read_reversed_as_the_gather_reads(self, lead):
        # Every sample spans all T rows, so the backward chain reads X
        # reversed as one copy of its view; rows of garbage after them send
        # the same samples down the per-sample gather. Paper sizes, float32.
        rng = Rng(11)
        p_fwd, p_bwd = zero_lstm_params(64, 50), zero_lstm_params(64, 50)
        init_weights(rng, p_fwd, p_bwd)
        for T in (1, 3, 10, 31):
            X = rng.uniform(-1, 1, (*lead, T, 64), np.float32)
            padded = np.concatenate([X, rng.uniform(-9, 9, (*lead, 2, 64), np.float32)],
                                    axis=-2)
            lengths = [T] * lead[-1]
            got = bilstm_forward(X, lengths, p_fwd, p_bwd)[:2]
            expected = bilstm_forward(padded, lengths, p_fwd, p_bwd)[:2]
            for h, h_ref in zip(got, expected):
                assert h.dtype == np.float32
                assert h.tobytes() == h_ref.tobytes()

    @pytest.mark.parametrize("lengths", [[3, 9, 5, 9, 4], [4, 2, 6], [5], [4, 4, 4],
                                         [1, 3, 2, 1]])
    def test_packed_equals_the_padded_recurrence(self, lengths):
        def padded(X, lengths, p_fwd, p_bwd, d_fwd, d_bwd):
            # every chain runs all T steps over the whole batch, reads each
            # final state after the sample's own steps, and lets d_final enter
            # at the step where the sample ends
            B, T, _ = X.shape
            pos = lengths[:, None] - 1 - np.arange(T)
            X_rev = X[np.arange(B)[:, None], np.maximum(pos, 0)]
            X_rev[pos < 0] = 0
            finals, dXs, grads = [], [], []
            for X_dir, p, d_final in ((X, p_fwd, d_fwd), (X_rev, p_bwd, d_bwd)):
                h = c = np.zeros((B, p.hidden_size))
                states, caches = [], []
                for t in range(T):
                    h, c, cache = lstm_cell_forward(X_dir[:, t] @ p.w_x + p.b, h, c, p)
                    states.append(h)
                    caches.append(cache)
                finals.append(np.stack(states, axis=1)[np.arange(B), lengths - 1])
                ends = lengths == np.arange(1, T + 1)[:, None]
                x = X_dir.transpose(1, 0, 2).reshape(T * B, -1)  # rows ordered (step, sample)
                chain = pack_chain(caches, x)
                dz, h_prev, c_prev, c = chain.dz, chain.h_prev, chain.factors[5], chain.c
                dh, dc = np.zeros_like(d_final), np.zeros_like(d_final)
                for t in range(T - 1, -1, -1):
                    dh[ends[t]] = d_final[ends[t]]
                    # step t's rows; in place over dh and dc
                    lstm_cell_backward(chain, slice(t * B, (t + 1) * B), dh, dc)
                H = p.hidden_size
                g = zero_lstm_params(p.input_size, H, np.float64)
                g.w_x += x.T @ dz
                g.w_h += h_prev.T @ dz
                g.w_c[:, :2 * H] += c_prev.T @ dz[:, :2 * H]
                g.w_c[:, 2 * H:] += c.T @ dz[:, 3 * H:]
                g.b += dz.sum(axis=0)
                grads.append(g)
                dXs.append((dz @ p.w_x.T).reshape(T, B, -1).transpose(1, 0, 2))
            d_rev = dXs[1][np.arange(B)[:, None], np.maximum(pos, 0)]
            d_rev[pos < 0] = 0
            return finals, dXs[0] + d_rev, grads

        rng = Rng(sum(lengths) + len(lengths))
        E, H = 3, 4
        p_fwd, p_bwd = random_lstm_params(rng, E, H), random_lstm_params(rng, E, H)
        lengths = np.array(lengths)
        # two more rows than the longest sample, so that every sample has padding
        X = rng.uniform(-1, 1, (len(lengths), lengths.max() + 2, E))
        d_fwd, d_bwd = rng.uniform(-1, 1, (2, len(lengths), H))
        h_fwd, h_bwd, cache = bilstm_forward(X, lengths, p_fwd, p_bwd)
        grads = [zero_lstm_params(E, H, np.float64) for _ in range(2)]
        dX = bilstm_backward(cache, d_fwd.copy(), d_bwd.copy(), *grads)
        finals, dX_ref, grads_ref = padded(X, lengths, p_fwd, p_bwd, d_fwd, d_bwd)
        npt.assert_allclose(h_fwd, finals[0], rtol=1e-12, atol=1e-12)
        npt.assert_allclose(h_bwd, finals[1], rtol=1e-12, atol=1e-12)
        npt.assert_allclose(dX, dX_ref, rtol=1e-12, atol=1e-12)
        for got, ref in zip(grads, grads_ref):
            for stack in ("w_x", "w_h", "w_c", "b"):
                npt.assert_allclose(getattr(got, stack), getattr(ref, stack),
                                    rtol=1e-12, atol=1e-12, err_msg=stack)

    @pytest.mark.parametrize("dtype, E, H", [(np.float32, 64, 50), (np.float64, 3, 4)])
    @pytest.mark.parametrize("lengths", [[1], [9], [1, 9, 4], [9, 1, 3, 9, 5, 2, 7, 1, 6, 4]])
    @pytest.mark.blas_threads
    def test_backward_matches_the_per_step_reference_bit_for_bit(self, lengths, dtype, E, H):
        # The packed recurrence as it was written before its backward formed
        # the forward-only factors once per chain: a forward that keeps each
        # step's activated gates in its projection rows, the cell backward on
        # strided column slices of those gates, and a chain that concatenates
        # each step's dz. Every operation and operand order is the one
        # bilstm_backward must keep, so dX and the gradient stacks agree
        # byte for byte.
        def chain_forward(Xs, sizes, p):
            H = p.hidden_size
            XW = np.moveaxis(Xs, -2, 0) @ p.w_x + p.b
            h = c = np.zeros((len(Xs), H), dtype=dtype)
            steps = []
            for xw, n in zip(XW, sizes):
                h_prev, c_prev, z = h[:n], c[:n], xw[:n]
                z += h_prev @ p.w_h
                i_f = c_prev @ p.w_c[:, :2 * H]
                i_f += z[:, :2 * H]
                z[:, :2 * H] = 0.5 * np.tanh(0.5 * i_f) + 0.5
                z[:, 2 * H:3 * H] = np.tanh(z[:, 2 * H:3 * H])
                c = z[:, H:2 * H] * c_prev + z[:, :H] * z[:, 2 * H:3 * H]
                o = c @ p.w_c[:, 2 * H:]
                o += z[:, 3 * H:]
                z[:, 3 * H:] = 0.5 * np.tanh(0.5 * o) + 0.5
                tanh_c = np.tanh(c)
                h = z[:, 3 * H:] * tanh_c
                steps.append((h_prev, c_prev, z, c, tanh_c))
            return steps

        def cell(p, s, dh, dc_in):
            H = p.hidden_size
            h_prev, c_prev, gates, c, tanh_c = s
            i, f, g, o = (gates[:, :H], gates[:, H:2 * H], gates[:, 2 * H:3 * H],
                          gates[:, 3 * H:])
            dz = np.empty_like(gates)
            dz[:, 3 * H:] = dh * tanh_c * o * (1.0 - o)
            dc = dc_in + dh * o * (1.0 - tanh_c * tanh_c) + dz[:, 3 * H:] @ p.w_c[:, 2 * H:].T
            dz[:, :H] = dc * g * i * (1.0 - i)
            dz[:, H:2 * H] = dc * c_prev * f * (1.0 - f)
            dz[:, 2 * H:3 * H] = dc * i * (1.0 - g * g)
            dc_prev = dc * f + dz[:, :2 * H] @ p.w_c[:, :2 * H].T
            dh_prev = dz @ p.w_h.T
            return dz, dh_prev, dc_prev

        def chain_backward(p, steps, d_final, x):
            H = p.hidden_size
            dh, dc, dz = d_final, np.zeros_like(d_final), [None] * len(steps)
            for t in range(len(steps) - 1, -1, -1):
                n = len(steps[t][0])
                dz[t], dh[:n], dc[:n] = cell(p, steps[t], dh[:n], dc[:n])
            dz = np.concatenate(dz)
            h_prev, c_prev, _, c, _ = (np.concatenate(field) for field in zip(*steps))
            grads = zero_lstm_params(p.input_size, H, dtype)
            grads.w_x += x.T @ dz
            grads.w_h += h_prev.T @ dz
            grads.w_c[:, :2 * H] += c_prev.T @ dz[:, :2 * H]
            grads.w_c[:, 2 * H:] += c.T @ dz[:, 3 * H:]
            grads.b += dz.sum(axis=0)
            return dz @ p.w_x.T, grads

        rng = Rng(len(lengths) * 100 + max(lengths) + E)
        p_fwd, p_bwd = (zero_lstm_params(E, H, dtype) for _ in range(2))
        init_weights(rng, p_fwd, p_bwd)
        for p in (p_fwd, p_bwd):
            p.b[:] = rng.uniform(-0.5, 0.5, p.b.shape)
        lengths = np.array(lengths)
        X = rng.uniform(-1, 1, (len(lengths), lengths.max() + 2, E)).astype(dtype)
        d_fwd, d_bwd = rng.uniform(-1, 1, (2, len(lengths), H)).astype(dtype)
        _, _, cache = bilstm_forward(X, lengths, p_fwd, p_bwd)
        grads = [zero_lstm_params(E, H, dtype) for _ in range(2)]
        dX = bilstm_backward(cache, d_fwd.copy(), d_bwd.copy(), *grads)

        order = np.argsort(-lengths, kind="stable")
        ordered = lengths[order]
        sizes = np.count_nonzero(ordered[:, None] > np.arange(ordered[0]), axis=0)
        back = np.maximum(ordered[:, None] - 1 - np.arange(ordered[0]), 0)
        fwd_steps = chain_forward(X[order, :ordered[0]], sizes, p_fwd)
        bwd_steps = chain_forward(X[order[:, None], back], sizes, p_bwd)
        step, k = np.nonzero(ordered > np.arange(ordered[0])[:, None])
        rows = order[k]
        back = lengths[rows] - 1 - step
        dX_ref = np.zeros_like(X)
        dx, grads_fwd = chain_backward(p_fwd, fwd_steps, d_fwd[order], X[rows, step])
        dX_ref[rows, step] = dx
        dx, grads_bwd = chain_backward(p_bwd, bwd_steps, d_bwd[order], X[rows, back])
        dX_ref[rows, back] += dx
        assert dX.dtype == dtype
        assert dX.tobytes() == dX_ref.tobytes()
        for got, ref in zip(grads, (grads_fwd, grads_bwd)):
            for stack in ("w_x", "w_h", "w_c", "b"):
                assert getattr(got, stack).tobytes() == getattr(ref, stack).tobytes(), stack

    @pytest.mark.parametrize("dtype, E, H", [(np.float32, 64, 50), (np.float64, 3, 4)])
    @pytest.mark.parametrize("pad", [0, 2])
    @pytest.mark.parametrize("lead, lengths", [
        ((), [3, 5, 5, 2, 5]),  # ragged, with ties
        ((), [6, 4, 4, 2]),     # already in order
        ((), [1, 2, 4, 6]),     # in reverse order
        ((), [1, 4, 1, 3]),
        ((), [6]),              # a batch of one
        ((3,), [6]),            # an (S, 1, L) stack, as inference runs
        ((), [30, 3, 17, 9, 30, 12, 3, 25, 17, 6]),  # a training batch: ties, full length
    ])
    @pytest.mark.blas_threads
    def test_forward_matches_the_sorted_and_sliced_reference_bit_for_bit(
            self, lead, lengths, pad, dtype, E, H):
        # The forward recurrence as it was written before it cut its rows
        # only where the live count drops, one chain per direction: an
        # argsort schedule, a gathered forward input, a moveaxis projection
        # and a slice at every step. Every product and ufunc is the one
        # bilstm_forward must keep, so the states agree byte for byte, and
        # so does slice d of every field of each stacked step cache with
        # direction d's step cache.
        def chain(Xs, sizes, p):
            XW = np.moveaxis(Xs, -2, 0) @ p.w_x + p.b
            h = np.zeros((*Xs.shape[:-2], p.hidden_size), dtype=Xs.dtype)
            c = np.zeros_like(h)
            finals, caches = [], []
            for xw, n, ended in zip(XW, sizes, sizes[1:] + [0]):
                h, c, cache = lstm_cell_forward(xw[..., :n, :], h[..., :n, :], c[..., :n, :], p)
                caches.append(cache)
                if ended < n:
                    finals.append(h[..., ended:, :])
            return np.concatenate(finals[::-1], axis=-2), caches

        rng = Rng(len(lengths) * 100 + sum(lengths) + pad + E)
        p_fwd, p_bwd = (zero_lstm_params(E, H, dtype) for _ in range(2))
        init_weights(rng, p_fwd, p_bwd)
        for p in (p_fwd, p_bwd):
            p.b[:] = rng.uniform(-0.5, 0.5, p.b.shape)
        lengths = np.array(lengths)
        X = rng.uniform(-1, 1, (*lead, len(lengths), lengths.max() + pad, E)).astype(dtype)
        h_fwd, h_bwd, cache = bilstm_forward(X, lengths, p_fwd, p_bwd)

        order = np.argsort(-lengths, kind="stable")
        ordered = lengths[order]
        t = np.arange(ordered[0])
        sizes = np.count_nonzero(ordered[:, None] > t, axis=0).tolist()
        back = np.maximum(ordered[:, None] - 1 - t, 0)
        ref_fwd, fwd_steps = chain(X[..., order, :ordered[0], :], sizes, p_fwd)
        ref_bwd, bwd_steps = chain(X[..., order[:, None], back, :], sizes, p_bwd)
        unsort = np.argsort(order)
        npt.assert_array_equal(cache.order, order)
        for got, ref in ((h_fwd, ref_fwd[..., unsort, :]), (h_bwd, ref_bwd[..., unsort, :])):
            assert got.dtype == dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()
        assert cache.params[0] is p_fwd and cache.params[1] is p_bwd
        for d, ref_steps in enumerate((fwd_steps, bwd_steps)):
            assert len(cache.steps) == len(ref_steps)
            for got, ref in zip(cache.steps, ref_steps):
                assert ref.params is cache.params[d]
                for stack in ("w_x", "w_h", "w_c", "b"):  # slice d holds direction d's weights
                    assert getattr(got.params, stack)[d].tobytes() == \
                        getattr(ref.params, stack).tobytes(), stack
                for field in layers.CellCache._fields[1:]:
                    a, b = getattr(got, field)[..., d, :, :], getattr(ref, field)
                    assert a.dtype == b.dtype and a.shape == b.shape, field
                    assert a.tobytes() == b.tobytes(), field

    @pytest.mark.parametrize("dtype, E, H", [(np.float32, 64, 50), (np.float64, 3, 4)])
    @pytest.mark.parametrize("lengths", [
        [n for n in range(1, 31) for _ in range(3)],  # 1395 rows, so several projection runs
        [7],                                         # a stack of one
        [2] * 600,                                   # all equal, a step of more than one run's rows
    ], ids=["ragged-with-ties", "one", "equal"])
    @pytest.mark.blas_threads
    def test_a_lookup_stack_gives_each_sequence_its_batch_of_one_bits(self, lengths, dtype, E, H):
        rng = Rng(len(lengths) + E)
        p_fwd, p_bwd = (zero_lstm_params(E, H, dtype) for _ in range(2))
        init_weights(rng, p_fwd, p_bwd)
        for p in (p_fwd, p_bwd):
            p.b[:] = rng.uniform(-0.5, 0.5, p.b.shape)
        table = rng.uniform(-1, 1, (9, E)).astype(dtype)  # its PAD row is not zero
        lengths = [lengths[k] for k in rng.permutation(len(lengths))]
        ids = np.array([rng.integer(len(table)) for _ in range(sum(lengths))])
        h_fwd, h_bwd, cache = bilstm_forward(Lookup(table, ids), lengths, p_fwd, p_bwd)
        assert cache is None
        assert h_fwd.shape == h_bwd.shape == (len(lengths), H)
        starts = np.cumsum(lengths) - lengths
        for s, (start, n) in enumerate(zip(starts, lengths)):
            X = embedding_forward(ids[None, start:start + n], table)
            for got, ref in zip((h_fwd, h_bwd), bilstm_forward(X, [n], p_fwd, p_bwd)[:2]):
                assert got.dtype == dtype
                assert got[s].tobytes() == ref[0].tobytes(), (s, n)

    def test_lookup_lengths_must_split_its_rows(self):
        p = zero_lstm_params(2, 2, np.float64)
        X = Lookup(np.zeros((4, 2)), np.array([1, 2, 3]))
        for lengths in ([2], [2, 2], [3, 0], [[3]], []):
            with pytest.raises(ValueError):
                bilstm_forward(X, lengths, p, p)

    def test_true_len_out_of_range(self):
        p = zero_lstm_params(2, 2, np.float64)
        with pytest.raises(ValueError):
            bilstm_forward(np.zeros((1, 3, 2)), [4], p, p)
        with pytest.raises(ValueError):
            bilstm_forward(np.zeros((1, 3, 2)), [0], p, p)
        with pytest.raises(ValueError):  # one length per sequence
            bilstm_forward(np.zeros((2, 3, 2)), [3], p, p)

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_backward_matches_finite_differences(self, seed):
        rng = Rng(1000 + seed)
        k = 1 + rng.integer(4)
        hidden = 1 + rng.integer(3)
        n = 2 + rng.integer(4)
        batch = 1 + rng.integer(3)
        # mixed lengths, each short of the n rows, so that every sample has
        # padding and the shorter ones stop before the batch does
        lengths = [1 + rng.integer(n - 1) for _ in range(batch)]
        p_fwd = random_lstm_params(rng, k, hidden)
        p_bwd = random_lstm_params(rng, k, hidden)
        X = rng.uniform(-1, 1, (batch, n, k))
        gf = rng.uniform(-1, 1, (batch, hidden))
        gb = rng.uniform(-1, 1, (batch, hidden))

        def loss():
            h_fwd, h_bwd, _ = bilstm_forward(X, lengths, p_fwd, p_bwd)
            return float(np.sum(gf * h_fwd + gb * h_bwd))

        _, _, cache = bilstm_forward(X, lengths, p_fwd, p_bwd)
        grads_fwd = zero_lstm_params(k, hidden, np.float64)
        grads_bwd = zero_lstm_params(k, hidden, np.float64)
        dX = bilstm_backward(cache, gf.copy(), gb.copy(), grads_fwd, grads_bwd)
        grads_fwd, grads_bwd = grads_fwd.blocks(), grads_bwd.blocks()

        assert max_rel_error(dX, numeric_gradient(loss, X)) < GRAD_TOL
        for name, arr in p_fwd.blocks().items():
            assert max_rel_error(grads_fwd[name], numeric_gradient(loss, arr)) < GRAD_TOL
        for name, arr in p_bwd.blocks().items():
            assert max_rel_error(grads_bwd[name], numeric_gradient(loss, arr)) < GRAD_TOL


class TestConv:
    def test_zero_filters_zero_output(self):
        p = ConvParams(filters=np.zeros((2, 3, 4)), bias=np.zeros(2))
        fmap, _ = conv_forward(np.ones((1, 5, 4)), p)
        npt.assert_array_equal(fmap, np.zeros((1, 3, 2)))

    def test_hand_window_sums(self):
        # one all-ones width-3 filter over the scalar sequence 1,2,3,4
        p = ConvParams(filters=np.ones((1, 3, 1)), bias=np.zeros(1))
        X = np.array([[[1.0], [2.0], [3.0], [4.0]]])
        fmap, _ = conv_forward(X, p)
        npt.assert_array_equal(fmap, [[[6.0], [9.0]]])

    def test_relu_clamps_negative_preactivations(self):
        p = ConvParams(filters=np.ones((1, 3, 1)), bias=np.array([-100.0]))
        fmap, _ = conv_forward(np.ones((1, 3, 1)), p)
        npt.assert_array_equal(fmap, [[[0.0]]])

    def test_width_follows_the_rows_of_x(self):
        rng = Rng(6)
        p = ConvParams(filters=np.zeros((3, CONV_WIDTH, 2)), bias=np.zeros(3))
        init_weights(rng, p)
        for rows in range(3, 9):
            fmap, _ = conv_forward(rng.uniform(-1, 1, (2, rows, 2)), p)
            assert fmap.shape == (2, rows - 2, 3)

    def test_input_narrower_than_one_window_rejected(self):
        p = ConvParams(filters=np.zeros((2, CONV_WIDTH, 4)), bias=np.zeros(2))
        for rows in (2, 1):
            with pytest.raises(ValueError, match="one window needs 3"):
                conv_forward(np.ones((2, rows, 4)), p)

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_backward_matches_finite_differences(self, seed):
        rng = Rng(2000 + seed)
        k = 1 + rng.integer(5)
        n_filters = 1 + rng.integer(3)
        n = 3 + rng.integer(4)
        batch = 1 + rng.integer(3)
        p = ConvParams(filters=np.zeros((n_filters, CONV_WIDTH, k)), bias=np.zeros(n_filters))
        init_weights(rng, p)
        p.bias[:] = rng.uniform(-0.3, 0.3, (n_filters,))
        X = rng.uniform(-1, 1, (batch, n, k))
        g = rng.uniform(-1, 1, (batch, n - 2, n_filters))

        def loss():
            fmap, _ = conv_forward(X, p)
            return float(np.sum(g * fmap))

        _, cache = conv_forward(X, p)
        grads = ConvParams(filters=np.zeros_like(p.filters), bias=np.zeros_like(p.bias))
        dX = conv_backward(cache, g.copy(), grads)

        assert max_rel_error(dX, numeric_gradient(loss, X)) < GRAD_TOL
        assert max_rel_error(grads.filters, numeric_gradient(loss, p.filters)) < GRAD_TOL
        assert max_rel_error(grads.bias, numeric_gradient(loss, p.bias)) < GRAD_TOL


class TestMaxPool:
    def test_single_row(self):
        pooled, argmax = maxpool_over_time(np.array([[[1.0, -2.0]]]), [1])
        npt.assert_array_equal(pooled, [[1.0, -2.0]])
        npt.assert_array_equal(argmax, [[0, 0]])

    def test_hand_column(self):
        pooled, argmax = maxpool_over_time(np.array([[[3.0], [7.0], [2.0]]]), [3])
        npt.assert_array_equal(pooled, [[7.0]])
        npt.assert_array_equal(argmax, [[1]])

    def test_tie_routes_gradient_to_first_occurrence(self):
        fmap = np.array([[[5.0], [5.0]]])
        pooled, argmax = maxpool_over_time(fmap, [2])
        npt.assert_array_equal(pooled, [[5.0]])
        d_fmap = maxpool_backward(argmax, np.array([[1.0]]), 2)
        npt.assert_array_equal(d_fmap, [[[1.0], [0.0]]])

    def test_gradient_one_sparse_per_column(self):
        rng = Rng(7)
        fmap = rng.uniform(-1, 1, (2, 6, 4))
        pooled, argmax = maxpool_over_time(fmap, [6, 6])
        d_fmap = maxpool_backward(argmax, rng.uniform(0.5, 1.5, (2, 4)), 6)
        assert np.all((d_fmap != 0).sum(axis=1) == 1)

    def test_rows_past_a_sample_length_are_masked(self):
        rng = Rng(8)
        fmap = rng.uniform(-1, 1, (2, 5, 3))
        fmap[1, 2:] = 100.0  # beyond the second sample's two rows
        pooled, argmax = maxpool_over_time(fmap, [5, 2])
        npt.assert_array_equal(pooled[1], fmap[1, :2].max(axis=0))
        npt.assert_array_equal(argmax[1], fmap[1, :2].argmax(axis=0))
        d_fmap = maxpool_backward(argmax, np.ones((2, 3)), 5)
        npt.assert_array_equal(d_fmap[1, 2:], 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            maxpool_over_time(np.zeros((1, 0, 2)), [0])


class TestDense:
    def test_zero_weight_passes_bias(self):
        p = DenseParams(weight=np.zeros((3, 2)), bias=np.array([0.5, -1.0]))
        npt.assert_array_equal(dense_forward(np.ones((1, 3)), p), [[0.5, -1.0]])

    def test_identity_weight(self):
        p = DenseParams(weight=np.eye(3), bias=np.array([1.0, 1.0, 1.0]))
        vec = np.array([[0.1, 0.2, 0.3]])
        npt.assert_allclose(dense_forward(vec, p), vec + 1.0)

    def test_matches_naive_dot(self):
        rng = Rng(8)
        p = DenseParams(weight=np.zeros((4, 3)), bias=np.zeros(3))
        init_weights(rng, p)
        vec = rng.uniform(-1, 1, (2, 4))
        logits = dense_forward(vec, p)
        naive = [[
            sum(float(row[a]) * float(p.weight[a, j]) for a in range(4)) + float(p.bias[j])
            for j in range(3)
        ] for row in vec]
        npt.assert_allclose(logits, naive, atol=1e-6)

    def test_shape_mismatch_rejected(self):
        p = DenseParams(weight=np.zeros((3, 2)), bias=np.zeros(2))
        with pytest.raises(ValueError):
            dense_forward(np.ones((1, 4)), p)
        with pytest.raises(ValueError):  # no batch axis
            dense_forward(np.ones(3), p)

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_backward_matches_finite_differences(self, seed):
        rng = Rng(3000 + seed)
        dim = 1 + rng.integer(6)
        classes = 1 + rng.integer(4)
        batch = 1 + rng.integer(3)
        p = DenseParams(weight=np.zeros((dim, classes)), bias=np.zeros(classes))
        init_weights(rng, p)
        p.bias[:] = rng.uniform(-0.3, 0.3, (classes,))
        vec = rng.uniform(-1, 1, (batch, dim))
        g = rng.uniform(-1, 1, (batch, classes))

        def loss():
            return float(np.sum(g * dense_forward(vec, p)))

        grads = DenseParams(weight=np.zeros_like(p.weight), bias=np.zeros_like(p.bias))
        d_vec = dense_backward(vec, p, g.copy(), grads)
        assert max_rel_error(d_vec, numeric_gradient(loss, vec)) < GRAD_TOL
        assert max_rel_error(grads.weight, numeric_gradient(loss, p.weight)) < GRAD_TOL
        assert max_rel_error(grads.bias, numeric_gradient(loss, p.bias)) < GRAD_TOL


class TestLeadingStackAxes:
    """Operands with axes in front of (B, T, E) give, slice by slice, the
    very bits of the same call on each (B, T, E) slice."""

    @pytest.mark.blas_threads
    def test_each_slice_equals_its_own_call(self):
        rng = Rng(9)
        E, H, F, C, T = 5, 4, 3, 2, 6
        p_fwd = zero_lstm_params(E, H)
        p_bwd = zero_lstm_params(E, H)
        conv = ConvParams(np.zeros((F, CONV_WIDTH, E), np.float32), np.zeros(F, np.float32))
        dense = DenseParams(np.zeros((2 * H + F, C), np.float32), np.zeros(C, np.float32))
        init_weights(rng, p_fwd, p_bwd, conv, dense)
        X = rng.uniform(-1, 1, (2, 3, 3, T, E), np.float32)
        # one length per batch position, shared by the stack's slices
        lengths = np.array([3 + rng.integer(T - 2) for _ in range(3)])

        def layers_of(X, lengths):
            h_fwd, h_bwd, _ = bilstm_forward(X, lengths, p_fwd, p_bwd)
            fmap, _ = conv_forward(X, conv)
            pooled, _ = maxpool_over_time(fmap, lengths - 2)
            return h_fwd, h_bwd, pooled, dense_forward(np.concatenate([h_fwd, h_bwd, pooled],
                                                                      axis=-1), dense)

        stacked = layers_of(X, lengths)
        for index in np.ndindex(*X.shape[:2]):
            for whole, part in zip(stacked, layers_of(X[index], lengths)):
                assert np.array_equal(whole[index], part), index
        with pytest.raises(ValueError):  # lengths shaped like the stack
            layers_of(X, np.full((2, 3, 3), 3))


class TestDropout:
    def test_rate_zero_identity(self):
        x = np.ones((3, 2))
        y, mask = dropout(x, 0.0, rng=Rng(0))
        npt.assert_array_equal(y, x)
        assert mask is None

    def test_inference_identity(self):
        x = np.ones(5)
        y, mask = dropout(x, 0.9, rng=None)
        npt.assert_array_equal(y, x)
        assert mask is None

    def test_inverted_scaling_preserves_mean(self):
        x = np.ones(100_000)
        y, _ = dropout(x, 0.5, rng=Rng(13))
        assert abs(y.mean() - 1.0) < 0.02
        # survivors are exactly scaled by 1/(1-rate)
        assert set(np.unique(y)) == {0.0, 2.0}

    def test_rate_one_rejected(self):
        with pytest.raises(ValueError):
            dropout(np.ones(2), 1.0, rng=Rng(0))

    def test_backward_applies_same_mask(self):
        rng = Rng(9)
        x = rng.uniform(-1, 1, (10,))
        y, mask = dropout(x, 0.4, rng=rng)
        d_out = rng.uniform(-1, 1, (10,))
        npt.assert_array_equal(dropout_backward(d_out, mask), d_out * mask)
        npt.assert_array_equal(dropout_backward(d_out, None), d_out)

    def test_batch_draws_the_masks_of_sequential_rows(self):
        x = np.ones((4, 7))
        _, batched = dropout(x, 0.5, rng=Rng(21))
        rng = Rng(21)
        rows = [dropout(row, 0.5, rng=rng)[1] for row in x]
        npt.assert_array_equal(batched, np.stack(rows))
