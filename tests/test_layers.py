import numpy as np
import numpy.testing as npt
import pytest

from intentnet import layers
from intentnet.layers import (
    CONV_WIDTH,
    ConvParams,
    DenseParams,
    LSTMParams,
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
)
from intentnet.tensor import Rng

from helpers import max_rel_error, numeric_gradient, scalar_lstm_cell

GRAD_TOL = 1e-4
N_SEEDS = 20


def random_lstm_params(rng, k, hidden):
    p = LSTMParams(k, hidden, np.float64)
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
        p = LSTMParams(2, 1, np.float64)
        h, c, _ = lstm_cell_forward(np.zeros((1, 2)), np.zeros((1, 1)), np.zeros((1, 1)), p)
        npt.assert_array_equal(h, [[0.0]])
        npt.assert_array_equal(c, [[0.0]])

    def test_zero_params_unit_cell_state(self):
        # gates collapse to 1/2: new cell = 0.5, hidden = 0.5*tanh(0.5)
        p = LSTMParams(2, 1, np.float64)
        h, c, _ = lstm_cell_forward(np.zeros((1, 2)), np.zeros((1, 1)), np.ones((1, 1)), p)
        npt.assert_allclose(c, [[0.5]], atol=1e-12)
        npt.assert_allclose(h, [[0.23105857863000487]], atol=1e-12)

    def test_matches_scalar_loop_oracle(self):
        for seed in range(5):
            rng = Rng(seed)
            p = random_lstm_params(rng, 3, 3)
            x = rng.uniform(-1, 1, (4, 3))
            h_prev = rng.uniform(-1, 1, (4, 3))
            c_prev = rng.uniform(-1, 1, (4, 3))
            h, c, _ = lstm_cell_forward(x, h_prev, c_prev, p)
            for b in range(4):
                h_ref, c_ref = scalar_lstm_cell(x[b], h_prev[b], c_prev[b], p)
                npt.assert_allclose(h[b], h_ref, atol=1e-6)
                npt.assert_allclose(c[b], c_ref, atol=1e-6)

    def test_shape_mismatch_rejected(self):
        p = LSTMParams(2, 3, np.float64)
        with pytest.raises(ValueError):
            lstm_cell_forward(np.zeros((1, 4)), np.zeros((1, 3)), np.zeros((1, 3)), p)
        with pytest.raises(ValueError):  # batch sizes disagree
            lstm_cell_forward(np.zeros((2, 2)), np.zeros((1, 3)), np.zeros((1, 3)), p)
        with pytest.raises(ValueError):  # no batch axis
            lstm_cell_forward(np.zeros(2), np.zeros(3), np.zeros(3), p)

    def test_zero_upstream_gives_zero_param_grads(self):
        rng = Rng(1)
        p = random_lstm_params(rng, 2, 2)
        _, _, cache = lstm_cell_forward(
            rng.uniform(-1, 1, (3, 2)), rng.uniform(-1, 1, (3, 2)), rng.uniform(-1, 1, (3, 2)), p
        )
        # every weight and bias gradient is a product with dz
        for arr in lstm_cell_backward(cache, np.zeros((3, 2)), np.zeros((3, 2))):
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
            h, c, _ = lstm_cell_forward(x, h_prev, c_prev, p)
            return float(np.sum(gh * h + gc * c))

        _, _, cache = lstm_cell_forward(x, h_prev, c_prev, p)
        dz, dh_prev, dc_prev = lstm_cell_backward(cache, gh.copy(), gc.copy())

        # the bias enters each row's pre-activations once, so the batch sum of
        # dz is d(loss)/d(b); the per-gate weight blocks are checked through
        # TestBiLSTM
        assert max_rel_error(dz.sum(axis=0), numeric_gradient(loss, p.b)) < GRAD_TOL
        # input-side gradients, including both cell-state paths into dc_prev
        assert max_rel_error(dz @ p.w_x.T, numeric_gradient(loss, x)) < GRAD_TOL
        assert max_rel_error(dh_prev, numeric_gradient(loss, h_prev)) < GRAD_TOL
        assert max_rel_error(dc_prev, numeric_gradient(loss, c_prev)) < GRAD_TOL


class TestBiLSTM:
    def test_single_position_equals_one_cell_step(self):
        rng = Rng(3)
        p_fwd = random_lstm_params(rng, 2, 3)
        p_bwd = random_lstm_params(rng, 2, 3)
        X = rng.uniform(-1, 1, (1, 1, 2))
        h_fwd, h_bwd, _ = bilstm_forward(X, [1], p_fwd, p_bwd)
        expect_f, _, _ = lstm_cell_forward(X[:, 0], np.zeros((1, 3)), np.zeros((1, 3)), p_fwd)
        expect_b, _, _ = lstm_cell_forward(X[:, 0], np.zeros((1, 3)), np.zeros((1, 3)), p_bwd)
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

    def test_true_len_out_of_range(self):
        p = LSTMParams(2, 2, np.float64)
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
        grads_fwd = LSTMParams(k, hidden, np.float64)
        grads_bwd = LSTMParams(k, hidden, np.float64)
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
