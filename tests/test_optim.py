import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intentnet import optim
from intentnet.errors import NumericError
from intentnet.model import down_scaled_model, random_check_sample
from intentnet.optim import (
    AdamState,
    EpochRecord,
    adam_step,
    clip_by_global_norm,
    gradient_check,
    reduce_lr_on_plateau,
    should_stop,
)

from helpers import zero_lstm_params


def record(epoch, val_loss=1.0, val_f1=0.5, lr=0.001, train_loss=1.0):
    return EpochRecord(epoch=epoch, train_loss=train_loss, val_loss=val_loss,
                       val_f1=val_f1, lr=lr)


def textbook_adam(params, grads, m, v, t, lr):
    """Adam in Kingma and Ba's folded form, as plain expressions with one
    fresh temporary per operation: ``adam_step`` must match it bit for bit."""
    correction = math.sqrt(1.0 - optim.BETA2 ** t)
    step = lr * correction / (1.0 - optim.BETA1 ** t)
    eps_t = optim.EPS * correction
    for name, theta in params.items():
        g = grads[name]
        m[name] *= optim.BETA1
        m[name] += (1.0 - optim.BETA1) * g
        v[name] *= optim.BETA2
        v[name] += (1.0 - optim.BETA2) * g * g
        theta -= step / (np.sqrt(v[name]) + eps_t) * m[name]


def mixed_blocks(rng):
    """float32 and float64 blocks, and the strided per-gate column views of a
    float32 gate stack, as the model's parameters are."""
    stack = zero_lstm_params(5, 4, np.float32)
    for view in stack.blocks().values():
        view[...] = rng.standard_normal(view.shape)
    return {"emb": rng.standard_normal((9, 5)).astype(np.float32),
            "head": rng.standard_normal((4, 3)),
            **{f"fwd.{name}": view for name, view in stack.blocks().items()}}


def random_grads(rng):
    """Gradients shaped like ``mixed_blocks``, strided views included."""
    grads = mixed_blocks(rng)
    for g in grads.values():
        # magnitudes from 1e-6 to 10, so that both sqrt(v_hat) and EPS matter
        g *= 10.0 ** int(rng.integers(-6, 2))
    return grads


class TestAdam:
    def test_first_step_moves_by_learning_rate(self):
        params = {"w": np.array([0.0])}
        state = AdamState(params)
        adam_step(params, {"w": np.array([1.0])}, state, lr=0.001)
        # bias-corrected ratio is 1 on the first step
        npt.assert_allclose(params["w"], [-0.001], rtol=1e-6)
        assert state.t == 1

    def test_zero_gradient_keeps_params_but_ticks_counter(self):
        params = {"w": np.array([1.5, -2.0])}
        state = AdamState(params)
        adam_step(params, {"w": np.zeros(2)}, state, lr=0.1)
        npt.assert_array_equal(params["w"], [1.5, -2.0])
        assert state.t == 1

    def test_descends_a_quadratic(self):
        # minimize w^2 from w=1; gradient is 2w
        params = {"w": np.array([1.0])}
        state = AdamState(params)
        for _ in range(200):
            adam_step(params, {"w": 2.0 * params["w"]}, state, lr=0.01)
        assert abs(float(params["w"][0])) < 0.1

    def test_deterministic(self):
        def run():
            params = {"w": np.array([0.3, -0.7])}
            state = AdamState(params)
            for step in range(5):
                adam_step(params, {"w": np.array([0.1 * step, -0.2])}, state, lr=0.01)
            return params["w"]

        npt.assert_array_equal(run(), run())

    def test_shape_mismatch_rejected(self):
        params = {"w": np.zeros(3)}
        with pytest.raises(ValueError):
            adam_step(params, {"w": np.zeros(2)}, AdamState(params), lr=0.01)

    @pytest.mark.parametrize("other", [{"v": np.zeros(3)}, {"w": np.zeros(3, np.float32)}],
                             ids=["other-name", "other-dtype"])
    def test_state_of_other_parameters_rejected(self, other):
        params = {"w": np.ones(3)}
        state = AdamState(other)
        with pytest.raises(ValueError, match="does not mirror the parameters"):
            adam_step(params, {"w": np.ones(3)}, state, lr=0.01)
        npt.assert_array_equal(params["w"], np.ones(3))
        assert state.t == 0

    def test_non_finite_gradient_rejected(self):
        params = {"w": np.zeros(2)}
        with pytest.raises(NumericError):
            adam_step(params, {"w": np.array([1.0, np.nan])}, AdamState(params), lr=0.01)

    def test_dtype_mismatch_rejected(self):
        params = {"w": np.zeros(3, dtype=np.float32)}
        with pytest.raises(ValueError, match="dtype mismatch for w"):
            adam_step(params, {"w": np.zeros(3)}, AdamState(params), lr=0.01)

    @pytest.mark.parametrize("bad, error, message", [
        (np.array([1.0, np.nan]), NumericError, "non-finite gradient in z"),
        (np.zeros(3), ValueError, "gradient shape mismatch for z"),
    ])
    def test_rejected_step_changes_nothing(self, bad, error, message):
        # a check failing in the last block used to leave every earlier
        # block stepped and the counter ticked
        params = {"a": np.array([1.0, -2.0]), "b": np.array([[0.5]]), "z": np.array([3.0, 4.0])}
        state = AdamState(params)
        for _ in range(2):
            adam_step(params, {name: np.full_like(arr, 0.25) for name, arr in params.items()},
                      state, lr=0.1)
        before = [{name: arr.copy() for name, arr in d.items()}
                  for d in (params, state.m, state.v)]
        grads = {"a": np.array([1.0, 1.0]), "b": np.array([[1.0]]), "z": bad}
        with pytest.raises(error, match=message):
            adam_step(params, grads, state, lr=0.1)
        assert state.t == 2
        for now, then in zip((params, state.m, state.v), before):
            for name in params:
                npt.assert_array_equal(now[name], then[name])

    def test_matches_the_textbook_expression_bit_for_bit(self):
        rng = np.random.default_rng(7)

        def with_flat(blocks):
            # flat float32 blocks: one the size of the paper model's parameter
            # vector, and one an element longer than a block of the update
            for name, size in (("flat", 247_619), ("edge", optim.ADAM_BLOCK + 1)):
                scale = 10.0 ** rng.uniform(-6, 1, size)
                blocks[name] = (rng.standard_normal(size) * scale).astype(np.float32)
            return blocks

        params = with_flat(mixed_blocks(rng))
        assert not params["fwd.w_xi"].flags.c_contiguous
        assert not random_grads(rng)["fwd.w_xi"].flags.c_contiguous
        ref = {name: theta.copy() for name, theta in params.items()}
        m = {name: np.zeros_like(theta) for name, theta in ref.items()}
        v = {name: np.zeros_like(theta) for name, theta in ref.items()}
        state = AdamState(params)
        for t in range(1, 7):
            grads = with_flat(random_grads(rng))
            lr = 0.001 * t
            adam_step(params, grads, state, lr)
            textbook_adam(ref, grads, m, v, t, lr)
            for name, theta in params.items():
                assert theta.dtype == ref[name].dtype
                assert theta.tobytes() == ref[name].tobytes(), name
                assert state.m[name].tobytes() == m[name].tobytes(), name
                assert state.v[name].tobytes() == v[name].tobytes(), name

    def test_applies_the_bias_corrected_update(self):
        # the folded form is the textbook update, not only the code's: the
        # step from theta = 0 is -lr * m_hat / (sqrt(v_hat) + EPS)
        rng = np.random.default_rng(11)
        params = {"w": np.zeros(500)}
        state = AdamState(params)
        m = np.zeros(500)
        v = np.zeros(500)
        for t in range(1, 7):
            # magnitudes from 1e-6 to 10, so that both sqrt(v_hat) and EPS matter
            g = rng.choice([-1.0, 1.0], 500) * 10.0 ** rng.uniform(-6, 1, 500)
            lr = 0.001 * t
            params["w"][...] = 0
            adam_step(params, {"w": g}, state, lr)
            m = optim.BETA1 * m + (1.0 - optim.BETA1) * g
            v = optim.BETA2 * v + (1.0 - optim.BETA2) * g ** 2
            m_hat = m / (1.0 - optim.BETA1 ** t)
            v_hat = v / (1.0 - optim.BETA2 ** t)
            npt.assert_allclose(-params["w"], lr * m_hat / (np.sqrt(v_hat) + optim.EPS),
                                rtol=1e-12)

    def test_step_allocates_no_block_sized_temporary(self):
        params = {"emb": np.ones(1_000_000, dtype=np.float32)}
        grads = {"emb": np.full(1_000_000, 0.5, dtype=np.float32)}
        state = AdamState(params)
        # one scratch array per block
        assert state.scratch["emb"].shape == params["emb"].shape
        tracemalloc.start()
        try:
            adam_step(params, grads, state, lr=0.001)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < params["emb"].nbytes / 2

    def test_second_moment_nonnegative(self):
        params = {"w": np.array([0.5])}
        state = AdamState(params)
        for g in (1.0, -3.0, 0.25):
            adam_step(params, {"w": np.array([g])}, state, lr=0.01)
        assert np.all(state.v["w"] >= 0)


def reference_norm(g):
    """The L2 norm of ``g`` from exactly rounded float64 sums of squares."""
    return math.sqrt(math.fsum(float(x) ** 2 for x in g))


class TestClip:
    def test_large_gradients_scaled_to_max_norm(self):
        grads = np.array([3.0, 4.0])  # norm 5
        norm = clip_by_global_norm(grads, 1.0)
        assert norm == pytest.approx(5.0)
        npt.assert_allclose(np.linalg.norm(grads), 1.0, rtol=1e-12)

    def test_small_gradients_untouched(self):
        grads = np.array([0.3, 0.4])
        clip_by_global_norm(grads, 5.0)
        npt.assert_array_equal(grads, [0.3, 0.4])

    def test_norm_spans_blocks(self):
        grads = np.array([3.0, 4.0])
        a, b = grads[:1], grads[1:]  # two blocks, as the model's are views of one vector
        norm = clip_by_global_norm(grads, 1.0)
        assert norm == pytest.approx(5.0)
        npt.assert_allclose(a, [0.6])
        npt.assert_allclose(b, [0.8])

    @pytest.mark.parametrize("values, max_norm", [([3e20, 4e20], 1.0), ([3e-25, 4e-25], 1e-25)],
                             ids=["squares-overflow-float32", "squares-underflow-float32"])
    def test_float32_squares_are_summed_in_float64(self, values, max_norm):
        g = np.array(values, dtype=np.float32)
        grads = g.copy()
        norm = clip_by_global_norm(grads, max_norm)
        assert norm == pytest.approx(reference_norm(g), rel=1e-12)
        assert grads.tobytes() == (g * (max_norm / norm)).tobytes()
        assert reference_norm(grads) == pytest.approx(max_norm, rel=1e-6)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(0, 5000),
           dtype=st.sampled_from([np.float32, np.float64]),
           max_norm=st.floats(-4, 5).map(lambda e: 10.0 ** e))
    def test_norm_and_scaling_match_an_exact_float64_sum(self, seed, size, dtype, max_norm):
        rng = np.random.default_rng(seed)
        # magnitudes from 1e-6 to 1e3, either sign
        g = (rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-6, 3, size)).astype(dtype)
        grads = g.copy()
        norm = clip_by_global_norm(grads, max_norm)
        assert norm == pytest.approx(reference_norm(g), rel=1e-12, abs=0.0)
        if norm > max_norm:
            assert grads.tobytes() == (g * (max_norm / norm)).tobytes()
        else:
            assert grads.tobytes() == g.tobytes()

    def test_clip_allocates_no_vector_sized_temporary(self):
        grads = np.full(1_000_000, 0.5, dtype=np.float32)  # norm 500
        tracemalloc.start()
        try:
            norm = clip_by_global_norm(grads, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert norm > 1.0  # it scaled, too
        assert peak < grads.nbytes / 2

    @pytest.mark.parametrize("max_norm", [-1.0, 0.0, float("nan")])
    def test_non_positive_max_norm_rejected(self, max_norm):
        # such a bound used to leave every gradient unscaled
        grads = np.array([300.0, 400.0])
        with pytest.raises(ValueError, match="max_norm must be positive"):
            clip_by_global_norm(grads, max_norm)
        npt.assert_array_equal(grads, [300.0, 400.0])


class TestReduceLrOnPlateau:
    def test_three_stagnant_epochs_reduce_by_ten(self):
        history = [record(1, val_loss=1.0)] + [record(e, val_loss=1.0) for e in (2, 3, 4)]
        assert reduce_lr_on_plateau(history, patience=3) == pytest.approx(0.0001)

    def test_improving_loss_keeps_lr(self):
        history = [record(e, val_loss=1.0 - 0.1 * e) for e in range(1, 6)]
        assert reduce_lr_on_plateau(history, patience=3) == pytest.approx(0.001)

    def test_floor_at_min_lr(self):
        history = [record(e, val_loss=1.0) for e in range(1, 30)]
        assert reduce_lr_on_plateau(history, patience=2, min_lr=1e-5) == pytest.approx(1e-5)

    def test_counter_resets_after_reduction(self):
        # patience 2: reductions complete at epochs 3 and 5
        history = [record(e, val_loss=1.0) for e in range(1, 6)]
        assert reduce_lr_on_plateau(history, patience=2) == pytest.approx(1e-5)

    def test_tiny_improvement_below_threshold_counts_as_stagnant(self):
        history = [record(1, val_loss=1.0)] + [
            record(e, val_loss=1.0 - 1e-6 * e) for e in (2, 3, 4)
        ]
        assert reduce_lr_on_plateau(history, patience=3) == pytest.approx(0.0001)

    def test_lr_sequence_non_increasing(self):
        rng = np.random.default_rng(0)
        losses = rng.uniform(0.5, 1.5, 40)
        history = []
        lr = 0.001
        seen = []
        for e, loss in enumerate(losses, start=1):
            history.append(record(e, val_loss=float(loss), lr=lr))
            lr = reduce_lr_on_plateau(history, patience=2)
            seen.append(lr)
        assert all(b <= a for a, b in zip(seen, seen[1:]))

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            reduce_lr_on_plateau([])

    def test_starting_rate_below_min_lr_rejected(self):
        # the floor would otherwise raise the rate from 1e-7 to 1e-6
        history = [record(e, val_loss=1.0, lr=1e-7) for e in range(1, 5)]
        with pytest.raises(ValueError, match="min_lr"):
            reduce_lr_on_plateau(history, patience=3, min_lr=1e-6)


class TestShouldStop:
    def test_monotone_improvement_never_stops(self):
        history = [record(e, val_f1=0.1 * e) for e in range(1, 10)]
        assert not should_stop(history, patience=3)

    def test_stagnation_stops(self):
        history = [record(1, val_f1=0.9)] + [record(e, val_f1=0.9) for e in range(2, 5)]
        assert should_stop(history, patience=3)

    def test_improvement_resets_counter(self):
        history = [
            record(1, val_f1=0.5),
            record(2, val_f1=0.5),
            record(3, val_f1=0.6),  # improvement right before patience runs out
        ]
        assert not should_stop(history, patience=3)

    def test_sub_threshold_improvement_counts_as_stagnant(self):
        history = [record(1, val_f1=0.9)] + [
            record(e, val_f1=0.9 + 1e-6) for e in range(2, 5)
        ]
        assert should_stop(history, patience=3)

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError, match="history is empty"):
            should_stop([])


class TestGradientCheck:
    def test_full_model_passes(self):
        model = down_scaled_model(seed=0)
        sample = random_check_sample(0, model)
        per_block = gradient_check(model, sample)
        assert max(per_block.values()) <= optim.GRADCHECK_TOL, per_block
        assert set(per_block) == set(model.parameters())

    def test_detects_corrupted_backward(self):
        class SignFlipped:
            def __init__(self, inner):
                self._inner = inner

            def parameters(self):
                return self._inner.parameters()

            def loss(self, sample):
                return self._inner.loss(sample)

            def loss_and_gradients(self, samples):
                losses, grads = self._inner.loss_and_gradients(samples)
                grads.parameters()["out.weight"] *= -1
                return losses, grads

        model = down_scaled_model(seed=1)
        sample = random_check_sample(1, model)
        per_block = gradient_check(SignFlipped(model), sample)
        assert per_block["out.weight"] > 1e-2
        assert max(per_block.values()) > optim.GRADCHECK_TOL

    def test_nan_gradient_counts_as_infinite_error(self):
        class NaNWeight:
            def __init__(self, inner):
                self._inner = inner

            def parameters(self):
                return self._inner.parameters()

            def loss(self, sample):
                return self._inner.loss(sample)

            def loss_and_gradients(self, samples):
                losses, grads = self._inner.loss_and_gradients(samples)
                grads.parameters()["out.weight"][...] = np.nan
                return losses, grads

        model = down_scaled_model(seed=1)
        sample = random_check_sample(1, model)
        per_block = gradient_check(NaNWeight(model), sample)
        assert per_block["out.weight"] == np.inf
        assert max(per_block.values()) == np.inf
        assert max(per_block.values()) > optim.GRADCHECK_TOL

    def test_non_finite_loss_is_numeric_error(self):
        class NaNLoss:
            def loss_and_gradients(self, samples):
                return [float("nan")], {}

        with pytest.raises(NumericError, match="non-finite loss at the check point"):
            gradient_check(NaNLoss(), ([2, 3, 4], 0))

    def test_pad_embedding_row_has_zero_gradient_both_ways(self):
        model = down_scaled_model(seed=2)
        sample = ([0, 2, 3, 0, 4], 1)  # PAD inside the sequence
        analytic = model.loss_and_gradients([sample])[1].parameters()
        npt.assert_array_equal(analytic["embedding"][0], np.zeros(model.embed_dim))
        eps = 1e-5
        for j in range(model.embed_dim):
            orig = model.embedding[0, j]
            model.embedding[0, j] = orig + eps
            plus = model.loss(sample)
            model.embedding[0, j] = orig - eps
            minus = model.loss(sample)
            model.embedding[0, j] = orig
            assert abs(plus - minus) / (2 * eps) == pytest.approx(0.0, abs=1e-12)

    def test_larger_eps_degrades_gracefully(self):
        model = down_scaled_model(seed=3)
        sample = random_check_sample(3, model)
        tight = max(gradient_check(model, sample, eps=1e-5).values())
        loose = max(gradient_check(model, sample, eps=1e-3).values())
        assert np.isfinite(loose)
        assert loose >= tight
