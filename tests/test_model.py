import collections
import dataclasses
import hashlib
import inspect
import json
import math
import re
import struct
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from intentnet import container, layers, optim
from intentnet import model as model_module
from intentnet.data import LABELS, Utterance, Vocab, build_vocab, encode
from intentnet.errors import ContainerError, CorpusError, NumericError
from intentnet.model import (
    HybridModel,
    TrainConfig,
    cross_entropy,
    down_scaled_model,
    encode_dataset,
    evaluate,
    random_check_sample,
    report_from_pairs,
    train,
)
from intentnet.tensor import Rng, softmax, uniform_init

from helpers import (max_rel_error, numeric_gradient, rewrite_container, separable_corpus,
                     write_raw_header)

GRAD_TOL = 1e-4


def tiny_model(num_classes=4, vocab_chars="abcdefg", **kw):
    vocab = Vocab(["<pad>", "<unk>", *vocab_chars])
    defaults = dict(embed_dim=4, hidden=3, filters=2, max_len=6, rng=Rng(5),
                    dropout_rate=0.0)
    defaults.update(kw)
    return HybridModel(vocab, list(LABELS[:num_classes]), **defaults)


def zero_all(model):
    for arr in model.parameters().values():
        arr[...] = 0
    return model


def tiny_corpus(seed=0):
    """Three-class corpus, big enough to train a couple of epochs quickly."""
    records = separable_corpus(n_classes=3, per_class=6, seed=seed)
    return {"train": records, "dev": records}


def renumbered_corpus():
    """``tiny_corpus`` with ids that differ from every record's position in
    the sorted split, so an error that names an index instead of an id shows."""
    records = [dataclasses.replace(utt, id=1000 - 7 * utt.id)
               for utt in tiny_corpus()["train"]]
    return {"train": records, "dev": records}


def fast_config(**kw):
    defaults = dict(batch_size=10, hidden=6, filters=4, embed_dim=6, max_len=12,
                    seed=3, max_epochs=3, dropout=0.3)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestCrossEntropy:
    def test_one_hot_gold_gives_zero_loss(self):
        # a gold logit far above the others puts all the probability on it
        loss, _ = cross_entropy(np.array([0.0, 1000.0, 0.0]), 1)
        assert loss == 0.0

    def test_underflowing_gold_probability_gives_finite_loss(self):
        logits = np.array([0.0, 200.0], dtype=np.float32)
        assert softmax(logits)[0] == 0.0
        loss, _ = cross_entropy(logits, 0)
        assert loss == 200.0

    def test_uniform_31_classes_is_log_31(self):
        loss, _ = cross_entropy(np.zeros(31), 7)
        assert loss == pytest.approx(math.log(31), abs=1e-4)

    def test_gradient_sums_to_zero(self):
        rng = Rng(2)
        _, d_logits = cross_entropy(rng.uniform(-2, 2, (8,)), 3)
        assert abs(d_logits.sum()) < 1e-6

    def test_gold_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy(np.array([0.5, 0.5]), 2)


class TestForward:
    def test_zero_params_give_uniform_probs(self):
        model = zero_all(tiny_model(num_classes=31))
        logits, _ = model.forward([[2, 3, 4]])
        npt.assert_allclose(softmax(logits), np.full((1, 31), 1.0 / 31.0), atol=1e-7)

    def test_probs_form_a_distribution(self):
        model = tiny_model()
        for seed in range(5):
            rng = Rng(seed)
            indices = [2 + rng.integer(7) for _ in range(5)]
            logits, _ = model.forward([indices])
            probs = softmax(logits[0])
            assert abs(float(probs.sum()) - 1.0) < 1e-6
            assert np.all(probs > 0)

    def test_inference_is_deterministic(self):
        model = tiny_model()
        a, _ = model.forward([[2, 3, 4, 5]])
        b, _ = model.forward([[2, 3, 4, 5]])
        npt.assert_array_equal(a, b)

    def test_fused_width_for_reference_sizes(self):
        model = tiny_model(hidden=50, filters=50, embed_dim=8)
        assert model.dense.weight.shape[0] == 150

    def test_sample_shorter_than_one_window_rejected(self):
        model = tiny_model()
        with pytest.raises(ValueError):
            model.forward([[2, 3]])
        with pytest.raises(ValueError):
            model.forward([[2, 3, 4, 5], [2, 3]])
        with pytest.raises(ValueError):
            model._infer([[2, 3, 4, 5], [2, 3]])


class TestGradientBuffer:
    def test_train_passes_one_buffer_per_batch(self, monkeypatch):
        calls = []
        original = HybridModel.loss_and_gradients

        def spy(self, samples, rng=None):
            losses, returned = original(self, samples, rng)
            calls.append((self, samples, returned))
            return losses, returned

        monkeypatch.setattr(HybridModel, "loss_and_gradients", spy)
        corpus = tiny_corpus()
        train(fast_config(max_epochs=1, batch_size=4), corpus)
        # one call per batch of 4 (the last one short), each with its own buffer
        assert [len(samples) for _, samples, _ in calls] == [4, 4, 4, 4, 2]
        buffers = [grads for _, _, grads in calls]
        assert all(isinstance(grads, HybridModel) for grads in buffers)
        assert len({id(grads) for grads in buffers}) == len(buffers)
        # together the batches carry every training sample once
        model = calls[0][0]
        expected = encode_dataset(corpus["train"], model.vocab, model.max_len,
                                  model.label_index)
        carried = [sample for _, samples, _ in calls for sample in samples]
        assert sorted(map(repr, carried)) == sorted(map(repr, expected))


def zero_twin(model, blocks=None):
    """A zero model of ``model``'s sizes and dtype, holding copies of the
    named ``blocks`` if given."""
    twin = HybridModel(model.vocab, model.labels, model.embed_dim, model.hidden, model.filters,
                       model.max_len, rng=None, dropout_rate=model.dropout_rate,
                       dtype=model.dtype)
    if blocks is not None:
        twin.set_parameters(blocks)
    return twin


def named(model, vector):
    """Copies of ``vector``'s elements as ``model``'s named blocks."""
    twin = zero_twin(model)
    twin.flat[...] = vector
    return twin.parameters()


def assert_tiles(blocks, flat):
    """Every block is a view of the vector ``flat``, and together the blocks
    hold each of its elements exactly once."""
    assert flat.ndim == 1
    assert all(np.shares_memory(arr, flat) for arr in blocks.values())
    assert sum(arr.size for arr in blocks.values()) == flat.size
    saved = flat.copy()
    flat[...] = 0
    for arr in blocks.values():
        arr += 1
    assert np.all(flat == 1)  # no element in two blocks, none in no block
    flat[...] = saved


def assert_model_arena(model):
    assert_tiles(model.parameters(), model.flat)
    # the stacks are consecutive slices, in this order: each gate stack
    # holds the forward direction's, then the backward direction's
    stacks = [model.embedding,
              *(getattr(direction, stack) for stack in ("w_x", "w_h", "w_c", "b")
                for direction in (model.fwd, model.bwd)),
              model.conv.filters, model.conv.bias, model.dense.weight, model.dense.bias]
    offset = 0
    for arr in stacks:
        assert arr.flags.c_contiguous
        assert arr.ctypes.data - model.flat.ctypes.data == offset * model.flat.itemsize
        offset += arr.size
    assert offset == model.flat.size
    # a write through set_parameters lands in the vector: block k holds k + 1
    params = model.parameters()
    model.set_parameters({name: np.full(arr.shape, k + 1)
                          for k, (name, arr) in enumerate(params.items())})
    counts = np.bincount(model.flat.astype(np.intp))
    assert counts.tolist() == [0, *(arr.size for arr in params.values())]


def per_block_tail(params, grads, batch_size, state, lr, clip_norm, norm):
    """The tail of a training step block by block, over the named views:
    batch mean, scaling by ``clip_norm / norm`` where ``norm``, the one-
    vector step's gradient norm, exceeds ``clip_norm``, then Adam. ``norm``
    must be the norm of all the blocks together."""
    for name in grads:
        grads[name] /= batch_size
    total = math.fsum(float(np.square(g, dtype=np.float64).sum()) for g in grads.values())
    assert norm == pytest.approx(math.sqrt(total), rel=1e-12)
    if norm > clip_norm:
        for g in grads.values():
            g *= clip_norm / norm
    optim.adam_step(params, grads, state, lr)


def paper_size_model():
    """The default TrainConfig's layer sizes and float32, on ``tiny_corpus``'s vocabulary."""
    records = tiny_corpus()["train"]
    config = TrainConfig()
    return HybridModel(build_vocab(records), sorted({utt.label for utt in records}),
                       config.embed_dim, config.hidden, config.filters, config.max_len,
                       rng=Rng(4))


class TestParameterArena:
    def test_fresh_model(self):
        assert_model_arena(tiny_model())

    def test_loaded_model(self, tmp_path):
        tiny_model().save(tmp_path / "m.bin")
        assert_model_arena(HybridModel.load(tmp_path / "m.bin"))

    def test_trained_model(self):
        model, _ = train(fast_config(max_epochs=2), tiny_corpus())
        assert_model_arena(model)

    def test_gradient_model(self):
        model = down_scaled_model(seed=6)
        _, grads = model.loss_and_gradients(mixed_batch(model))
        assert list(grads.parameters()) == list(model.parameters())
        assert_tiles(grads.parameters(), grads.flat)
        assert (grads.flat.shape, grads.flat.dtype) == (model.flat.shape, model.flat.dtype)
        assert not np.shares_memory(grads.flat, model.flat)

    @pytest.mark.parametrize("build, clip_norm, lr", [
        (paper_size_model, 3.0, 0.01),
        (lambda: down_scaled_model(seed=3), 0.95, 0.05),
    ], ids=["paper-size-float32", "down-scaled-float64"])
    def test_one_vector_step_matches_the_per_block_step_bit_for_bit(self, build, clip_norm, lr,
                                                                    monkeypatch):
        norms = []
        clip = optim.clip_by_global_norm

        def recorded(grads, max_norm):
            norms.append(clip(grads, max_norm))
            return norms[-1]

        monkeypatch.setattr(optim, "clip_by_global_norm", recorded)
        model = build()
        ref = zero_twin(model, model.parameters())
        ref_params = ref.parameters()
        state = optim.AdamState({"flat": model.flat})
        ref_state = optim.AdamState(ref_params)
        if model.dtype == np.float32:
            samples = encode_dataset(tiny_corpus()["train"], model.vocab, model.max_len,
                                     model.label_index)
        else:
            samples = [random_check_sample(seed, model) for seed in range(18)]
        dropout_rng = Rng(9)
        for k in range(6):
            batch = samples[3 * k:3 * k + 3]
            _, grads = model.loss_and_gradients(batch, rng=dropout_rng)
            # the 35 named blocks, strided gate views included
            ref_grads = zero_twin(model, grads.parameters()).parameters()
            model_module._step(model, grads, len(batch), state, lr, clip_norm)
            per_block_tail(ref_params, ref_grads, len(batch), ref_state, lr, clip_norm,
                           norms[-1])
            for mine, theirs in ((model.parameters(), ref_params),
                                 (named(model, state.m["flat"]), ref_state.m),
                                 (named(model, state.v["flat"]), ref_state.v)):
                for name, arr in theirs.items():
                    assert mine[name].tobytes() == arr.tobytes(), (k, name)
        assert len(norms) == 6
        assert min(norms) < clip_norm < max(norms)  # some steps clip, some do not


def mixed_batch(model):
    """Encoded samples of lengths 3 (floored from one character), 4, 5 (cut at
    ``max_len``) and 3, in that order."""
    texts = ["a", "bcde", "fgabcde", "gfe"]
    return [(encode(text, model.vocab, model.max_len), k % model.num_classes)
            for k, text in enumerate(texts)]


class TestBatch:
    """The batched forward and backward against batches of one, in float64."""

    def test_gradient_equals_sum_of_batch_of_one_gradients(self):
        model = down_scaled_model(seed=6)
        samples = mixed_batch(model)
        assert [len(indices) for indices, _ in samples] == [3, 4, model.max_len, 3]
        losses, batched = model.loss_and_gradients(samples)
        singles = [model.loss_and_gradients([sample]) for sample in samples]
        npt.assert_allclose(losses, [loss for (loss,), _ in singles], rtol=1e-12)
        for name, grad in batched.parameters().items():
            npt.assert_allclose(grad, sum(grads.parameters()[name] for _, grads in singles),
                                rtol=1e-6, atol=1e-12, err_msg=name)

    def test_logits_match_batch_of_one_and_ignore_batchmates(self):
        model = down_scaled_model(seed=7)
        samples = mixed_batch(model)
        logits, _ = model.forward([s[0] for s in samples])
        for row, (indices, _) in zip(logits, samples):
            npt.assert_allclose(row, model._infer([indices])[0], rtol=1e-12,
                                atol=1e-15)
        # the same utterance beside batchmates of other lengths
        first = samples[0]
        for mate in samples[1:]:
            pair, _ = model.forward([first[0], mate[0]])
            npt.assert_allclose(pair[0], logits[0], rtol=1e-12, atol=1e-15)

    def test_backward_matches_finite_differences(self):
        # the short samples put the reversal gather and the pooling mask on
        # the path of every gradient
        model = down_scaled_model(seed=8)
        samples = mixed_batch(model)
        indices, gold = zip(*samples)

        def loss():
            logits, _ = model.forward(indices)
            return float(np.sum(cross_entropy(logits, gold)[0]))

        analytic = model.loss_and_gradients(samples)[1].parameters()
        for name, arr in model.parameters().items():
            assert max_rel_error(analytic[name], numeric_gradient(loss, arr)) < GRAD_TOL, name

    def test_recurrence_computes_no_padding(self, monkeypatch):
        # each direction's cell steps, forward and backward, make one row per
        # (sample, position) inside a length: 30 here, not the padded 5 * 9
        model = tiny_model(max_len=9)
        rows = collections.Counter()
        cell_forward, cell_backward = layers.lstm_cell_forward, layers.lstm_cell_backward

        def counted_forward(xw, h_prev, c_prev, p):
            # a stacked call runs both directions, one per slice of its
            # leading axis: each slice counts for the direction whose weights
            # it holds
            for w_h, h in zip(p.w_h.reshape(-1, *model.fwd.w_h.shape),
                              h_prev.reshape(-1, *h_prev.shape[-2:])):
                own = [q for q in (model.fwd, model.bwd) if np.array_equal(w_h, q.w_h)]
                rows["forward", id(own[0]) if len(own) == 1 else None] += len(h)
            return cell_forward(xw, h_prev, c_prev, p)

        def counted_backward(chain, step_rows, dh, dc):
            rows["backward", id(chain.params)] += step_rows.stop - step_rows.start
            return cell_backward(chain, step_rows, dh, dc)

        monkeypatch.setattr(layers, "lstm_cell_forward", counted_forward)
        monkeypatch.setattr(layers, "lstm_cell_backward", counted_backward)
        lengths = [3, 9, 5, 9, 4]
        model.loss_and_gradients([([2 + (k + j) % 7 for j in range(n)], k % model.num_classes)
                                  for k, n in enumerate(lengths)])
        assert rows == {(pass_, id(p)): sum(lengths)
                        for pass_ in ("forward", "backward") for p in (model.fwd, model.bwd)}


class TestStackedTraining:
    """A training step runs both recurrence directions as one stacked chain
    forward and one chain per direction backward, keeping the calling
    conventions that outside tracing relies on: ``bilstm_forward(X, lengths,
    p_fwd, p_bwd)``, ``lstm_cell_forward(xw, h_prev, c_prev, p)``, and a cell
    backward whose chain is one direction's, 2-D, over the very parameter
    object that ``bilstm_forward`` was given."""

    def test_signatures_keep_their_positional_parameters(self):
        for fn, names in ((layers.bilstm_forward, ["X", "lengths", "p_fwd", "p_bwd"]),
                          (layers.lstm_cell_forward, ["xw", "h_prev", "c_prev", "p"]),
                          (layers.lstm_cell_backward, ["chain", "rows", "dh", "dc"])):
            params = inspect.signature(fn).parameters.values()
            positional = [p.name for p in params if p.kind is p.POSITIONAL_OR_KEYWORD]
            assert positional == names, fn.__name__
            assert all(p.kind is p.KEYWORD_ONLY for p in params if p.name not in names)

    def test_cell_calls_of_a_training_step_and_of_predict(self, monkeypatch):
        vocab = Vocab(["<pad>", "<unk>", *(chr(0x4E00 + k) for k in range(40))])
        model = HybridModel(vocab, list(LABELS), embed_dim=64, hidden=50, filters=50,
                            max_len=30, rng=Rng(21))
        lengths = [30, 3, 17, 9, 30, 12, 3, 25, 17, 6]  # ragged, with ties and full length
        rng = Rng(22)
        batch = [([2 + rng.integer(len(vocab) - 2) for _ in range(n)], k % model.num_classes)
                 for k, n in enumerate(lengths)]
        bilstm, forward, backward = [], [], collections.Counter()
        originals = (layers.bilstm_forward, layers.lstm_cell_forward, layers.lstm_cell_backward)

        def counted_bilstm(*args):
            _, _, p_fwd, p_bwd = args  # exactly four positional arguments
            bilstm.append((p_fwd, p_bwd))
            return originals[0](*args)

        def counted_forward(*args):
            xw, h_prev, _, p = args
            forward.append(((xw.shape, h_prev.shape), p))
            return originals[1](*args)

        def counted_backward(*args):
            chain, rows, _, _ = args
            assert id(chain.params) in {id(model.fwd), id(model.bwd)}
            assert chain.x.ndim == chain.h_prev.ndim == 2
            backward[id(chain.params)] += rows.stop - rows.start
            return originals[2](*args)

        for name, counted in (("bilstm_forward", counted_bilstm),
                              ("lstm_cell_forward", counted_forward),
                              ("lstm_cell_backward", counted_backward)):
            monkeypatch.setattr(layers, name, counted)
        model.loss_and_gradients(batch)
        assert len(bilstm) == 1
        assert bilstm[0][0] is model.fwd and bilstm[0][1] is model.bwd
        live = [sum(n > t for n in lengths) for t in range(max(lengths))]
        assert [shapes for shapes, _ in forward] == [((2, n, 200), (2, n, 50)) for n in live]
        assert backward == {id(model.fwd): sum(lengths), id(model.bwd): sum(lengths)}

        forward.clear()
        model.predict("一二三四五六七")
        assert collections.Counter(id(p) for _, p in forward) == {id(model.fwd): 7,
                                                                  id(model.bwd): 7}


class TestPredict:
    def test_label_matches_argmax(self):
        model = tiny_model()
        label, probs = model.predict("abc")
        assert label == model.labels[int(np.argmax(probs))]

    def test_zero_params_tie_resolves_to_first_label(self):
        model = zero_all(tiny_model())
        label, _ = model.predict("abc")
        assert label == model.labels[0]

    def test_repeat_prediction_identical(self):
        model = tiny_model()
        label_a, probs_a = model.predict("gfe")
        label_b, probs_b = model.predict("gfe")
        assert label_a == label_b
        npt.assert_array_equal(probs_a, probs_b)

    def test_unknown_chars_map_to_unk(self):
        model = tiny_model()
        label, probs = model.predict("ZZZ")
        assert label in model.labels
        assert abs(float(probs.sum()) - 1.0) < 1e-6


class TestInferenceAgreement:
    def test_predict_evaluate_and_dev_pass_agree_exactly(self):
        model = tiny_model()
        texts = ["a", "gfedcbagfe", "bcd", "ZZ", "abcdefgab", "ee", "c", "fedcba"]
        assert min(map(len, texts)) == 1 and max(map(len, texts)) > model.max_len
        records = [Utterance(id=k, text=text, label=model.labels[k % model.num_classes])
                   for k, text in enumerate(texts)]
        dev_set = encode_dataset(records, model.vocab, model.max_len, model.label_index)

        val_loss, val_accuracy = model_module._validate(model, dev_set)
        loss_sum = 0.0
        for sample in dev_set:  # in dev_set order
            loss_sum += model.loss(sample)
        assert val_loss == loss_sum / len(dev_set)
        predicted = [model.label_index[model.predict(utt.text)[0]] for utt in records]
        gold = [model.label_index[utt.label] for utt in records]
        assert val_accuracy == sum(p == g for p, g in zip(predicted, gold)) / len(records)
        expected = report_from_pairs(gold, predicted, model.labels).confusion
        npt.assert_array_equal(evaluate(model, records).confusion, expected)

    @pytest.mark.blas_threads
    def test_batched_inference_is_batch_invariant_on_the_paper_size_model(self):
        # the paper's sizes in float32: a BLAS whose products change with the
        # stack or batch they are issued in fails here
        vocab = Vocab(["<pad>", "<unk>", *(chr(0x4E00 + k) for k in range(300))])
        model = HybridModel(vocab, list(LABELS), embed_dim=64, hidden=50, filters=50,
                            max_len=30, rng=Rng(11))
        rng = Rng(12)
        lengths = [n for n in range(3, model.max_len + 1) for _ in range(3)]
        samples = [[1 + rng.integer(len(vocab) - 1) for _ in range(lengths[k])]
                   for k in rng.permutation(len(lengths))]
        batched = model._infer(samples)
        assert batched.dtype == np.float32
        assert np.array_equal(batched, np.concatenate([model._infer([s]) for s in samples]))
        assert np.array_equal(batched, np.concatenate([model.forward([s])[0] for s in samples]))
        assert np.array_equal(model._infer(s for s in samples), batched)


class TestStackedInference:
    @pytest.fixture(scope="class")
    def paper_model_and_sequences(self):
        vocab = Vocab(["<pad>", "<unk>", *(chr(0x4E00 + k) for k in range(300))])
        model = HybridModel(vocab, list(LABELS), embed_dim=64, hidden=50, filters=50,
                            max_len=30, rng=Rng(14))
        rng = Rng(15)
        sequences = [[1 + rng.integer(len(vocab) - 1) for _ in range(3 + rng.integer(28))]
                     for _ in range(700)]
        return model, sequences

    def test_one_recurrence_of_two_cell_calls_per_step(self, paper_model_and_sequences,
                                                       monkeypatch):
        model, sequences = paper_model_and_sequences
        calls = collections.Counter()

        def counting(name):
            original = getattr(layers, name)

            def counted(*args):
                calls[name] += 1
                return original(*args)
            return counted

        for name in ("bilstm_forward", "lstm_cell_forward"):
            monkeypatch.setattr(layers, name, counting(name))
        model._infer(sequences)
        steps = max(map(len, sequences))
        assert calls == {"bilstm_forward": 1, "lstm_cell_forward": 2 * steps}

    def test_no_whole_stack_projection_is_held(self, paper_model_and_sequences):
        # One direction's input projection for every live (step, sequence)
        # row of the stack, (N, 1, 4H), would alone take N * 4H values, so a
        # peak below half of that holds no such projection.
        model, sequences = paper_model_and_sequences
        rows = sum(map(len, sequences))
        projection = rows * 4 * model.hidden * np.dtype(model.dtype).itemsize
        model._infer(sequences[:3])  # imports and first-call set-up happen outside the trace
        tracemalloc.start()
        try:
            model._infer(sequences)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < projection / 2


class TestTraining:
    def test_identical_seeds_identical_history_and_params(self):
        corpus = tiny_corpus()
        model_a, hist_a = train(fast_config(), corpus)
        model_b, hist_b = train(fast_config(), corpus)
        assert hist_a == hist_b
        for name, arr in model_a.parameters().items():
            npt.assert_array_equal(arr, model_b.parameters()[name])

    @pytest.mark.blas_threads
    def test_trained_bytes_are_pinned(self, monkeypatch):
        # the paper's layer sizes, so that at two BLAS threads the weight-
        # gradient products are large enough to be split between threads
        config = TrainConfig(seed=3, max_epochs=3, clip_norm=1.3)
        norms = []
        clip = model_module.optim.clip_by_global_norm

        def recorded(grads, max_norm):
            norms.append(clip(grads, max_norm))
            return norms[-1]

        monkeypatch.setattr(model_module.optim, "clip_by_global_norm", recorded)
        model, history = train(config, tiny_corpus())
        assert min(norms) < config.clip_norm < max(norms)  # some steps clip, some do not
        params = hashlib.sha256()
        for name, arr in model.parameters().items():
            params.update(name.encode())
            params.update(np.ascontiguousarray(arr).tobytes())
        # the digests of Adam in Kingma and Ba's folded form, after the
        # packed recurrence, at one and at two OpenBLAS threads; they hold
        # for the BLAS kernels that rounded them (OpenBLAS 0.3.31 on an
        # AVX-512 x86-64 CPU), and another kernel may round the products
        # differently
        assert params.hexdigest() == (
            "2f9c9e6ed47697a4e01e2a753bd65b0c7030460b305bbed35f29259d75e07853")
        records = repr([dataclasses.astuple(record) for record in history]).encode()
        assert hashlib.sha256(records).hexdigest() == (
            "af520fb6def956539034356ca3b61d738e66940efc8138a70b63879a1ccfcfb6")

    def test_record_order_does_not_matter(self):
        corpus = tiny_corpus()
        shuffled = {
            "train": list(reversed(corpus["train"])),
            "dev": list(reversed(corpus["dev"])),
        }
        _, hist_a = train(fast_config(), corpus)
        _, hist_b = train(fast_config(), shuffled)
        assert hist_a == hist_b

    def test_first_epoch_loss_near_log_num_classes(self):
        records = separable_corpus(n_classes=8, per_class=4, seed=1)
        _, history = train(fast_config(max_epochs=1), {"train": records, "dev": records})
        assert history[0].train_loss == pytest.approx(math.log(8), abs=0.5)

    def test_first_epoch_loss_near_log_31_on_full_taxonomy(self):
        # two utterances per label over disjoint character pairs
        pool = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
        records = []
        for i, label in enumerate(LABELS):
            chars = pool[2 * i:2 * i + 2]
            records.append(Utterance(id=2 * i, text=chars * 3, label=label))
            records.append(Utterance(id=2 * i + 1, text=chars[::-1] * 2, label=label))
        _, history = train(fast_config(max_epochs=1), {"train": records, "dev": records})
        assert history[0].train_loss == pytest.approx(math.log(31), abs=0.5)

    def test_learns_a_separable_toy(self):
        corpus = tiny_corpus()
        model, history = train(fast_config(max_epochs=40, dropout=0.2), corpus)
        correct = sum(model.predict(u.text)[0] == u.label for u in corpus["train"])
        assert correct / len(corpus["train"]) >= 0.95

    @pytest.mark.parametrize("seed", range(12))
    def test_learns_at_every_seed(self, seed):
        # a configuration that reaches 18 of 18 at each of these seeds, so a
        # change that only moves the random stream cannot flip it, while one
        # that breaks learning fails it at some seed
        corpus = tiny_corpus()
        model, history = train(fast_config(max_epochs=40, dropout=0.2, lr=0.01, seed=seed),
                               corpus)
        correct = sum(model.predict(u.text)[0] == u.label for u in corpus["train"])
        assert correct / len(corpus["train"]) >= 0.95
        assert history[2].train_loss < history[0].train_loss

    def test_returned_model_is_best_validation_snapshot(self):
        corpus = tiny_corpus()
        model, history = train(fast_config(max_epochs=12), corpus)
        best_recorded = max(r.val_f1 for r in history)
        correct = sum(model.predict(u.text)[0] == u.label for u in corpus["dev"])
        assert correct / len(corpus["dev"]) == pytest.approx(best_recorded)

    def test_lr_non_increasing(self):
        corpus = tiny_corpus()
        _, history = train(fast_config(max_epochs=15), corpus)
        rates = [r.lr for r in history]
        assert all(b <= a for a, b in zip(rates, rates[1:]))

    def test_empty_split_rejected(self):
        with pytest.raises(CorpusError):
            train(fast_config(), {"train": [], "dev": []})
        with pytest.raises(CorpusError):
            train(fast_config(), {"train": tiny_corpus()["train"], "dev": []})

    def test_non_finite_loss_names_epoch_and_sample(self, monkeypatch):
        original = HybridModel.loss_and_gradients
        batches = []

        def poisoned(self, samples, rng=None):
            losses, grads = original(self, samples, rng)
            batches.append(samples)
            if len(batches) == 2:
                losses[1] = losses[3] = float("nan")
            return losses, grads

        monkeypatch.setattr(HybridModel, "loss_and_gradients", poisoned)
        config = fast_config(max_epochs=2, batch_size=4)
        corpus = renumbered_corpus()
        records = model_module._canonical(corpus["train"])
        order = Rng(config.seed).spawn(model_module._STREAM_SHUFFLE_BASE + 1).permutation(18)
        with pytest.raises(NumericError,
                           match=rf"epoch 1, utterance id {records[order[5]].id}$"):
            train(config, corpus)

    def test_non_finite_gradient_names_block_epoch_and_samples(self, monkeypatch):
        original = HybridModel.loss_and_gradients
        batches = []

        def poisoned(self, samples, rng=None):
            losses, grads = original(self, samples, rng)
            batches.append(samples)
            if len(batches) == 2:
                grads.parameters()["out.weight"][0, 0] = np.nan
            return losses, grads

        monkeypatch.setattr(HybridModel, "loss_and_gradients", poisoned)
        config = fast_config(max_epochs=2, batch_size=4)
        corpus = renumbered_corpus()
        records = model_module._canonical(corpus["train"])
        order = Rng(config.seed).spawn(model_module._STREAM_SHUFFLE_BASE + 1).permutation(18)
        ids = [records[i].id for i in order[4:8]]
        message = f"non-finite gradient in out.weight at epoch 1, utterance ids {ids}"
        with pytest.raises(NumericError, match=f"^{re.escape(message)}$"):
            train(config, corpus)

    def test_non_finite_gradient_in_a_gate_view_names_that_block(self, monkeypatch):
        original = HybridModel.loss_and_gradients
        batches = []

        def poisoned(self, samples, rng=None):
            losses, grads = original(self, samples, rng)
            batches.append(samples)
            if len(batches) == 2:
                grads.parameters()["fwd.w_hf"][0, 0] = np.nan
            return losses, grads

        monkeypatch.setattr(HybridModel, "loss_and_gradients", poisoned)
        config = fast_config(max_epochs=2, batch_size=4)
        corpus = renumbered_corpus()
        records = model_module._canonical(corpus["train"])
        order = Rng(config.seed).spawn(model_module._STREAM_SHUFFLE_BASE + 1).permutation(18)
        ids = [records[i].id for i in order[4:8]]
        message = f"non-finite gradient in fwd.w_hf at epoch 1, utterance ids {ids}"
        with pytest.raises(NumericError, match=f"^{re.escape(message)}$"):
            train(config, corpus)

    def test_dev_label_missing_from_train_rejected(self):
        corpus = tiny_corpus()
        stray = Utterance(id=999, text="zzz", label=LABELS[30])
        with pytest.raises(CorpusError):
            train(fast_config(), {"train": corpus["train"], "dev": [stray]})


class TestTrainConfig:
    def test_defaults_are_valid(self):
        TrainConfig()

    def test_fields_cannot_be_reassigned(self):
        config = TrainConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.lr = float("inf")
        assert config == TrainConfig()

    @pytest.mark.parametrize("override, message", [
        ({"lr": 1e-7, "min_lr": 1e-6}, "below min_lr"),
        ({"min_lr": -1e-6}, "min_lr must not be negative"),
        ({"lr_factor": 0.0}, r"lr_factor must be in \(0, 1\]"),
        ({"lr_factor": 1.5}, r"lr_factor must be in \(0, 1\]"),
        ({"hidden": "big"}, "hidden must be an integer"),
        ({"hidden": 2.5}, "hidden must be an integer"),
        ({"batch_size": True}, "batch_size must be an integer"),
        ({"lr": "fast"}, "lr must be a number"),
        ({"dropout": False}, "dropout must be a number"),
        ({"lr": float("nan")}, "lr must be positive"),
        ({"min_lr": float("nan")}, "min_lr must not be negative"),
        ({"clip_norm": 0.0}, "clip_norm must be positive"),
        ({"clip_norm": -1.0}, "clip_norm must be positive"),
        ({"clip_norm": float("nan")}, "clip_norm must be positive"),
        ({"seed": 2 ** 64}, r"seed must be in \[0, 2\*\*64\)"),
        ({"seed": -1}, r"seed must be in \[0, 2\*\*64\)"),
        ({"lr": float("inf")}, "lr must be finite"),
        ({"lr": 10 ** 400}, "lr must be finite"),  # an int no float can hold
        ({"max_len": 2}, "max_len must be at least 3"),
    ], ids=["lr-below-min-lr", "negative-min-lr", "zero-lr-factor", "lr-factor-above-one",
            "str-int", "float-int", "bool-int", "str-float", "bool-float", "nan-lr",
            "nan-min-lr", "zero-clip-norm", "negative-clip-norm", "nan-clip-norm",
            "seed-2**64", "negative-seed", "inf-lr", "int-lr-past-float", "max-len-below-floor"])
    def test_rejected(self, override, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**override)

    @pytest.mark.parametrize("override, message", [
        ({"embed_dim": np.int64(4), "hidden": np.int64(3), "filters": np.int64(2)}, None),
        ({"max_len": np.int64(6)}, None),
        ({"dropout_rate": np.float32(0.5)}, None),
        ({"hidden": 3.0}, "hidden must be an integer"),
        ({"embed_dim": True}, "embed_dim must be an integer"),
        ({"dropout_rate": Fraction(1, 2)}, "dropout must be a number"),
    ], ids=["numpy-sizes", "numpy-max-len", "numpy-rate", "float-size", "bool-size",
            "fraction-rate"])
    def test_model_numbers_follow_the_config_rule(self, override, message, tmp_path):
        # a model's sizes and rate go through TrainConfig's checks: a numpy
        # scalar builds the model its Python twin builds, byte for byte, and
        # any other type than an int (a float for the rate) names the field
        if message is not None:
            with pytest.raises(ValueError, match=message):
                tiny_model(**override)
            return
        model = tiny_model(**override)
        model.save(tmp_path / "model.bin")
        tiny_model(**{name: value.item() for name, value in override.items()}).save(
            tmp_path / "twin.bin")
        assert (tmp_path / "model.bin").read_bytes() == (tmp_path / "twin.bin").read_bytes()
        assert HybridModel.load(tmp_path / "model.bin").flat.tobytes() == model.flat.tobytes()

    def test_numpy_scalars_accepted(self):
        TrainConfig(hidden=np.int64(4), lr=np.float32(0.01))

    @pytest.mark.parametrize("int_type", [np.int64, np.uint64])
    def test_numpy_scalar_config_trains_like_its_python_twin(self, int_type, tmp_path):
        # every int field (the seed and the sizes among them) as int_type and
        # every float field (dropout and lr among them) as np.float32; the
        # twin holds the Python numbers those scalars hold
        base = dataclasses.asdict(fast_config(max_epochs=2, dropout=0.5, lr=0.01))
        kinds = {field.name: field.type for field in dataclasses.fields(TrainConfig)}
        scalars = {name: (int_type if kinds[name] == "int" else np.float32)(value)
                   for name, value in base.items()}
        twin = TrainConfig(**{name: (int if kinds[name] == "int" else float)(value)
                              for name, value in scalars.items()})
        config = TrainConfig(**scalars)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model, history = train(config, tiny_corpus())
        # building the config converted its numpy scalars to Python numbers
        for name, kind in kinds.items():
            assert type(getattr(config, name)) is (int if kind == "int" else float), name
        assert config == twin
        twin_model, twin_history = train(twin, tiny_corpus())
        assert model.flat.tobytes() == twin_model.flat.tobytes()
        assert history == twin_history
        for record in history:
            json.dumps(dataclasses.asdict(record))
        model.save(tmp_path / "model.bin")
        loaded = HybridModel.load(tmp_path / "model.bin")
        assert loaded.flat.tobytes() == model.flat.tobytes()
        assert (loaded.hidden, loaded.max_len, loaded.dropout_rate) == (
            twin.hidden, twin.max_len, twin.dropout)


class TestEvalReport:
    def test_all_correct(self):
        report = report_from_pairs([0, 1, 2], [0, 1, 2], ["a", "b", "c"])
        npt.assert_array_equal(report.precision, [1.0, 1.0, 1.0])
        assert report.micro_f1 == 1.0
        assert report.macro_f1 == 1.0

    def test_hand_confusion(self):
        # gold class 0: one right, one predicted as class 1; class 1: two right
        report = report_from_pairs([0, 0, 1, 1], [0, 1, 1, 1], ["x", "y"])
        npt.assert_array_equal(report.confusion, [[1, 1], [0, 2]])
        assert report.precision[0] == pytest.approx(1.0)
        assert report.precision[1] == pytest.approx(2 / 3)
        assert report.micro_f1 == pytest.approx(3 / 4)

    def test_absent_class_scores_zero(self):
        report = report_from_pairs([0, 0], [0, 0], ["x", "y"])
        assert report.precision[1] == 0.0
        assert report.recall[1] == 0.0
        assert report.f1[1] == 0.0

    def test_confusion_row_sums_equal_support(self):
        rng = Rng(4)
        gold = [rng.integer(3) for _ in range(50)]
        pred = [rng.integer(3) for _ in range(50)]
        report = report_from_pairs(gold, pred, ["a", "b", "c"])
        npt.assert_array_equal(report.confusion.sum(axis=1), report.support)
        assert report.confusion.sum() == 50

    def test_micro_equals_accuracy(self):
        rng = Rng(5)
        gold = [rng.integer(4) for _ in range(80)]
        pred = [rng.integer(4) for _ in range(80)]
        report = report_from_pairs(gold, pred, list("abcd"))
        accuracy = sum(g == p for g, p in zip(gold, pred)) / 80
        assert report.micro_f1 == pytest.approx(accuracy)

    def test_evaluate_end_to_end(self):
        corpus = tiny_corpus()
        model, _ = train(fast_config(max_epochs=25, dropout=0.2), corpus)
        report = evaluate(model, corpus["train"])
        assert report.confusion.sum() == len(corpus["train"])
        assert 0.0 <= report.micro_f1 <= 1.0
        assert len(report.labels) == 3

    def test_evaluate_rejects_unknown_labels(self):
        model = tiny_model(num_classes=2)
        stray = Utterance(id=1, text="abc", label=LABELS[5])
        with pytest.raises(CorpusError):
            evaluate(model, [stray])

    def test_evaluate_rejects_empty_split(self):
        with pytest.raises(CorpusError):
            evaluate(tiny_model(), [])

    def test_report_round_trips_through_dict(self):
        report = report_from_pairs([0, 1, 1], [0, 0, 1], ["a", "b"])
        data = report.to_dict()
        assert data["per_class"]["a"]["support"] == 1
        assert data["micro_f1"] == report.micro_f1
        assert np.array(data["confusion"]).shape == (2, 2)


# A 4-class model trained for 12 epochs and saved (format v1) by the
# per-gate storage that preceded the gate-stacked one.
V1_MODEL = Path(__file__).parent / "data" / "hybrid_v1.bin"


class TestModelFileContract:
    def test_v1_file_loads_with_the_same_parameter_bytes(self, tmp_path):
        _, _, blocks = container.read_container(V1_MODEL)
        params = HybridModel.load(V1_MODEL).parameters()
        assert list(params) == list(blocks)
        for name, arr in blocks.items():
            assert params[name].tobytes() == arr.tobytes(), name
        HybridModel.load(V1_MODEL).save(tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == V1_MODEL.read_bytes()

    def test_v1_file_predicts_the_same_labels(self):
        model = HybridModel.load(V1_MODEL)
        expected = {"aabcaaaca": "app", "a": "app", "ddfdeef": "bus", "hihhggg": "calc",
                    "adgj": "calc", "cccbbbfff": "calc", "jjjiii": "calc", "jklll": "chat",
                    "xyz": "chat", "订票": "chat"}
        assert {text: model.predict(text)[0] for text in expected} == expected

    @pytest.mark.blas_threads
    def test_v1_file_logits_are_pinned(self):
        # the digest the one-utterance-at-a-time inference gave; it holds for
        # the BLAS kernels that rounded it (OpenBLAS 0.3.31 on an AVX-512
        # x86-64 CPU), and another kernel may round the products differently
        model = HybridModel.load(V1_MODEL)
        texts = ["aabcaaaca", "a", "ddfdeef", "hihhggg", "adgj", "cccbbbfff", "jjjiii",
                 "jklll", "xyz", "订票"]
        logits = model._infer(encode(text, model.vocab, model.max_len) for text in texts)
        assert hashlib.sha256(logits.tobytes()).hexdigest() == (
            "8fde5afc41bef8b1b49ebe7fe9e8ba066a131b85e8e85ba7ea8723a6782751a2")

    def test_each_direction_keeps_its_15_per_gate_blocks(self):
        model = HybridModel.load(V1_MODEL)
        E, H = model.embed_dim, model.hidden
        expected = ([(f"w_x{g}", (E, H)) for g in "ifgo"] + [(f"w_h{g}", (H, H)) for g in "ifgo"]
                    + [(f"w_c{g}", (H, H)) for g in "ifo"] + [(f"b_{g}", (H,)) for g in "ifgo"])
        for direction in (model.fwd, model.bwd):
            assert [(name, arr.shape) for name, arr in direction.blocks().items()] == expected

    def test_seeded_initial_weights_match_the_per_gate_layout(self):
        model = HybridModel(Vocab(["<pad>", "<unk>", "a", "b", "c"]), ["app", "bus", "chat"],
                            embed_dim=3, hidden=2, filters=2, max_len=5, rng=Rng(7))
        digest = hashlib.sha256()
        for name, arr in model.parameters().items():
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(arr).tobytes())
        # the digest the per-gate storage gave for the same seed and sizes
        assert digest.hexdigest() == (
            "08632ebce277931177bd5702f4fc5b5df5c9b0ce33f3d9902b2f8befe3677375")

    def test_a_seeded_paper_size_model_draws_once_per_run_of_blocks(self, monkeypatch):
        shapes = []

        def counting(rng, shape, limit, dtype=np.float32):
            shapes.append(shape)
            return uniform_init(rng, shape, limit, dtype)

        monkeypatch.setattr(model_module, "uniform_init", counting)
        monkeypatch.setattr(layers, "uniform_init", counting)
        HybridModel(Vocab(["<pad>", "<unk>", "a"]), list(LABELS), embed_dim=64, hidden=50,
                    filters=50, max_len=30, rng=Rng(1))
        # the embedding; per direction its four w_x blocks, then its w_h and
        # w_c blocks, all (H, H); the filters; the dense weight
        assert shapes == [(3, 64), (4, 64, 50), (7, 50, 50), (4, 64, 50), (7, 50, 50),
                          (1, 50, 3, 64), (1, 150, 31)]


class TestSerialization:
    def test_round_trip_is_bit_identical(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "model.bin"
        model.save(path)
        loaded = HybridModel.load(path)
        assert loaded.labels == model.labels
        assert loaded.vocab.tokens == model.vocab.tokens
        for name, arr in model.parameters().items():
            npt.assert_array_equal(arr, loaded.parameters()[name])
        for text in ("abc", "gg", "xyz", "abcdefg"):
            label_a, probs_a = model.predict(text)
            label_b, probs_b = loaded.predict(text)
            assert label_a == label_b
            assert probs_a.tobytes() == probs_b.tobytes()

    def test_same_model_saves_identical_bytes(self, tmp_path):
        model = tiny_model()
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        model.save(p1)
        model.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_corruption_detected(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "model.bin"
        model.save(path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ContainerError, match="checksum"):
            HybridModel.load(path)

    def test_a_flipped_byte_at_any_chunk_edge_fails_the_checksum(self, tmp_path):
        path = tmp_path / "model.bin"
        paper_size_model().save(path)
        raw = path.read_bytes()
        payload_len = len(raw) - 8
        saved = container.fnv1a64(raw[:-8])
        edges = {0, payload_len - 1}
        for step in (container._CHUNK, container._SUB_BLOCK):
            for start in range(step, payload_len, step):
                edges |= {start - 1, start, start + 1}
        edges = sorted(pos for pos in edges if pos < payload_len)
        assert len(edges) > 10  # the file spans several chunks
        for pos in edges:
            flipped = bytearray(raw)
            flipped[pos] ^= 0xFF
            assert container.fnv1a64(memoryview(flipped)[:-8]) != saved
            path.write_bytes(flipped)
            # the magic is read before the checksum
            with pytest.raises(ContainerError,
                               match="not a model container" if pos < 4 else "checksum"):
                HybridModel.load(path)

    def test_save_and_load_each_checksum_the_payload_once(self, tmp_path, monkeypatch):
        # perfbench's container.fnv1a64 metrics count on one call per save
        # and one per load
        calls = []
        fnv1a64 = container.fnv1a64
        monkeypatch.setattr(container, "fnv1a64",
                            lambda data: calls.append(len(data)) or fnv1a64(data))
        path = tmp_path / "model.bin"
        tiny_model().save(path)
        payload_len = path.stat().st_size - 8
        assert calls == [payload_len]
        calls.clear()
        HybridModel.load(path)
        assert calls == [payload_len]

    def test_read_blocks_are_read_only_views_of_the_file(self, tmp_path):
        path = tmp_path / "model.bin"
        tiny_model().save(path)
        _, _, blocks = container.read_container(path)
        for name, arr in blocks.items():
            assert not arr.flags.writeable and not arr.flags.owndata, name

    def test_checksum_scratch_is_bounded_by_the_chunk(self):
        payload = np.random.default_rng(0).bytes(1 << 20)
        tracemalloc.start()
        try:
            container.fnv1a64(payload)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < len(payload)

    def test_save_holds_one_copy_of_the_blocks(self, tmp_path):
        # the paper's layer sizes on a 2692-token vocabulary: a 1.01 MB file
        config = TrainConfig()
        vocab = Vocab(["<pad>", "<unk>", *map(chr, range(0x4E00, 0x4E00 + 2690))])
        model = HybridModel(vocab, list(LABELS), config.embed_dim, config.hidden,
                            config.filters, config.max_len, rng=None)
        path = tmp_path / "model.bin"
        tracemalloc.start()
        try:
            model.save(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the payload, the checksum's scratch (below the payload's size) and
        # the copies of the strided per-gate views; not a second payload
        assert peak < 2.4 * path.stat().st_size

    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch):
        draws = []
        next_u64, next_u64_array = Rng.next_u64, Rng.next_u64_array
        monkeypatch.setattr(Rng, "next_u64", lambda rng: draws.append(1) or next_u64(rng))
        monkeypatch.setattr(Rng, "next_u64_array",
                            lambda rng, n: draws.append(n) or next_u64_array(rng, n))
        model = tiny_model()
        assert draws  # building a fresh model does draw
        path = tmp_path / "model.bin"
        model.save(path)
        draws.clear()
        loaded = HybridModel.load(path)
        assert draws == []
        for name, arr in model.parameters().items():
            assert loaded.parameters()[name].tobytes() == arr.tobytes()

    def test_set_parameters_checks_shapes(self):
        model = tiny_model()
        values = {name: arr.copy() for name, arr in model.parameters().items()}
        values["out.bias"] = np.ones(1, dtype=np.float32)
        with pytest.raises(ValueError, match="out.bias"):
            model.set_parameters(values)

    def test_set_parameters_names_a_non_finite_block(self):
        model = tiny_model()
        values = {name: arr.copy() for name, arr in model.parameters().items()}
        values["fwd.w_hg"][1, 0] = np.inf
        with pytest.raises(ValueError, match="block fwd.w_hg holds a non-finite value"):
            model.set_parameters(values)

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda h, b: b.pop("conv.bias"), id="missing-block"),
        pytest.param(lambda h, b: b.update(extra=np.zeros(2)), id="extra-block"),
        pytest.param(lambda h, b: b.update({"out.bias": b["out.bias"][:1]}), id="short-bias"),
        pytest.param(lambda h, b: h.pop("embed_dim"), id="missing-key"),
        pytest.param(lambda h, b: h.update(hidden="3"), id="string-size"),
        pytest.param(lambda h, b: h.update(max_len=6.5), id="float-size"),
        pytest.param(lambda h, b: h.update(max_len=2), id="max-len-below-floor"),
        pytest.param(lambda h, b: h.update(vocab=[]), id="empty-vocab"),
        pytest.param(lambda h, b: h.update(vocab=h["vocab"][::-1]), id="vocab-order"),
        pytest.param(lambda h, b: h.update(labels=5), id="labels-not-a-list"),
        pytest.param(lambda h, b: h["labels"].__setitem__(0, None), id="label-not-a-string"),
        # one distinct letter per class, so only the type is wrong
        pytest.param(lambda h, b: h.update(labels="wxyz"), id="labels-a-string"),
        pytest.param(lambda h, b: h.update(labels=dict.fromkeys(h["labels"])),
                     id="labels-an-object"),
        pytest.param(lambda h, b: h["vocab"].__setitem__(-1, 5), id="vocab-token-not-a-string"),
        pytest.param(lambda h, b: h.update(num_classes=999), id="wrong-num-classes"),
        pytest.param(lambda h, b: h.update(vocab_size=999), id="wrong-vocab-size"),
        # every shape check passes: the output layer has no column either
        pytest.param(lambda h, b: h.update(labels=[], num_classes=0) or b.update(
            {"out.weight": b["out.weight"][:, :0], "out.bias": b["out.bias"][:0]}), id="no-labels"),
        pytest.param(lambda h, b: h.pop("dropout"), id="missing-dropout"),
        pytest.param(lambda h, b: h.update(dropout="x"), id="string-dropout"),
        pytest.param(lambda h, b: h.update(dropout=2.0), id="dropout-out-of-range"),
        pytest.param(lambda h, b: b.update({"out.bias": b["out.bias"] * np.nan}), id="nan-weight"),
        pytest.param(lambda h, b: b.update({"conv.filters": b["conv.filters"] + np.inf}),
                     id="inf-weight"),
        # sizes that fail to allocate unless the blocks are checked first
        pytest.param(lambda h, b: h.update(embed_dim=2**45), id="huge-embed-dim"),
        pytest.param(lambda h, b: h.update(hidden=2**45), id="huge-hidden"),
        # block shapes that size a model far larger than the file
        pytest.param(lambda h, b: b.update(embedding=np.zeros((0, 2**32 - 1), np.float32)),
                     id="empty-embedding-of-huge-width"),
        pytest.param(lambda h, b: b.update(embedding=np.zeros((1, 60_000), np.float32)),
                     id="one-wide-embedding-row"),
        # save writes the model each of these holds in other bytes
        pytest.param(lambda h, b: h.update(num_classes=float(h["num_classes"])),
                     id="num-classes-a-float"),
        pytest.param(lambda h, b: h.update(format_version=1.0), id="format-version-a-float"),
        pytest.param(lambda h, b: h.update(note="edited"), id="extra-header-key"),
        pytest.param(lambda h, b: [b.__setitem__(k, b.pop(k)) for k in reversed(list(b))],
                     id="blocks-reordered"),
        pytest.param(None, id="header-respelled"),
    ])
    def test_unbuildable_file_is_container_error(self, tmp_path, edit):
        path = tmp_path / "model.bin"
        tiny_model().save(path)
        if edit is None:  # bytes no edit of the parsed header can give
            raw_header, _, _ = container.read_container(path)
            write_raw_header(path, raw_header.replace(b": ", b":  ", 1))
        else:
            rewrite_container(path, edit)
        with pytest.raises(ContainerError, match="model.bin"):
            HybridModel.load(path)

    def test_load_allocates_no_more_than_the_file_holds(self, tmp_path):
        # one embedding row of 60,000 floats: the sizes it implies need a
        # 9.4 MB model, and the file holds 0.24 MB
        path = tmp_path / "model.bin"
        tiny_model().save(path)
        rewrite_container(path, lambda h, b: b.update(embedding=np.zeros((1, 60_000), np.float32)))
        tracemalloc.start()
        try:
            with pytest.raises(ContainerError, match="model.bin"):
                HybridModel.load(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the file's bytes and the checksum's scratch (under 1 MB), no model
        assert peak < path.stat().st_size + 1_000_000

    def test_duplicated_block_is_container_error(self, tmp_path):
        path = tmp_path / "model.bin"
        tiny_model().save(path)
        payload = path.read_bytes()[:-8]
        # a second out.bias, of 7s, after every block the file holds
        count_at = 8 + struct.unpack_from("<I", payload, 4)[0]
        n_blocks = struct.unpack_from("<I", payload, count_at)[0]
        extra = (struct.pack("<H", 8) + b"out.bias" + struct.pack("<BI", 1, 4)
                 + np.full(4, 7, dtype="<f4").tobytes())
        payload = (payload[:count_at] + struct.pack("<I", n_blocks + 1)
                   + payload[count_at + 4:] + extra)
        path.write_bytes(payload + struct.pack("<Q", container.fnv1a64(payload)))
        with pytest.raises(ContainerError, match="model.bin: block 'out.bias' appears twice"):
            HybridModel.load(path)

    def test_kind_tag_enforced(self, tmp_path):
        path = tmp_path / "model.bin"
        tiny_model().save(path)
        rewrite_container(path, lambda h, b: h.update(kind="naive_bayes"))
        with pytest.raises(ContainerError, match=r"model\.bin: header \['kind'\] is not as saved"):
            HybridModel.load(path)

    def test_a_long_unknown_header_key_is_quoted_not_echoed(self, tmp_path):
        path = tmp_path / "model.bin"
        tiny_model().save(path)
        rewrite_container(path, lambda h, b: h.update({"k" * 100_000: 1}))
        with pytest.raises(ContainerError) as info:
            HybridModel.load(path)
        assert str(info.value) == f"{path}: header ['{'k' * 55}... is not as saved"

    @pytest.mark.parametrize("header", [b"\xff\xfe", b"{not json", b"[1, 2]"],
                             ids=["not-utf8", "not-json", "not-an-object"])
    def test_unreadable_header_is_container_error(self, tmp_path, header):
        path = tmp_path / "model.bin"
        write_raw_header(path, header)
        with pytest.raises(ContainerError, match="header"):
            HybridModel.load(path)

    def test_float64_models_load_as_float32(self, tmp_path):
        model = down_scaled_model(seed=0)
        path = tmp_path / "check.bin"
        model.save(path)
        loaded = HybridModel.load(path)
        assert loaded.embedding.dtype == np.float32
        label, _ = loaded.predict("abc")
        assert label in loaded.labels
