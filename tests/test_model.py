import dataclasses
import hashlib
import math
import re
import struct
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from intentnet import container, synthetic
from intentnet import model as model_module
from intentnet.data import LABELS, Utterance, Vocab, encode
from intentnet.errors import ContainerError, CorpusError, NumericError
from intentnet.model import (
    HybridModel,
    TrainConfig,
    cross_entropy,
    down_scaled_model,
    encode_dataset,
    evaluate,
    report_from_pairs,
    train,
)
from intentnet.tensor import Rng, softmax

from helpers import max_rel_error, numeric_gradient, rewrite_container, write_raw_header

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
    records = synthetic.separable_corpus(n_classes=3, per_class=6, seed=seed)
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
        logits, _ = model.forward([[2, 3, 4]], [3])
        npt.assert_allclose(softmax(logits), np.full((1, 31), 1.0 / 31.0), atol=1e-7)

    def test_probs_form_a_distribution(self):
        model = tiny_model()
        for seed in range(5):
            rng = Rng(seed)
            indices = [2 + rng.integer(7) for _ in range(5)]
            logits, _ = model.forward([indices], [5])
            probs = softmax(logits[0])
            assert abs(float(probs.sum()) - 1.0) < 1e-6
            assert np.all(probs > 0)

    def test_inference_is_deterministic(self):
        model = tiny_model()
        a, _ = model.forward([[2, 3, 4, 5]], [4])
        b, _ = model.forward([[2, 3, 4, 5]], [4])
        npt.assert_array_equal(a, b)

    def test_fused_width_for_reference_sizes(self):
        model = tiny_model(hidden=50, filters=50, embed_dim=8)
        assert model.dense.weight.shape[0] == 150

    def test_padding_beyond_true_len_is_ignored_exactly(self):
        model = tiny_model()
        short = [2, 5, 3]
        padded = short + [0] * 10
        a, _ = model.forward([short], [3])
        b, _ = model.forward([padded], [3])
        npt.assert_array_equal(a, b)

    def test_sample_shorter_than_one_window_rejected(self):
        model = tiny_model()
        with pytest.raises(ValueError):
            model.forward([[2, 3]], [2])
        with pytest.raises(ValueError):
            model.forward([[2, 3, 4, 5], [2, 3]], [4, 2])


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
        assert all(isinstance(grads, dict) for grads in buffers)
        assert len({id(grads) for grads in buffers}) == len(buffers)
        # together the batches carry every training sample once
        model = calls[0][0]
        expected = encode_dataset(corpus["train"], model.vocab, model.max_len,
                                  model.label_index)
        carried = [sample for _, samples, _ in calls for sample in samples]
        assert sorted(map(repr, carried)) == sorted(map(repr, expected))


def mixed_batch(model):
    """Encoded samples of lengths 3 (floored from one character), 4, 5 (cut at
    ``max_len``) and 3, in that order."""
    texts = ["a", "bcde", "fgabcde", "gfe"]
    return [(*encode(text, model.vocab, model.max_len), k % model.num_classes)
            for k, text in enumerate(texts)]


class TestBatch:
    """The batched forward and backward against batches of one, in float64."""

    def test_gradient_equals_sum_of_batch_of_one_gradients(self):
        model = down_scaled_model(seed=6)
        samples = mixed_batch(model)
        assert [n for _, n, _ in samples] == [3, 4, model.max_len, 3]
        losses, batched = model.loss_and_gradients(samples)
        singles = [model.loss_and_gradients([sample]) for sample in samples]
        npt.assert_allclose(losses, [loss for (loss,), _ in singles], rtol=1e-12)
        for name, grad in batched.items():
            npt.assert_allclose(grad, sum(grads[name] for _, grads in singles),
                                rtol=1e-6, atol=1e-12, err_msg=name)

    def test_logits_match_batch_of_one_and_ignore_batchmates(self):
        model = down_scaled_model(seed=7)
        samples = mixed_batch(model)
        logits, _ = model.forward([s[0] for s in samples], [s[1] for s in samples])
        for row, (indices, true_len, _) in zip(logits, samples):
            npt.assert_allclose(row, model._infer([(indices, true_len)])[0], rtol=1e-12,
                                atol=1e-15)
        # the same utterance beside batchmates of other lengths
        first = samples[0]
        for mate in samples[1:]:
            pair, _ = model.forward([first[0], mate[0]], [first[1], mate[1]])
            npt.assert_allclose(pair[0], logits[0], rtol=1e-12, atol=1e-15)

    def test_backward_matches_finite_differences(self):
        # the short samples put the reversal gather and the pooling mask on
        # the path of every gradient
        model = down_scaled_model(seed=8)
        samples = mixed_batch(model)
        indices, true_len, gold = zip(*samples)

        def loss():
            logits, _ = model.forward(indices, true_len)
            return float(np.sum(cross_entropy(logits, gold)[0]))

        _, analytic = model.loss_and_gradients(samples)
        for name, arr in model.parameters().items():
            assert max_rel_error(analytic[name], numeric_gradient(loss, arr)) < GRAD_TOL, name


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


class TestTraining:
    def test_identical_seeds_identical_history_and_params(self):
        corpus = tiny_corpus()
        model_a, hist_a = train(fast_config(), corpus)
        model_b, hist_b = train(fast_config(), corpus)
        assert hist_a == hist_b
        for name, arr in model_a.parameters().items():
            npt.assert_array_equal(arr, model_b.parameters()[name])

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
        records = synthetic.separable_corpus(n_classes=8, per_class=4, seed=1)
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
                grads["out.weight"][0, 0] = np.nan
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

    def test_dev_label_missing_from_train_rejected(self):
        corpus = tiny_corpus()
        stray = Utterance(id=999, text="zzz", label=LABELS[30])
        with pytest.raises(CorpusError):
            train(fast_config(), {"train": corpus["train"], "dev": [stray]})


class TestTrainConfig:
    def test_defaults_are_valid(self):
        TrainConfig().validate()

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
    ], ids=["lr-below-min-lr", "negative-min-lr", "zero-lr-factor", "lr-factor-above-one",
            "str-int", "float-int", "bool-int", "str-float", "bool-float", "nan-lr",
            "nan-min-lr", "zero-clip-norm", "negative-clip-norm", "nan-clip-norm",
            "seed-2**64", "negative-seed"])
    def test_rejected(self, override, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**override).validate()

    def test_numpy_scalars_accepted(self):
        TrainConfig(hidden=np.int64(4), lr=np.float32(0.01)).validate()


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
        _, blocks = container.read_container(V1_MODEL)
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


class TestSerialization:
    def test_round_trip_is_bit_identical(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "model.bin"
        model.save(path)
        loaded = HybridModel.load(path)
        assert loaded.labels == model.labels
        assert loaded.vocab == model.vocab
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
        pytest.param(lambda h, b: h.pop("dropout"), id="missing-dropout"),
        pytest.param(lambda h, b: h.update(dropout="x"), id="string-dropout"),
        pytest.param(lambda h, b: h.update(dropout=2.0), id="dropout-out-of-range"),
        pytest.param(lambda h, b: b.update({"out.bias": b["out.bias"] * np.nan}), id="nan-weight"),
        pytest.param(lambda h, b: b.update({"conv.filters": b["conv.filters"] + np.inf}),
                     id="inf-weight"),
        # sizes that fail to allocate unless the blocks are checked first
        pytest.param(lambda h, b: h.update(embed_dim=2**45), id="huge-embed-dim"),
        pytest.param(lambda h, b: h.update(hidden=2**45), id="huge-hidden"),
    ])
    def test_unbuildable_file_is_container_error(self, tmp_path, edit):
        path = tmp_path / "model.bin"
        tiny_model().save(path)
        rewrite_container(path, edit)
        with pytest.raises(ContainerError, match="model.bin"):
            HybridModel.load(path)

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
        with pytest.raises(CorpusError, match="hybrid"):
            HybridModel.load(path)

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
