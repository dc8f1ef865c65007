import math

import numpy as np
import numpy.testing as npt
import pytest

from intentnet.data import LABELS, Utterance, Vocab, build_vocab
from intentnet.errors import CorpusError
from intentnet.model import report_from_pairs

from helpers import noisy_splits, predict_nb, train_nb


def utt(text, label, id=0):
    return Utterance(id=id, text=text, label=label)


@pytest.fixture
def toy_model():
    # class A sees only "aa", class B only "bb"; vocab is PAD, UNK, a, b
    records = [utt("aa", LABELS[0]), utt("bb", LABELS[1])]
    vocab = build_vocab(records)
    return train_nb(records, vocab)


class TestTrainNB:
    def test_single_class_prior_is_one(self):
        records = [utt("ab", "chat"), utt("ba", "chat")]
        model = train_nb(records, build_vocab(records))
        npt.assert_allclose(np.exp(model.log_prior), [1.0])

    def test_laplace_smoothed_likelihoods(self, toy_model):
        a_col = toy_model.vocab.lookup("a")
        b_col = toy_model.vocab.lookup("b")
        row_a = toy_model.label_index[LABELS[0]]
        # class A saw 2 tokens over a 4-entry vocab: (2+1)/(2+4) and (0+1)/(2+4)
        assert math.exp(toy_model.log_likelihood[row_a, a_col]) == pytest.approx(0.5)
        assert math.exp(toy_model.log_likelihood[row_a, b_col]) == pytest.approx(1 / 6)

    def test_likelihood_rows_normalize(self, toy_model):
        sums = np.exp(toy_model.log_likelihood).sum(axis=1)
        npt.assert_allclose(sums, np.ones(2), atol=1e-6)

    def test_priors_normalize(self):
        records = [utt("aa", LABELS[0]), utt("ab", LABELS[0]), utt("bb", LABELS[1])]
        model = train_nb(records, build_vocab(records))
        assert math.exp(model.log_prior[model.label_index[LABELS[0]]]) == pytest.approx(2 / 3)
        npt.assert_allclose(np.exp(model.log_prior).sum(), 1.0, atol=1e-12)

    def test_empty_split_rejected(self):
        with pytest.raises(CorpusError):
            train_nb([], Vocab(["<pad>", "<unk>"]))


class TestPredictNB:
    def test_toy_posterior(self, toy_model):
        label, scores = predict_nb(toy_model, "aa")
        assert label == LABELS[0]
        assert np.all(np.isfinite(scores))

    def test_tie_resolves_to_lowest_index(self):
        # perfectly symmetric classes; a neutral input ties
        records = [utt("ab", LABELS[0]), utt("ab", LABELS[1])]
        model = train_nb(records, build_vocab(records))
        label, scores = predict_nb(model, "ab")
        assert scores[0] == pytest.approx(scores[1])
        assert label == model.labels[0]

    def test_bag_of_tokens_order_invariance(self, toy_model):
        _, fwd = predict_nb(toy_model, "aab")
        _, rev = predict_nb(toy_model, "baa")
        npt.assert_allclose(fwd, rev, atol=1e-12)

    def test_oov_tokens_skipped(self, toy_model):
        _, with_oov = predict_nb(toy_model, "aa!!??")
        _, without = predict_nb(toy_model, "aa")
        npt.assert_allclose(with_oov, without, atol=1e-12)

    def test_posteriors_finite_even_for_unseen_tokens(self, toy_model):
        _, scores = predict_nb(toy_model, "bbbbab")
        assert np.all(np.isfinite(scores))

    def test_empty_text_rejected(self, toy_model):
        with pytest.raises(ValueError):
            predict_nb(toy_model, "")


class TestSeparableAccuracy:
    def test_high_f1_on_separable_corpus(self):
        splits = noisy_splits(n_total=300, n_classes=6, seed=2, noise_frac=0.0)
        vocab = build_vocab(splits["train"])
        model = train_nb(splits["train"], vocab)
        gold, pred = [], []
        for utt_ in splits["test"]:
            label, _ = predict_nb(model, utt_.text)
            gold.append(model.label_index[utt_.label])
            pred.append(model.label_index[label])
        report = report_from_pairs(gold, pred, model.labels)
        assert report.micro_f1 >= 0.95

