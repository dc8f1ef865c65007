"""Multinomial Naive Bayes over character counts; the sanity floor the
neural model must stay above. It lives in memory only: no model file holds it."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Utterance, Vocab, tokenize
from .errors import CorpusError

ALPHA = 1.0  # add-one smoothing


@dataclass
class NBModel:
    labels: list[str]
    vocab: Vocab
    log_prior: np.ndarray       # (num_classes,)
    log_likelihood: np.ndarray  # (num_classes, vocab_size)

    @property
    def label_index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}


def train_nb(records: Sequence[Utterance], vocab: Vocab) -> NBModel:
    """Class-frequency priors and add-one-smoothed token likelihoods.

    Tokens outside the vocabulary are skipped, mirroring prediction.
    """
    if not records:
        raise CorpusError("training split is empty")
    labels = sorted({utt.label for utt in records})
    label_index = {lab: i for i, lab in enumerate(labels)}
    vocab_size = len(vocab)
    counts = np.zeros((len(labels), vocab_size), dtype=np.float64)
    class_counts = np.zeros(len(labels), dtype=np.float64)
    for utt in records:
        row = label_index[utt.label]
        class_counts[row] += 1
        for token in tokenize(utt.text):
            idx = vocab.index.get(token)
            if idx is not None:
                counts[row, idx] += 1
    totals = counts.sum(axis=1, keepdims=True)
    log_likelihood = np.log(counts + ALPHA) - np.log(totals + ALPHA * vocab_size)
    log_prior = np.log(class_counts) - np.log(class_counts.sum())
    return NBModel(labels=labels, vocab=vocab, log_prior=log_prior,
                   log_likelihood=log_likelihood)


def predict_nb(model: NBModel, text: str) -> tuple[str, np.ndarray]:
    """Most probable label (lowest index on ties) and the log-posteriors."""
    if not text:
        raise ValueError("cannot classify empty text")
    scores = model.log_prior.copy()
    for token in tokenize(text):
        idx = model.vocab.index.get(token)
        if idx is not None:
            scores += model.log_likelihood[:, idx]
    return model.labels[int(np.argmax(scores))], scores
