"""Shared oracles for gradient, forward and checksum verification, the Naive
Bayes baseline, and test corpora.

Everything here recomputes results through an independent path (pure Python
scalar loops, central finite differences, the byte-at-a-time checksum) so
the production code never checks itself against itself. The helpers after
``fnv1a64_bytewise`` are small utilities the tests share; the baseline and
the synthetic corpora come last.
"""

import json
import math
import struct
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest

from intentnet import container
from intentnet.data import LABELS, PAD_INDEX, Utterance, Vocab, tokenize
from intentnet.errors import CorpusError
from intentnet.layers import LSTMParams
from intentnet.tensor import Rng


def numeric_gradient(loss_fn, arr, eps=1e-5):
    """Central finite differences of a scalar-valued closure w.r.t. ``arr``.

    Perturbs ``arr`` in place entry by entry and restores it; ``loss_fn``
    must recompute the full forward pass on every call.
    """
    grad = np.zeros(arr.shape, dtype=np.float64)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + eps
        plus = loss_fn()
        arr[idx] = orig - eps
        minus = loss_fn()
        arr[idx] = orig
        grad[idx] = (plus - minus) / (2.0 * eps)
    return grad


def max_rel_error(analytic, numeric):
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def scalar_lstm_cell(x, h_prev, c_prev, p):
    """Pure-Python scalar-loop reimplementation of one cell step."""
    k = len(x)
    hidden = len(h_prev)
    sig = lambda z: 1.0 / (1.0 + math.exp(-z))

    def gate(wx, wh, wc, b, c_term, act):
        out = []
        for j in range(hidden):
            z = float(b[j])
            for a in range(k):
                z += float(x[a]) * float(wx[a, j])
            for a in range(hidden):
                z += float(h_prev[a]) * float(wh[a, j])
            if wc is not None:
                for a in range(hidden):
                    z += float(c_term[a]) * float(wc[a, j])
            out.append(act(z))
        return out

    b = p.blocks()
    i = gate(b["w_xi"], b["w_hi"], b["w_ci"], b["b_i"], c_prev, sig)
    f = gate(b["w_xf"], b["w_hf"], b["w_cf"], b["b_f"], c_prev, sig)
    g = gate(b["w_xg"], b["w_hg"], None, b["b_g"], None, math.tanh)
    c = [f[j] * float(c_prev[j]) + i[j] * g[j] for j in range(hidden)]
    o = gate(b["w_xo"], b["w_ho"], b["w_co"], b["b_o"], c, sig)
    h = [o[j] * math.tanh(c[j]) for j in range(hidden)]
    return np.array(h), np.array(c)


def fnv1a64_bytewise(data):
    """FNV-1a 64 one byte at a time, as Fowler, Noll and Vo specify it."""
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & ((1 << 64) - 1)
    return h


def zero_lstm_params(input_size, hidden, dtype=np.float32):
    """One recurrence direction's parameters, every stack zero."""
    return LSTMParams(*(np.zeros(shape, dtype)
                        for shape in LSTMParams.stack_shapes(input_size, hidden)))


def decode(indices, vocab):
    """Inverse of ``data.encode`` for in-vocabulary text (padding dropped)."""
    return "".join(vocab.tokens[i] for i in indices if i != PAD_INDEX)


def rewrite_container(path, edit):
    """Apply ``edit(header, blocks)`` to a saved model; the checksum stays valid."""
    _, header, blocks = container.read_container(path)
    edit(header, blocks)
    container.write_container(path, header, blocks)


def write_raw_header(path, header_bytes):
    """Give the container at ``path`` the header ``header_bytes`` and a valid
    checksum, keeping the blocks it holds (none if there is no file)."""
    blocks = struct.pack("<I", 0)
    if path.exists():
        payload = path.read_bytes()[:-8]
        blocks = payload[8 + struct.unpack_from("<I", payload, 4)[0]:]
    payload = b"".join([container.MAGIC, struct.pack("<I", len(header_bytes)),
                        header_bytes, blocks])
    path.write_bytes(payload + struct.pack("<Q", container.fnv1a64(payload)))


# One digit past CPython's integer digit limit (CVE-2020-10735), and the reason
# ``int`` gives for refusing it; PYTHONINTMAXSTRDIGITS=0 turns the limit off
INT_DIGIT_LIMIT = sys.get_int_max_str_digits()
HUGE_INTEGER = "9" * (INT_DIGIT_LIMIT + 1)
needs_int_digit_limit = pytest.mark.skipif(not INT_DIGIT_LIMIT,
                                           reason="the integer digit limit is off")


def _int_refusal():
    try:
        int(HUGE_INTEGER)
    except ValueError as exc:
        return str(exc)
    return None


HUGE_INTEGER_REASON = _int_refusal()


def write_corpus(corpus_dir, split, records):
    """Write one split as JSON Lines, the corpus format ``load_corpus`` reads."""
    path = Path(corpus_dir) / f"{split}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for utt in records:
            fh.write(json.dumps({"id": utt.id, "text": utt.text, "label": utt.label},
                                ensure_ascii=False) + "\n")
    return path


# Multinomial Naive Bayes over character counts: the sanity floor the neural
# model must stay above. It lives in memory only; no model file holds it.

NB_ALPHA = 1.0  # add-one smoothing


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
    log_likelihood = np.log(counts + NB_ALPHA) - np.log(totals + NB_ALPHA * vocab_size)
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


# Synthetic corpora. Each class owns a disjoint set of indicative characters;
# utterances are random strings over those plus shared label-neutral noise
# characters, so the task is separable by construction while still exercising
# variable lengths and out-of-class noise.

NOISE_CHARS = "0123456789"
_ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
_CHARS_PER_CLASS = 3


def _class_chars(class_idx):
    start = class_idx * _CHARS_PER_CLASS
    if start + _CHARS_PER_CLASS > len(_ALPHABET):
        raise ValueError("too many classes for disjoint character sets")
    return _ALPHABET[start:start + _CHARS_PER_CLASS]


def _make_utterance(rng, class_idx, uid, min_len, max_len, noise_frac):
    chars = _class_chars(class_idx)
    length = min_len + rng.integer(max_len - min_len + 1)
    text = "".join(
        NOISE_CHARS[rng.integer(len(NOISE_CHARS))]
        if (rng.next_u64() >> 11) * 2.0 ** -53 < noise_frac else chars[rng.integer(len(chars))]
        for _ in range(length)
    )
    return Utterance(id=uid, text=text, label=LABELS[class_idx])


def separable_corpus(n_classes=8, per_class=8, seed=0, min_len=5, max_len=10):
    """Noise-free corpus where any single character identifies the class."""
    rng = Rng(seed).spawn(11)
    records = []
    uid = 0
    for class_idx in range(n_classes):
        for _ in range(per_class):
            records.append(_make_utterance(rng, class_idx, uid, min_len, max_len,
                                           noise_frac=0.0))
            uid += 1
    return records


def noisy_splits(n_total=500, n_classes=10, seed=0, noise_frac=0.2, min_len=8, max_len=16):
    """Train/dev/test splits (70/15/15) with label-neutral noise characters."""
    rng = Rng(seed).spawn(13)
    records = [
        _make_utterance(rng, uid % n_classes, uid, min_len, max_len, noise_frac)
        for uid in range(n_total)
    ]
    n_train = int(n_total * 0.7)
    n_dev = int(n_total * 0.15)
    return {
        "train": records[:n_train],
        "dev": records[n_train:n_train + n_dev],
        "test": records[n_train + n_dev:],
    }
