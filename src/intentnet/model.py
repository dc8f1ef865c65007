"""The full classifier: assembly, training loop, evaluation, persistence.

An utterance flows embedding -> {bidirectional recurrence, width-3
convolution + max-over-time pooling} -> concatenation -> dropout -> dense
softmax head. Both subnetworks read the same embedding table.

The network runs on batches: ``forward`` takes B encoded utterances, each
an index sequence, and pads the batch to the longest one, T, so the layers
see (B, T) indices and (B, T, E) embeddings (see ``layers``).
A training step is one batched forward and one batched backward over the
minibatch. Inference (``predict``, ``loss``, ``evaluate`` and the dev pass
of ``train``) goes through ``HybridModel._infer``, which runs all its
utterances, sorted by length, as one stack of batches of one in the
recurrence, and those of each length as one in the convolution (see
``layers``): each gets the products, and so the bits, of its own batch of
one, and all four give bit-identical logits for the same utterance.

A model's parameters live in one vector, ``HybridModel.flat``, and the
gradients of a training step in another, so that the step's batch mean and
Adam update each run once over a whole vector.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass, fields
from typing import Callable, Mapping, Sequence

import numpy as np

from . import container, layers, optim
from .data import LABELS, MIN_ENCODED_LEN, Utterance, Vocab, build_vocab, encode, label_list
from .errors import ContainerError, CorpusError, NumericError, quoted
from .tensor import Rng, softmax, uniform_init

# Named sub-streams of the training seed.
_STREAM_INIT = 1
_STREAM_DROPOUT = 2
_STREAM_SHUFFLE_BASE = 1000


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters, checked when built and frozen (for a variant,
    use ``dataclasses.replace``). The convolution width is fixed at 3."""

    batch_size: int = 10
    hidden: int = 50           # recurrent units per direction
    filters: int = 50          # convolution feature maps
    embed_dim: int = 64
    max_len: int = 30
    lr: float = 0.001
    dropout: float = 0.5
    seed: int = 0
    max_epochs: int = 100
    plateau_patience: int = 3
    stop_patience: int = 8
    lr_factor: float = 0.1
    min_lr: float = 1e-6
    min_count: int = 1
    clip_norm: float = 5.0

    def __post_init__(self) -> None:
        """Check every field. A numpy scalar is replaced by the Python number
        it holds, so the seed stream, the model header and the history only
        ever see ints and floats."""
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, np.generic):
                value = value.item()
                object.__setattr__(self, field.name, value)
            if field.type == "int":
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ValueError(f"{field.name} must be an integer, got {quoted(value)}")
            elif isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{field.name} must be a number, got {quoted(value)}")
        positive = ("batch_size", "hidden", "filters", "embed_dim", "lr", "max_epochs",
                    "plateau_patience", "stop_patience", "min_count", "clip_norm")
        # each test is written so that a NaN (JSON allows it) fails it
        for name in positive:
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not self.max_len >= MIN_ENCODED_LEN:
            raise ValueError(f"max_len must be at least {MIN_ENCODED_LEN}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be in [0, 2**64)")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if not 0.0 < self.lr_factor <= 1.0:
            raise ValueError("lr_factor must be in (0, 1]")
        if not self.min_lr >= 0:
            raise ValueError("min_lr must not be negative")
        if not self.lr >= self.min_lr:
            raise ValueError("lr must not be below min_lr")
        if not self.lr <= sys.float_info.max:  # inf, NaN, or an int no float can hold
            raise ValueError("lr must be finite")


def cross_entropy(logits: np.ndarray, gold):
    """Negative log-likelihood of ``gold`` and its gradient (probs - onehot), per
    row of ``logits`` (..., C) with ``gold`` (...) class indices. Taken from the
    logits: log-sum-exp keeps the loss finite where a probability underflows."""
    gold = np.asarray(gold)
    if np.any((gold < 0) | (gold >= logits.shape[-1])):
        raise ValueError(f"gold class {gold.tolist()} out of range")
    onehot = np.arange(logits.shape[-1]) == gold[..., None]
    loss = np.logaddexp.reduce(logits, axis=-1) - np.sum(logits, axis=-1, where=onehot)
    return loss, softmax(logits) - onehot


def _concatenated(sequences) -> tuple[np.ndarray, np.ndarray]:
    """B index sequences laid end to end, (N,), and their lengths (B,)."""
    lengths = list(map(len, sequences))
    return (np.fromiter(itertools.chain.from_iterable(sequences), dtype=np.intp,
                        count=sum(lengths)), np.array(lengths, dtype=np.intp))


class HybridModel:
    """Embedding + bidirectional recurrence + convolution + dense head.

    ``flat`` is the one vector, of the model's dtype, that holds every
    parameter. The embedding, the gate stacks ``w_x``, ``w_h``, ``w_c`` and
    ``b`` of both directions (``fwd``, then ``bwd``), the convolution and the
    dense head are reshaped views of consecutive slices of it, in that order;
    the named blocks of ``parameters()`` are views of those.
    """

    def __init__(self, vocab: Vocab, labels: Sequence[str], embed_dim: int,
                 hidden: int, filters: int, max_len: int, rng: Rng | None,
                 dropout_rate: float = 0.5, dtype=np.float32):
        """``rng`` draws the initial weights: Glorot-uniform weights and
        embedding (its PAD row zero), zero biases but the forget gates' at 1.
        With ``None`` every block is zero and nothing is drawn."""
        # building a config checks the numbers: one rule for a model's and a config's
        config = TrainConfig(embed_dim=embed_dim, hidden=hidden, filters=filters,
                             max_len=max_len, dropout=dropout_rate)
        self.vocab = vocab
        self.labels = label_list(labels)
        self.label_index = {lab: i for i, lab in enumerate(self.labels)}
        self.embed_dim = config.embed_dim
        self.hidden = config.hidden
        self.filters = config.filters
        self.max_len = config.max_len
        self.dropout_rate = config.dropout
        self.dtype = dtype

        shapes = self._shapes(len(vocab), self.num_classes, self.embed_dim, self.hidden,
                              self.filters)
        ends = [0, *itertools.accumulate(map(math.prod, shapes))]
        self.flat = np.zeros(ends[-1], dtype=dtype)
        views = [self.flat[a:b].reshape(shape) for a, b, shape in zip(ends, ends[1:], shapes)]
        self.embedding = views[0]
        w_x, w_h, w_c, b = views[1:5]  # each (2, ...): fwd's stack, then bwd's
        self.fwd, self.bwd = (layers.LSTMParams(w_x[k], w_h[k], w_c[k], b[k]) for k in (0, 1))
        self.conv = layers.ConvParams(*views[5:7])
        self.dense = layers.DenseParams(*views[7:])
        if rng is not None:
            limit = layers.glorot_limit(len(vocab), self.embed_dim)
            self.embedding[...] = uniform_init(rng, self.embedding.shape, limit, dtype)
            self.embedding[0] = 0  # PAD row stays zero
            layers.init_weights(rng, self.fwd, self.bwd, self.conv, self.dense)
            b[:, self.hidden:2 * self.hidden] = 1  # both directions' forget-gate biases

    @staticmethod
    def _shapes(vocab_size: int, num_classes: int, embed_dim: int, hidden: int,
                filters: int) -> list[tuple[int, ...]]:
        """The shapes of ``flat``'s stacks, in order; a gate stack holds both directions."""
        stacks = layers.LSTMParams.stack_shapes(embed_dim, hidden)
        return [(vocab_size, embed_dim), *((2, *shape) for shape in stacks),
                (filters, layers.CONV_WIDTH, embed_dim), (filters,),
                (2 * hidden + filters, num_classes), (num_classes,)]

    @property
    def num_classes(self) -> int:
        return len(self.labels)

    def parameters(self) -> dict[str, np.ndarray]:
        params = {"embedding": self.embedding}
        for prefix, block in (("fwd", self.fwd), ("bwd", self.bwd),
                              ("conv", self.conv), ("out", self.dense)):
            for name, arr in block.blocks().items():
                params[f"{prefix}.{name}"] = arr
        return params

    def set_parameters(self, values: Mapping[str, np.ndarray]) -> None:
        own = self.parameters()
        if list(values) != list(own):
            raise ValueError(f"blocks {quoted(list(values))} are not {list(own)}, in that order")
        for name, arr in own.items():
            if np.shape(values[name]) != arr.shape:
                raise ValueError(f"block {name} is {np.shape(values[name])}, not {arr.shape}")
            if not np.isfinite(values[name]).all():
                raise ValueError(f"block {name} holds a non-finite value")
        for name, arr in own.items():
            arr[...] = values[name]

    def forward(self, indices: Sequence[Sequence[int]], rng: Rng | None = None):
        """Class logits (B, C) of B encoded utterances, plus the caches the
        backward pass consumes.

        ``indices`` holds the B index sequences, each at least
        ``MIN_ENCODED_LEN`` long. The batch is padded with PAD to the
        longest, T, and each sample's length is its sequence's, so the
        padding never reaches the logits. Dropout draws its masks from
        ``rng``, and is off without one.
        """
        flat, lengths = _concatenated(indices)
        ids = np.zeros((len(lengths), lengths.max()), dtype=np.intp)
        ids[np.arange(ids.shape[1]) < lengths[:, None]] = flat
        X = layers.embedding_forward(ids, self.embedding)
        h_fwd, h_bwd, bi_cache = layers.bilstm_forward(X, lengths, self.fwd, self.bwd)
        fmap, conv_cache = layers.conv_forward(X, self.conv)
        pooled, argmax = layers.maxpool_over_time(fmap, lengths - (layers.CONV_WIDTH - 1))
        fused = np.concatenate([h_fwd, h_bwd, pooled], axis=-1)
        dropped, mask = layers.dropout(fused, self.dropout_rate, rng)
        logits = layers.dense_forward(dropped, self.dense)
        caches = (bi_cache, conv_cache, argmax, dropped, mask, ids)
        return logits, caches

    def _backward(self, caches, d_logits, grads: "HybridModel") -> None:
        """Add the parameter gradients into ``grads``, a model of the same sizes."""
        bi_cache, conv_cache, argmax, dropped, mask, ids = caches
        d_dropped = layers.dense_backward(dropped, self.dense, d_logits, grads.dense)
        d_fused = layers.dropout_backward(d_dropped, mask)
        d_h_fwd = d_fused[:, :self.hidden]
        d_h_bwd = d_fused[:, self.hidden:2 * self.hidden]
        d_pooled = d_fused[:, 2 * self.hidden:]
        d_fmap = layers.maxpool_backward(argmax, d_pooled, conv_cache.active.shape[1])
        dX = layers.conv_backward(conv_cache, d_fmap, grads.conv)
        dX += layers.bilstm_backward(bi_cache, d_h_fwd, d_h_bwd, grads.fwd, grads.bwd)
        layers.embedding_backward(ids, dX, grads.embedding)

    def _infer(self, sequences) -> np.ndarray:
        """Inference logits (N, C) of an iterable of encoded utterances, each
        an index sequence, rows in input order.

        The sequences run sorted by descending length, ties in input order:
        the recurrence as one stack of S batches of one over all of them
        (a ``layers.Lookup`` of the rows laid end to end), the convolution
        and pooling as one stack (S_L, 1, L) per length L, the dense head
        once, (S, 1, D). Every layer then makes, for each sequence, the very
        products a batch of one makes (a (1, K) row times a weight matrix,
        one (L - 2)-row convolution product), so a row's bits never depend
        on the other sequences or on how many there are. Logits that
        overflow, as finite weights can make them, are a ``NumericError``.
        """
        seqs = list(sequences)
        order = sorted(range(len(seqs)), key=lambda k: len(seqs[k]), reverse=True)  # stable
        flat, lengths = _concatenated([seqs[k] for k in order])
        pooled, row = [], 0
        for n, run in itertools.groupby(lengths.tolist()):  # one length's sequences at a time
            count = len(list(run))
            ids = flat[row:row + count * n].reshape(count, 1, n)
            fmap, _ = layers.conv_forward(layers.embedding_forward(ids, self.embedding), self.conv)
            pooled.append(layers.maxpool_over_time(fmap, [n - (layers.CONV_WIDTH - 1)])[0])
            row += count * n
        # the lookups above checked every index in ``flat``
        h_fwd, h_bwd, _ = layers.bilstm_forward(layers.Lookup(self.embedding, flat), lengths,
                                                self.fwd, self.bwd)
        fused = np.concatenate([h_fwd[:, None], h_bwd[:, None], np.concatenate(pooled)], axis=-1)
        logits = np.empty((len(seqs), self.num_classes), dtype=self.dtype)
        logits[order] = layers.dense_forward(fused, self.dense)[:, 0]
        if not np.isfinite(logits).all():
            raise NumericError("non-finite inference logits")
        return logits

    def loss(self, sample) -> float:
        indices, gold = sample
        return float(cross_entropy(self._infer([indices]), [gold])[0][0])

    def loss_and_gradients(self, samples, rng: Rng | None = None):
        """Per-sample losses of a batch of encoded samples, and the batch's
        summed parameter gradients as a fresh model of the same sizes:
        its ``flat`` is the gradient vector and its ``parameters()`` the
        gradient blocks. One batched forward and one batched backward."""
        indices, gold = zip(*samples)
        logits, caches = self.forward(indices, rng=rng)
        losses, d_logits = cross_entropy(logits, gold)
        grads = HybridModel(self.vocab, self.labels, self.embed_dim, self.hidden,
                            self.filters, self.max_len, rng=None,
                            dropout_rate=self.dropout_rate, dtype=self.dtype)
        self._backward(caches, d_logits, grads)
        return losses.tolist(), grads

    def predict(self, text: str):
        """Top label (lowest index on ties) and the full probability vector."""
        logits = self._infer([encode(text, self.vocab, self.max_len)])[0]
        return self.labels[int(np.argmax(logits))], softmax(logits)

    # -- persistence --------------------------------------------------------

    def _header(self) -> dict:
        return {
            "format_version": container.FORMAT_VERSION,
            "kind": "hybrid",
            "embed_dim": self.embed_dim,
            "hidden": self.hidden,
            "filters": self.filters,
            "num_classes": self.num_classes,
            "vocab_size": len(self.vocab),
            "max_len": self.max_len,
            "dropout": self.dropout_rate,
            "labels": self.labels,
            "vocab": self.vocab.tokens,
        }

    def save(self, path) -> None:
        container.write_container(path, self._header(), self.parameters())

    @classmethod
    def load(cls, path) -> "HybridModel":
        """The model saved at ``path``. A file loads only if ``save`` would
        write exactly its bytes: its header must be the one ``save`` writes
        for the model its blocks hold, and its blocks come in
        ``parameters()`` order. Anything else is a ``ContainerError``."""
        raw_header, header, blocks = container.read_container(path)
        try:
            # the blocks' shapes, not the header, size the arrays, and only
            # once those sizes need exactly the values the file's blocks hold
            vocab = Vocab(header["vocab"])
            labels = header["labels"]
            embed_dim = blocks["embedding"].shape[1]
            hidden = blocks["fwd.w_hi"].shape[0]
            filters = blocks["conv.bias"].shape[0]
            shapes = cls._shapes(len(vocab), len(labels), embed_dim, hidden, filters)
            need = sum(map(math.prod, shapes))
            have = sum(arr.size for arr in blocks.values())
            if need != have:
                raise ValueError(f"its sizes need {need} values, its blocks hold {have}")
            model = cls(
                vocab=vocab,
                labels=labels,
                embed_dim=embed_dim,
                hidden=hidden,
                filters=filters,
                max_len=header["max_len"],
                rng=None,
                dropout_rate=header["dropout"],
                dtype=np.float32,
            )
            model.set_parameters(blocks)
            expected = model._header()
            saved = container.header_bytes(expected)  # a lone surrogate escape cannot be saved
        except (LookupError, TypeError, ValueError) as exc:
            raise ContainerError(
                f"{path}: cannot build a model: {type(exc).__name__}: {exc}") from exc
        if raw_header != saved:
            # ``...`` stands for a missing key; repr tells 4 from 4.0 and from True
            keys = [key for key in sorted(header.keys() | expected.keys())
                    if repr(header.get(key, ...)) != repr(expected.get(key, ...))]
            differ = quoted(keys) if keys else "spacing or key order"
            raise ContainerError(f"{path}: header {differ} is not as saved")
        return model


# ---------------------------------------------------------------------------
# training

def encode_dataset(records: Sequence[Utterance], vocab: Vocab, max_len: int,
                   label_index: Mapping[str, int]):
    samples = []
    for utt in records:
        if utt.label not in label_index:
            raise CorpusError(f"label {utt.label!r} absent from the training label set")
        samples.append((encode(utt.text, vocab, max_len), label_index[utt.label]))
    return samples


def _canonical(records: Sequence[Utterance]) -> list[Utterance]:
    # fixed ordering so shuffling depends only on (seed, epoch), not file order
    return sorted(records, key=lambda u: (u.id, u.label, u.text))


def train(config: TrainConfig, corpus: Mapping[str, Sequence[Utterance]],
          log: Callable[[optim.EpochRecord], None] | None = None):
    """Train a fresh model; returns (best-validation model, history).

    A step's batch mean and Adam update each run once over the whole
    gradient and parameter vectors (see ``_step``), and the best epoch is
    kept as one copy of the parameter vector.
    """
    train_records = _canonical(corpus.get("train", []))
    dev_records = _canonical(corpus.get("dev", []))
    if not train_records:
        raise CorpusError("training split is empty")
    if not dev_records:
        raise CorpusError("validation split is empty")

    vocab = build_vocab(train_records, min_count=config.min_count)
    labels = sorted({utt.label for utt in train_records})
    root = Rng(config.seed)
    model = HybridModel(vocab, labels, config.embed_dim, config.hidden,
                        config.filters, config.max_len, rng=root.spawn(_STREAM_INIT),
                        dropout_rate=config.dropout)
    train_set = encode_dataset(train_records, vocab, config.max_len, model.label_index)
    dev_set = encode_dataset(dev_records, vocab, config.max_len, model.label_index)

    state = optim.AdamState({"flat": model.flat})
    dropout_rng = root.spawn(_STREAM_DROPOUT)
    history: list[optim.EpochRecord] = []
    lr = config.lr

    for epoch in range(1, config.max_epochs + 1):
        order = root.spawn(_STREAM_SHUFFLE_BASE + epoch).permutation(len(train_set))
        loss_sum = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            losses, grads = model.loss_and_gradients(
                [train_set[i] for i in batch], rng=dropout_rng)
            for sample_idx, loss in zip(batch, losses):
                if not math.isfinite(loss):
                    raise NumericError(f"non-finite loss at epoch {epoch}, "
                                       f"utterance id {train_records[sample_idx].id}")
                loss_sum += loss
            try:
                _step(model, grads, len(batch), state, lr, config.clip_norm)
            except NumericError as exc:
                name = next(name for name, g in grads.parameters().items()
                            if not np.isfinite(g).all())
                ids = [train_records[i].id for i in batch]
                raise NumericError(f"non-finite gradient in {name} at epoch {epoch}, "
                                   f"utterance ids {ids}") from exc

        val_loss, val_f1 = _validate(model, dev_set)
        record = optim.EpochRecord(epoch=epoch, train_loss=loss_sum / len(train_set),
                                   val_loss=val_loss, val_f1=val_f1, lr=lr)
        history.append(record)
        if log is not None:
            log(record)
        if not optim.should_stop(history, patience=1):  # val_f1 improved; always at epoch 1
            best = model.flat.copy()
        lr = optim.reduce_lr_on_plateau(history, factor=config.lr_factor,
                                        patience=config.plateau_patience,
                                        min_lr=config.min_lr)
        if optim.should_stop(history, patience=config.stop_patience):
            break

    model.flat[...] = best
    return model, history


def _step(model: HybridModel, grads: HybridModel, batch_size: int,
          state: optim.AdamState, lr: float, clip_norm: float) -> None:
    """The tail of a training step on the batch's summed gradients ``grads``,
    as ``loss_and_gradients`` returns them: batch mean, clipping on one norm
    of the gradient vector, then Adam, each once over the whole vectors."""
    grads.flat /= batch_size
    optim.clip_by_global_norm(grads.flat, clip_norm)
    optim.adam_step({"flat": model.flat}, {"flat": grads.flat}, state, lr)


def _validate(model: HybridModel, dev_set) -> tuple[float, float]:
    """Mean loss, summed in ``dev_set`` order, and accuracy over the dev set."""
    gold = np.array([gold for _, gold in dev_set])
    logits = model._infer(indices for indices, _ in dev_set)
    loss_sum = functools.reduce(operator.add, cross_entropy(logits, gold)[0].tolist(), 0.0)
    correct = int(np.sum(logits.argmax(axis=1) == gold))
    return loss_sum / len(dev_set), correct / len(dev_set)


# ---------------------------------------------------------------------------
# evaluation

@dataclass
class EvalReport:
    """Per-class precision/recall/F1 plus micro/macro summaries."""

    labels: list[str]
    confusion: np.ndarray           # rows: gold, columns: predicted
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    support: np.ndarray
    micro_f1: float
    macro_f1: float

    def to_dict(self) -> dict:
        per_class = {
            label: {
                "precision": float(self.precision[i]),
                "recall": float(self.recall[i]),
                "f1": float(self.f1[i]),
                "support": int(self.support[i]),
            }
            for i, label in enumerate(self.labels)
        }
        return {
            "labels": self.labels,
            "per_class": per_class,
            "micro_f1": self.micro_f1,
            "macro_f1": self.macro_f1,
            "confusion": self.confusion.tolist(),
        }


def report_from_pairs(gold: Sequence[int], predicted: Sequence[int],
                      labels: Sequence[str]) -> EvalReport:
    """Build the evaluation report from (gold, predicted) index pairs."""
    n_classes = len(labels)
    cells = np.asarray(gold, dtype=np.int64) * n_classes + np.asarray(predicted, dtype=np.int64)
    confusion = np.bincount(cells, minlength=n_classes ** 2).reshape(n_classes, n_classes)
    tp = np.diag(confusion).astype(np.float64)
    support = confusion.sum(axis=1)
    predicted_counts = confusion.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(predicted_counts > 0, tp / predicted_counts, 0.0)
        recall = np.where(support > 0, tp / support, 0.0)
        denom = precision + recall
        f1 = np.where(denom > 0, 2 * precision * recall / denom, 0.0)
    micro = float(tp.sum() / confusion.sum()) if confusion.sum() else 0.0
    return EvalReport(
        labels=list(labels),
        confusion=confusion,
        precision=precision,
        recall=recall,
        f1=f1,
        support=support,
        micro_f1=micro,
        macro_f1=float(f1.mean()) if n_classes else 0.0,
    )


def evaluate(model: HybridModel, records: Sequence[Utterance]) -> EvalReport:
    if not records:
        raise CorpusError("cannot evaluate an empty split")
    samples = encode_dataset(records, model.vocab, model.max_len, model.label_index)
    predicted = model._infer(indices for indices, _ in samples).argmax(axis=1).tolist()
    return report_from_pairs([gold for _, gold in samples], predicted, model.labels)


# ---------------------------------------------------------------------------
# down-scaled assembly for gradient checking

def down_scaled_model(seed: int) -> HybridModel:
    """Small float64 model with dropout off, for finite-difference checks: 7
    letters, 4 classes, embed_dim 4, hidden 3, filters 2, max_len 5."""
    tokens = ["<pad>", "<unk>"] + list("abcdefg")
    return HybridModel(Vocab(tokens), list(LABELS[:4]), embed_dim=4, hidden=3, filters=2,
                       max_len=5, rng=Rng(seed).spawn(_STREAM_INIT), dropout_rate=0.0,
                       dtype=np.float64)


def random_check_sample(seed: int, model: HybridModel):
    """A full-length encoded sample: ``model.max_len`` letters and a gold class."""
    rng = Rng(seed).spawn(77)
    indices = [2 + rng.integer(len(model.vocab) - 2) for _ in range(model.max_len)]
    gold = rng.integer(model.num_classes)
    return indices, gold
