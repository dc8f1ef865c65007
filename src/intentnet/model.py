"""The full classifier: assembly, training loop, evaluation, persistence.

An utterance flows embedding -> {bidirectional recurrence, width-3
convolution + max-over-time pooling} -> concatenation -> dropout -> dense
softmax head. Both subnetworks read the same embedding table.

The network runs on batches: ``forward`` takes B encoded utterances, cuts
each at its effective length and pads the batch to the longest one, T, so
the layers see (B, T) indices and (B, T, E) embeddings (see ``layers``).
A training step is one batched forward and one batched backward over the
minibatch. Inference (``predict``, ``loss``, ``evaluate`` and the dev pass
of ``train``) goes through ``HybridModel._infer``, which runs each utterance
as a batch of one, so all of them give bit-identical logits for the same
utterance.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass, fields
from typing import Callable, Mapping, Sequence

import numpy as np

from . import container, layers, optim
from .data import LABELS, MIN_ENCODED_LEN, Utterance, Vocab, build_vocab, encode, label_list
from .errors import ContainerError, CorpusError, NumericError
from .tensor import Rng, softmax, uniform_init

# Named sub-streams of the training seed.
_STREAM_INIT = 1
_STREAM_DROPOUT = 2
_STREAM_SHUFFLE_BASE = 1000


@dataclass
class TrainConfig:
    """Training hyperparameters. The convolution width is fixed at 3."""

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

    def validate(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if field.type == "int":
                if isinstance(value, bool) or not _is_integer(value):
                    raise ValueError(f"{field.name} must be an integer, got {value!r}")
            elif isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{field.name} must be a number, got {value!r}")
        positive = ("batch_size", "hidden", "filters", "embed_dim", "max_len",
                    "lr", "max_epochs", "plateau_patience", "stop_patience",
                    "min_count", "clip_norm")
        # each test is written so that a NaN (JSON allows it) fails it
        for name in positive:
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
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


def _is_integer(value) -> bool:
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


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


class HybridModel:
    """Embedding + bidirectional recurrence + convolution + dense head."""

    def __init__(self, vocab: Vocab, labels: Sequence[str], embed_dim: int,
                 hidden: int, filters: int, max_len: int, rng: Rng | None,
                 dropout_rate: float = 0.5, dtype=np.float32):
        """``rng`` draws the initial weights: Glorot-uniform weights and
        embedding (its PAD row zero), zero biases but the forget gates' at 1.
        With ``None`` every block is zero and nothing is drawn."""
        if min(embed_dim, hidden, filters) < 1 or max_len < MIN_ENCODED_LEN:
            raise ValueError(f"sizes must be positive and max_len at least {MIN_ENCODED_LEN}")
        if (isinstance(dropout_rate, bool) or not isinstance(dropout_rate, numbers.Real)
                or not 0.0 <= dropout_rate < 1.0):
            raise ValueError(f"dropout rate must be a number in [0, 1), got {dropout_rate!r}")
        self.vocab = vocab
        self.labels = label_list(labels)
        self.label_index = {lab: i for i, lab in enumerate(self.labels)}
        self.embed_dim = embed_dim
        self.hidden = hidden
        self.filters = filters
        self.max_len = max_len
        self.dropout_rate = dropout_rate
        self.dtype = dtype

        self.embedding = np.zeros((len(vocab), embed_dim), dtype=dtype)
        self.fwd = layers.LSTMParams(embed_dim, hidden, dtype)
        self.bwd = layers.LSTMParams(embed_dim, hidden, dtype)
        self.conv = layers.ConvParams(np.zeros((filters, layers.CONV_WIDTH, embed_dim), dtype),
                                      np.zeros(filters, dtype))
        fused_dim = 2 * hidden + filters
        self.dense = layers.DenseParams(np.zeros((fused_dim, self.num_classes), dtype),
                                        np.zeros(self.num_classes, dtype))
        if rng is not None:
            limit = layers.glorot_limit(len(vocab), embed_dim)
            self.embedding[...] = uniform_init(rng, self.embedding.shape, limit, dtype)
            self.embedding[0] = 0  # PAD row stays zero
            layers.init_weights(rng, self.fwd, self.bwd, self.conv, self.dense)
            for direction in (self.fwd, self.bwd):
                direction.blocks()["b_f"][...] = 1

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
        if set(values) != set(own):
            raise ValueError(f"missing blocks {sorted(set(own) - set(values))}, "
                             f"unexpected blocks {sorted(set(values) - set(own))}")
        for name, arr in own.items():
            if np.shape(values[name]) != arr.shape:
                raise ValueError(f"block {name} is {np.shape(values[name])}, not {arr.shape}")
            if not np.isfinite(values[name]).all():
                raise ValueError(f"block {name} holds a non-finite value")
        for name, arr in own.items():
            arr[...] = values[name]

    def forward(self, indices: Sequence[Sequence[int]], true_len: Sequence[int],
                rng: Rng | None = None):
        """Class logits (B, C) of B encoded utterances, plus the caches the
        backward pass consumes.

        ``indices`` holds the B index sequences and ``true_len`` their
        effective lengths, at least ``MIN_ENCODED_LEN``. Each sequence is cut
        at its length and the batch padded with PAD to the longest, T, so what
        lies past a length never reaches the logits. Dropout draws its masks
        from ``rng``, and is off without one.
        """
        if len(indices) != len(true_len):
            raise ValueError(f"{len(indices)} sequences but {len(true_len)} lengths")
        ids = np.zeros((len(true_len), max(true_len)), dtype=np.intp)
        for row, seq, n in zip(ids, indices, true_len):
            if not MIN_ENCODED_LEN <= n <= len(seq):
                raise ValueError(f"true_len {n} not in [{MIN_ENCODED_LEN}, {len(seq)}]")
            row[:n] = seq[:n]
        X = layers.embedding_forward(ids, self.embedding)
        h_fwd, h_bwd, bi_cache = layers.bilstm_forward(X, true_len, self.fwd, self.bwd)
        fmap, conv_cache = layers.conv_forward(X, self.conv)
        n_windows = np.asarray(true_len) - (layers.CONV_WIDTH - 1)
        pooled, argmax = layers.maxpool_over_time(fmap, n_windows)
        fused = np.concatenate([h_fwd, h_bwd, pooled], axis=1)
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

    def _infer(self, samples) -> np.ndarray:
        """Inference logits (N, C) of encoded samples, each starting (indices,
        true_len), run one at a time as a batch of one: a row then never
        depends on its batchmates. ``samples`` may be a generator."""
        return np.concatenate([self.forward([s[0]], [s[1]])[0] for s in samples])

    def loss(self, sample) -> float:
        return float(cross_entropy(self._infer([sample]), [sample[2]])[0][0])

    def loss_and_gradients(self, samples, rng: Rng | None = None):
        """Per-sample losses of a batch of encoded samples, and the batch's
        summed parameter gradients. One batched forward and one batched backward."""
        indices, true_len, gold = zip(*samples)
        logits, caches = self.forward(indices, true_len, rng=rng)
        losses, d_logits = cross_entropy(logits, gold)
        grads = HybridModel(self.vocab, self.labels, self.embed_dim, self.hidden,
                            self.filters, self.max_len, rng=None,
                            dropout_rate=self.dropout_rate, dtype=self.dtype)
        self._backward(caches, d_logits, grads)
        return losses.tolist(), grads.parameters()

    def predict(self, text: str):
        """Top label (lowest index on ties) and the full probability vector."""
        logits = self._infer([encode(text, self.vocab, self.max_len)])[0]
        return self.labels[int(np.argmax(logits))], softmax(logits)

    # -- persistence --------------------------------------------------------

    def save(self, path) -> None:
        header = {
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
        container.write_container(path, header, self.parameters())

    @classmethod
    def load(cls, path) -> "HybridModel":
        header, blocks = container.read_container(path)
        if header.get("kind") != "hybrid":
            raise CorpusError(f"{path}: expected a hybrid model, found {header.get('kind')!r}")
        try:
            # sizes the blocks do not hold would allocate more than the file has
            held = (*blocks["embedding"].shape[1:], *blocks["fwd.w_hi"].shape[:1],
                    *blocks["conv.bias"].shape)
            sizes = tuple(header[key] for key in ("embed_dim", "hidden", "filters"))
            if sizes != held:
                raise ValueError(f"header sizes {sizes} differ from the blocks' {held}")
            model = cls(
                vocab=Vocab(header["vocab"]),
                labels=header["labels"],
                embed_dim=operator.index(header["embed_dim"]),
                hidden=operator.index(header["hidden"]),
                filters=operator.index(header["filters"]),
                max_len=operator.index(header["max_len"]),
                rng=None,
                dropout_rate=header["dropout"],
                dtype=np.float32,
            )
            model.set_parameters(blocks)
        except (LookupError, TypeError, ValueError) as exc:
            raise ContainerError(
                f"{path}: cannot build a model: {type(exc).__name__}: {exc}") from exc
        return model


# ---------------------------------------------------------------------------
# training

def encode_dataset(records: Sequence[Utterance], vocab: Vocab, max_len: int,
                   label_index: Mapping[str, int]):
    samples = []
    for utt in records:
        if utt.label not in label_index:
            raise CorpusError(f"label {utt.label!r} absent from the training label set")
        indices, true_len = encode(utt.text, vocab, max_len)
        samples.append((indices, true_len, label_index[utt.label]))
    return samples


def _canonical(records: Sequence[Utterance]) -> list[Utterance]:
    # fixed ordering so shuffling depends only on (seed, epoch), not file order
    return sorted(records, key=lambda u: (u.id, u.label, u.text))


def train(config: TrainConfig, corpus: Mapping[str, Sequence[Utterance]],
          log: Callable[[optim.EpochRecord], None] | None = None):
    """Train a fresh model; returns (best-validation model, history)."""
    config.validate()
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

    params = model.parameters()
    state = optim.AdamState(params)
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
            for name in grads:
                grads[name] /= len(batch)
            optim.clip_by_global_norm(grads, config.clip_norm)
            try:
                optim.adam_step(params, grads, state, lr)
            except NumericError as exc:
                ids = [train_records[i].id for i in batch]
                raise NumericError(f"{exc} at epoch {epoch}, utterance ids {ids}") from exc

        val_loss, val_f1 = _validate(model, dev_set)
        record = optim.EpochRecord(epoch=epoch, train_loss=loss_sum / len(train_set),
                                   val_loss=val_loss, val_f1=val_f1, lr=lr)
        history.append(record)
        if log is not None:
            log(record)
        if not optim.should_stop(history, patience=1):  # val_f1 improved; always at epoch 1
            best_params = {name: arr.copy() for name, arr in params.items()}
        lr = optim.reduce_lr_on_plateau(history, factor=config.lr_factor,
                                        patience=config.plateau_patience,
                                        min_lr=config.min_lr)
        if optim.should_stop(history, patience=config.stop_patience):
            break

    model.set_parameters(best_params)
    return model, history


def _validate(model: HybridModel, dev_set) -> tuple[float, float]:
    """Mean loss, summed in ``dev_set`` order, and accuracy over the dev set."""
    gold = np.array([sample[2] for sample in dev_set])
    logits = model._infer(dev_set)
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
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    for g, p in zip(gold, predicted):
        confusion[g, p] += 1
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
    unknown = {utt.label for utt in records} - set(model.labels)
    if unknown:
        raise CorpusError(f"labels absent from the model: {sorted(unknown)}")
    # each utterance is encoded just before its own forward pass
    logits = model._infer(encode(utt.text, model.vocab, model.max_len) for utt in records)
    gold = [model.label_index[utt.label] for utt in records]
    return report_from_pairs(gold, logits.argmax(axis=1).tolist(), model.labels)


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
    """A full-length encoded sample (``model.max_len`` letters) and a gold class."""
    rng = Rng(seed).spawn(77)
    indices = [2 + rng.integer(len(model.vocab) - 2) for _ in range(model.max_len)]
    gold = rng.integer(model.num_classes)
    return indices, model.max_len, gold
