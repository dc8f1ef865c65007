"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
The last criterion needs the real corpus (directory with train/dev/test
JSONL, pointed to by INTENTNET_CORPUS or ./corpus) and is skipped when it
is absent.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from intentnet import data
from intentnet.cli import main
from intentnet.data import LABELS, Vocab, build_vocab, encode
from intentnet.layers import lstm_cell_forward
from intentnet.model import (
    HybridModel,
    TrainConfig,
    cross_entropy,
    evaluate,
    report_from_pairs,
    train,
)
from intentnet.tensor import Rng, softmax

from helpers import (
    max_rel_error,
    noisy_splits,
    predict_nb,
    separable_corpus,
    train_nb,
    write_corpus,
    zero_lstm_params,
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nacceptance [{criterion}]: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def random_texts(count: int, seed: int, min_len=1, max_len=24) -> list[str]:
    # mixes in-vocabulary letters, digits, and characters no vocab has seen
    pool = "abcdefghijklmnopqrstuvwxyz0123456789~!?*"
    rng = Rng(seed)
    texts = []
    for _ in range(count):
        length = min_len + rng.integer(max_len - min_len + 1)
        texts.append("".join(pool[rng.integer(len(pool))] for _ in range(length)))
    return texts


def fresh_model(seed=11, num_classes=8) -> HybridModel:
    records = separable_corpus(n_classes=num_classes, per_class=4, seed=seed)
    vocab = build_vocab(records)
    labels = sorted({u.label for u in records})
    return HybridModel(vocab, labels, embed_dim=8, hidden=6, filters=5,
                       max_len=30, rng=Rng(seed))


def test_criterion_1_gradient_integrity(capsys):
    start = time.monotonic()
    rc = main(["gradcheck"])  # 20 seeds on the down-scaled model, eps 1e-5
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    worst = float(out.split("worst relative error:")[1].split()[0])
    with capsys.disabled():
        report("gradient integrity",
               rc == 0 and worst <= 1e-4 and elapsed < 60.0,
               f"worst {worst:.2e} over 20 seeds in {elapsed:.1f}s")


def test_criterion_2_closed_form_layers(capsys):
    cell = zero_lstm_params(2, 1, np.float64)
    h, c, _ = lstm_cell_forward(np.zeros((1, 2)) @ cell.w_x + cell.b, np.zeros((1, 1)),
                                np.ones((1, 1)), cell)
    c, h = float(c[0, 0]), float(h[0, 0])
    cell_ok = abs(c - 0.5) < 1e-5 and abs(h - 0.23106) < 1e-5

    probs = softmax(np.zeros(31))
    softmax_ok = bool(np.allclose(probs, 1.0 / 31.0, atol=1e-9))

    loss, _ = cross_entropy(np.zeros(31), 0)
    ce_ok = abs(loss - math.log(31)) < 1e-4

    with capsys.disabled():
        report("closed-form layers", cell_ok and softmax_ok and ce_ok,
               f"cell ({c:.5f}, {h:.5f}), "
               f"uniform softmax, ce {loss:.4f} vs {math.log(31):.4f}")


@pytest.mark.blas_threads
def test_criterion_3_padding_invariance(capsys):
    # beside a longer batchmate an utterance's row is computed over the PAD
    # the batch adds past its end; alone it is computed over none. A 1-row
    # and a 2-row product may round differently, so those two agree to a
    # tolerance, and the row beside two mates of one length agrees exactly
    model = fresh_model(seed=21)
    failures, worst = 0, 0.0
    rng = Rng(33)
    for text in random_texts(100, seed=34):
        indices = encode(text, model.vocab, model.max_len)
        alone = model.forward([indices])[0][0]
        mate_len = len(indices) + 1 + rng.integer(40)
        mates = [[1 + rng.integer(len(model.vocab) - 1) for _ in range(mate_len)]
                 for _ in range(2)]
        first, second = (model.forward([indices, mate])[0][0] for mate in mates)
        worst = max(worst, max_rel_error(first, alone))
        if (not np.allclose(first, alone, rtol=1e-4, atol=1e-5)
                or first.tobytes() != second.tobytes()):
            failures += 1
    with capsys.disabled():
        report("padding invariance", failures == 0,
               f"{failures}/100 utterances changed beside a longer batchmate, "
               f"worst relative deviation from alone {worst:.1e}")


def test_criterion_4_overfit_capability(capsys):
    records = separable_corpus(n_classes=8, per_class=8, seed=0)
    corpus = {"train": records, "dev": records}
    # batch size 10, lr 0.001, and the factor-0.1 plateau schedule are pinned;
    # the stop patience is widened so early stopping cannot cut the budget
    config = TrainConfig(batch_size=10, lr=0.001, lr_factor=0.1, seed=0,
                         max_epochs=200, stop_patience=50)
    start = time.monotonic()
    model, history = train(config, corpus)
    elapsed = time.monotonic() - start
    correct = sum(model.predict(u.text)[0] == u.label for u in records)
    accuracy = correct / len(records)
    with capsys.disabled():
        report("overfit capability",
               accuracy >= 0.99 and len(history) <= 200 and elapsed < 120.0,
               f"train accuracy {accuracy:.3f} after {len(history)} epochs "
               f"in {elapsed:.1f}s")


def test_criterion_5_baseline_ladder(capsys):
    splits = noisy_splits(n_total=500, n_classes=10, seed=0, noise_frac=0.2)
    config = TrainConfig(batch_size=10, lr=0.001, lr_factor=0.1, seed=0, max_epochs=60)
    start = time.monotonic()
    model, _ = train(config, splits)
    hybrid_f1 = evaluate(model, splits["test"]).micro_f1

    vocab = build_vocab(splits["train"])
    nb = train_nb(splits["train"], vocab)
    gold, pred = [], []
    for utt in splits["test"]:
        label, _ = predict_nb(nb, utt.text)
        gold.append(nb.label_index[utt.label])
        pred.append(nb.label_index[label])
    nb_f1 = report_from_pairs(gold, pred, nb.labels).micro_f1
    elapsed = time.monotonic() - start
    with capsys.disabled():
        report("baseline ladder", hybrid_f1 >= nb_f1 and elapsed < 300.0,
               f"hybrid {hybrid_f1:.3f} >= naive bayes {nb_f1:.3f} in {elapsed:.1f}s")


def test_criterion_6_training_determinism(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    records = separable_corpus(n_classes=4, per_class=5, seed=5)
    for split in ("train", "dev"):
        write_corpus(corpus_dir, split, records)
    artifacts = []
    for run in ("a", "b"):
        out = tmp_path / f"model_{run}.bin"
        hist = tmp_path / f"history_{run}.jsonl"
        rc = main(["train", "--corpus", str(corpus_dir), "--out", str(out),
                   "--history", str(hist), "--seed", "7", "--epochs", "4",
                   "--hidden", "5", "--filters", "4", "--embed-dim", "6"])
        assert rc == 0
        artifacts.append((out.read_bytes(), hist.read_bytes()))
    same_model = artifacts[0][0] == artifacts[1][0]
    same_history = artifacts[0][1] == artifacts[1][1]
    with capsys.disabled():
        report("training determinism", same_model and same_history,
               f"model files identical: {same_model}, history identical: {same_history}")


def test_criterion_7_serialization_round_trip(tmp_path, capsys):
    model = fresh_model(seed=51)
    path = tmp_path / "model.bin"
    model.save(path)
    loaded = HybridModel.load(path)
    mismatches = 0
    for text in random_texts(1000, seed=52):
        label_a, probs_a = model.predict(text)
        label_b, probs_b = loaded.predict(text)
        if label_a != label_b or probs_a.tobytes() != probs_b.tobytes():
            mismatches += 1
    with capsys.disabled():
        report("serialization round trip", mismatches == 0,
               f"{mismatches}/1000 predictions changed after save/load")


def _real_corpus_dir() -> Path | None:
    candidate = os.environ.get("INTENTNET_CORPUS", "corpus")
    path = Path(candidate)
    if all((path / f"{split}.jsonl").is_file() for split in data.SPLITS):
        return path
    return None


def test_criterion_8_reference_corpus(tmp_path, capsys):
    corpus_dir = _real_corpus_dir()
    if corpus_dir is None:
        pytest.skip("reference corpus not supplied (set INTENTNET_CORPUS)")
    rc = main(["stats", "--corpus", str(corpus_dir), "--expect-reference"])
    stats_ok = rc == 0

    splits = {split: data.load_corpus(corpus_dir, split) for split in data.SPLITS}
    model, _ = train(TrainConfig(seed=0), splits)
    hybrid_f1 = evaluate(model, splits["test"]).micro_f1

    nb = train_nb(splits["train"], build_vocab(splits["train"]))
    gold, pred = [], []
    for utt in splits["test"]:
        label, _ = predict_nb(nb, utt.text)
        gold.append(nb.label_index[utt.label])
        pred.append(nb.label_index[label])
    nb_f1 = report_from_pairs(gold, pred, nb.labels).micro_f1

    with capsys.disabled():
        report("reference corpus",
               stats_ok and hybrid_f1 >= 0.90 and hybrid_f1 > nb_f1,
               f"stats rc {rc}, hybrid {hybrid_f1:.3f} (target >= 0.90), "
               f"naive bayes {nb_f1:.3f}")
