"""Tests of the benchmark's own parts: corpus generator and tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np
import pytest

from intentnet import cli, data, model, optim
from intentnet.tensor import Rng

import corpus
from reference import Reference
from tracing import LAYERS, Tracer, snapshot, unchanged


@pytest.fixture(scope="module")
def splits():
    return corpus.paper_corpus(5)


def test_same_seed_same_corpus(splits):
    assert corpus.paper_corpus(5) == splits
    assert corpus.paper_corpus(6) != splits


def test_paper_counts(splits):
    stats = data.compute_stats(splits)
    assert {s: stats.total(s) for s in data.SPLITS} == data.REFERENCE_TOTALS
    for label in data.LABELS:
        train, dev, _ = data.REFERENCE_COUNTS[label]
        assert stats.counts[label]["train"] == train
        assert stats.counts[label]["dev"] == dev
        assert stats.counts[label]["test"] == corpus.TEST_COUNTS[label]
    assert sum(corpus.TEST_EXTRA.values()) == 688 - 667
    assert all(extra > 0 for extra in corpus.TEST_EXTRA.values())


def test_lengths_vocab_and_oov(splits):
    lengths = [len(u.text) for u in splits["train"]]
    assert min(lengths) < data.MIN_ENCODED_LEN
    assert max(lengths) > model.TrainConfig().max_len
    vocab = data.build_vocab(splits["train"])
    assert 1000 <= len(vocab) <= 5000
    for split in ("dev", "test"):
        assert any(vocab.lookup(ch) == data.UNK_INDEX for u in splits[split] for ch in u.text)
    assert all("一" <= ch <= "鿿" for u in splits["train"] for ch in u.text)


def test_tracer_restores_every_attribute():
    before = snapshot()
    with Tracer():
        assert not unchanged(before)
    assert unchanged(before)
    with pytest.raises(RuntimeError):
        with Tracer(Tracer.MARKS):
            raise RuntimeError("boom")
    assert unchanged(before)


def _small_run(splits, tmp_path: Path):
    """Train a down-sized model briefly, then predict, evaluate, save and load."""
    train = splits["train"][:60]
    seen = {u.label for u in train}
    small = {"train": train}
    for split in ("dev", "test"):
        small[split] = [u for u in splits[split] if u.label in seen][:20]
    config = model.TrainConfig(seed=3, max_epochs=1, hidden=4, filters=3, embed_dim=5)
    trained, history = model.train(config, small)
    predictions = [trained.predict(u.text)[1].tobytes() for u in small["test"]]
    path = tmp_path / "m.bin"
    trained.save(path)
    loaded = model.HybridModel.load(path)
    params = {name: arr.tobytes() for name, arr in loaded.parameters().items()}
    confusion = model.evaluate(trained, small["test"]).confusion.tobytes()
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["predict", "--model", str(path), "--text", small["test"][0].text])
    return history, predictions, path.read_bytes(), params, confusion, code, out.getvalue()


def test_traced_outputs_equal_untraced(splits, tmp_path):
    plain = _small_run(splits, tmp_path)
    tracer = Tracer()
    with tracer:
        traced = _small_run(splits, tmp_path)
    assert traced == plain
    metrics = tracer.layer_metrics(LAYERS)
    for name in LAYERS:
        assert metrics[f"{name}.calls"][0] > 0, name
    assert metrics["tensor.rng_draws"][0] > 0
    assert metrics["layers.lstm.backward.gflop_per_s"][0] > 0
    assert metrics["container.fnv1a64.mb_per_s"][0] > 0


def test_self_time_and_attribution():
    vocab = data.Vocab(["<pad>", "<unk>", "a", "b"])
    net = model.HybridModel(vocab, data.LABELS[:3], 4, 3, 2, 8, rng=Rng(1))
    tracer = Tracer()
    with tracer:
        tracer.op_id = 7
        net.predict("abab")
    assert tracer.calls["layers.lstm_fwd_dir.forward"] == 4
    assert tracer.calls["layers.lstm_bwd_dir.forward"] == 4
    assert tracer.calls["layers.lstm_fwd_dir.backward"] == 0
    root = [s for s in tracer.spans if s[3] == -1]
    assert [s[0] for s in root] == ["model.predict"]
    assert all(s[4] == 7 for s in tracer.spans)
    total_self = sum(tracer.busy_ns.values())
    assert total_self == root[0][2] - root[0][1]
    assert all(ns >= 0 for ns in tracer.busy_ns.values())
    assert len(tracer.op_spans(7, "data.encode")) == 1


def test_reference_ticks_are_subtracted_only_inside_an_interval():
    ref = Reference()
    ref.tick()
    ref.tick()
    (a0, b0, _), (a1, b1, _) = ref.ticks
    assert ref.seconds_between(a0, b1) == ((b0 - a0) + (b1 - a1)) / 1e9
    assert ref.seconds_between(a0, b0) == (b0 - a0) / 1e9
    assert ref.seconds_between(b0, a1) == 0
    assert ref.factor() > 0
    # fewer ticks than LOCAL_TICKS inside the interval: widened to the nearest
    assert ref.factor(a0, b0) == ref.factor()


def test_tracer_hook_runs_after_the_span():
    seen = []
    tracer = Tracer(Tracer.MARKS, hooks={"optim.adam_step": lambda: seen.append(len(tracer.spans))})
    params = {"w": np.ones(2, dtype=np.float32)}
    with tracer:
        optim.adam_step(params, {"w": np.ones(2, dtype=np.float32)}, optim.AdamState(params), 0.1)
    assert seen == [2]  # AdamState and adam_step spans, both closed
    assert [s[0] for s in tracer.spans] == ["optim.AdamState", "optim.adam_step"]


def test_a_hooked_span_is_installed_outside_the_marks():
    seen = []
    tracer = Tracer(Tracer.MARKS, hooks={"data.encode": lambda: seen.append(1)})
    vocab = data.Vocab(["<pad>", "<unk>", "a", "b"])
    net = model.HybridModel(vocab, data.LABELS[:3], 4, 3, 2, 8, rng=Rng(1))
    with tracer:
        net.predict("abab")
    assert seen == [1]
    assert [s[0] for s in tracer.spans] == ["data.encode"]
