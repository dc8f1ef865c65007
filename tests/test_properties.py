"""Property tests: container fuzzing, encoding invariants, schedule replays."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intentnet import container
from intentnet.data import MIN_ENCODED_LEN, PAD_INDEX, Vocab, encode
from intentnet.errors import ContainerError, CorpusError
from intentnet.model import HybridModel
from intentnet.optim import EpochRecord, reduce_lr_on_plateau, should_stop
from intentnet.tensor import Rng

PROPERTY = settings(max_examples=200, deadline=None)


# parametrized so the test id names the model kind it fuzzes
@pytest.fixture(scope="module", params=["hybrid"])
def saved(request, tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "model.bin"
    vocab = Vocab(["<pad>", "<unk>", "a", "b", "c"])
    HybridModel(vocab, ["chat", "app", "bus"], embed_dim=3, hidden=2, filters=2,
                max_len=5, rng=Rng(3)).save(path)
    return path, path.read_bytes()


@PROPERTY
@given(data=st.data())
def test_one_changed_byte_loads_or_raises_a_file_error(saved, data):
    path, raw = saved
    payload = bytearray(raw[:-8])
    pos = data.draw(st.integers(0, len(payload) - 1), label="position")
    payload[pos] = data.draw(st.integers(0, 255).filter(lambda b: b != payload[pos]),
                             label="byte")
    path.write_bytes(bytes(payload) + struct.pack("<Q", container.fnv1a64(bytes(payload))))
    try:
        HybridModel.load(path)
    except (ContainerError, CorpusError):
        pass


_VOCAB = Vocab(["<pad>", "<unk>", "a", "b", "c"])


@given(text=st.text(min_size=1, max_size=50), max_len=st.integers(MIN_ENCODED_LEN, 40))
def test_encode_pads_after_the_text_to_the_floor(text, max_len):
    indices, true_len = encode(text, _VOCAB, max_len)
    kept = min(len(text), max_len)
    assert len(indices) == true_len
    assert true_len == min(max(len(text), MIN_ENCODED_LEN), max_len)
    assert PAD_INDEX not in indices[:kept]
    assert indices[kept:] == [PAD_INDEX] * (true_len - kept)


_metric = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def _histories(draw):
    rows = draw(st.lists(st.tuples(_metric, _metric, _metric), min_size=1, max_size=30))
    lr = draw(st.floats(1e-6, 1.0))
    # only the first record's rate seeds the replay; later ones are noise
    return [EpochRecord(epoch=i + 1, train_loss=1.0, val_loss=loss, val_f1=f1,
                        lr=lr if i == 0 else noise)
            for i, (loss, f1, noise) in enumerate(rows)]


@given(history=_histories(), patience=st.integers(1, 5), min_lr=st.floats(1e-9, 1e-6))
def test_plateau_rate_never_rises_nor_drops_below_min_lr(history, patience, min_lr):
    rates = [reduce_lr_on_plateau(history[:k], patience=patience, min_lr=min_lr)
             for k in range(1, len(history) + 1)]
    assert rates[0] == history[0].lr
    assert all(b <= a for a, b in zip(rates, rates[1:]))
    assert all(rate >= min_lr for rate in rates)
    replayed = [EpochRecord(r.epoch, 0.0, r.val_loss, 0.0, history[0].lr) for r in history]
    assert reduce_lr_on_plateau(replayed, patience=patience, min_lr=min_lr) == rates[-1]


@given(history=_histories(), patience=st.integers(1, 10))
def test_stopping_is_a_replay_of_the_f1_history(history, patience):
    stop = should_stop(history, patience=patience)
    if len(history) <= patience:
        assert not stop
    replayed = [EpochRecord(r.epoch, 0.0, 0.0, r.val_f1, 0.0) for r in history]
    assert should_stop(replayed, patience=patience) == stop
    improved = history + [EpochRecord(len(history) + 1, 0.0, 0.0, 2.0, 0.0)]
    assert not should_stop(improved, patience=patience)
