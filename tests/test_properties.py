"""Property tests: the checksum against its byte-loop oracle, container
fuzzing, encoding invariants, schedule replays, the batch contract, max
pooling against its first-maximum loop, the confusion matrix against its
pair-loop count."""

import json
import random
import struct

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intentnet import container
from intentnet.data import MIN_ENCODED_LEN, PAD_INDEX, Vocab, encode
from intentnet.errors import ContainerError
from intentnet.layers import maxpool_over_time
from intentnet.model import HybridModel, down_scaled_model, report_from_pairs
from intentnet.optim import EpochRecord, reduce_lr_on_plateau, should_stop
from intentnet.tensor import Rng

from helpers import fnv1a64_bytewise, write_raw_header

PROPERTY = settings(max_examples=200, deadline=None)

_CHUNK = container._CHUNK
# a word is 8 bytes; a second-level word covers a group of 8 words; the
# linear part takes sub-blocks of a chunk
_EDGE_LENGTHS = [0, 1, 7, 8, 9,
                 *(k * size + e for size in (container._GROUP, container._SUB_BLOCK, _CHUNK)
                   for k in (1, 2, 3) for e in (-1, 0, 1))]


@st.composite
def _payloads(draw):
    """Random or periodic bytes of any length up to three chunks and a byte,
    drawn often at the word, group, sub-block and chunk edges."""
    n = draw(st.one_of(st.sampled_from(_EDGE_LENGTHS), st.integers(0, 3 * _CHUNK + 1)),
             label="length")
    if draw(st.booleans(), label="periodic"):
        pattern = draw(st.binary(min_size=1, max_size=16), label="pattern")
        return (pattern * (n // len(pattern) + 1))[:n]
    return random.Random(draw(st.integers(0, 2**32 - 1), label="seed")).randbytes(n)


@PROPERTY
@given(data=_payloads())
def test_checksum_equals_the_byte_loop(data):
    assert container.fnv1a64(data) == fnv1a64_bytewise(data)


@pytest.mark.parametrize("as_buffer", [bytes, bytearray, memoryview])
def test_checksum_takes_any_bytes_like_input(as_buffer):
    data = random.Random(7).randbytes(2 * _CHUNK + 9)
    assert container.fnv1a64(as_buffer(data)) == fnv1a64_bytewise(data)


# 0x80 holds only bit 7, whose pass has byte sums that can pass 255
@pytest.mark.parametrize("fill", [0x00, 0x80, 0xFF])
def test_checksum_of_constant_runs_across_chunk_boundaries(fill):
    # each run crosses group, sub-block and chunk edges
    run = bytes([fill]) * (2 * _CHUNK + 11)
    noise = random.Random(fill).randbytes(_CHUNK)
    for data in (run, noise[:_CHUNK - 5] + run + noise[:13]):
        assert container.fnv1a64(data) == fnv1a64_bytewise(data)


@pytest.mark.parametrize("data, expected", [
    (b"", 0xCBF29CE484222325),
    (b"a", 0xAF63DC4C8601EC8C),
    (b"foobar", 0x85944171F73967E8),
])
def test_checksum_published_vectors(data, expected):
    assert container.fnv1a64(data) == expected
    assert fnv1a64_bytewise(data) == expected


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
    _assert_loads_only_as_saved(path)


def _assert_loads_only_as_saved(path):
    """``load`` raises ``ContainerError``, or ``save`` writes the file's bytes again."""
    edited = path.read_bytes()
    try:
        model = HybridModel.load(path)
    except ContainerError:
        return
    model.save(path)
    assert path.read_bytes() == edited


@pytest.fixture(scope="module")
def saved_non_ascii(tmp_path_factory):
    path = tmp_path_factory.mktemp("edits") / "model.bin"
    vocab = Vocab(["<pad>", "<unk>", "a", "订", "c"])
    HybridModel(vocab, ["chat", "app"], embed_dim=3, hidden=2, filters=2, max_len=5,
                rng=Rng(4)).save(path)
    _, header, blocks = container.read_container(path)
    return path, header, blocks


_JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-9, 9), st.text(max_size=3))


def _edit_header_or_blocks(data, header, blocks):
    """One hand edit a reader of the file could make, drawn from ``data``."""
    kind = data.draw(st.sampled_from(["int-to-float", "int-to-bool", "extra-key", "drop-key",
                                      "permute-blocks"]), label="edit")
    if kind in ("int-to-float", "int-to-bool"):
        ints = sorted(key for key, value in header.items() if type(value) is int)
        key = data.draw(st.sampled_from(ints), label="key")
        header[key] = (float if kind == "int-to-float" else bool)(header[key])
    elif kind == "extra-key":
        key = data.draw(st.text(min_size=1, max_size=4).filter(lambda k: k not in header),
                        label="key")
        header[key] = data.draw(_JSON_VALUES, label="value")
    elif kind == "drop-key":
        del header[data.draw(st.sampled_from(sorted(header)), label="key")]
    else:
        order = data.draw(st.permutations(list(blocks)), label="order")
        blocks.update({name: blocks.pop(name) for name in order})


@PROPERTY
@given(data=st.data())
def test_an_edited_file_loads_only_if_save_writes_its_bytes(saved_non_ascii, data):
    path, header, blocks = saved_non_ascii
    header, blocks = json.loads(json.dumps(header)), dict(blocks)
    for _ in range(data.draw(st.integers(0, 2), label="edits")):
        _edit_header_or_blocks(data, header, blocks)
    container.write_container(path, header, blocks)
    # the same header in the encoding save writes, or in another
    encoding = data.draw(st.one_of(st.just({"ensure_ascii": False, "sort_keys": True}),
                                   st.fixed_dictionaries({
                                       "ensure_ascii": st.booleans(),
                                       "sort_keys": st.booleans(),
                                       "indent": st.sampled_from([None, 0, 1]),
                                       "separators": st.sampled_from([None, (",", ":")])})),
                         label="encoding")
    write_raw_header(path, json.dumps(header, **encoding).encode("utf-8"))
    _assert_loads_only_as_saved(path)


_VOCAB = Vocab(["<pad>", "<unk>", "a", "b", "c"])


@given(text=st.text(min_size=1, max_size=50), max_len=st.integers(MIN_ENCODED_LEN, 40))
def test_encode_pads_after_the_text_to_the_floor(text, max_len):
    indices = encode(text, _VOCAB, max_len)
    kept = min(len(text), max_len)
    assert len(indices) == min(max(len(text), MIN_ENCODED_LEN), max_len)
    assert PAD_INDEX not in indices[:kept]
    assert indices[kept:] == [PAD_INDEX] * (len(indices) - kept)


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


_CHECK_MODEL = down_scaled_model(seed=3)


@st.composite
def _samples(draw):
    """An encoded sample: a sequence of 3 to 5 indices and a gold class."""
    index = st.integers(0, len(_CHECK_MODEL.vocab) - 1)
    indices = draw(st.lists(index, min_size=MIN_ENCODED_LEN, max_size=_CHECK_MODEL.max_len))
    return indices, draw(st.integers(0, _CHECK_MODEL.num_classes - 1))


@settings(max_examples=50, deadline=None)
@given(samples=st.lists(_samples(), min_size=1, max_size=4))
def test_a_batch_is_the_sum_of_its_batches_of_one(samples):
    losses, batched = _CHECK_MODEL.loss_and_gradients(samples)
    singles = [_CHECK_MODEL.loss_and_gradients([sample]) for sample in samples]
    npt.assert_allclose(losses, [loss for (loss,), _ in singles], rtol=1e-12)
    for name, grad in batched.parameters().items():
        npt.assert_allclose(grad, sum(grads.parameters()[name] for _, grads in singles),
                            rtol=1e-6, atol=1e-12, err_msg=name)


@st.composite
def _feature_maps(draw):
    """A ReLU feature map (..., B, n, F) and one length per sample: few
    distinct values, so that maxima tie, all-zero columns, and rows past a
    sample's length that hold larger values than any of its own."""
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2), label="lead"))
    B, n, F = (draw(st.integers(1, k), label=axis) for k, axis in ((4, "B"), (6, "n"), (4, "F")))
    dtype = draw(st.sampled_from([np.float32, np.float64]), label="dtype")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    fmap = rng.choice([0.0, 0.0, 0.25, 0.5, 1.5, 3.0], size=(*lead, B, n, F))
    fmap[..., rng.random(F) < 0.3] = 0.0
    lengths = rng.integers(1, n + 1, B)
    for b, length in enumerate(lengths):
        fmap[..., b, length:, :] += 10.0
    return fmap.astype(dtype), lengths


@PROPERTY
@given(case=_feature_maps())
def test_pooled_values_are_the_map_at_its_first_maximum(case):
    fmap, lengths = case
    pooled, argmax = maxpool_over_time(fmap, lengths)
    at_argmax = np.take_along_axis(fmap, argmax[..., None, :], axis=-2)[..., 0, :]
    assert pooled.dtype == fmap.dtype
    assert pooled.tobytes() == at_argmax.tobytes()
    for index in np.ndindex(*fmap.shape[:-3]):
        for b, length in enumerate(lengths):
            for f in range(fmap.shape[-1]):
                own = fmap[(*index, b, slice(None, length), f)].tolist()
                assert argmax[(*index, b, f)] == own.index(max(own))


@st.composite
def _pairs(draw):
    """A class count and (gold, predicted) index pairs below it."""
    n_classes = draw(st.integers(1, 6))
    index = st.integers(0, n_classes - 1)
    return n_classes, draw(st.lists(st.tuples(index, index), max_size=40))


@PROPERTY
@given(case=_pairs())
def test_confusion_counts_each_pair_once(case):
    n_classes, pairs = case
    expected = [[0] * n_classes for _ in range(n_classes)]
    for g, p in pairs:
        expected[g][p] += 1
    gold, predicted = [g for g, _ in pairs], [p for _, p in pairs]
    confusion = report_from_pairs(gold, predicted, list("abcdef"[:n_classes])).confusion
    assert confusion.dtype == np.int64
    assert confusion.tolist() == expected
