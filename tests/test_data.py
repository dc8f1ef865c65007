import json

import pytest

from intentnet import data
from intentnet.data import (
    LABELS,
    PAD_INDEX,
    UNK_INDEX,
    CorpusStats,
    Utterance,
    Vocab,
    build_vocab,
    compare_to_reference,
    compute_stats,
    encode,
    load_corpus,
)
from intentnet.errors import CorpusError

from helpers import decode, write_corpus


def utt(text, label="chat", id=0):
    return Utterance(id=id, text=text, label=label)


class TestLoadCorpus:
    def test_single_record(self, tmp_path):
        (tmp_path / "train.jsonl").write_text(
            '{"id": 1, "text": "Hello, nice to meet you!", "label": "chat"}\n',
            encoding="utf-8",
        )
        records = load_corpus(tmp_path, "train")
        assert records == [Utterance(id=1, text="Hello, nice to meet you!", label="chat")]

    def test_unknown_split_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown split 'val'"):
            load_corpus(tmp_path, "val")

    def test_empty_file(self, tmp_path):
        (tmp_path / "dev.jsonl").write_text("", encoding="utf-8")
        assert load_corpus(tmp_path, "dev") == []

    def test_unknown_label_named(self, tmp_path):
        (tmp_path / "test.jsonl").write_text(
            '{"id": 1, "text": "hi", "label": "foo"}\n', encoding="utf-8"
        )
        with pytest.raises(CorpusError, match="foo"):
            load_corpus(tmp_path, "test")

    def test_malformed_line_names_line_number(self, tmp_path):
        (tmp_path / "train.jsonl").write_text(
            '{"id": 1, "text": "ok", "label": "chat"}\nnot json\n', encoding="utf-8"
        )
        with pytest.raises(CorpusError, match=":2:"):
            load_corpus(tmp_path, "train")

    def test_extra_key_rejected(self, tmp_path):
        (tmp_path / "train.jsonl").write_text(
            '{"id": 1, "text": "ok", "label": "chat", "extra": 1}\n', encoding="utf-8"
        )
        with pytest.raises(CorpusError, match="exactly the keys"):
            load_corpus(tmp_path, "train")

    @pytest.mark.parametrize("id_text", ['"7"', "true"])
    def test_non_integer_id_rejected(self, tmp_path, id_text):
        path = tmp_path / "train.jsonl"
        path.write_text(f'{{"id": {id_text}, "text": "ok", "label": "chat"}}\n',
                        encoding="utf-8")
        with pytest.raises(CorpusError) as exc:
            load_corpus(tmp_path, "train")
        assert str(exc.value) == f"{path}:1: id must be an integer"

    def test_empty_text_rejected(self, tmp_path):
        (tmp_path / "train.jsonl").write_text(
            '{"id": 1, "text": "", "label": "chat"}\n', encoding="utf-8"
        )
        with pytest.raises(CorpusError, match="non-empty"):
            load_corpus(tmp_path, "train")

    def test_non_utf8_line_named(self, tmp_path):
        (tmp_path / "train.jsonl").write_bytes(b'{"id": 1, "text": "ok", "label": "chat"}\n'
                                               b'{"id": 2, "text": "\xff", "label": "chat"}\n')
        with pytest.raises(CorpusError, match=r"train\.jsonl:2: not UTF-8"):
            load_corpus(tmp_path, "train")

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusError, match="train.jsonl"):
            load_corpus(tmp_path, "train")

    def test_order_preserved_and_roundtrip(self, tmp_path):
        records = [utt("abc", "chat", 3), utt("xy", "news", 1), utt("q", "app", 2)]
        write_corpus(tmp_path, "train", records)
        assert load_corpus(tmp_path, "train") == records


class TestUtterance:
    @pytest.mark.parametrize("override, message", [
        ({"text": "ab\ud800"}, r"text is not UTF-8 \(surrogates not allowed\)"),
        ({"text": 123}, "text must be a non-empty string"),
        ({"text": ""}, "text must be a non-empty string"),
        ({"id": "x"}, "id must be an integer"),
        ({"id": True}, "id must be an integer"),
        ({"label": "bogus"}, "unknown label 'bogus'"),
    ], ids=["surrogate-text", "int-text", "empty-text", "str-id", "bool-id", "unknown-label"])
    def test_bad_field_rejected_when_built(self, override, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Utterance(**{"id": 1, "text": "ab", "label": "chat", **override})


class TestVocab:
    @pytest.mark.parametrize("tokens, message", [
        ([], "vocab must start with the PAD and UNK tokens"),
        (["<pad>"], "vocab must start with the PAD and UNK tokens"),
        (["<unk>", "<pad>", "a"], "vocab must start with the PAD and UNK tokens"),
        (["<pad>", "<unk>", 7], "vocab tokens must be strings"),
        (["<pad>", "<unk>", "a", "a"], "duplicate tokens in vocab"),
    ], ids=["empty", "pad-only", "swapped-reserved", "non-str-token", "duplicate"])
    def test_bad_tokens_rejected(self, tokens, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Vocab(tokens)


class TestBuildVocab:
    def test_two_char_corpus(self):
        vocab = build_vocab([utt("ab"), utt("ab")], min_count=1)
        assert len(vocab) == 4
        assert vocab.tokens[:2] == ["<pad>", "<unk>"]
        assert vocab.lookup("a") == 2
        assert vocab.lookup("b") == 3

    def test_min_count_filters_to_unk(self):
        vocab = build_vocab([utt("ab"), utt("ab")], min_count=3)
        assert len(vocab) == 2
        assert vocab.lookup("a") == UNK_INDEX

    def test_min_count_below_one_rejected(self):
        with pytest.raises(ValueError, match="min_count must be positive"):
            build_vocab([utt("ab")], min_count=0)

    def test_frequency_then_codepoint_order(self):
        # 'z' occurs 3x, 'a' and 'm' occur 2x each -> z first, then a before m
        vocab = build_vocab([utt("zam"), utt("zma"), utt("z")])
        assert vocab.tokens[2:] == ["z", "a", "m"]

    def test_deterministic_across_runs_and_permutations(self):
        records = [utt("abc"), utt("bcd"), utt("cde")]
        v1 = build_vocab(records)
        v2 = build_vocab(list(reversed(records)))
        assert v1.tokens == v2.tokens

    def test_empty_split_rejected(self):
        with pytest.raises(CorpusError):
            build_vocab([])


class TestEncode:
    @pytest.fixture
    def vocab(self):
        return build_vocab([utt("abcde")])

    def test_short_text_floors_length_at_three(self, vocab):
        indices = encode("ab", vocab, max_len=5)
        assert indices == [vocab.lookup("a"), vocab.lookup("b"), PAD_INDEX]

    def test_truncation(self, vocab):
        indices = encode("abcde", vocab, max_len=3)
        assert len(indices) == 3
        assert indices == [vocab.lookup(c) for c in "abc"]

    def test_all_unknown(self, vocab):
        indices = encode("xyz", vocab, max_len=4)
        assert indices == [UNK_INDEX, UNK_INDEX, UNK_INDEX]

    def test_empty_text_rejected(self, vocab):
        with pytest.raises(ValueError):
            encode("", vocab, max_len=5)

    def test_max_len_floor(self, vocab):
        with pytest.raises(ValueError, match="max_len must be at least 3"):
            encode("abc", vocab, max_len=2)

    def test_roundtrip_for_in_vocab_text(self, vocab):
        for text in ("abc", "edcba", "aaa", "de"):
            indices = encode(text, vocab, max_len=10)
            assert decode(indices, vocab) == text


class TestStats:
    def test_empty_corpus_all_zero(self):
        stats = compute_stats({"train": [], "dev": [], "test": []})
        assert stats.total("train") == 0
        assert stats.grand_total == 0

    def test_unknown_split_rejected(self):
        with pytest.raises(ValueError, match="unknown split 'val'"):
            compute_stats({"train": [], "val": []})

    def test_counts_and_totals(self):
        splits = {
            "train": [utt("a", "chat"), utt("b", "chat"), utt("c", "news")],
            "dev": [utt("d", "chat")],
            "test": [],
        }
        stats = compute_stats(splits)
        assert stats.counts["chat"]["train"] == 2
        assert stats.counts["news"]["train"] == 1
        assert stats.counts["chat"]["dev"] == 1
        assert stats.total("train") == 3
        assert stats.grand_total == 4

    def test_permutation_invariance(self):
        records = [utt(c, label) for c, label in zip("abcdef", LABELS[:6])]
        s1 = compute_stats({"train": records})
        s2 = compute_stats({"train": list(reversed(records))})
        assert s1.counts == s2.counts

    def test_reference_table_shape(self):
        assert len(LABELS) == 31
        assert set(data.REFERENCE_COUNTS) == set(LABELS)
        # train and dev columns are internally consistent with their totals
        assert sum(v[0] for v in data.REFERENCE_COUNTS.values()) == data.REFERENCE_TOTALS["train"]
        assert sum(v[1] for v in data.REFERENCE_COUNTS.values()) == data.REFERENCE_TOTALS["dev"]

    def test_compare_to_reference_flags_mismatch(self):
        stats = CorpusStats(counts={label: {"train": 0, "dev": 0, "test": 0} for label in LABELS})
        mismatches = compare_to_reference(stats)
        assert any(m.startswith("app/train") for m in mismatches)
        assert any(m.startswith("total/train") for m in mismatches)

    def test_compare_to_reference_accepts_matching_cells(self):
        counts = {
            label: dict(zip(("train", "dev", "test"), data.REFERENCE_COUNTS[label]))
            for label in LABELS
        }
        mismatches = compare_to_reference(CorpusStats(counts=counts))
        # per-cell agreement leaves only the published test-total discrepancy
        assert mismatches == ["total/test: expected 688, found 667"]
