"""Corpus loading, vocabulary construction, encoding, and split statistics.

Corpus format is UTF-8 JSON Lines: one object per line with exactly the keys
``id`` (integer), ``text`` (non-empty string), ``label`` (one of the 31 intent
names). A corpus directory holds ``train.jsonl``, ``dev.jsonl``, ``test.jsonl``.

Tokenization is character-level: every unicode character of the text is one
token. This keeps the pipeline free of a word segmenter and robust to the
short, noisy, typo-ridden utterances the taxonomy targets.
"""

from __future__ import annotations

import io
import itertools
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .errors import CorpusError, parse_json, quoted

SPLITS = ("train", "dev", "test")

LABELS: tuple[str, ...] = (
    "app", "bus", "calc", "chat", "cinemas", "contacts", "cookbook",
    "datetime", "email", "epg", "flight", "health", "lottery", "map",
    "match", "message", "music", "news", "novel", "poetry", "radio",
    "riddle", "schedule", "stock", "telephone", "train", "translation",
    "tvchannel", "video", "weather", "website",
)
LABEL_SET = frozenset(LABELS)

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_INDEX = 0
UNK_INDEX = 1

# Padding floor: every encoded utterance is at least this long so that a
# width-3 convolution always has one full window.
MIN_ENCODED_LEN = 3

# Published per-label split counts for the reference corpus, keyed
# label -> (train, dev, test). The split totals are published as
# 2583/729/688 (4000 overall); note the test-column cells below add up to
# 667, so the reference table cannot be satisfied cell-by-cell and in total
# at once. `compare_to_reference` checks both and reports every mismatch.
REFERENCE_COUNTS: dict[str, tuple[int, int, int]] = {
    "app": (36, 18, 18), "bus": (24, 8, 8), "calc": (24, 8, 8),
    "chat": (456, 114, 50), "cinemas": (24, 10, 8), "contacts": (30, 10, 10),
    "cookbook": (269, 88, 90), "datetime": (18, 6, 6), "email": (24, 8, 8),
    "epg": (107, 36, 36), "flight": (62, 21, 21), "health": (55, 19, 18),
    "lottery": (24, 8, 8), "map": (68, 23, 24), "match": (24, 8, 8),
    "message": (63, 21, 21), "music": (66, 22, 22), "news": (58, 19, 19),
    "novel": (24, 8, 8), "poetry": (402, 34, 34), "radio": (24, 8, 8),
    "riddle": (34, 11, 11), "schedule": (29, 9, 10), "stock": (71, 24, 24),
    "telephone": (63, 21, 21), "train": (70, 23, 23),
    "translation": (61, 21, 20), "tvchannel": (71, 23, 24),
    "video": (182, 60, 61), "weather": (66, 22, 22), "website": (54, 18, 18),
}
REFERENCE_TOTALS: dict[str, int] = {"train": 2583, "dev": 729, "test": 688}


@dataclass(frozen=True)
class Utterance:
    """One corpus record, checked when it is built."""

    id: int
    text: str
    label: str

    def __post_init__(self) -> None:
        if not isinstance(self.id, int) or isinstance(self.id, bool):
            raise ValueError("id must be an integer")
        if not isinstance(self.text, str) or not self.text:
            raise ValueError("text must be a non-empty string")
        try:
            self.text.encode("utf-8")  # a lone surrogate escape decodes but cannot be saved
        except UnicodeEncodeError as exc:
            raise ValueError(f"text is not UTF-8 ({exc.reason})") from exc
        if not isinstance(self.label, str) or self.label not in LABEL_SET:
            raise ValueError(f"unknown label {quoted(self.label)}")


class Vocab:
    """token -> index map with PAD=0 and UNK=1 reserved."""

    def __init__(self, tokens: Sequence[str]):
        if list(tokens[:2]) != [PAD_TOKEN, UNK_TOKEN]:
            raise ValueError("vocab must start with the PAD and UNK tokens")
        if not all(isinstance(tok, str) for tok in tokens):
            raise ValueError("vocab tokens must be strings")
        self.tokens = list(tokens)
        self.index = dict(zip(self.tokens, range(len(self.tokens))))
        if len(self.index) != len(self.tokens):
            raise ValueError("duplicate tokens in vocab")

    def __len__(self) -> int:
        return len(self.tokens)

    def lookup(self, token: str) -> int:
        return self.index.get(token, UNK_INDEX)


def label_list(labels: Sequence[str]) -> list[str]:
    """``labels`` as a list, checked to be a list or tuple of one or more
    distinct strings."""
    if (not isinstance(labels, (list, tuple)) or not labels or len(set(labels)) != len(labels)
            or not all(isinstance(lab, str) for lab in labels)):
        raise ValueError("labels must be a list of one or more distinct strings")
    return list(labels)


def tokenize(text: str) -> list[str]:
    """Character-level tokens: every unicode character, whitespace included."""
    return list(text)


def _parse_line(raw: str, line_no: int, path) -> Utterance:
    obj = parse_json(raw, CorpusError, f"{path}:{line_no}")
    if not isinstance(obj, dict) or set(obj) != {"id", "text", "label"}:
        raise CorpusError(f"{path}:{line_no}: expected exactly the keys id, text, label")
    try:
        return Utterance(**obj)
    except ValueError as exc:
        raise CorpusError(f"{path}:{line_no}: {exc}") from exc


def load_corpus(corpus_dir, split: str) -> list[Utterance]:
    """Load one split (``train`` | ``dev`` | ``test``) from a corpus directory."""
    if split not in SPLITS:
        raise ValueError(f"unknown split {split!r}")
    path = Path(corpus_dir) / f"{split}.jsonl"
    if not path.is_file():
        raise CorpusError(f"missing corpus file: {path}")
    raw_bytes = path.read_bytes()
    try:
        text = raw_bytes.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = raw_bytes.count(b"\n", 0, exc.start) + 1
        raise CorpusError(f"{path}:{line_no}: not UTF-8 ({exc.reason})") from exc
    records = []
    for line_no, raw in enumerate(io.StringIO(text, newline=None), start=1):
        if raw.strip():
            records.append(_parse_line(raw, line_no, path))
    return records


def build_vocab(train: Sequence[Utterance], min_count: int = 1) -> Vocab:
    """Vocabulary from the training split only.

    Tokens seen at least ``min_count`` times are kept, ordered by descending
    frequency with ties broken by codepoint order, after the reserved PAD and
    UNK entries. The result is a pure function of the split's multiset of
    tokens, so reruns and record permutations produce identical vocabs.
    """
    if not train:
        raise CorpusError("cannot build a vocabulary from an empty training split")
    if min_count < 1:
        raise ValueError("min_count must be positive")
    counts = Counter(itertools.chain.from_iterable(tokenize(utt.text) for utt in train))
    kept = sorted(tok for tok, n in counts.items() if n >= min_count)
    kept.sort(key=counts.__getitem__, reverse=True)  # stable: codepoint order within a count
    return Vocab([PAD_TOKEN, UNK_TOKEN, *kept])


def encode(text: str, vocab: Vocab, max_len: int) -> list[int]:
    """Index sequence of ``text``; its length is the utterance's length.

    Out-of-vocabulary characters map to UNK; the sequence is truncated at
    ``max_len`` and right-padded with PAD up to MIN_ENCODED_LEN, so
    downstream convolution windows always exist: those floor positions are
    PAD and part of the sequence on purpose.
    """
    if max_len < MIN_ENCODED_LEN:
        raise ValueError(f"max_len must be at least {MIN_ENCODED_LEN}")
    if not text:
        raise ValueError("cannot encode empty text")
    indices = list(map(vocab.index.get, tokenize(text)[:max_len], itertools.repeat(UNK_INDEX)))
    indices.extend([PAD_INDEX] * (MIN_ENCODED_LEN - len(indices)))
    return indices


@dataclass
class CorpusStats:
    """Per-label counts for each split, plus split totals."""

    counts: dict[str, dict[str, int]] = field(default_factory=dict)  # label -> split -> n

    def total(self, split: str) -> int:
        return sum(per_split.get(split, 0) for per_split in self.counts.values())

    @property
    def grand_total(self) -> int:
        return sum(self.total(split) for split in SPLITS)


def compute_stats(splits: Mapping[str, Sequence[Utterance]]) -> CorpusStats:
    stats = CorpusStats(counts={label: {s: 0 for s in SPLITS} for label in LABELS})
    for split, records in splits.items():
        if split not in SPLITS:
            raise ValueError(f"unknown split {split!r}")
        for utt in records:
            stats.counts[utt.label][split] += 1
    return stats


def compare_to_reference(stats: CorpusStats) -> list[str]:
    """All cells that differ from the published reference table.

    Compares every label x split count and each split total; returns
    human-readable mismatch descriptions, empty when everything agrees.
    """
    mismatches = []
    for label in LABELS:
        expected = REFERENCE_COUNTS[label]
        for split, want in zip(SPLITS, expected):
            got = stats.counts.get(label, {}).get(split, 0)
            if got != want:
                mismatches.append(f"{label}/{split}: expected {want}, found {got}")
    for split in SPLITS:
        want = REFERENCE_TOTALS[split]
        got = stats.total(split)
        if got != want:
            mismatches.append(f"total/{split}: expected {want}, found {got}")
    return mismatches
