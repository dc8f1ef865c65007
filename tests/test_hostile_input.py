"""Hostile-input harness: hypothesis drives ``cli.main`` in process with
hostile JSON in each document the program reads from outside: a corpus line
(``stats``), a ``--config`` file (``train``) and a model header behind a valid
checksum (``predict``).

Whatever the text, the command ends with its input's documented exit code,
and prints at most one stderr line, with no traceback, and no longer than
its prefix (the kind of error, and the file it names) by more than
``MESSAGE_CHARS``: an echoed value is cut to ``errors.QUOTE_CHARS``. A failure names the
file, with the line for a corpus; a text that ``json.loads`` refuses is
reported as malformed JSON at that place. A config that parses and passes its
checks stops at the missing corpus (exit 2) before any training."""

import contextlib
import io
import json
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intentnet import container
from intentnet.cli import main
from intentnet.errors import QUOTE_CHARS

from helpers import write_raw_header

HARNESS = settings(max_examples=200, deadline=None)
# The longest reason a failure gives past its prefix: CPython's 141-character
# integer digit-limit message, or a quoted value of errors.QUOTE_CHARS after
# the 35 characters of "max_epochs must be an integer, got ".
MESSAGE_CHARS = max(141, 35 + QUOTE_CHARS)

V1_MODEL = Path(__file__).parent / "data" / "hybrid_v1.bin"
RECORD = {"id": 2, "text": "帮我订机票", "label": "flight"}
CONFIG = {"seed": 1, "hidden": 4, "lr": 0.01, "dropout": 0.5, "max_epochs": 2}


def _nesting(n, opener, closed):
    """``n`` levels of ``opener``, closed around a 0 or left open."""
    closer = "]" if opener == "[" else "}"
    return opener * n + ("0" + closer * n if closed else "")


# raw JSON texts for one value, each valid or not
_VALUES = st.one_of(
    st.builds(_nesting, st.integers(1, 100_000), st.sampled_from(["[", '{"k": ']),
              st.booleans()),
    st.builds(lambda sign, digits: sign + "9" * digits, st.sampled_from(["", "-"]),
              st.integers(4_000, 6_000)),
    st.sampled_from(["NaN", "-NaN", "Infinity", "-Infinity", "1e999", "-0", "null", "true",
                     "[]", "{}", "\x00", "\ufeff0"]),
    # escaped and raw NUL, lone and paired surrogate escapes, a BOM, an unterminated string
    st.sampled_from(['"\\u0000"', '"a\x00b"', '"\\ud800"', '"\\udfff"', '"\\ud800\\udc00"',
                     '"\ufeff"', '"\\"']),
    st.integers(1, 100_000).map(lambda n: '"' + "x" * n + '"'),
    st.builds(json.dumps, st.text(max_size=8), ensure_ascii=st.booleans()),
)


@st.composite
def _documents(draw, base):
    """A JSON text: the object ``base`` with one hostile change, or a hostile value alone."""
    kind = draw(st.sampled_from(["alone", "replace", "duplicate", "bom", "padded"]),
                label="kind")
    if kind == "alone":
        return draw(_VALUES, label="value")
    items = [(json.dumps(key), json.dumps(value, ensure_ascii=False))
             for key, value in base.items()]
    if kind in ("replace", "duplicate"):
        i = draw(st.integers(0, len(items) - 1), label="key")
        value = draw(_VALUES, label="value")
        if kind == "replace":
            items[i] = (items[i][0], value)
        else:
            items.append((items[i][0], value))
    text = "{" + ", ".join(f"{key}: {value}" for key, value in items) + "}"
    if kind == "bom":
        return "\ufeff" + text
    if kind == "padded":  # a long line that still parses
        return " " * draw(st.integers(1, 100_000), label="spaces") + text
    return text


def _run(argv):
    """``main(argv)``'s exit code and what it printed to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


def _parses(text):
    # this call sits fewer frames deep than the program's own parse, so a
    # nesting depth refused here is refused there too
    try:
        json.loads(text)
    except (ValueError, RecursionError):
        return False
    return True


def _assert_one_line(err, prefix):
    assert "Traceback" not in err
    assert err.startswith(prefix) and err.endswith("\n") and err.count("\n") == 1
    assert len(err) - 1 <= len(prefix) + MESSAGE_CHARS


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile")


@pytest.fixture(scope="module")
def corpus_dir(scratch):
    """A corpus whose dev and test splits are empty."""
    corpus_dir = scratch / "corpus"
    corpus_dir.mkdir()
    for split in ("dev", "test"):
        (corpus_dir / f"{split}.jsonl").write_text("", encoding="utf-8")
    return corpus_dir


@HARNESS
@given(text=_documents(RECORD))
def test_a_hostile_corpus_line_is_read_or_named(corpus_dir, text):
    line = json.dumps(RECORD, ensure_ascii=False) + "\n"
    path = corpus_dir / "train.jsonl"
    path.write_text(line + text + "\n" + line, encoding="utf-8")
    rc, err = _run(["stats", "--corpus", str(corpus_dir)])
    assert rc in (0, 2)
    if rc == 0:
        assert err == ""
    else:
        where = f"data error: {path}:2: "
        _assert_one_line(err, where if _parses(text) else where + "malformed JSON (")


@HARNESS
@given(text=_documents(CONFIG))
def test_a_hostile_config_is_merged_or_named(scratch, text):
    config = scratch / "config.json"
    config.write_text(text, encoding="utf-8")
    absent = scratch / "absent"
    rc, err = _run(["train", "--corpus", str(absent), "--out", str(scratch / "m.bin"),
                    "--config", str(config)])
    assert rc in (1, 2)
    if rc == 2:  # the config parsed and passed its checks
        assert _parses(text)
        assert err == f"data error: missing corpus file: {absent / 'train.jsonl'}\n"
    else:
        _assert_one_line(err, "usage error: " if _parses(text)
                         else f"usage error: {config}: malformed JSON (")
    assert not (scratch / "m.bin").exists()


@pytest.fixture(scope="module")
def v1_header():
    return container.read_container(V1_MODEL)[1]


@HARNESS
@given(data=st.data())
def test_a_hostile_model_header_loads_or_is_named(scratch, v1_header, data):
    text = data.draw(_documents(v1_header), label="header")
    path = scratch / "model.bin"
    shutil.copyfile(V1_MODEL, path)
    write_raw_header(path, text.encode("utf-8"))
    rc, err = _run(["predict", "--model", str(path), "--text", "帮我订机票"])
    assert rc in (0, 2)
    if rc == 0:
        assert err == ""
    else:
        where = f"data error: {path}: "
        _assert_one_line(err, where if _parses(text) else where + "header: malformed JSON (")
