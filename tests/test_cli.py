import json
import struct
import time

import numpy as np
import pytest

from intentnet import container, data
from intentnet.cli import main
from intentnet.model import HybridModel, evaluate
from intentnet.tensor import Rng

from helpers import (HUGE_INTEGER, HUGE_INTEGER_REASON, needs_int_digit_limit,
                     noisy_splits, rewrite_container, separable_corpus, write_corpus,
                     write_raw_header)

FAST_TRAIN = ["--epochs", "3", "--hidden", "6", "--filters", "4",
              "--embed-dim", "6", "--max-len", "12", "--seed", "9"]


def write_splits(corpus_dir, splits):
    for split, records in splits.items():
        write_corpus(corpus_dir, split, records)


@pytest.fixture(scope="module")
def toy_corpus_dir(tmp_path_factory):
    corpus_dir = tmp_path_factory.mktemp("corpus")
    records = separable_corpus(n_classes=3, per_class=6, seed=0)
    write_splits(corpus_dir, {"train": records, "dev": records, "test": records})
    return corpus_dir


@pytest.fixture(scope="module")
def trained_model_path(tmp_path_factory, toy_corpus_dir):
    out = tmp_path_factory.mktemp("models") / "toy.bin"
    rc = main(["train", "--corpus", str(toy_corpus_dir), "--out", str(out),
               "--epochs", "60", "--hidden", "6", "--filters", "4",
               "--embed-dim", "6", "--max-len", "12", "--seed", "9",
               "--dropout", "0.2", "--lr", "0.01", "--stop-patience", "30"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def overflowing_model_path(tmp_path_factory):
    """A loadable model, every weight finite, whose logits overflow to inf."""
    model = HybridModel(data.Vocab(["<pad>", "<unk>", "a", "b"]), data.LABELS[:3], 4, 3, 2, 8,
                        rng=Rng(1))
    for arr in (model.embedding, model.conv.filters, model.dense.weight):
        arr[...] = 3e38
    path = tmp_path_factory.mktemp("models") / "overflowing.bin"
    model.save(path)
    return path


class TestTrainCommand:
    def test_same_seed_produces_byte_identical_artifacts(self, toy_corpus_dir, tmp_path):
        paths = []
        for run in ("a", "b"):
            out = tmp_path / f"model_{run}.bin"
            hist = tmp_path / f"history_{run}.jsonl"
            rc = main(["train", "--corpus", str(toy_corpus_dir), "--out", str(out),
                       "--history", str(hist), *FAST_TRAIN])
            assert rc == 0
            paths.append((out, hist))
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()

    def test_history_is_json_per_line(self, toy_corpus_dir, tmp_path):
        out = tmp_path / "m.bin"
        hist = tmp_path / "h.jsonl"
        rc = main(["train", "--corpus", str(toy_corpus_dir), "--out", str(out),
                   "--history", str(hist), *FAST_TRAIN])
        assert rc == 0
        lines = hist.read_text().splitlines()
        assert len(lines) == 3
        for epoch, line in enumerate(lines, start=1):
            record = json.loads(line)
            assert record["epoch"] == epoch
            assert set(record) == {"epoch", "train_loss", "val_loss", "val_f1", "lr"}

    def test_max_len_only_truncates(self, toy_corpus_dir, tmp_path):
        # padding every utterance to 2**61 slots would fail to allocate
        out = tmp_path / "m.bin"
        rc = main(["train", "--corpus", str(toy_corpus_dir), "--out", str(out),
                   *FAST_TRAIN, "--max-len", str(2**61)])
        assert rc == 0
        assert HybridModel.load(out).max_len == 2**61
        assert main(["predict", "--model", str(out), "--text", "abc"]) == 0

    def test_default_history_path(self, toy_corpus_dir, tmp_path):
        out = tmp_path / "m.bin"
        rc = main(["train", "--corpus", str(toy_corpus_dir), "--out", str(out), *FAST_TRAIN])
        assert rc == 0
        assert (tmp_path / "m.bin.history.jsonl").is_file()

    def test_missing_dev_split_names_file(self, tmp_path, capsys):
        corpus_dir = tmp_path / "incomplete"
        write_splits(corpus_dir, {"train": separable_corpus(3, 2, seed=1)})
        rc = main(["train", "--corpus", str(corpus_dir), "--out", str(tmp_path / "m.bin"),
                   *FAST_TRAIN])
        assert rc == 2
        assert "dev.jsonl" in capsys.readouterr().err

    def test_config_file_merges_under_flags(self, toy_corpus_dir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max_epochs": 2, "hidden": 5, "seed": 9,
                                      "filters": 4, "embed_dim": 6, "max_len": 12}))
        out = tmp_path / "m.bin"
        hist = tmp_path / "h.jsonl"
        # --epochs must beat the config file; hidden comes from the file
        rc = main(["train", "--corpus", str(toy_corpus_dir), "--out", str(out),
                   "--history", str(hist), "--config", str(config), "--epochs", "1"])
        assert rc == 0
        assert len(hist.read_text().splitlines()) == 1
        assert HybridModel.load(out).hidden == 5

    def test_unknown_config_key_is_usage_error(self, toy_corpus_dir, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"not_a_key": 1}))
        rc = main(["train", "--corpus", str(toy_corpus_dir), "--out", str(tmp_path / "m.bin"),
                   "--config", str(config)])
        assert rc == 1
        assert "not_a_key" in capsys.readouterr().err

    def test_mistyped_config_value_is_usage_error(self, toy_corpus_dir, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"hidden": "big"}))
        rc = main(["train", "--corpus", str(toy_corpus_dir), "--out", str(tmp_path / "m.bin"),
                   "--config", str(config)])
        assert rc == 1
        assert capsys.readouterr().err == "usage error: hidden must be an integer, got 'big'\n"

    @pytest.mark.parametrize("body", ["null", "123", '[["lr", 0.1]]', "[1]"])
    def test_config_that_is_not_an_object_is_usage_error(self, toy_corpus_dir, tmp_path,
                                                          capsys, body):
        config = tmp_path / "config.json"
        config.write_text(body)
        rc = main(["train", "--corpus", str(toy_corpus_dir), "--out", str(tmp_path / "m.bin"),
                   "--config", str(config)])
        assert rc == 1
        assert capsys.readouterr().err == f"usage error: {config}: config must be a JSON object\n"

    @pytest.mark.parametrize("body, reason", [
        pytest.param(b"{lr: 1}", "malformed JSON (Expecting property name enclosed in double "
                                 "quotes: line 1 column 2 (char 1))", id="invalid-json"),
        pytest.param(b'{"lr": 0.1\xff}', "not UTF-8 (invalid start byte)", id="not-utf8"),
        pytest.param(b"[" * 100_000, "malformed JSON (nesting too deep)", id="deep-nesting"),
        pytest.param(b'{"seed": %s}' % HUGE_INTEGER.encode(),
                     f"malformed JSON ({HUGE_INTEGER_REASON})", id="huge-integer",
                     marks=needs_int_digit_limit),
    ])
    def test_unreadable_config_names_its_file(self, toy_corpus_dir, tmp_path, capsys,
                                              body, reason):
        config = tmp_path / "config.json"
        config.write_bytes(body)
        rc = main(["train", "--corpus", str(toy_corpus_dir), "--out", str(tmp_path / "m.bin"),
                   "--config", str(config)])
        assert rc == 1
        assert capsys.readouterr().err == f"usage error: {config}: {reason}\n"

    @pytest.mark.parametrize("seed", [str(2 ** 64), "-1"])
    def test_seed_outside_64_bits_is_usage_error(self, toy_corpus_dir, tmp_path, capsys,
                                                 seed):
        out = tmp_path / "m.bin"
        rc = main(["train", "--corpus", str(toy_corpus_dir), "--out", str(out),
                   "--seed", seed])
        assert rc == 1
        assert capsys.readouterr().err == "usage error: seed must be in [0, 2**64)\n"
        assert not out.exists()

    @pytest.mark.parametrize("rate", ["1.0", "nan"])
    def test_dropout_outside_unit_interval_is_usage_error(self, toy_corpus_dir, tmp_path,
                                                         capsys, rate):
        out = tmp_path / "m.bin"
        rc = main(["train", "--corpus", str(toy_corpus_dir), "--out", str(out),
                   "--dropout", rate])
        assert rc == 1
        assert capsys.readouterr().err == "usage error: dropout must be in [0, 1)\n"
        assert not out.exists()

    @pytest.mark.parametrize("rate", ["inf", "1e309"])
    def test_infinite_learning_rate_is_usage_error(self, toy_corpus_dir, tmp_path, capsys,
                                                   rate):
        out = tmp_path / "m.bin"
        rc = main(["train", "--corpus", str(toy_corpus_dir), "--out", str(out), "--lr", rate])
        assert rc == 1
        assert capsys.readouterr().err == "usage error: lr must be finite\n"
        assert not out.exists()

    @pytest.mark.parametrize("out", ["m.bin", "no_dir/m.bin"])
    def test_bad_config_is_usage_error_before_the_corpus_is_read(self, tmp_path, capsys, out):
        # neither the corpus nor the output directory exists; the config is
        # checked first
        rc = main(["train", "--corpus", str(tmp_path / "absent"), "--out", str(tmp_path / out),
                   "--max-len", "2"])
        assert rc == 1
        assert capsys.readouterr().err == "usage error: max_len must be at least 3\n"

    def test_largest_seed_trains(self, toy_corpus_dir, tmp_path):
        out = tmp_path / "m.bin"
        rc = main(["train", "--corpus", str(toy_corpus_dir), "--out", str(out),
                   *FAST_TRAIN, "--epochs", "1", "--seed", str(2 ** 64 - 1)])
        assert rc == 0
        assert out.is_file()

    def test_missing_config_file_is_data_error(self, toy_corpus_dir, tmp_path, capsys):
        config = tmp_path / "absent.json"
        rc = main(["train", "--corpus", str(toy_corpus_dir), "--out", str(tmp_path / "m.bin"),
                   "--config", str(config)])
        assert rc == 2
        assert capsys.readouterr().err == f"data error: missing config file: {config}\n"

    def test_numeric_failure_is_one_line(self, tmp_path, capsys):
        corpus_dir = tmp_path / "c"
        write_splits(corpus_dir, noisy_splits(n_total=60, n_classes=3, seed=0))
        rc = main(["train", "--corpus", str(corpus_dir), "--out", str(tmp_path / "m.bin"),
                   "--lr", "1e30", "--hidden", "4", "--filters", "3", "--embed-dim", "5"])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("numeric failure: non-finite") and err.count("\n") == 1

    def test_size_too_large_to_allocate_is_usage_error(self, toy_corpus_dir, tmp_path,
                                                       capsys):
        # 2**46 columns exceed the user address space, so the allocation is
        # refused before any memory is touched
        rc = main(["train", "--corpus", str(toy_corpus_dir), "--out", str(tmp_path / "m.bin"),
                   "--embed-dim", str(2**46)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "Traceback" not in err
        assert err.startswith("usage error: ") and err.count("\n") == 1

    def test_non_utf8_corpus_is_data_error(self, tmp_path, capsys):
        (tmp_path / "train.jsonl").write_bytes(b'{"id": 1, "text": "\xff", "label": "chat"}\n')
        rc = main(["train", "--corpus", str(tmp_path), "--out", str(tmp_path / "m.bin")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"data error: {tmp_path / 'train.jsonl'}:1: not UTF-8 (invalid start byte)\n")

    def test_lone_surrogate_text_is_data_error_before_training(self, trained_model_path,
                                                               tmp_path, capsys):
        # line 3 is valid JSON in a valid UTF-8 file, but its text decodes to
        # a lone surrogate, which no model file can hold as a vocabulary token
        corpus_dir = tmp_path / "c"
        corpus_dir.mkdir()
        lines = "".join(json.dumps({"id": k, "text": text, "label": "music"}) + "\n"
                        for k, text in enumerate(["ab", "ba", "ab\ud800c", "bb"], start=1))
        for split in data.SPLITS:
            (corpus_dir / f"{split}.jsonl").write_text(lines, encoding="utf-8")
        out = tmp_path / "m.bin"
        for command in (["train", "--out", str(out), *FAST_TRAIN], ["stats"],
                        ["eval", "--model", str(trained_model_path), "--split", "train"]):
            rc = main([command[0], "--corpus", str(corpus_dir), *command[1:]])
            captured = capsys.readouterr()
            assert rc == 2
            assert captured.err == (f"data error: {corpus_dir / 'train.jsonl'}:3: text is not "
                                    "UTF-8 (surrogates not allowed)\n")
            assert captured.out == ""  # train fails before its first epoch line
        assert list(tmp_path.iterdir()) == [corpus_dir]  # no model, no history

    @pytest.mark.parametrize("clip_norm", [0, -1.0])
    def test_non_positive_clip_norm_is_usage_error(self, toy_corpus_dir, tmp_path, capsys,
                                                   clip_norm):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"clip_norm": clip_norm}))
        rc = main(["train", "--corpus", str(toy_corpus_dir), "--out", str(tmp_path / "m.bin"),
                   "--config", str(config)])
        assert rc == 1
        assert capsys.readouterr().err == "usage error: clip_norm must be positive\n"

    def test_prints_one_line_per_epoch(self, toy_corpus_dir, tmp_path, capsys):
        rc = main(["train", "--corpus", str(toy_corpus_dir),
                   "--out", str(tmp_path / "m.bin"), *FAST_TRAIN])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("train_loss") == 3

    def test_single_epoch_smoke_is_fast(self, toy_corpus_dir, tmp_path):
        start = time.monotonic()
        rc = main(["train", "--corpus", str(toy_corpus_dir),
                   "--out", str(tmp_path / "m.bin"), "--epochs", "1", "--seed", "1"])
        elapsed = time.monotonic() - start
        assert rc == 0
        assert elapsed < 10.0


class TestEvalCommand:
    def test_overfit_model_scores_high_on_train_split(self, toy_corpus_dir,
                                                      trained_model_path, capsys):
        rc = main(["eval", "--corpus", str(toy_corpus_dir), "--model",
                   str(trained_model_path), "--split", "train"])
        assert rc == 0
        out = capsys.readouterr().out
        micro = float(out.split("micro-F1")[1].split()[0])
        assert micro >= 0.99

    def test_json_report_round_trips(self, toy_corpus_dir, trained_model_path,
                                     tmp_path, capsys):
        json_path = tmp_path / "report.json"
        rc = main(["eval", "--corpus", str(toy_corpus_dir), "--model",
                   str(trained_model_path), "--split", "test", "--json", str(json_path)])
        assert rc == 0
        report = json.loads(json_path.read_text())
        assert set(report) == {"labels", "per_class", "micro_f1", "macro_f1", "confusion"}
        assert len(report["labels"]) == 3
        total = sum(sum(row) for row in report["confusion"])
        assert total == 18

    def test_json_to_stdout_is_the_report(self, toy_corpus_dir, trained_model_path, capsys):
        rc = main(["eval", "--corpus", str(toy_corpus_dir), "--model",
                   str(trained_model_path), "--split", "test", "--json", "-"])
        assert rc == 0
        printed = json.loads(capsys.readouterr().out.splitlines()[-1])
        report = evaluate(HybridModel.load(trained_model_path),
                          data.load_corpus(toy_corpus_dir, "test"))
        assert printed == report.to_dict()

    def test_json_in_a_missing_directory_is_data_error_before_any_output(
            self, toy_corpus_dir, trained_model_path, tmp_path, capsys):
        json_path = tmp_path / "no_dir" / "report.json"
        rc = main(["eval", "--corpus", str(toy_corpus_dir), "--model",
                   str(trained_model_path), "--json", str(json_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""  # no report line
        assert captured.err == f"data error: output directory does not exist: {json_path.parent}\n"

    def test_json_that_is_a_directory_is_data_error_before_any_output(
            self, toy_corpus_dir, trained_model_path, tmp_path, capsys):
        rc = main(["eval", "--corpus", str(toy_corpus_dir), "--model",
                   str(trained_model_path), "--json", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == f"data error: output path is a directory: {tmp_path}\n"

    def test_label_mismatch_is_data_error(self, trained_model_path, tmp_path, capsys):
        corpus_dir = tmp_path / "other"
        stray = [data.Utterance(id=1, text="zzz", label="weather")]
        write_splits(corpus_dir, {"test": stray})
        rc = main(["eval", "--corpus", str(corpus_dir), "--model", str(trained_model_path)])
        assert rc == 2
        assert "weather" in capsys.readouterr().err


    def test_overflowing_logits_are_numeric_failure(self, overflowing_model_path, tmp_path,
                                                    capsys):
        corpus_dir = tmp_path / "c"
        write_splits(corpus_dir, {"test": [data.Utterance(id=k, text=text, label=label)
                                           for k, (text, label) in
                                           enumerate(zip(["abab", "ba", "bbb"],
                                                         data.LABELS[:3]))]})
        rc = main(["eval", "--corpus", str(corpus_dir), "--model", str(overflowing_model_path)])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err == "numeric failure: non-finite inference logits\n"


class TestPredictCommand:
    def test_label_matches_library_prediction(self, trained_model_path, capsys):
        model = HybridModel.load(trained_model_path)
        expected_label, _ = model.predict("abab")
        rc = main(["predict", "--model", str(trained_model_path), "--text", "abab"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == f"label: {expected_label}"

    def test_top_probabilities_sorted_descending(self, trained_model_path, capsys):
        rc = main(["predict", "--model", str(trained_model_path), "--text", "abc"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        probs = [float(line.split()[-1]) for line in lines]
        assert probs == sorted(probs, reverse=True)

    def test_all_flag_lists_every_class_and_sums_to_one(self, trained_model_path, capsys):
        rc = main(["predict", "--model", str(trained_model_path), "--text", "abc", "--all"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].startswith("sum:")
        assert float(lines[-1].split()[-1]) == pytest.approx(1.0, abs=1e-6)
        assert len(lines) == 1 + 3 + 1  # label, three classes, sum

    def test_overflowing_logits_are_numeric_failure(self, overflowing_model_path, capsys):
        # finite weights load, but their logits overflow: once every
        # probability printed as nan and the command exited 0
        HybridModel.load(overflowing_model_path)
        rc = main(["predict", "--model", str(overflowing_model_path), "--text", "abab",
                   "--all"])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err == "numeric failure: non-finite inference logits\n"

    def test_empty_text_is_usage_error(self, trained_model_path):
        assert main(["predict", "--model", str(trained_model_path), "--text", ""]) == 1


class TestGradcheckCommand:
    def test_passes_and_lists_every_block(self, capsys):
        rc = main(["gradcheck", "--seeds", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out
        for block in ("embedding", "fwd.w_xi", "bwd.w_co", "conv.filters", "out.bias"):
            assert block in out

    def test_larger_eps_still_reports_finite_error(self, capsys):
        rc = main(["gradcheck", "--seeds", "1", "--eps", "1e-3"])
        out = capsys.readouterr().out
        assert "worst relative error" in out
        worst = float(out.split("worst relative error:")[1].split()[0])
        assert np.isfinite(worst)
        assert rc in (0, 3)

    def test_nan_gradient_fails_with_exit_3(self, capsys, monkeypatch):
        original = HybridModel.loss_and_gradients

        def nan_out_weight(self, samples, rng=None):
            losses, grads = original(self, samples, rng)
            grads.parameters()["out.weight"][...] = np.nan
            return losses, grads

        monkeypatch.setattr(HybridModel, "loss_and_gradients", nan_out_weight)
        rc = main(["gradcheck", "--seeds", "2"])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 3
        assert ["out.weight", "inf"] in [line.split() for line in lines]
        assert lines[-1].startswith("worst relative error: inf (FAIL")

    @pytest.mark.parametrize("flag, value", [
        ("--eps", "0"), ("--eps", "-1e-5"), ("--eps", "nan"), ("--eps", "inf"),
        ("--seeds", "0"), ("--seeds", "-2"), ("--seeds", "1.5"),
    ])
    def test_bad_argument_is_one_line_usage_error(self, capsys, flag, value):
        rc = main(["gradcheck", f"{flag}={value}"])  # "=" keeps "-1e-5" a value
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith(f"usage error: argument {flag}: ")
        assert captured.err.count("\n") == 1


class TestStatsCommand:
    def test_prints_zero_counts_for_empty_split(self, tmp_path, capsys):
        corpus_dir = tmp_path / "c"
        records = separable_corpus(n_classes=2, per_class=2, seed=3)
        write_splits(corpus_dir, {"train": records, "dev": records})
        (corpus_dir / "test.jsonl").write_text("")
        rc = main(["stats", "--corpus", str(corpus_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "total" in out
        assert out.strip().splitlines()[-1].split()[3] == "0"  # test column

    def test_missing_split_is_data_error(self, tmp_path, capsys):
        corpus_dir = tmp_path / "c"
        write_splits(corpus_dir, {"train": separable_corpus(2, 2, seed=3)})
        rc = main(["stats", "--corpus", str(corpus_dir)])
        assert rc == 2

    def test_expect_reference_flags_first_mismatch(self, tmp_path, capsys):
        corpus_dir = tmp_path / "c"
        records = separable_corpus(n_classes=2, per_class=2, seed=3)
        write_splits(corpus_dir, {"train": records, "dev": records, "test": records})
        rc = main(["stats", "--corpus", str(corpus_dir), "--expect-reference"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "app/train" in captured.err

    def test_expect_reference_on_cell_perfect_corpus(self, tmp_path, capsys):
        # corpus matching every published per-label cell; only the published
        # test-split total (which disagrees with its own cells) can mismatch
        corpus_dir = tmp_path / "ref"
        uid = 0
        for split_idx, split in enumerate(data.SPLITS):
            records = []
            for label in data.LABELS:
                for _ in range(data.REFERENCE_COUNTS[label][split_idx]):
                    records.append(data.Utterance(id=uid, text="xyz", label=label))
                    uid += 1
            write_corpus(corpus_dir, split, records)
        rc = main(["stats", "--corpus", str(corpus_dir), "--expect-reference"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.count("mismatch:") == 1
        assert "total/test" in captured.err


# header bytes no edit of the parsed header can give, made from the saved header
RAW_HEADERS = {
    "header-respelled": lambda h: container.header_bytes(h).replace(b": ", b":  ", 1),
    "deep-nesting": lambda h: b"[" * 100_000,
    "huge-integer": lambda h: b'{"max_len": %s}' % HUGE_INTEGER.encode(),
    # ``json.dumps`` escapes a lone surrogate, which ``save`` cannot encode
    "lone-surrogate-token": lambda h: json.dumps(
        {**h, "vocab": [*h["vocab"][:-1], "\ud800"]}, sort_keys=True).encode(),
    "lone-surrogate-label": lambda h: json.dumps(
        {**h, "labels": [*h["labels"][:-1], "\udfff"]}, sort_keys=True).encode(),
}


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["train", "--corpus", "/nonexistent"]) == 1

    def test_missing_corpus_dir_is_data_error(self, tmp_path):
        assert main(["train", "--corpus", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "m.bin")]) == 2

    def test_missing_model_file_is_data_error(self, tmp_path, capsys):
        assert main(["predict", "--model", str(tmp_path / "absent.bin"),
                     "--text", "hello"]) == 2

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda h, b: h.pop("embed_dim"), id="missing-key"),
        pytest.param(lambda h, b: b.pop("out.bias"), id="missing-block"),
        pytest.param(lambda h, b: b.update({"out.bias": b["out.bias"][:1]}), id="short-bias"),
        pytest.param(lambda h, b: h.update(dropout="x"), id="string-dropout"),
        pytest.param(lambda h, b: h.update(labels=[], num_classes=0) or b.update(
            {"out.weight": b["out.weight"][:, :0], "out.bias": b["out.bias"][:0]}), id="no-labels"),
        pytest.param(lambda h, b: b.update({"out.bias": b["out.bias"] * np.nan}), id="nan-weight"),
        pytest.param(lambda h, b: b.update({"conv.filters": b["conv.filters"] + np.inf}),
                     id="inf-weight"),
        pytest.param(lambda h, b: h.update(embed_dim=2**45), id="huge-embed-dim"),
        pytest.param(lambda h, b: h.update(hidden=2**45), id="huge-hidden"),
        pytest.param(lambda h, b: b.update(embedding=np.zeros((0, 2**32 - 1), np.float32)),
                     id="empty-embedding-of-huge-width"),
        pytest.param(lambda h, b: b.update(embedding=np.zeros((1, 60_000), np.float32)),
                     id="one-wide-embedding-row"),
        # one distinct letter per class, so only the type is wrong
        pytest.param(lambda h, b: h.update(labels="wxyzuvts"[:len(h["labels"])]),
                     id="labels-a-string"),
        pytest.param(lambda h, b: h.update(labels=dict.fromkeys(h["labels"])),
                     id="labels-an-object"),
        pytest.param(lambda h, b: h["vocab"].__setitem__(-1, 5), id="vocab-token-not-a-string"),
        pytest.param(lambda h, b: h.update(num_classes=999), id="wrong-num-classes"),
        pytest.param(lambda h, b: h.update(vocab_size=999), id="wrong-vocab-size"),
        # save writes the model each of these holds in other bytes
        pytest.param(lambda h, b: h.update(num_classes=float(h["num_classes"])),
                     id="num-classes-a-float"),
        pytest.param(lambda h, b: h.update(format_version=1.0), id="format-version-a-float"),
        pytest.param(lambda h, b: h.update(note="edited"), id="extra-header-key"),
        pytest.param(lambda h, b: [b.__setitem__(k, b.pop(k)) for k in reversed(list(b))],
                     id="blocks-reordered"),
        *(pytest.param(name, id=name) for name in RAW_HEADERS),
    ])
    def test_hand_edited_model_is_data_error(self, trained_model_path, tmp_path, capsys,
                                             edit):
        path = tmp_path / "edited.bin"
        path.write_bytes(trained_model_path.read_bytes())
        if edit in RAW_HEADERS:
            write_raw_header(path, RAW_HEADERS[edit](container.read_container(path)[1]))
        else:
            rewrite_container(path, edit)
        assert main(["predict", "--model", str(path), "--text", "abc"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "edited.bin" in err and err.count("\n") == 1

    def test_repeated_vocab_token_is_data_error(self, trained_model_path, tmp_path, capsys):
        path = tmp_path / "edited.bin"
        path.write_bytes(trained_model_path.read_bytes())
        rewrite_container(path, lambda h, b: h["vocab"].__setitem__(-1, h["vocab"][-2]))
        assert main(["predict", "--model", str(path), "--text", "abc"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "edited.bin" in err
        assert "duplicate tokens in vocab" in err and err.count("\n") == 1

    def test_trailing_bytes_in_model_are_data_error(self, trained_model_path, tmp_path,
                                                    capsys):
        payload = trained_model_path.read_bytes()[:-8] + b"\0"
        path = tmp_path / "trailing.bin"
        path.write_bytes(payload + struct.pack("<Q", container.fnv1a64(payload)))
        assert main(["predict", "--model", str(path), "--text", "abc"]) == 2
        assert "trailing bytes" in capsys.readouterr().err

    def test_unwritable_output_is_data_error(self, toy_corpus_dir, tmp_path, capsys):
        assert main(["train", "--corpus", str(toy_corpus_dir),
                     "--out", str(tmp_path / "no_dir" / "m.bin"), *FAST_TRAIN]) == 2

    def test_output_directory_is_data_error_before_training(self, toy_corpus_dir, tmp_path,
                                                            capsys):
        out_dir = tmp_path / "models"
        out_dir.mkdir()
        rc = main(["train", "--corpus", str(toy_corpus_dir), "--out", str(out_dir),
                   *FAST_TRAIN])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""  # no epoch ran
        assert captured.err == f"data error: output path is a directory: {out_dir}\n"

    def test_history_equal_to_out_is_usage_error_before_training(self, toy_corpus_dir,
                                                                 tmp_path, capsys):
        out = tmp_path / "m.bin"
        rc = main(["train", "--corpus", str(toy_corpus_dir), "--out", str(out),
                   "--history", str(tmp_path / "." / "m.bin"), *FAST_TRAIN])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("usage error: ") and captured.err.count("\n") == 1
        assert not out.exists()
