"""Command-line pipeline: train, eval, predict, gradcheck, stats.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import data, optim
from .errors import ContainerError, CorpusError, NumericError, parse_json, quoted
from .model import HybridModel, TrainConfig, down_scaled_model, evaluate, random_check_sample, train


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; the contract wants 1
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="intentnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and write it to disk")
    p_train.add_argument("--corpus", required=True, help="directory with train/dev JSONL files")
    p_train.add_argument("--out", required=True, help="model output path")
    p_train.add_argument("--history", help="history JSONL path (default: <out>.history.jsonl)")
    p_train.add_argument("--config", help="JSON file with TrainConfig overrides")
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--epochs", type=int, dest="max_epochs")
    p_train.add_argument("--batch-size", type=int, dest="batch_size")
    p_train.add_argument("--hidden", type=int)
    p_train.add_argument("--filters", type=int)
    p_train.add_argument("--embed-dim", type=int, dest="embed_dim")
    p_train.add_argument("--max-len", type=int, dest="max_len")
    p_train.add_argument("--lr", type=float)
    p_train.add_argument("--dropout", type=float)
    p_train.add_argument("--min-count", type=int, dest="min_count")
    p_train.add_argument("--plateau-patience", type=int, dest="plateau_patience")
    p_train.add_argument("--stop-patience", type=int, dest="stop_patience")

    p_eval = sub.add_parser("eval", help="evaluate a model on one split")
    p_eval.add_argument("--corpus", required=True)
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--split", default="test", choices=data.SPLITS)
    p_eval.add_argument("--json", dest="json_out",
                        help="write the machine-readable report here ('-' for stdout)")

    p_pred = sub.add_parser("predict", help="classify one utterance")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--text", required=True)
    p_pred.add_argument("--all", action="store_true", help="print every class probability")

    p_grad = sub.add_parser("gradcheck",
                            help="verify analytic gradients against finite differences")
    p_grad.add_argument("--eps", type=_positive(float), default=1e-5)
    p_grad.add_argument("--seeds", type=_positive(int), default=20)

    p_stats = sub.add_parser("stats", help="per-label split statistics")
    p_stats.add_argument("--corpus", required=True)
    p_stats.add_argument("--expect-reference", action="store_true",
                         help="compare against the published reference counts")
    return parser


def _positive(kind):
    """An argparse ``type``: a finite ``kind`` (int or float) above zero."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"expected a finite {kind.__name__} > 0, "
                                             f"got {quoted(text)}")
        return value
    return parse


def _merged_config(args) -> TrainConfig:
    values = dataclasses.asdict(TrainConfig())
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise CorpusError(f"missing config file: {path}")
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise UsageError(f"{path}: not UTF-8 ({exc.reason})") from exc
        overrides = parse_json(text, UsageError, path)
        if not isinstance(overrides, dict):
            raise UsageError(f"{path}: config must be a JSON object")
        unknown = set(overrides) - set(values)
        if unknown:
            raise UsageError(f"unknown config keys: {quoted(sorted(unknown))}")
        values.update(overrides)
    for name in values:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    return TrainConfig(**values)


def _check_output_path(path: Path) -> None:
    """Fail before the work whose result goes to ``path``, not after it."""
    if not path.parent.is_dir():
        raise CorpusError(f"output directory does not exist: {path.parent}")
    if path.is_dir():
        raise CorpusError(f"output path is a directory: {path}")


def cmd_train(args) -> int:
    config = _merged_config(args)
    out_path = Path(args.out)
    history_path = Path(args.history) if args.history else out_path.with_suffix(
        out_path.suffix + ".history.jsonl")
    for path in (out_path, history_path):
        _check_output_path(path)
    if out_path.resolve() == history_path.resolve():
        raise UsageError(f"--history and --out name the same file: {out_path}")
    corpus = {split: data.load_corpus(args.corpus, split) for split in ("train", "dev")}

    def log(record: optim.EpochRecord) -> None:
        print(f"epoch {record.epoch:3d}  train_loss {record.train_loss:.4f}  "
              f"val_loss {record.val_loss:.4f}  val_f1 {record.val_f1:.4f}  "
              f"lr {record.lr:g}")

    model, history = train(config, corpus, log=log)
    model.save(out_path)
    with open(history_path, "w", encoding="utf-8") as fh:
        for record in history:
            fh.write(json.dumps(dataclasses.asdict(record)) + "\n")
    print(f"saved model to {out_path}, history to {history_path}")
    return 0


def cmd_eval(args) -> int:
    if args.json_out and args.json_out != "-":
        _check_output_path(Path(args.json_out))
    model = HybridModel.load(args.model)
    records = data.load_corpus(args.corpus, args.split)
    report = evaluate(model, records)

    rows = sorted(range(len(report.labels)), key=lambda i: report.labels[i])
    width = max(len(lab) for lab in report.labels)
    print(f"{'label':<{width}}  precision  recall  f1      support")
    for i in rows:
        print(f"{report.labels[i]:<{width}}  {report.precision[i]:9.3f}  "
              f"{report.recall[i]:6.3f}  {report.f1[i]:6.3f}  {int(report.support[i]):7d}")
    print(f"micro-F1 {report.micro_f1:.4f}  macro-F1 {report.macro_f1:.4f}  "
          f"(n={int(report.confusion.sum())})")

    if args.json_out:
        payload = json.dumps(report.to_dict(), ensure_ascii=False)
        if args.json_out == "-":
            print(payload)
        else:
            Path(args.json_out).write_text(payload + "\n", encoding="utf-8")
    return 0


def cmd_predict(args) -> int:
    if not args.text:
        raise UsageError("--text must be non-empty")
    model = HybridModel.load(args.model)
    label, probs = model.predict(args.text)
    print(f"label: {label}")
    order = np.argsort(-probs, kind="stable")
    shown = order if args.all else order[:5]
    for i in shown:
        print(f"{model.labels[i]:<12} {float(probs[i]):.6f}")
    if args.all:
        print(f"sum: {float(probs.sum()):.6f}")
    return 0


def cmd_gradcheck(args) -> int:
    worst_per_block: dict[str, float] = {}
    for seed in range(args.seeds):
        model = down_scaled_model(seed)
        sample = random_check_sample(seed, model)
        for name, err in optim.gradient_check(model, sample, eps=args.eps).items():
            worst_per_block[name] = max(worst_per_block.get(name, 0.0), err)
    width = max(len(name) for name in worst_per_block)
    for name in sorted(worst_per_block):
        print(f"{name:<{width}}  {worst_per_block[name]:.3e}")
    worst = max(worst_per_block.values())
    passed = worst <= optim.GRADCHECK_TOL
    print(f"worst relative error: {worst:.3e} ({'PASS' if passed else 'FAIL'} "
          f"at {optim.GRADCHECK_TOL:g}, {args.seeds} seeds, eps {args.eps:g})")
    return 0 if passed else 3


def cmd_stats(args) -> int:
    splits = {split: data.load_corpus(args.corpus, split) for split in data.SPLITS}
    stats = data.compute_stats(splits)
    width = max(len(lab) for lab in data.LABELS)
    print(f"{'label':<{width}}  train    dev   test")
    for label in data.LABELS:
        row = stats.counts[label]
        print(f"{label:<{width}}  {row['train']:5d}  {row['dev']:5d}  {row['test']:5d}")
    print(f"{'total':<{width}}  {stats.total('train'):5d}  {stats.total('dev'):5d}  "
          f"{stats.total('test'):5d}  (grand total {stats.grand_total})")

    if args.expect_reference:
        mismatches = data.compare_to_reference(stats)
        if mismatches:
            for line in mismatches:
                print(f"mismatch: {line}", file=sys.stderr)
            raise CorpusError(f"reference mismatch at {mismatches[0]}")
        print("reference statistics: OK")
    return 0


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "predict": cmd_predict,
    "gradcheck": cmd_gradcheck,
    "stats": cmd_stats,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # an overflow or NaN is reported by the program's own finiteness checks
        with np.errstate(over="ignore", invalid="ignore"):
            return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (CorpusError, ContainerError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, MemoryError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
