"""The three closed-loop workloads and their correctness checks.

Each workload runs in one process with one caller that waits for every
reply. A workload is driven in *units*: one training run, one serving round,
or one cold CLI invocation plus save. Within a unit every public call that a
user would make is an *op*; an op fails when it raises, when the CLI exits
non-zero, or when one of its checks does not hold.

Every workload reports the same six end-to-end metrics, each read on that
workload's own main path (see README.md for the table). Each timing is
divided by the speed factor around it from ``reference.Reference``, whose
kernel runs between ops, outside every timed interval:

- ``setup_s``: median of ``SETUP_REPS`` set-ups, half before the
  measurement and half after it, each scaled by the kernel runs just
  before and after it;
- ``call_p50_ms`` and ``call_tail_ms``: latency of the main call, median and
  the workload's fixed tail percentile;
- ``items_per_s``: items through the main call over the time spent in it;
- ``aux_p50_ms``: median latency of the secondary call;
- ``peak_rss_mb``: peak resident memory of the process up to the end of
  the first unit.
"""

from __future__ import annotations

import io
import math
import resource
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from intentnet import cli, model as M
from intentnet.tensor import Rng

from corpus import paper_corpus
from reference import LOCAL_TICKS, Reference

SETUP_REPS = 16
# reference-kernel runs on each side of a set-up, which scale that set-up
SETUP_TICKS = LOCAL_TICKS // 2
TRAIN_EPOCHS = 1
# Lowest dev micro-F1 accepted after TRAIN_EPOCHS epochs. The 25 seeds
# tried while the benchmark was written gave 0.36..0.46; the floor sits well
# below that.
DEV_F1_FLOOR = 0.25
PROB_SUM_TOL = 1e-5
# cold-start cycles through this many test utterances
COLD_TEXTS = 100
# serve-paper runs the reference kernel after every this many predictions,
# and inside evaluate after every this many utterances
SERVE_TICK_EVERY = 3


_now = time.perf_counter_ns


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Attempted and failed ops, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)

    def run(self, what: str, fn, *args):
        """Call ``fn``; an exception is a failed op. Returns (result, problem)."""
        try:
            return fn(*args), None
        except Exception as exc:  # any library error is a failed op, not a crash
            return None, f"{what}: {type(exc).__name__}: {exc}"


# A timed interval: start and end on the ns clock, and its seconds (the
# interval minus any reference-kernel time inside it).
Sample = tuple[int, int, float]


def _sample(start: int, end: int) -> Sample:
    return start, end, (end - start) / 1e9


def _ms(seconds: list[float]) -> list[float]:
    return [1e3 * s for s in seconds]


def _median(values) -> float:
    return statistics.median(values) if values else float("nan")


def _percentile(values, pct: float) -> float:
    return float(np.percentile(values, pct)) if values else float("nan")


def _params_bytes(model) -> dict[str, bytes]:
    return {name: arr.tobytes() for name, arr in model.parameters().items()}


def _seeded_model(corpus, seed: int) -> M.HybridModel:
    """Vocab from the training split plus a seeded, initialised model."""
    config = M.TrainConfig()
    train = corpus["train"]
    vocab = M.build_vocab(train, min_count=config.min_count)
    labels = sorted({utt.label for utt in train})
    return M.HybridModel(vocab, labels, config.embed_dim, config.hidden, config.filters,
                         config.max_len, rng=Rng(seed), dropout_rate=config.dropout)


class Workload:
    name = ""
    tail_pct = 50.0
    trace_units = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.corpus = paper_corpus(seed)
        self.setup_t: list[Sample] = []
        self.call_t: list[Sample] = []
        self.aux_t: list[list[Sample]] = []  # each secondary call, in pieces
        self.item_t: list[Sample] = []
        self.items = 0
        # what the checks compare against; a traced instance adopts the
        # untraced one's, so its outputs must match the untraced run's
        self.ref: dict = {}
        self.speed = Reference()
        self.rss_mb = float("nan")

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, tally: Tally) -> None:
        """Set up half of ``SETUP_REPS`` times, then compute the check references.

        ``finish`` does the other half after the measurement, so that a
        slow or fast stretch of the machine at start-up does not set
        ``setup_s`` alone.
        """
        for _ in range(SETUP_REPS // 2):
            self.timed_setup()
        self.prepare_reference(tally)

    def finish(self) -> None:
        while len(self.setup_t) < SETUP_REPS:
            self.timed_setup()

    def prepare_reference(self, tally: Tally) -> None:
        pass

    def unit(self, tracer, tally: Tally):
        """One closed-loop unit; returns its outputs for the traced-run comparison."""
        raise NotImplementedError

    def hooks(self) -> dict:
        """Functions the phase-mark tracer calls after a named span closes."""
        return {}

    def interval(self, start: int, end: int) -> Sample:
        """A timed interval less the reference-kernel runs inside it."""
        return start, end, (end - start) / 1e9 - self.speed.seconds_between(start, end)

    def timed_setup(self) -> None:
        # The machine's speed changes within a second, so each set-up is
        # scaled by the kernel runs right next to it: the LOCAL_TICKS
        # nearest are the SETUP_TICKS on either side.
        for _ in range(SETUP_TICKS):
            self.speed.tick()
        start = _now()
        self.setup()
        self.setup_t.append(_sample(start, _now()))
        for _ in range(SETUP_TICKS):
            self.speed.tick()

    def seconds(self, samples: list[Sample], normalize: bool = True) -> list[float]:
        """Each sample's seconds, divided by the speed factor around it."""
        if not normalize:
            return [sec for _, _, sec in samples]
        return [sec / self.speed.factor(start, end) for start, end, sec in samples]

    def aux_seconds(self, normalize: bool = True) -> list[float]:
        """Each secondary call's seconds: the sum of its scaled pieces."""
        return [sum(self.seconds(pieces, normalize)) for pieces in self.aux_t]

    def tail_samples(self, call_ms: list[float]) -> list[float]:
        """The latencies ``call_tail_ms`` takes its percentile of."""
        return call_ms

    def end_to_end(self, normalize: bool = True) -> dict[str, tuple[float, str]]:
        call_ms = _ms(self.seconds(self.call_t, normalize))
        item_s = sum(self.seconds(self.item_t, normalize))
        return {
            "setup_s": (_median(self.seconds(self.setup_t, normalize)), "s"),
            "call_p50_ms": (_median(call_ms), "ms"),
            "call_tail_ms": (_percentile(self.tail_samples(call_ms), self.tail_pct), "ms"),
            "items_per_s": (self.items / item_s if item_s else float("nan"), "1/s"),
            "aux_p50_ms": (_median(_ms(self.aux_seconds(normalize))), "ms"),
            "peak_rss_mb": (self.rss_mb, "MB"),
        }

    def report(self) -> list[tuple[str, float, str, int]]:
        """The workload's metrics under their own names: (name, value, unit, samples).

        Timings are normalised like ``end_to_end``.
        """
        raise NotImplementedError


class TrainPaper(Workload):
    """Default TrainConfig for TRAIN_EPOCHS epochs, dev pass included.

    Main call: one optimizer step (a batch of 10 samples: forward, backward,
    clip, Adam), timed between consecutive ``adam_step`` ends; the first step
    of an epoch is left out because it also pays for the shuffle. Items:
    training samples over the training loop. Secondary call: the whole
    epoch, dev pass included.
    """

    name = "train-paper"
    tail_pct = 95.0
    trace_units = 1

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.config = M.TrainConfig(seed=seed, max_epochs=TRAIN_EPOCHS)
        self.dev_t: list[Sample] = []
        self.dev_f1: list[float] = []

    def hooks(self) -> dict:
        return {"optim.adam_step": self.speed.tick}

    def setup(self) -> None:
        # the work train() does before its first step
        config = self.config
        model = _seeded_model(self.corpus, config.seed)
        for split in ("train", "dev"):
            M.encode_dataset(self.corpus[split], model.vocab, config.max_len, model.label_index)

    def unit(self, tracer, tally: Tally):
        op = tracer.op_id
        result, problem = tally.run("train", M.train, self.config, self.corpus)
        if problem is None:
            model, history = result
            problem = self._check(model, history)
            self._collect(tracer, op)
            self.dev_f1.append(history[-1].val_f1)
        tally.record(problem)
        return None if result is None else _params_bytes(result[0])

    def _check(self, model, history) -> str | None:
        if not all(math.isfinite(rec.train_loss) for rec in history):
            return "train: non-finite train loss"
        if history[-1].val_f1 < DEV_F1_FLOOR:
            return f"train: dev micro-F1 {history[-1].val_f1:.4f} below {DEV_F1_FLOOR}"
        params = _params_bytes(model)
        if self.ref.setdefault("params", params) != params:
            return "train: a rerun with the same seed gave different parameters"
        return None

    def _collect(self, tracer, op: int) -> None:
        # the reference ticks after each step run inside train()
        interval = self.interval
        loop_start = tracer.op_spans(op, "optim.AdamState")[0][1]
        steps = [end for _, end in tracer.op_spans(op, "optim.adam_step")]
        n_train = len(self.corpus["train"])
        for dev_start, dev_end in tracer.op_spans(op, "model._validate"):
            # the training loop in pieces that end at each step, so that each
            # piece is scaled by the speed around it
            bounds = [loop_start, *(t for t in steps if loop_start < t < dev_start), dev_start]
            pieces = [interval(a, b) for a, b in zip(bounds, bounds[1:])]
            dev = interval(dev_start, dev_end)
            self.call_t.extend(pieces[1:-1])
            self.item_t.extend(pieces)
            self.items += n_train
            self.dev_t.append(dev)
            self.aux_t.append(pieces + [dev])
            loop_start = dev_end

    def report(self):
        e2e = self.end_to_end()
        return [
            ("train_samples_per_s", e2e["items_per_s"][0], "1/s", len(self.aux_t)),
            ("epoch_s", e2e["aux_p50_ms"][0] / 1e3, "s", len(self.aux_t)),
            ("dev_micro_f1", _median(self.dev_f1), "ratio", len(self.dev_f1)),
            ("step_p50_ms", e2e["call_p50_ms"][0], "ms", len(self.call_t)),
            ("step_p95_ms", e2e["call_tail_ms"][0], "ms", len(self.call_t)),
            ("dev_pass_s", _median(self.seconds(self.dev_t)), "s", len(self.dev_t)),
        ]


class ServePaper(Workload):
    """A seeded, initialised model answers the test split in two phases.

    Phase one calls ``predict`` once per utterance (batch 1, the main call;
    items are utterances). Phase two calls ``evaluate`` over the whole split
    (batch N, the secondary call). The tail is taken over each utterance's
    median latency across rounds: long utterances set it, and a burst of
    machine noise during one round does not. Inside ``evaluate`` the
    reference kernel runs through a hook on the ``data.encode`` mark, so
    that the speed factor follows the machine across the whole call.
    """

    name = "serve-paper"
    tail_pct = 98.0
    trace_units = 3

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.test = self.corpus["test"]
        self.model: M.HybridModel | None = None
        self.call_utt: list[int] = []  # test index of each call_t sample
        self.evaluating = False
        self.encodes = 0

    def hooks(self) -> dict:
        return {"data.encode": self._tick_in_evaluate}

    def _tick_in_evaluate(self) -> None:
        if self.evaluating:
            self.encodes += 1
            if self.encodes % SERVE_TICK_EVERY == 0:
                self.speed.tick()

    def setup(self) -> None:
        model = _seeded_model(self.corpus, self.seed)
        M.encode_dataset(self.test, model.vocab, model.max_len, model.label_index)
        self.model = model

    def prepare_reference(self, tally: Tally) -> None:
        """The evaluate path's argmax for every test utterance, and its confusion."""
        model = self.model
        labels = []
        for utt in self.test:
            confusion = M.evaluate(model, [utt]).confusion
            labels.append(model.labels[int(confusion.sum(axis=0).argmax())])
        self.ref = {"labels": labels, "confusion": M.evaluate(model, self.test).confusion}

    def unit(self, tracer, tally: Tally):
        model = self.model
        outputs = []
        for k, (utt, expected) in enumerate(zip(self.test, self.ref["labels"])):
            start = _now()
            result, problem = tally.run("predict", model.predict, utt.text)
            sample = _sample(start, _now())
            if k % SERVE_TICK_EVERY == 0:
                self.speed.tick()
            if problem is None:
                label, probs = result
                self.call_t.append(sample)
                self.call_utt.append(k)
                self.item_t.append(sample)
                self.items += 1
                outputs.append((label, probs.tobytes()))
                total = float(probs.sum(dtype=np.float64))
                if abs(total - 1.0) > PROB_SUM_TOL:
                    problem = f"predict: probabilities sum to {total!r}"
                elif label != expected:
                    problem = f"predict: {label!r} but the evaluate path gives {expected!r}"
            tally.record(problem)

        self.evaluating = True
        start = _now()
        report, problem = tally.run("evaluate", M.evaluate, model, self.test)
        sample = self.interval(start, _now())
        self.evaluating = False
        self.speed.tick()
        if problem is None:
            self.aux_t.append([sample])
            outputs.append(report.confusion.tobytes())
            if not np.array_equal(report.confusion, self.ref["confusion"]):
                problem = "evaluate: confusion differs from the per-utterance evaluate path"
        tally.record(problem)
        return outputs

    def tail_samples(self, call_ms: list[float]) -> list[float]:
        per_utt: dict[int, list[float]] = {}
        for k, ms in zip(self.call_utt, call_ms):
            per_utt.setdefault(k, []).append(ms)
        return [statistics.median(v) for v in per_utt.values()]

    def report(self):
        e2e = self.end_to_end()
        eval_s = sum(self.aux_seconds())
        return [
            ("predict_p50_ms", e2e["call_p50_ms"][0], "ms", len(self.call_t)),
            ("predict_p98_ms", e2e["call_tail_ms"][0], "ms", len(set(self.call_utt))),
            ("predict_utts_per_s", e2e["items_per_s"][0], "1/s", len(self.call_t)),
            ("eval_utts_per_s", len(self.test) * len(self.aux_t) / eval_s if eval_s
             else float("nan"), "1/s", len(self.aux_t)),
            ("evaluate_p50_ms", e2e["aux_p50_ms"][0], "ms", len(self.aux_t)),
        ]


class ColdStart(Workload):
    """What one ``intentnet predict`` invocation does, plus a save.

    Main call: ``cli.main(["predict", ...])`` in-process with its output
    captured, which loads the model file and classifies one test utterance;
    items are invocations. Secondary call: ``HybridModel.save`` of the same
    model to the same file, so the next invocation reads what was written.
    """

    name = "cold-start"
    tail_pct = 70.0
    trace_units = 10

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.path = workdir / f"cold-start-seed{seed}.bin"
        self.texts = [utt.text for utt in self.corpus["test"][:COLD_TEXTS]]
        self.model: M.HybridModel | None = None
        self.load_t: list[Sample] = []
        self.count = 0

    def setup(self) -> None:
        model = _seeded_model(self.corpus, self.seed)
        model.save(self.path)
        self.model = model

    def prepare_reference(self, tally: Tally) -> None:
        """Saved bytes and in-memory labels, plus the bit-identical reload check (one op)."""
        self.ref = {"saved": self.path.read_bytes(),
                    "labels": [self.model.predict(text)[0] for text in self.texts]}
        loaded, problem = tally.run("load", M.HybridModel.load, self.path)
        if problem is None and _params_bytes(loaded) != _params_bytes(self.model):
            problem = "load: reloaded parameters differ from the saved model"
        tally.record(problem)

    def unit(self, tracer, tally: Tally):
        op = tracer.op_id
        text = self.texts[self.count % len(self.texts)]
        expected = self.ref["labels"][self.count % len(self.texts)]
        self.count += 1
        out, err = io.StringIO(), io.StringIO()
        start = _now()
        with redirect_stdout(out), redirect_stderr(err):
            code, problem = tally.run("cli predict", cli.main,
                                      ["predict", "--model", str(self.path), "--text", text])
        sample = _sample(start, _now())
        self.speed.tick()
        printed = out.getvalue()
        if problem is None:
            self.call_t.append(sample)
            self.item_t.append(sample)
            self.items += 1
            self.load_t.extend(_sample(a, b) for a, b in tracer.op_spans(op, "model.load"))
            first = printed.splitlines()[0] if printed else ""
            if code != 0:
                problem = f"cli predict: exit {code}: {err.getvalue().strip()}"
            elif first != f"label: {expected}":
                problem = f"cli predict: printed {first!r}, in-memory model says {expected!r}"
        tally.record(problem)

        start = _now()
        _, problem = tally.run("save", self.model.save, self.path)
        sample = _sample(start, _now())
        self.speed.tick()
        if problem is None:
            self.aux_t.append([sample])
            if self.path.read_bytes() != self.ref["saved"]:
                problem = "save: bytes differ from the first save of the same model"
        tally.record(problem)
        return printed

    def report(self):
        e2e = self.end_to_end()
        return [
            ("cold_predict_p50_ms", e2e["call_p50_ms"][0], "ms", len(self.call_t)),
            ("cold_predict_p70_ms", e2e["call_tail_ms"][0], "ms", len(self.call_t)),
            ("cold_predicts_per_s", e2e["items_per_s"][0], "1/s", len(self.call_t)),
            ("load_p50_ms", _median(_ms(self.seconds(self.load_t))), "ms", len(self.load_t)),
            ("save_p50_ms", e2e["aux_p50_ms"][0], "ms", len(self.aux_t)),
        ]


WORKLOADS = {cls.name: cls for cls in (TrainPaper, ServePaper, ColdStart)}


def timed_unit(workload: Workload, tracer, tally: Tally) -> tuple[object, float]:
    """Run one unit as a new op; returns its outputs and its seconds."""
    tracer.op_id += 1
    began = _now()
    outputs = workload.unit(tracer, tally)
    return outputs, (_now() - began) / 1e9


def measure(workload: Workload, tracer, tally: Tally, seconds: float) -> None:
    """Run units until the next one would end past ``seconds``; at least one."""
    start = _now()
    _, took = timed_unit(workload, tracer, tally)
    # later units repeat the first, so how many run (which depends on machine
    # speed) must not move the peak
    workload.rss_mb = peak_rss_mb()
    while (_now() - start) / 1e9 + took <= seconds:
        _, took = timed_unit(workload, tracer, tally)
