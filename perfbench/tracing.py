"""Spans around calls into intentnet's layers, installed from outside.

The tracer replaces module and class attributes with timing wrappers and
puts the originals back on exit; the library itself is never edited. A
name is wrapped where its caller looks it up: ``model`` imports
``softmax``, ``encode``, ``build_vocab`` and ``uniform_init`` with
``from ... import``, so those are wrapped as attributes of ``model`` (and
``uniform_init`` of ``layers`` too).

Each call records a span (name, start, end, parent span, op id) in memory;
``write_spans`` writes them out when the run ends. A layer's self time is
its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter

from intentnet import cli, container, layers, model, optim, tensor

_clock = time.perf_counter_ns


# Every module and class whose attributes the tracer replaces.
PATCHED = (cli, container, layers, model, optim, tensor, model.HybridModel, tensor.Rng)


def snapshot() -> list[tuple]:
    """Every attribute of every patched owner, to check later that none was left replaced."""
    return [(owner, key, value) for owner in PATCHED for key, value in vars(owner).items()]


def unchanged(before: list[tuple]) -> bool:
    """Whether each attribute in ``before`` is still the very same object."""
    return all(vars(owner).get(key) is value for owner, key, value in before)


def _lstm_flops(input_size: int, hidden: int) -> int:
    """Matrix-product flops of one cell step: 4 input, 4 recurrent and 3 cell GEMVs."""
    return 2 * (4 * input_size * hidden + 7 * hidden * hidden)


class Tracer:
    """Installs span wrappers on entry and restores every original on exit.

    ``names`` limits which spans are installed (``None`` installs all of
    them). The end-to-end runs install only the phase marks, a few spans per
    training step or model load, from which they read step and phase times.
    ``hooks`` maps a span name to a function called after each such span
    closes, outside its timing; a hooked span is installed even when
    ``names`` leaves it out.
    """

    # Spans the end-to-end runs need: set-up end, optimizer steps, dev
    # passes and model loads.
    MARKS = frozenset({"optim.AdamState", "optim.adam_step", "model._validate",
                       "model.load"})

    def __init__(self, names: frozenset[str] | None = None, hooks: dict | None = None):
        self.names = names
        self.hooks = hooks or {}
        self.spans: list[tuple | None] = []
        self.busy_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.bytes: Counter = Counter()
        self.flops: Counter = Counter()
        self.rng_draws = 0
        self.op_id = 0
        self._stack: list[list] = []  # [span index, child ns]
        self._originals: list[tuple[object, str, object]] = []
        self._lstm_dir: dict[int, str] = {}

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _span(self, owner, attr: str, name, pre=None, post=None) -> None:
        """Wrap ``owner.attr``; ``name`` may be a function of the call's args."""
        static = name if isinstance(name, str) else None
        if (static is not None and self.names is not None and static not in self.names
                and static not in self.hooks):
            return
        original = owner.__dict__[attr]
        kind = type(original) if isinstance(original, (classmethod, staticmethod)) else None
        fn = original.__func__ if kind else original
        hook = self.hooks.get(static)
        tracer = self

        def wrapper(*args, **kwargs):
            label = static if static is not None else name(tracer, args)
            if pre is not None:
                pre(tracer, args)
            stack = tracer._stack
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                duration = end - start
                tracer.busy_ns[label] += duration - frame[1]
                tracer.calls[label] += 1
                if stack:
                    stack[-1][1] += duration
                tracer.spans[index] = (label, start, end, parent, tracer.op_id)
            if post is not None:
                post(tracer, args, result)
            if hook is not None:
                hook()
            return result

        functools.update_wrapper(wrapper, fn, updated=())
        self._patch(owner, attr, kind(wrapper) if kind else wrapper)

    def _install(self) -> None:
        L, M, O, C, H = layers, model, optim, container, model.HybridModel
        span = self._span

        def bilstm_pre(tr, args):
            _, _, p_fwd, p_bwd = args
            tr._lstm_dir[id(p_fwd)] = "fwd"
            tr._lstm_dir[id(p_bwd)] = "bwd"

        def cell_fwd_name(tr, args):
            x, h_prev, _, p = args
            tr.flops["layers.lstm.forward"] += _lstm_flops(x.shape[0], h_prev.shape[0])
            return f"layers.lstm_{tr._lstm_dir.get(id(p), 'unknown')}_dir.forward"

        def cell_bwd_name(tr, args):
            cache = args[0]
            # the backward pass repeats the forward GEMVs twice: once for the
            # weight gradients (outer products) and once for the input gradients
            tr.flops["layers.lstm.backward"] += 2 * _lstm_flops(cache.x.shape[0],
                                                                cache.h_prev.shape[0])
            return f"layers.lstm_{tr._lstm_dir.get(id(cache.params), 'unknown')}_dir.backward"

        def count_bytes(label):
            def post(tr, args, result):
                tr.bytes[label] += len(args[0])
            return post

        def file_bytes(label):
            def post(tr, args, result):
                tr.bytes[label] += os.path.getsize(args[0])
            return post

        if self.names is None:
            span(L, "bilstm_forward", "layers.bilstm.forward", pre=bilstm_pre)
            span(L, "bilstm_backward", "layers.bilstm.backward")
            span(L, "lstm_cell_forward", cell_fwd_name)
            span(L, "lstm_cell_backward", cell_bwd_name)
        for attr, label in (
            ("embedding_forward", "layers.embedding.forward"),
            ("embedding_backward", "layers.embedding.backward"),
            ("conv_forward", "layers.conv.forward"),
            ("conv_backward", "layers.conv.backward"),
            ("maxpool_over_time", "layers.maxpool.forward"),
            ("maxpool_backward", "layers.maxpool.backward"),
            ("dense_forward", "layers.dense.forward"),
            ("dense_backward", "layers.dense.backward"),
            ("dropout", "layers.dropout.forward"),
            ("dropout_backward", "layers.dropout.backward"),
            ("uniform_init", "tensor.uniform_init"),
        ):
            span(L, attr, label)
        for owner, attr, label in (
            (M, "uniform_init", "tensor.uniform_init"),
            (M, "softmax", "tensor.softmax"),
            (M, "cross_entropy", "model.cross_entropy"),
            (M, "encode", "data.encode"),
            (M, "build_vocab", "data.build_vocab"),
            (M, "train", "model.train"),
            (M, "_validate", "model._validate"),
            (M, "evaluate", "model.evaluate"),
            (H, "__init__", "model.init"),
            (H, "forward", "model.forward"),
            (H, "_backward", "model._backward"),
            (H, "loss_and_gradients", "model.loss_and_gradients"),
            (H, "predict", "model.predict"),
            (H, "save", "model.save"),
            (H, "load", "model.load"),
            (O, "AdamState", "optim.AdamState"),
            (O, "adam_step", "optim.adam_step"),
            (O, "clip_by_global_norm", "optim.clip_by_global_norm"),
            (cli, "main", "cli.main"),
        ):
            span(owner, attr, label)
        span(C, "fnv1a64", "container.fnv1a64", post=count_bytes("container.fnv1a64"))
        span(C, "read_container", "container.read_container",
             post=file_bytes("container.read_container"))
        span(C, "write_container", "container.write_container",
             post=file_bytes("container.write_container"))

        if self.names is None:
            next_u64 = tensor.Rng.__dict__["next_u64"]
            tracer = self

            @functools.wraps(next_u64)
            def counted(rng):
                tracer.rng_draws += 1
                return next_u64(rng)

            self._patch(tensor.Rng, "next_u64", counted)

    # -- results ------------------------------------------------------------

    def op_spans(self, op_id: int, name: str) -> list[tuple]:
        """(start, end) in ns of every finished ``name`` span of one op."""
        return [(s[1], s[2]) for s in self.spans
                if s is not None and s[4] == op_id and s[0] == name]

    def layer_metrics(self, names) -> dict[str, tuple[float, str]]:
        """busy_s and calls per layer, plus throughputs derived from counts."""
        out: dict[str, tuple[float, str]] = {}
        for name in names:
            out[f"{name}.busy_s"] = (self.busy_ns[name] / 1e9, "s")
            out[f"{name}.calls"] = (self.calls[name], "count")
        for direction in ("forward", "backward"):
            busy = sum(self.busy_ns[f"layers.lstm_{d}_dir.{direction}"] for d in ("fwd", "bwd"))
            flops = self.flops[f"layers.lstm.{direction}"]
            out[f"layers.lstm.{direction}.gflop_per_s"] = (
                flops / busy if busy else 0.0, "GFLOP/s")  # flop/ns == GFLOP/s
        for name in ("container.fnv1a64", "container.read_container",
                     "container.write_container"):
            busy = self.busy_ns[name]
            out[f"{name}.mb_per_s"] = (self.bytes[name] * 1e3 / busy if busy else 0.0, "MB/s")
        out["tensor.rng_draws"] = (self.rng_draws, "count")
        return out

    def write_spans(self, path) -> None:
        """One tab-separated line per span: name, start ns, end ns, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\n")
            for span in self.spans:
                if span is not None:
                    fh.write("\t".join(map(str, span)) + "\n")


# Every layer the traced run reports, in report order.
LAYERS = (
    "layers.lstm_fwd_dir.forward", "layers.lstm_fwd_dir.backward",
    "layers.lstm_bwd_dir.forward", "layers.lstm_bwd_dir.backward",
    "layers.bilstm.forward", "layers.bilstm.backward",
    "layers.embedding.forward", "layers.embedding.backward",
    "layers.conv.forward", "layers.conv.backward",
    "layers.maxpool.forward", "layers.maxpool.backward",
    "layers.dense.forward", "layers.dense.backward",
    "layers.dropout.forward", "layers.dropout.backward",
    "tensor.softmax", "tensor.uniform_init", "model.cross_entropy",
    "optim.adam_step", "optim.clip_by_global_norm",
    "model.init", "model.forward", "model._backward", "model.loss_and_gradients",
    "model.train", "model._validate", "data.build_vocab", "data.encode",
    "model.predict", "model.evaluate", "model.save", "model.load",
    "container.fnv1a64", "container.read_container", "container.write_container",
    "cli.main",
)
