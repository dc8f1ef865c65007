"""Adam, learning-rate plateau schedule, early stopping, gradient checking."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericError

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8

# Minimum change of the monitored metric that counts as an improvement,
# shared by the plateau schedule and early stopping.
MIN_DELTA = 1e-4

# Largest relative gradient error a gradient check accepts.
GRADCHECK_TOL = 1e-4

# Elements per block of ``adam_step``: the five arrays of a float32 block
# (parameters, gradient, both moments and scratch) take 1.25 MB, so each of
# its twelve passes reads them from L2 rather than memory.
ADAM_BLOCK = 1 << 16


@dataclass
class EpochRecord:
    """One epoch of training history."""

    epoch: int
    train_loss: float
    val_loss: float
    val_f1: float
    lr: float


class AdamState:
    """First/second moment estimates mirroring a named parameter dict, and
    the scratch memory ``adam_step`` computes in.

    ``scratch[name]`` is one array shaped like that block, so a step
    allocates nothing block-sized. It has the block's dtype: an ``out=`` of
    another dtype would select another ufunc loop and change the update's
    bits. Training passes one block, the model's whole parameter vector, so
    the scratch is one vector of that size.
    """

    def __init__(self, params: dict[str, np.ndarray]):
        self.m = {name: np.zeros_like(arr) for name, arr in params.items()}
        self.v = {name: np.zeros_like(arr) for name, arr in params.items()}
        self.t = 0
        self.scratch = {name: np.empty_like(arr) for name, arr in params.items()}


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, lr: float) -> None:
    """Bias-corrected Adam update, in place; one step-counter tick per call.

    Every block is checked first: its gradient must have the parameter's
    shape and dtype and be finite. A rejected step writes nothing, not even
    the counter. Then each block is updated in place as Kingma and Ba fold
    it (arXiv 1412.6980, end of section 2), algebraically the bias-corrected
    ``lr * m_hat / (sqrt(v_hat) + EPS)``: ``theta -= step / (sqrt(v) +
    eps_t) * m``, in ``state.scratch``, rounded as with a fresh temporary
    per operation. ``lr`` acts as a Python float, whatever its type. The
    twelve in-place operations run block by block over slices of axis 0 of
    about ``ADAM_BLOCK`` elements, so a strided view's blocks stay views.
    """
    if set(params) != set(state.m) or any(
            (state.m[name].shape, state.m[name].dtype) != (theta.shape, theta.dtype)
            for name, theta in params.items()):
        raise ValueError("optimizer state does not mirror the parameters")
    for name, theta in params.items():
        g = grads[name]
        if g.shape != theta.shape:
            raise ValueError(f"gradient shape mismatch for {name}: {g.shape} vs {theta.shape}")
        if g.dtype != theta.dtype:
            raise ValueError(f"gradient dtype mismatch for {name}: {g.dtype} vs {theta.dtype}")
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient in {name}")
    state.t += 1
    correction = math.sqrt(1.0 - BETA2 ** state.t)
    step = float(lr) * correction / (1.0 - BETA1 ** state.t)
    eps_t = EPS * correction
    for name in params:
        arrays = [np.atleast_1d(arr) for arr in
                  (params[name], grads[name], state.m[name], state.v[name], state.scratch[name])]
        rows = max(1, ADAM_BLOCK * len(arrays[0]) // max(1, arrays[0].size))
        for start in range(0, len(arrays[0]), rows):
            theta, g, m, v, a = (arr[start:start + rows] for arr in arrays)
            m *= BETA1
            np.multiply(1.0 - BETA1, g, out=a)
            m += a
            v *= BETA2
            np.multiply(1.0 - BETA2, g, out=a)
            a *= g
            v += a
            np.sqrt(v, out=a)
            a += eps_t
            np.divide(step, a, out=a)
            a *= m
            theta -= a


def clip_by_global_norm(grads: np.ndarray, max_norm: float) -> float:
    """Scale the gradient vector ``grads`` in place to an L2 norm of at most
    ``max_norm``, which must be positive, and return its norm. One float64
    ``einsum`` sums the squares, exact for float32, in small cast buffers."""
    if not max_norm > 0:
        raise ValueError(f"max_norm must be positive, got {max_norm!r}")
    norm = math.sqrt(np.einsum("i,i->", grads, grads, dtype=np.float64))
    if norm > max_norm:
        grads *= max_norm / norm
    return norm


def reduce_lr_on_plateau(history: Sequence[EpochRecord], factor: float = 0.1,
                         patience: int = 3, min_lr: float = 1e-6) -> float:
    """Learning rate for the next epoch under the reduce-on-plateau rule.

    Replays the recorded validation losses from the first epoch: whenever
    the best loss fails to improve by at least ``MIN_DELTA`` for
    ``patience`` consecutive epochs, the rate is multiplied by ``factor``
    (floored at ``min_lr``) and the stagnation counter resets. Being a pure
    function of the history keeps reruns reproducible. A starting rate below
    ``min_lr`` is rejected: the floor would raise it.
    """
    if not history:
        raise ValueError("history is empty")
    lr = history[0].lr
    if lr < min_lr:
        raise ValueError(f"starting rate {lr:g} is below min_lr {min_lr:g}")
    best = float("inf")
    stale = 0
    for record in history:
        if record.val_loss < best - MIN_DELTA:
            best = record.val_loss
            stale = 0
        else:
            stale += 1
            if stale >= patience:
                lr = max(lr * factor, min_lr)
                stale = 0
    return lr


def should_stop(history: Sequence[EpochRecord], patience: int = 8) -> bool:
    """True when validation micro-F1 has stagnated for ``patience`` epochs."""
    if not history:
        raise ValueError("history is empty")
    best = -float("inf")
    stale = 0
    for record in history:
        if record.val_f1 > best + MIN_DELTA:
            best = record.val_f1
            stale = 0
        else:
            stale += 1
    return stale >= patience


def gradient_check(model, sample, eps: float = 1e-5) -> dict[str, float]:
    """Each parameter block's worst relative error of the analytic gradients
    against central finite differences; a check passes at ``GRADCHECK_TOL``.

    ``model`` must expose ``parameters() -> dict[str, ndarray]``,
    ``loss(sample) -> float`` and ``loss_and_gradients(samples)``, given a
    batch of one, whose returned gradients have ``parameters()`` too; the
    parameter arrays are perturbed in place and restored. Run in float64 with
    dropout disabled, on small shapes. A non-finite error (a NaN or infinite
    gradient or loss) counts as infinite.
    """
    (base_loss,), grads = model.loss_and_gradients([sample])
    if not np.isfinite(base_loss):
        raise NumericError("non-finite loss at the check point")
    analytic = grads.parameters()
    per_block: dict[str, float] = {}
    for name, theta in model.parameters().items():
        worst = 0.0
        it = np.nditer(theta, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = theta[idx]
            theta[idx] = orig + eps
            plus = model.loss(sample)
            theta[idx] = orig - eps
            minus = model.loss(sample)
            theta[idx] = orig
            numeric = (plus - minus) / (2.0 * eps)
            a = float(analytic[name][idx])
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, err if math.isfinite(err) else math.inf)
        per_block[name] = worst
    return per_block
