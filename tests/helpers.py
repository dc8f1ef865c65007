"""Shared oracles for gradient and forward verification.

Everything here recomputes results through an independent path (pure Python
scalar loops, central finite differences) so the production code never
checks itself against itself. The helpers after ``scalar_lstm_cell`` are
small utilities the tests share.
"""

import math
import struct

import numpy as np

from intentnet import container
from intentnet.data import PAD_INDEX


def numeric_gradient(loss_fn, arr, eps=1e-5):
    """Central finite differences of a scalar-valued closure w.r.t. ``arr``.

    Perturbs ``arr`` in place entry by entry and restores it; ``loss_fn``
    must recompute the full forward pass on every call.
    """
    grad = np.zeros(arr.shape, dtype=np.float64)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + eps
        plus = loss_fn()
        arr[idx] = orig - eps
        minus = loss_fn()
        arr[idx] = orig
        grad[idx] = (plus - minus) / (2.0 * eps)
    return grad


def max_rel_error(analytic, numeric):
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def scalar_lstm_cell(x, h_prev, c_prev, p):
    """Pure-Python scalar-loop reimplementation of one cell step."""
    k = len(x)
    hidden = len(h_prev)
    sig = lambda z: 1.0 / (1.0 + math.exp(-z))

    def gate(wx, wh, wc, b, c_term, act):
        out = []
        for j in range(hidden):
            z = float(b[j])
            for a in range(k):
                z += float(x[a]) * float(wx[a, j])
            for a in range(hidden):
                z += float(h_prev[a]) * float(wh[a, j])
            if wc is not None:
                for a in range(hidden):
                    z += float(c_term[a]) * float(wc[a, j])
            out.append(act(z))
        return out

    b = p.blocks()
    i = gate(b["w_xi"], b["w_hi"], b["w_ci"], b["b_i"], c_prev, sig)
    f = gate(b["w_xf"], b["w_hf"], b["w_cf"], b["b_f"], c_prev, sig)
    g = gate(b["w_xg"], b["w_hg"], None, b["b_g"], None, math.tanh)
    c = [f[j] * float(c_prev[j]) + i[j] * g[j] for j in range(hidden)]
    o = gate(b["w_xo"], b["w_ho"], b["w_co"], b["b_o"], c, sig)
    h = [o[j] * math.tanh(c[j]) for j in range(hidden)]
    return np.array(h), np.array(c)


def decode(indices, vocab):
    """Inverse of ``data.encode`` for in-vocabulary text (padding dropped)."""
    return "".join(vocab.tokens[i] for i in indices if i != PAD_INDEX)


def rewrite_container(path, edit):
    """Apply ``edit(header, blocks)`` to a saved model; the checksum stays valid."""
    header, blocks = container.read_container(path)
    edit(header, blocks)
    container.write_container(path, header, blocks)


def write_raw_header(path, header_bytes):
    """A container holding ``header_bytes`` as its header, no blocks, a valid checksum."""
    payload = b"".join([container.MAGIC, struct.pack("<I", len(header_bytes)),
                        header_bytes, struct.pack("<I", 0)])
    path.write_bytes(payload + struct.pack("<Q", container.fnv1a64(payload)))
