"""Network layers with explicit forward and backward passes.

The model hands the layers a batch of B utterances padded to its longest
length T: indices (B, T), embeddings (B, T, E); sample b's own
positions are 0 .. L_b - 1, ``lengths[b]``, and a batch of one is the same
code. Only two layers read lengths: the recurrence runs packed, its step t
computing only the samples longer than t (its backward direction runs over
each sample reversed within its length), and max pooling counts only the
sample's own L_b - 2 windows. Positions past L_b thus reach no output, and
get exactly zero gradient.

The forward layers also take leading stack axes in front of these: indices
(..., B, T) and embeddings (..., B, T, E), with one length per batch
position, (B,), shared by every slice. They index from the right, time
being axis -2 of the embeddings and batch axis -3, so each (B, T, E) slice
is computed as a call on that slice alone would compute it, with one numpy
call per layer (per step, in the recurrence) for the whole stack. A matrix
product over a stack makes one product per slice: a stack of S batches of
one, (S, 1, T, E), gives each sample the very bits its own batch of one
gives. The recurrence also runs S sequences of any lengths as such a stack,
the embedding rows given as a ``Lookup``: step t computes the (n_t, 1, ·)
slices still live. The LSTM cell's weights may be stacked too, one
direction per slice: a training batch runs both directions as one chain,
(2, B, T, E), one cell call per step. The backward passes take (B, T, E).

Each forward returns the values the matching backward needs (a cache);
each backward accumulates parameter gradients into a parameter object of
the layer's own class (built zero, so gradients have the parameters'
shapes) and returns the gradients flowing to its inputs. There is no
autodiff graph: the chain rule is spelled out per layer. A recurrence
step's cache holds its activated gates and states, each a contiguous array
of its own, (2, n_t, ·) for both directions. The backward pass packs them
in one pass, (2, N, ·), rows ordered (step, sample), and forms there every
factor of the cell's gradient that the forward pass alone decides; each
direction's backward steps then read row slices of its half, on its own 2-D
weights, and write their gate gradients into their rows of one packed
buffer and their state gradients over the running ones, in place.

The LSTM cell lets every gate read the cell state through full square
matrices (``w_ci``, ``w_cf``, ``w_co``), not the diagonal peephole vectors
of common variants, and the output gate reads the freshly updated cell
state. Both choices are deliberate and the backward pass differentiates
them exactly. Each direction stores its weights gate-stacked, one matrix per
operand (the fused-gate layout of Appleyard et al., arXiv 1604.01946), so a
chain forms its input projection for every step before its first (a stack,
for each run of steps), a cell step makes one product per remaining operand
for its live rows, and a chain's weight gradients come from one product per
stack over the batch's sum of L_b live rows.
The 15 per-gate blocks that the model file names are column views of
those stacks.
"""
from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .tensor import HALF, Rng, uniform_init

CONV_WIDTH = 3

# Live rows per input projection of a stacked recurrence (``_run_stack``):
# 0.4 MB in float32 at the paper's H = 50.
PROJECTION_ROWS = 512


def glorot_limit(fan_in: int, fan_out: int) -> float:
    return math.sqrt(6.0 / (fan_in + fan_out))


# The gates each stack holds, in column order (the candidate g does not read
# the cell). A block is named by its stack and gate: w_xi ... w_co, b_i ... b_o.
_STACK_GATES = {"w_x": "ifgo", "w_h": "ifgo", "w_c": "ifo", "b": "ifgo"}


@dataclass(eq=False)
class LSTMParams:
    """Weights and biases of one recurrence direction, stored gate-stacked.

    ``w_x`` (input_size, 4H) acts on the token embedding, ``w_h`` (H, 4H) on
    the previous hidden state, and ``b`` (4H) is the bias, each with gate
    columns i, f, g, o (input, forget, candidate, output) of width H; ``w_c``
    (H, 3H) acts on the cell state, gate columns i, f, o. ``blocks()`` gives
    the 15 per-gate column views ``w_xi`` ... ``b_o``, in a fixed order;
    writing into a view writes into its stack.
    """
    w_x: np.ndarray
    w_h: np.ndarray
    w_c: np.ndarray
    b: np.ndarray

    @staticmethod
    def stack_shapes(input_size: int, hidden: int) -> list[tuple[int, ...]]:
        """The shapes of ``w_x``, ``w_h``, ``w_c`` and ``b``, in that order."""
        return [(input_size, 4 * hidden), (hidden, 4 * hidden), (hidden, 3 * hidden),
                (4 * hidden,)]

    @property
    def hidden_size(self) -> int:
        return self.w_h.shape[-2]

    @property
    def input_size(self) -> int:
        return self.w_x.shape[-2]

    def blocks(self) -> dict[str, np.ndarray]:
        H = self.hidden_size
        return {(stack if stack != "b" else "b_") + gate:
                getattr(self, stack)[..., k * H:(k + 1) * H]
                for stack, gates in _STACK_GATES.items() for k, gate in enumerate(gates)}


@dataclass
class ConvParams:
    filters: np.ndarray  # (num_filters, CONV_WIDTH, embed_dim)
    bias: np.ndarray     # (num_filters,)

    @property
    def num_filters(self) -> int:
        return self.filters.shape[0]

    def blocks(self) -> dict[str, np.ndarray]:
        return {"filters": self.filters, "bias": self.bias}


@dataclass
class DenseParams:
    weight: np.ndarray  # (input_dim, num_classes)
    bias: np.ndarray    # (num_classes,)

    def blocks(self) -> dict[str, np.ndarray]:
        return {"weight": self.weight, "bias": self.bias}


def init_weights(rng: Rng, *params) -> None:
    """Draw Glorot-uniform values, in place, into every block of two or more
    axes, object by object in ``blocks()`` order; biases are left as they
    are. A block's fans are its first axis and the product of the others.
    Each run of consecutive such blocks that share shape and dtype (so share
    the limit) takes one ``uniform_init`` draw of shape (k, *shape), slice j
    going to its block j: the stream order, and so every value, is that of
    one draw per block."""
    views = [view for p in params for view in p.blocks().values() if view.ndim >= 2]
    for (shape, dtype), run in itertools.groupby(views, key=lambda v: (v.shape, v.dtype)):
        run = list(run)
        limit = glorot_limit(shape[0], math.prod(shape[1:]))
        for view, values in zip(run, uniform_init(rng, (len(run), *shape), limit, dtype)):
            view[...] = values


# ---------------------------------------------------------------------------
# embedding

def embedding_forward(indices, table: np.ndarray) -> np.ndarray:
    """Row lookup for an index array of any shape, (B, T) in the model; PAD
    (index 0) rows are zero regardless of table contents."""
    indices = np.asarray(indices, dtype=np.intp)
    if indices.size and (indices.min() < 0 or indices.max() >= table.shape[0]):
        raise ValueError("embedding index out of range")
    out = table[indices]
    out[indices == 0] = 0
    return out


def embedding_backward(indices, d_out: np.ndarray, grad_table: np.ndarray) -> None:
    """Scatter-add rows of ``d_out`` into ``grad_table``; PAD stays frozen."""
    indices = np.asarray(indices, dtype=np.intp)
    mask = indices != 0
    np.add.at(grad_table, indices[mask], d_out[mask])


# ---------------------------------------------------------------------------
# LSTM cell

class CellCache(NamedTuple):
    params: LSTMParams
    h_prev: np.ndarray
    c_prev: np.ndarray
    i_f: np.ndarray     # the activated input and forget gates, (..., B, 2H)
    g: np.ndarray       # the activated candidate
    o: np.ndarray       # the activated output gate
    c: np.ndarray
    tanh_c: np.ndarray


def lstm_cell_forward(xw, h_prev, c_prev, p: LSTMParams):
    """One memory-cell step for a batch: ``xw`` (..., B, 4H) is the step's
    input projection ``x @ p.w_x + p.b``, ``h_prev`` and ``c_prev``
    (..., B, H); returns the new (..., B, H) hidden and cell states. The
    recurrent term is added into ``xw`` in place.

    Gate order: input and forget gates read (x, h_prev, c_prev); the
    candidate reads (x, h_prev); the output gate reads (x, h_prev, c_new).
    """
    H = p.hidden_size
    if xw.ndim < 2 or xw.shape[-1] != 4 * H or h_prev.shape != (*xw.shape[:-1], H):
        raise ValueError(
            f"cell shapes disagree: xw {xw.shape}, h {h_prev.shape}, "
            f"params ({p.input_size}, {H})"
        )
    # The bias joins the input projection before the recurrent term: other
    # summation orders raise the gradient check's round-off past its bound.
    z = xw
    z += h_prev @ p.w_h
    # Each activation is written to a fresh contiguous array (a sigmoid
    # gate's is the product its cell term lands in), never into a column
    # slice of z: elementwise work on a strided slice costs about twice as
    # much once it has several rows. A sigmoid is four in-place operations,
    # 0.5 * tanh(x / 2) + 0.5, as tanh never overflows where exp(-x) would.
    half = HALF.get(z.dtype, 0.5)
    i_f = c_prev @ p.w_c[..., :2 * H]
    i_f += z[..., :2 * H]
    i_f *= half
    np.tanh(i_f, out=i_f)
    i_f *= half
    i_f += half
    g = np.tanh(z[..., 2 * H:3 * H])
    c = i_f[..., H:] * c_prev + i_f[..., :H] * g
    o = c @ p.w_c[..., 2 * H:]
    o += z[..., 3 * H:]
    o *= half
    np.tanh(o, out=o)
    o *= half
    o += half
    tanh_c = np.tanh(c)
    h = o * tanh_c
    return h, c, CellCache(p, h_prev, c_prev, i_f, g, o, c, tanh_c)


class PackedChain(NamedTuple):
    """One chain's forward values for its backward pass, packed by
    ``pack_chain``: N rows, ordered (step, sample), N being the chain's live
    rows, so that step t's n_t samples are one row range of every array."""
    params: LSTMParams
    x: np.ndarray         # (N, E) the inputs
    h_prev: np.ndarray    # (N, H)
    c: np.ndarray         # (N, H)
    factors: np.ndarray   # (12, N, H) forward-only factors, planes as in ``pack_chain``
    dz: np.ndarray        # (N, 4H) the gate gradients the steps fill
    dz_gates: np.ndarray  # (4, N, H) the same memory, gate-major
    weights_t: tuple      # transposes of w_c's o columns, w_c's i, f columns and w_h


def pack_chain(caches, x) -> PackedChain:
    """Packs a chain, or a stack of chains, for its backward pass.

    ``caches`` are the ``CellCache``s, step by step, fields (..., n_t, ·),
    and ``x`` (..., N, E) their inputs, rows ordered (step, sample); each
    array of the ``PackedChain`` gets the same leading axes. The values are
    packed the same way, the whole stack at once, and every factor of the
    cell backward that only the forward pass decides is formed here, once,
    gate-major, (..., 12, N, H). Its planes are tanh c, o, 1 - tanh^2 c,
    1 - o, g, c_prev, i, f, 1 - g^2, 1 - i, 1 - f and 1, so that each
    operand pair or triple the cell backward multiplies by is one slice:
    [tanh c, o], [o, 1 - tanh^2 c], [g, c_prev, i], [i, f, 1 - g^2] and
    [1 - i, 1 - f, 1]. ``dz`` is left for the steps to fill.
    """
    p = caches[0].params
    H = p.hidden_size
    i_f = np.concatenate([s.i_f for s in caches], axis=-2)
    *lead, N, _ = i_f.shape
    F = np.empty((12, *lead, N, H), dtype=i_f.dtype)  # plane-major, each plane contiguous
    np.concatenate([s.tanh_c for s in caches], axis=-2, out=F[0])
    np.concatenate([s.o for s in caches], axis=-2, out=F[1])
    np.multiply(F[0], F[0], out=F[2])
    np.subtract(1.0, F[2], out=F[2])  # 1 - tanh^2 c
    np.subtract(1.0, F[1], out=F[3])  # 1 - o
    np.concatenate([s.g for s in caches], axis=-2, out=F[4])
    np.concatenate([s.c_prev for s in caches], axis=-2, out=F[5])
    F[6], F[7] = i_f[..., :H], i_f[..., H:]
    np.multiply(F[4], F[4], out=F[8])
    np.subtract(1.0, F[8], out=F[8])  # 1 - g^2
    np.subtract(1.0, F[6:8], out=F[9:11])  # 1 - i, 1 - f
    F[11] = 1
    dz = np.empty((*lead, N, 4 * H), dtype=i_f.dtype)
    h_prev, c = (np.concatenate([getattr(s, field) for s in caches], axis=-2)
                 for field in ("h_prev", "c"))
    weights = p.w_c[..., 2 * H:], p.w_c[..., :2 * H], p.w_h
    return PackedChain(p, x, h_prev, c, F.transpose(*range(1, F.ndim - 2), 0, -2, -1), dz,
                       dz.reshape(*lead, N, 4, H).swapaxes(-2, -3),
                       tuple(w.swapaxes(-1, -2) for w in weights))


def lstm_cell_backward(chain: PackedChain, rows: slice, dh, dc):
    """Exact gradients of one batched cell step, in place.

    ``rows`` is the step's row range of the packed ``chain``, its n live
    samples. ``dh`` and ``dc`` (n, H) are the gradients arriving at the
    step's new hidden and cell states; they are overwritten with those of
    the previous states. The gradient of the stacked gate pre-activations
    (gates as in ``LSTMParams.b``) goes into the step's rows of
    ``chain.dz``, from which the chain forms the weight and bias gradients
    and ``dx = dz @ p.w_x.T``. Returns (those n rows of chain.dz, dh, dc).
    The output gate's dependence on the new cell state contributes to dc
    before the cell update is unwound.

    The elementwise work runs gate-major on the contiguous (n, H) planes of
    the step's rows of ``chain.factors``, two or three gates per operation,
    and each result is rounded as the textbook expression's left-to-right
    products round it: dz_o = dh * tanh c * o * (1 - o), dz_i = dc * g * i *
    (1 - i), dz_f = dc * c_prev * f * (1 - f) and dz_g = dc * i * (1 - g^2),
    the last then multiplied by the plane of ones, which is exact.
    """
    H = chain.params.hidden_size
    F = chain.factors[:, rows]
    dz = chain.dz[rows]
    dz_gates = chain.dz_gates[:, rows]
    w_co_t, w_cif_t, w_h_t = chain.weights_t
    u = dh * F[0:2]
    u *= F[1:3]
    np.multiply(u[0], F[3], out=dz_gates[3])
    dc += u[1]
    dc += dz_gates[3] @ w_co_t
    t = dc * F[4:7]
    t *= F[6:9]
    np.multiply(t, F[9:12], out=dz_gates[:3])
    d_if = dz[:, :2 * H] @ w_cif_t
    dc *= F[7]
    dc += d_if
    np.matmul(dz, w_h_t, out=dh)
    return dz, dh, dc


# ---------------------------------------------------------------------------
# bidirectional unrolling

class BiLSTMCache(NamedTuple):
    X: np.ndarray          # (B, T, E)
    lengths: np.ndarray    # (B,)
    order: np.ndarray      # the batch positions by descending length
    params: tuple          # (p_fwd, p_bwd), the very objects bilstm_forward was given
    steps: list            # CellCache per step t, (2, n_t, ·): both directions, one per slice


def _lengths(lengths, X):
    """The lengths as an int array (B,) and as a list of ints, one per
    position of X's batch axis -3, each within [1, T], T being the length of
    X's axis -2; for a ``Lookup``, one per sequence, summing to its rows.
    The bounds are checked on the Python ints."""
    lengths = np.asarray(lengths, dtype=np.intp)
    ints = lengths.tolist()
    if isinstance(X, Lookup):
        shape, fits = X.ids.shape, lengths.ndim == 1 and sum(ints) == len(X.ids)
    else:
        shape, fits = X.shape[-3:-1], X.ndim >= 3 and lengths.shape == X.shape[-3:-2]
    if not (fits and ints and 1 <= min(ints) and max(ints) <= shape[-1]):
        raise ValueError(f"lengths {ints} out of range for shape {shape}")
    return lengths, ints


def _run_chain(Xs, sizes, p: LSTMParams):
    """Runs step t of the cell on the first ``sizes[t]`` rows of Xs (..., B,
    T, E), its samples sorted by descending length; returns each sample's
    final hidden state (..., B, H) and the step caches. The weights may be
    stacked, (2, ·, ·) for Xs (..., 2, B, T, E), as both directions run.
    Every step's input projection is formed before the first, a B-row
    product, time-major; it and the states are cut to the live rows only
    where their count drops. The states are fresh each step, so rows cached
    as ``h_prev`` stay as read."""
    nd = Xs.ndim
    XW = Xs.transpose(nd - 2, *range(nd - 2), nd - 1) @ p.w_x  # (T, ..., B, 4H)
    XW += p.b
    h = c = np.zeros((*Xs.shape[:-2], p.hidden_size), dtype=Xs.dtype)
    live = XW
    final, caches = np.empty_like(h), []
    # ``ended`` is the next step's row count: the rows past it end here
    for t, (n, ended) in enumerate(zip(sizes, sizes[1:] + [0])):
        if n < h.shape[-2]:
            live, h, c = XW[..., :n, :], h[..., :n, :], c[..., :n, :]
        h, c, cache = lstm_cell_forward(live[t], h, c, p)
        caches.append(cache)
        if ended < n:
            final[..., ended:n, :] = h[..., ended:, :]
    return final, caches


class Lookup(NamedTuple):
    """The embedding rows ``table[ids]``, PAD rows zero, of S sequences laid
    end to end: ids (N,), in range (``embedding_forward`` checks them), are
    looked up only as a stacked recurrence reads them."""
    table: np.ndarray
    ids: np.ndarray


def _run_stack(X: Lookup, rows, sizes, p: LSTMParams):
    """Final hidden states (S, 1, H) of a stack of batches of one sorted by
    descending length: step t runs the cell on its first ``sizes[t]``
    slices, (n, 1, ·), reading the rows ``rows`` of X, step-major. Inputs
    and projection are formed per run of steps of at most
    ``PROJECTION_ROWS`` rows (or one step), and no step cache is kept: an
    ended slice's row keeps its final state in place."""
    h = c = np.zeros((sizes[0], 1, p.hidden_size), dtype=X.table.dtype)
    ends, stop = list(itertools.accumulate(sizes)), 0
    for t, (n, end) in enumerate(zip(sizes, ends)):
        if end > stop:  # a run starts here and ends after the last step that fits
            first, stop = end - n, ends[max(t, bisect.bisect(ends, end - n + PROJECTION_ROWS) - 1)]
            ids = X.ids[rows[first:stop]]
            x = X.table[ids]
            x[ids == 0] = 0
            XW = x[:, None] @ p.w_x
            XW += p.b
        xw = XW[end - n - first:end - first]
        if n < len(h):
            h[:n], c[:n] = lstm_cell_forward(xw, h[:n], c[:n], p)[:2]
        else:
            h, c = lstm_cell_forward(xw, h, c, p)[:2]
    return h


def bilstm_forward(X, lengths, p_fwd: LSTMParams, p_bwd: LSTMParams):
    """Final (..., B, H) hidden states of both directions over X (..., B, T, E).

    The batch runs packed: sorted by descending length, ties in batch order
    (a row permutation, undone on the way out). Step t computes only the n_t
    samples longer than t, for max L_b steps, so sample b's final state is
    the state of its own L_b-th step and no position past L_b is computed.
    Both directions run as one chain over one gathered input (..., 2, B,
    T, E), slice 0 each sample's positions in order, slice 1 the same
    reversed within its length, and their (2, ·, ·) weight stacks: one cell
    call per step, each slice with its own direction's products and bits.

    X may also be a ``Lookup`` of S sequences, lengths (S,): they run sorted
    the same way as one stack of S batches of one (see ``_run_stack``), so
    each gets the bits of its own batch of one. The states are then (S, H),
    and the cache None: the backward pass takes (B, T, E) only.
    """
    lengths, ints = _lengths(lengths, X)
    order = sorted(range(len(ints)), key=ints.__getitem__, reverse=True)  # stable
    ordered = [ints[b] for b in order]
    sizes = []  # sizes[t] = n_t
    for k in range(len(ordered), 0, -1):
        sizes += [k] * (ordered[k - 1] - len(sizes))
    in_order = ordered == ints
    order = np.array(order)
    if isinstance(X, Lookup):  # the row each live (step, sorted slice) reads, on a (T, S) grid
        t, L = np.arange(len(sizes))[:, None], lengths[order]
        end, live = np.cumsum(lengths)[order], L > t
        h_fwd = _run_stack(X, (end - L + t)[live], sizes, p_fwd)[:, 0]
        h_bwd = _run_stack(X, (end - 1 - t)[live], sizes, p_bwd)[:, 0]
        cache = None
    else:
        t = np.arange(len(sizes))
        pos = np.stack(np.broadcast_arrays(t, np.maximum(lengths[order, None] - 1 - t, 0)))
        pairs = zip(*((q.w_x, q.w_h, q.w_c, q.b) for q in (p_fwd, p_bwd)))
        p = LSTMParams(*(np.array(w).reshape(2, -1, w[0].shape[-1]) for w in pairs))  # (2, ·, ·)
        final, steps = _run_chain(X[..., order[:, None], pos, :], sizes, p)  # (..., 2, B, H)
        h_fwd, h_bwd = final[..., 0, :, :], final[..., 1, :, :]
        cache = BiLSTMCache(X, lengths, order, (p_fwd, p_bwd), steps)
    if not in_order:
        unsort = np.argsort(order)
        h_fwd, h_bwd = h_fwd[..., unsort, :], h_bwd[..., unsort, :]
    return h_fwd, h_bwd, cache


def _chain_backward(chain: PackedChain, sizes, d_final, grads: LSTMParams):
    """Backpropagation through time over one direction's packed chain, its
    steps of ``sizes`` rows, ``d_final`` (B, H) in the chain's sorted order;
    then one product per gate-stack over the chain's live rows, whose inputs
    ``chain.x`` are ordered (step, sample), adds its weight gradients into
    ``grads`` and gives d(x).

    The steps run over their row ranges of the packed chain in reverse, each
    writing its rows of the packed gate gradients, and the gradients of its
    n_t samples' previous states over their rows of ``d_final`` and of the
    running cell gradient. So a sample's ``d_final`` row is untouched until
    its last step, where it enters. The weight gradients read x, h_prev,
    c_prev, c and dz from the packed chain.
    """
    p = chain.params
    H = p.hidden_size
    dh = d_final
    dc = np.zeros_like(d_final)
    end = len(chain.x)
    for n in reversed(sizes):
        lstm_cell_backward(chain, slice(end - n, end), dh[:n], dc[:n])
        end -= n
    dz = chain.dz
    grads.w_x += chain.x.T @ dz
    grads.w_h += chain.h_prev.T @ dz
    grads.w_c[:, :2 * H] += chain.factors[5].T @ dz[:, :2 * H]  # c_prev
    grads.w_c[:, 2 * H:] += chain.c.T @ dz[:, 3 * H:]
    grads.b += dz.sum(axis=0)
    return dz @ p.w_x.T


def bilstm_backward(cache: BiLSTMCache, d_fwd, d_bwd, grads_fwd: LSTMParams,
                    grads_bwd: LSTMParams) -> np.ndarray:
    """Backpropagation through time for both chains; returns d(embeddings),
    (B, T, E), zero past each sample's length. Both chains are packed in
    one pass, (2, N, ·); direction d's chain is slice [d] of the pack, over
    the very ``LSTMParams`` that ``bilstm_forward`` was given for it."""
    X, lengths, order, params, steps = cache
    # the live (step, sorted sample) cells, in the order the steps ran them
    step, k = np.nonzero(lengths[order] > np.arange(len(steps))[:, None])
    rows = order[k]
    pos = np.stack([step, lengths[rows] - 1 - step])  # the positions each chain read
    packed = pack_chain(steps, X[rows, pos])  # both chains, (2, N, ·)
    fwd, bwd = (PackedChain(p, *(field[d] for field in packed[1:-1]),
                            tuple(w[d] for w in packed.weights_t)) for d, p in enumerate(params))
    sizes = [s.h_prev.shape[-2] for s in steps]
    dX = np.zeros_like(X)
    dX[rows, pos[0]] = _chain_backward(fwd, sizes, d_fwd[order], grads_fwd)
    dX[rows, pos[1]] += _chain_backward(bwd, sizes, d_bwd[order], grads_bwd)
    return dX


# ---------------------------------------------------------------------------
# convolution and pooling

class ConvCache(NamedTuple):
    windows: np.ndarray   # (..., B * n_windows, CONV_WIDTH * embed_dim)
    active: np.ndarray    # ReLU mask, (..., B, n_windows, num_filters)
    params: ConvParams


def conv_forward(X: np.ndarray, p: ConvParams):
    """Valid width-3 convolution + ReLU over every window of X: (..., B, T, E)
    gives (..., B, T - 2, num_filters), with one product per B * (T - 2)
    windows. Which windows count is for pooling to say (``maxpool_over_time``)."""
    *lead, B, T, _ = X.shape
    n = T - CONV_WIDTH + 1
    if n < 1:
        raise ValueError(f"convolution input has {T} rows; one window needs {CONV_WIDTH}")
    # window w of a sample is its rows w, w+1, w+2 laid end to end
    windows = np.concatenate([X[..., k:k + n, :] for k in range(CONV_WIDTH)], axis=-1)
    windows = windows.reshape(*lead, B * n, -1)
    pre = windows @ p.filters.reshape(p.num_filters, -1).T + p.bias
    pre = pre.reshape(*lead, B, n, -1)
    active = pre > 0
    fmap = np.where(active, pre, 0)
    return fmap, ConvCache(windows, active, p)


def conv_backward(cache: ConvCache, d_fmap: np.ndarray, grads: ConvParams) -> np.ndarray:
    windows, active, p = cache
    B, n, F = d_fmap.shape
    d_pre = np.where(active, d_fmap, 0).reshape(B * n, F)
    grads.bias += d_pre.sum(axis=0)
    grads.filters += (d_pre.T @ windows).reshape(p.filters.shape)
    d_windows = (d_pre @ p.filters.reshape(F, -1)).reshape(B, n, CONV_WIDTH, -1)
    dX = np.zeros((B, n + CONV_WIDTH - 1, d_windows.shape[3]), dtype=d_fmap.dtype)
    for k in range(CONV_WIDTH):
        dX[:, k:k + n] += d_windows[:, :, k]
    return dX


def maxpool_over_time(fmap: np.ndarray, lengths):
    """Per-sample, per-feature max over the first ``lengths[b]`` rows of
    fmap (..., B, n, F), one (B, n) mask for every leading slice; argmax
    rows (..., B, F) cached for the backward pass.
    Rows past a sample's length are masked out, so its maximum and argmax
    (the first occurrence wins ties) are those of its own rows alone. The
    pooled values are the masked map's max: the value at the argmax, bit for
    bit, in a map without -0.0 or NaN, as a ReLU map is."""
    lengths, ints = _lengths(lengths, fmap)
    masked = fmap
    if min(ints) < fmap.shape[-2]:
        own = np.arange(fmap.shape[-2]) < lengths[..., None]
        masked = np.where(own[..., None], fmap, -np.inf)
    return masked.max(axis=-2), masked.argmax(axis=-2)


def maxpool_backward(argmax: np.ndarray, d_pooled: np.ndarray, length: int) -> np.ndarray:
    d_fmap = np.zeros((d_pooled.shape[0], length, d_pooled.shape[1]), dtype=d_pooled.dtype)
    np.put_along_axis(d_fmap, argmax[:, None], d_pooled[:, None], axis=1)
    return d_fmap


# ---------------------------------------------------------------------------
# dense head and dropout

def dense_forward(vec: np.ndarray, p: DenseParams) -> np.ndarray:
    """Logits (..., B, C) of the fused vectors ``vec`` (..., B, D)."""
    if vec.ndim < 2 or vec.shape[-1] != p.weight.shape[0]:
        raise ValueError(f"dense input {vec.shape} does not match weight {p.weight.shape}")
    return vec @ p.weight + p.bias


def dense_backward(vec: np.ndarray, p: DenseParams, d_logits: np.ndarray,
                   grads: DenseParams) -> np.ndarray:
    grads.weight += vec.T @ d_logits
    grads.bias += d_logits.sum(axis=0)
    return d_logits @ p.weight.T


def dropout(x: np.ndarray, rate: float, rng: Rng | None):
    """Inverted dropout: zero with probability ``rate``, scale survivors.

    The mask comes from ``rng.uniform``, one draw per element in row-major
    order, so a (B, F) batch gets the masks of B one-row calls made in turn.
    Without ``rng`` (inference), or at rate 0, it is the identity: no draws.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    if rng is None or rate == 0.0:
        return x, None
    keep = rng.uniform(0.0, 1.0, x.shape) >= rate
    mask = keep.astype(x.dtype) / (1.0 - rate)
    return x * mask, mask


def dropout_backward(d_out: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    return d_out if mask is None else d_out * mask
