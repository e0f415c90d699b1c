"""Minimal reverse-mode autodiff over float64 numpy arrays.

Just the machinery that training the codec and the toy sequence model
runs: `add`, `mul`, `relu`, `stop_gradient`, `take_rows` and its adjoint
`place_rows`, `conv1d` and `conv_transpose1d` (both with a bias),
`linear`, `embedding` (row gather), causal multi-head `attention` (one op,
tiled over query rows), `layer_norm`, weighted `mse_loss`, masked
`cross_entropy`; then the parameter store, which a model's layout (a list
of `Param`) fills with drawn weights (`init_params`) or a checkpoint's
arrays (`load_params`), Adam (`optimizer_step`, in place), the minibatch
iterator both trainers share, and the STKT checkpoint container. Every
recorded op stores a closure that scatters the incoming gradient to its
parents; backward() walks the graph in reverse topological order, and a
parent that records no gradient gets none computed. No op reshapes or
concatenates: the program addresses rows by index instead. Ops that only
tests build oracles from (sub, matmul, transpose2d, softmax, narrow,
concat, sum_all, mean_all) live in `tests/oracle_ops.py`.

Rows are time-major throughout. The sequence-model ops take leading axes:
`linear`, `layer_norm`, `relu` and `add` act on (..., D) rows however many
leading axes there are, `embedding` takes ids of any shape, and
`take_rows` and `place_rows` take an index of rows over the leading axes
(the LM's and the codec's packed row numbers). `attention` takes the rows
of several samples packed end to end as (N, D) queries, keys and values,
with each sample's number of rows; it splits D into heads itself, pads the
samples into tiles only inside the op, and scores no key above a query
tile's diagonal and no tile that holds only a sample's padding. The
convolutions take (L, C) rows; several samples run as one sequence with
zero rows between them (the codec's `Packing`). Both are GEMMs over
im2col windows (`_im2col`, one strided view copied once) and their
adjoint (`_col2im`, one strided add per tap).

All math is float64 and deterministic (fixed reduction order), so identical
seeds give bit-identical parameters. The one scatter whose indices may
repeat, `embedding`'s backward, uses np.add.at, which adds in index order.
Every other backward writes each gradient entry from one place, by slicing
or by assignment (`_col2im` adds one strided slice per tap; `attention`
adds its key and value gradients tile by tile, in tile order).

Checkpoints (`checkpoint STKT v2`) hold named, typed entries, integers
little-endian: magic b"STK2" (v1 began b"STKT"), a u32 entry count, then
per entry in sorted name order
    u16 name length, UTF-8 name, 2-byte dtype tag (f8 float64, i8 int64,
    u8 byte), u8 ndim, ndim u32 dims, the data in C order;
last a u32 trailer, zlib.crc32 of every byte before it. Parameters are f8,
codebook usage counts i8, and a config one u8 entry: the JSON object of
its dataclass's init fields (`config_record`, read back by `read_record`).
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from contextlib import contextmanager
from dataclasses import fields
from typing import NamedTuple

import numpy as np

from .errors import StroketokError

CHECKPOINT_MAGIC = b"STK2"
CHECKPOINT_FORMAT_VERSION = "checkpoint STKT v2"
# dtype tag of an entry -> its element type
_DTYPES = {b"f8": np.dtype("<f8"), b"i8": np.dtype("<i8"), b"u8": np.dtype("u1")}
_TAGS = {dtype: tag for tag, dtype in _DTYPES.items()}


# score of a masked attention key: far below any real score, so exp() of
# it after max-subtraction is exactly 0
_MASKED = -1e9
# query rows per attention tile
_TILE = 64


class ShapeMismatch(StroketokError):
    pass


class GraphCycle(StroketokError):
    pass


class NoGradient(StroketokError):
    pass


class CorruptCheckpoint(StroketokError):
    """A file that is not a well-formed STKT v2 container (wrong magic, a
    CRC-32 mismatch, entries that overrun or stop short of the trailer), or
    whose entries do not make up the checkpoint read from it."""


_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording (inference paths)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _make(data, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    if _grad_enabled and any(p.requires_grad for p in parents):
        t = Tensor(data, requires_grad=True)
        t._parents = parents
        t._backward_fn = backward_fn
        return t
    return Tensor(data)


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add `g` to t's gradient. The first gradient is stored as given, and
    later ones are added out of place, so no array passed in is written to
    (one `g` may reach several parents)."""
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def backward(loss: Tensor) -> None:
    """Populate grads of every reachable requires_grad tensor.

    `loss` must be scalar. Stop-gradient outputs are constants, so nothing
    flows past them.
    """
    if loss.data.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.data.shape}")
    order: list[Tensor] = []
    state: dict[int, int] = {}  # 1 = in progress, 2 = done
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        nid = id(node)
        if processed:
            state[nid] = 2
            order.append(node)
            continue
        st = state.get(nid)
        if st == 2:
            continue
        if st == 1:
            raise GraphCycle("cycle detected in computation graph")
        state[nid] = 1
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and state.get(id(p)) != 2:
                if state.get(id(p)) == 1:
                    raise GraphCycle("cycle detected in computation graph")
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)


# ---------------------------------------------------------------------------
# Elementwise / linear ops
# ---------------------------------------------------------------------------


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), bw)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x (..., D) @ w (D, E) + b (E,), as one GEMM over every leading row."""
    xd, wd = x.data, w.data
    if wd.ndim != 2 or xd.ndim < 1 or xd.shape[-1] != wd.shape[0] or (
        b.data.shape != (wd.shape[1],)
    ):
        raise ShapeMismatch(f"linear x{xd.shape} w{wd.shape} b{b.data.shape}")
    x2 = xd.reshape(-1, wd.shape[0])
    out = x2 @ wd
    out += b.data
    out_data = out.reshape(xd.shape[:-1] + (wd.shape[1],))

    def bw(g):
        g2 = g.reshape(-1, wd.shape[1])
        if w.requires_grad:
            _accum(w, x2.T @ g2)
        _accum(b, g2.sum(axis=0))
        if x.requires_grad:
            _accum(x, (g2 @ wd.T).reshape(xd.shape))

    return _make(out_data, (x, w, b), bw)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    out_data = np.where(mask, x.data, 0.0)

    def bw(g):
        _accum(x, g * mask)

    return _make(out_data, (x,), bw)


def stop_gradient(x: Tensor) -> Tensor:
    """Pass the value forward, block the gradient entirely."""
    return Tensor(x.data.copy())


def take_rows(x: Tensor, rows) -> Tensor:
    """x[rows]: `rows` indexes x's leading axes (one index array, or a
    tuple of them such as (sample, position) pairs) and names distinct
    rows."""
    out_data = x.data[rows]

    def bw(g):
        full = np.zeros_like(x.data)
        full[rows] = g
        _accum(x, full)

    return _make(out_data, (x,), bw)


def place_rows(x: Tensor, rows, out: np.ndarray) -> Tensor:
    """`out` with x's rows written at `rows` (distinct rows over out's
    leading axes, as in take_rows), in place. Only x records a gradient:
    out's other rows are a constant. With `out` all zeros this is the
    adjoint of take_rows."""
    out[rows] = x.data

    def bw(g):
        _accum(x, g[rows])

    return _make(out, (x,), bw)


# ---------------------------------------------------------------------------
# Convolutions
# ---------------------------------------------------------------------------


def _im2col(xp: np.ndarray, k: int, stride: int, t_out: int) -> np.ndarray:
    """(T, K*C) windows of a C-contiguous (L, C) buffer: row t holds rows
    t*stride .. t*stride + K - 1 of xp back to back, column kk*C + c for
    tap kk and channel c.

    Those K rows are one contiguous run of K*C values, so the windows are a
    2-D strided view, copied once. The view needs a C-contiguous buffer;
    callers pass a fresh padded copy or np.ascontiguousarray.
    """
    if k == 1 and stride == 1:
        return xp
    row = xp.shape[1] * xp.itemsize
    # an ndarray over xp's buffer: the strided view without as_strided's
    # per-call overhead, and the buffer's size is checked against the windows
    win = np.ndarray(
        (t_out, k * xp.shape[1]), xp.dtype, xp, 0, (stride * row, xp.itemsize)
    )
    return win.copy()


def _col2im(cols: np.ndarray, k: int, stride: int, length: int) -> np.ndarray:
    """Adjoint of `_im2col`: a (length, C) array where row t*stride + kk
    sums column block kk of cols' row t, over every t and tap kk.

    One strided add per tap, taps in reverse: each output row then sums its
    terms in increasing t (decreasing tap), the order np.add.at over
    (T, K) delivers them, so the result keeps the scatter's bits.
    """
    if k == 1 and stride == 1:
        return cols
    t = cols.shape[0]
    blocks = cols.reshape(t, k, -1)
    out = np.zeros((length, blocks.shape[2]))
    span = stride * (t - 1) + 1
    for kk in range(k - 1, -1, -1):
        out[kk : kk + span : stride] += blocks[:, kk]
    return out


def conv1d(
    x: Tensor, kernel: Tensor, bias: Tensor, stride: int = 1, padding: int = 0
) -> Tensor:
    """1-D cross-correlation over time-major rows. x: (L, C_in), kernel:
    (C_out, C_in, K), output (T, C_out).

    out[t, o] = b[o] + sum_{i,k} kernel[o, i, k] * x_padded[t*stride + k, i]
    with T = floor((L + 2p - K) / stride) + 1: one GEMM of the im2col
    windows with the kernel laid out as (K*C_in, C_out).
    """
    xd, kd = x.data, kernel.data
    if xd.ndim != 2 or kd.ndim != 3 or kd.shape[1] != xd.shape[1]:
        raise ShapeMismatch(f"conv1d x{xd.shape} kernel{kd.shape}")
    if stride < 1:
        raise ShapeMismatch("stride must be >= 1")
    length, c_in = xd.shape
    c_out, _, k = kd.shape
    lp = length + 2 * padding
    if k > lp:
        raise ShapeMismatch(f"kernel {k} longer than padded input {lp}")
    t_out = (lp - k) // stride + 1

    if padding:
        xp = np.zeros((lp, c_in))
        xp[padding : padding + length] = xd
    else:
        xp = np.ascontiguousarray(xd)
    cols = _im2col(xp, k, stride, t_out)
    w2 = kd.transpose(2, 1, 0).reshape(k * c_in, c_out)
    out_data = cols @ w2
    out_data += bias.data

    def bw(g):
        if kernel.requires_grad:
            dk = (cols.T @ g).reshape(k, c_in, c_out).transpose(2, 1, 0)
            # contiguous, so Adam's elementwise updates run at full speed
            _accum(kernel, np.ascontiguousarray(dk))
        _accum(bias, g.sum(axis=0))
        if x.requires_grad:
            dxp = _col2im(g @ w2.T, k, stride, lp)
            _accum(x, dxp[padding : padding + length])

    return _make(out_data, (x, kernel, bias), bw)


def conv_transpose1d(
    x: Tensor, kernel: Tensor, bias: Tensor, stride: int = 1, padding: int = 0
) -> Tensor:
    """Gradient-of-conv semantics over time-major rows. x: (L, C_in),
    kernel: (C_in, C_out, K), output (L_out, C_out).

    Scatter-add: out[t*stride + k, o] += kernel[i, o, k] * x[t, i], then
    trim `padding` rows from both ends; L_out = (L - 1) * stride - 2p + K.
    The adjoint of conv1d: one GEMM into (L, K*C_out) columns, then
    `_col2im`; the backward is `_im2col` of the gradient and two GEMMs.
    """
    xd, kd = x.data, kernel.data
    if xd.ndim != 2 or kd.ndim != 3 or kd.shape[0] != xd.shape[1]:
        raise ShapeMismatch(f"conv_transpose1d x{xd.shape} kernel{kd.shape}")
    if stride < 1:
        raise ShapeMismatch("stride must be >= 1")
    length, c_in = xd.shape
    _, c_out, k = kd.shape
    l_full = (length - 1) * stride + k
    l_out = l_full - 2 * padding
    if l_out < 1:
        raise ShapeMismatch(f"output length {l_out} < 1")

    w2 = kd.transpose(0, 2, 1).reshape(c_in, k * c_out)
    full = _col2im(xd @ w2, k, stride, l_full)
    out_data = full[padding : padding + l_out] + bias.data

    def bw(g):
        if padding:
            gf = np.zeros((l_full, c_out))
            gf[padding : padding + l_out] = g
        else:
            gf = np.ascontiguousarray(g)
        gwin = _im2col(gf, k, stride, length)  # (L, K*C_out)
        if kernel.requires_grad:
            dk = (xd.T @ gwin).reshape(c_in, k, c_out).transpose(0, 2, 1)
            _accum(kernel, np.ascontiguousarray(dk))
        _accum(bias, g.sum(axis=0))
        if x.requires_grad:
            _accum(x, gwin @ w2.T)

    return _make(out_data, (x, kernel, bias), bw)


# ---------------------------------------------------------------------------
# Neural-net ops
# ---------------------------------------------------------------------------


def embedding(table: Tensor, ids) -> Tensor:
    """Row gather: table (V, D), int ids of any shape, output ids.shape + (D,)."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ShapeMismatch(
            f"id out of range [0, {table.data.shape[0]}): {ids.min()}..{ids.max()}"
        )
    out_data = table.data[ids]

    def bw(g):
        if table.requires_grad:
            gt = np.zeros_like(table.data)
            np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.data.shape[1]))
            _accum(table, gt)

    return _make(out_data, (table,), bw)


def attention(
    q: Tensor, k: Tensor, v: Tensor, heads: int, lengths, start: int = 0
) -> Tensor:
    """Causal multi-head scaled dot-product attention as one op, over
    samples packed end to end.

    q (N, D) holds the rows of B samples laid one after another: sample b
    owns the next lengths[b] rows (every length >= 1, their sum N). k and v
    (start + N, D) are laid out the same way, after `start` earlier rows of
    keys and values (a decoding cache); `start` > 0 needs a single sample.
    Row i of a sample attends to its own sample's keys up to position
    start + i. Each of the `heads` heads owns dh = D / heads consecutive
    columns:

        out_h[i] = softmax_j(q_h[i] . k_h[j] / sqrt(dh) + mask[i, j]) @ v_h

    where mask is -1e9 for j > start + i (a later position) and 0 otherwise,
    so a masked key gets weight exactly 0. Output (N, D), packed as q, the
    heads' columns in head order.

    Only this op sees samples as padded tiles (the variable-length layout
    of FlashAttention-2, Dao 2023): with B > 1 it scatters q, k and v into
    zeroed (B, S, D) arrays, S the longest length, works in (B, H, S, dh)
    and gathers the output and the q, k and v gradients back to the packed
    rows. One sample is viewed as (1, N, D) with no copy. The queries run
    in tiles of `_TILE` rows (the tiling of FlashAttention, Dao et al.
    2022, without its online softmax: a tile sees all of its keys at once,
    so each row's softmax is exact). The tile of rows [i0, i1) scores only
    keys [0, start + i1), masks only its diagonal block, and runs only the
    samples with more than i0 rows. So the keys above a tile's diagonal are
    never scored, and no tile runs that holds only a sample's padding. A
    padding row sits after its sample's last row, so the causal mask hides
    it from every real row, and the gather drops it. The backward reuses
    each tile's weights, writes the query gradient tile by tile, and adds
    the key and value gradients of the later tiles to the first tile's in
    tile order.
    """
    qd, kd, vd = q.data, k.data, v.data
    if qd.ndim != 2 or kd.shape != vd.shape or kd.ndim != 2:
        raise ShapeMismatch(f"attention q{qd.shape} k{kd.shape} v{vd.shape}")
    n, d = qd.shape
    if kd.shape[1] != d or start < 0 or kd.shape[0] != start + n:
        raise ShapeMismatch(
            f"attention q{qd.shape} k{kd.shape} v{vd.shape} start {start}"
        )
    if heads < 1 or d % heads:
        raise ShapeMismatch(f"attention width {d} does not split into {heads} heads")
    b = len(lengths)
    if not b or min(lengths) < 1 or sum(lengths) != n or (start and b > 1):
        raise ShapeMismatch(
            f"attention lengths {list(lengths)} for {n} rows from start {start}"
        )
    s = max(lengths)
    t = start + s
    dh = d // heads
    scale = 1.0 / np.sqrt(dh)

    if b == 1:
        def pad(a):  # the sample's rows as (1, rows, D), a view
            return a[None]

        def unpad(a):
            return a[0]
    else:
        sample = np.repeat(np.arange(b), lengths)
        pairs = (sample, np.arange(n) - (np.cumsum(lengths) - lengths)[sample])

        def pad(a):  # packed (N, D) -> (B, S, D), padding rows 0
            out = np.zeros((b, s, d))
            out[pairs] = a
            return out

        def unpad(a):
            return a[pairs]

    def split(a, m):  # (B, m, D) -> (B, H, m, dh), a view of the buffers below
        return a.reshape(b, m, heads, dh).transpose(0, 2, 1, 3)

    qh, kh, vh = split(pad(qd), s), split(pad(kd), t), split(pad(vd), t)
    # rows no tile reaches are padding, which unpad drops
    out_p = np.empty((b, s, d))
    out_h = split(out_p, s)
    # per tile: (its query rows, its keys, its attention weights), each
    # index a plain slice over the batch while every sample takes part
    tiles = []
    for i0 in range(0, s, _TILE):
        i1 = min(i0 + _TILE, s)
        live = [i for i, m in enumerate(lengths) if m > i0]
        batch = slice(None) if len(live) == b else live
        rows = (batch, slice(None), slice(i0, i1))
        keys = (batch, slice(None), slice(0, start + i1))
        # p holds the scores, then (in place: these arrays are the op's
        # bulk) the attention weights
        p = qh[rows] @ kh[keys].transpose(0, 1, 3, 2)
        p *= scale
        if i1 - i0 > 1:  # one query row, the last position, sees every key
            p[..., start + i0 :] += np.triu(np.full((i1 - i0, i1 - i0), _MASKED), k=1)
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        out_h[rows] = p @ vh[keys]
        tiles.append((rows, keys, p))

    def bw(g):
        gh = split(pad(g), s)
        # later tiles add key and value grads past the first tile's keys
        alloc = np.empty if s <= _TILE else np.zeros
        dq, dk, dv = np.empty((b, s, d)), alloc((b, t, d)), alloc((b, t, d))
        dq_h, dk_h, dv_h = split(dq, s), split(dk, t), split(dv, t)
        for m, (rows, keys, p) in enumerate(tiles):
            g_tile = gh[rows]
            # softmax backward, in place: dz = p * (dp - sum_j dp * p)
            dz = g_tile @ vh[keys].transpose(0, 1, 3, 2)
            dz -= np.einsum("bhij,bhij->bhi", dz, p)[..., None]
            dz *= p
            dq_h[rows] = dz @ kh[keys]
            dk_tile = dz.transpose(0, 1, 3, 2) @ qh[rows]
            dv_tile = p.transpose(0, 1, 3, 2) @ g_tile
            if m == 0:  # every sample has a row in the first tile
                dk_h[keys], dv_h[keys] = dk_tile, dv_tile
            else:
                dk_h[keys] += dk_tile
                dv_h[keys] += dv_tile
        dq, dk = unpad(dq), unpad(dk)
        dq *= scale
        dk *= scale
        _accum(q, dq)
        _accum(k, dk)
        _accum(v, unpad(dv))

    return _make(unpad(out_p), (q, k, v), bw)


# added to the variance before the square root
_LN_EPS = 1e-5


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    # mean and variance as np.mean and np.var compute them, without their
    # per-call overhead
    n = x.data.shape[-1]
    xc = x.data - x.data.sum(axis=-1, keepdims=True) / n
    var = (xc * xc).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = xc * inv
    out_data = xhat * gain.data + bias.data

    def bw(g):
        lead = tuple(range(g.ndim - 1))
        _accum(gain, (g * xhat).sum(axis=lead))
        _accum(bias, g.sum(axis=lead))
        if x.requires_grad:
            gx = g * gain.data
            m1 = gx.mean(axis=-1, keepdims=True)
            m2 = (gx * xhat).mean(axis=-1, keepdims=True)
            _accum(x, inv * (gx - m1 - xhat * m2))

    return _make(out_data, (x, gain, bias), bw)


def mse_loss(a: Tensor, b: Tensor, weight: np.ndarray) -> Tensor:
    """Weighted sum of squared differences, sum(weight * (a - b)^2), with
    `weight` broadcast against a; gradients flow to both sides. A weight of
    1 / a.size everywhere gives the plain mean.
    """
    if a.data.shape != b.data.shape:
        raise ShapeMismatch(f"mse {a.data.shape} vs {b.data.shape}")
    diff = a.data - b.data
    out_data = np.array((weight * diff * diff).sum())

    def bw(g):
        scaled = (2.0 * float(g) * weight) * diff
        if a.requires_grad:
            _accum(a, scaled)
        if b.requires_grad:
            _accum(b, -scaled)

    return _make(out_data, (a, b), bw)


def cross_entropy(logits: Tensor, targets, mask) -> Tensor:
    """Mean negative log-likelihood over unmasked positions.

    logits (S, V); targets int (S,); mask float (S,). The mask weighs each
    position: the loss is sum(mask * nll) / sum(mask), and positions with
    mask 0 contribute exactly zero loss and zero gradient.
    """
    targets = np.asarray(targets, dtype=np.int64)
    ld = logits.data
    if ld.ndim != 2 or targets.shape != (ld.shape[0],):
        raise ShapeMismatch(f"cross_entropy logits{ld.shape} targets{targets.shape}")
    m = np.asarray(mask, dtype=np.float64)
    denom = m.sum()
    if denom <= 0:
        raise ShapeMismatch("cross_entropy mask selects no positions")
    z = ld - ld.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    nll = -logp[np.arange(ld.shape[0]), targets]
    out_data = np.array((nll * m).sum() / denom)

    def bw(g):
        p = np.exp(logp)
        p[np.arange(ld.shape[0]), targets] -= 1.0
        _accum(logits, p * (m / denom)[:, None] * float(g))

    return _make(out_data, (logits,), bw)


# ---------------------------------------------------------------------------
# Parameters, Adam, checkpoints
# ---------------------------------------------------------------------------


class Param(NamedTuple):
    """One parameter of a model's layout: its name and shape, whether it is
    frozen, and its initial value, drawn from N(mean, std**2) when `std` is
    positive and filled with `mean` (drawing nothing) when it is 0."""

    name: str
    shape: tuple[int, ...]
    mean: float
    std: float
    frozen: bool


class ParameterStore:
    """Named parameters plus Adam state. Frozen parameters never record
    gradients and are skipped by the optimizer. A parameter's Adam moments
    are allocated at its first `optimizer_step`, so a store that is only
    read (a loaded checkpoint) holds none."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        # name -> (first moment, second moment)
        self._adam: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._t = 0

    def add(self, name: str, array, frozen: bool = False) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter {name!r}")
        t = Tensor(np.array(array, dtype=np.float64), requires_grad=not frozen)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def trainable(self):
        for name, t in self._params.items():
            if t.requires_grad:
                yield name, t

    def zero_grads(self) -> None:
        for t in self._params.values():
            t.grad = None

    def reset_adam_rows(self, name: str, rows) -> None:
        """Clear first- and second-moment state for specific rows (used when
        codebook entries are reseeded). Moments not yet allocated are zero
        already."""
        for moment in self._adam.get(name, ()):
            moment[rows] = 0.0

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self._params.items()}


def init_params(layout: list[Param], rng: np.random.Generator) -> ParameterStore:
    """A store of `layout`'s parameters at their initial values, drawn from
    `rng` in layout order."""
    store = ParameterStore()
    for p in layout:
        if p.std > 0:
            value = rng.normal(p.mean, p.std, size=p.shape)
        else:
            value = np.full(p.shape, p.mean)
        store.add(p.name, value, frozen=p.frozen)
    return store


def load_params(
    layout: list[Param], state: dict[str, np.ndarray], path: str
) -> ParameterStore:
    """A store of `layout`'s parameters holding copies of `state`, the
    tensors of checkpoint `path`. Names must match the layout exactly and
    every entry must be f8 of its parameter's shape: a missing parameter,
    an unknown tensor, a wrong dtype or shape raises CorruptCheckpoint
    naming the path and the key."""
    for p in layout:
        if p.name not in state:
            raise CorruptCheckpoint(f"{path}: checkpoint has no {p.name!r} entry")
        arr = state[p.name]
        if arr.dtype != np.float64 or arr.shape != p.shape:
            raise CorruptCheckpoint(
                f"{path}: checkpoint entry {p.name!r} is {_TAGS[arr.dtype].decode()} "
                f"of shape {arr.shape}, expected f8 of shape {p.shape}"
            )
    names = {p.name for p in layout}
    for name in state:
        if name not in names:
            raise CorruptCheckpoint(f"{path}: checkpoint has an unknown entry {name!r}")
    store = ParameterStore()
    for p in layout:
        store.add(p.name, state[p.name], frozen=p.frozen)
    return store


# Adam's moment decays and denominator offset (Kingma & Ba's defaults)
_BETA1 = 0.9
_BETA2 = 0.999
_ADAM_EPS = 1e-8


def optimizer_step(store: ParameterStore, lr: float) -> None:
    """One Adam update over every trainable parameter; grads are cleared."""
    present = [name for name, t in store.trainable() if t.grad is not None]
    if not present:
        raise NoGradient("optimizer_step called before backward")
    store._t += 1
    t_step = store._t
    bc1 = 1.0 - _BETA1**t_step
    bc2 = 1.0 - _BETA2**t_step
    for name, p in store.trainable():
        if p.grad is None:
            continue
        g = p.grad
        if name not in store._adam:
            store._adam[name] = (np.zeros_like(p.data), np.zeros_like(p.data))
        m, v = store._adam[name]
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), operation by operation
        # in two scratch buffers; p.data is updated in place (no caller
        # keeps an array of an earlier step)
        step, den = np.empty_like(m), np.empty_like(v)
        np.multiply(g, 1.0 - _BETA1, out=step)
        m *= _BETA1
        m += step
        np.multiply(g, g, out=step)
        step *= 1.0 - _BETA2
        v *= _BETA2
        v += step
        np.divide(m, bc1, out=step)
        step *= lr
        np.divide(v, bc2, out=den)
        np.sqrt(den, out=den)
        den += _ADAM_EPS
        step /= den
        p.data -= step
    store.zero_grads()


def minibatches(
    n: int,
    batch_size: int,
    rng: np.random.Generator,
    order: np.ndarray | None = None,
    before_epoch=None,
):
    """Index arrays of consecutive minibatches, epoch after epoch, without
    end. Each epoch walks one permutation of range(n), drawn from `rng`
    when the epoch's first batch is asked for; `order` is the first epoch's
    permutation if the caller drew it already. `before_epoch()`, if given,
    runs at the start of every later epoch, before its permutation is
    drawn, so what it draws from `rng` comes first."""
    while True:
        if order is None:
            order = rng.permutation(n)
        for lo in range(0, n, batch_size):
            yield order[lo : lo + batch_size]
        if before_epoch is not None:
            before_epoch()
        order = None


def save_named_tensors(path: str, named: dict[str, np.ndarray]) -> None:
    """Write `named` as a checkpoint (the layout is in the module docstring)
    through a temporary file beside `path` that replaces it only once
    complete, so a failed write leaves the previous file or none."""
    parts = [CHECKPOINT_MAGIC, struct.pack("<I", len(named))]
    for name in sorted(named):
        # np.asarray (not ascontiguousarray) keeps 0-d shapes intact;
        # tobytes() copies to C order regardless.
        arr = np.asarray(named[name])
        encoded = name.encode("utf-8")
        parts += [struct.pack("<H", len(encoded)), encoded, _TAGS[arr.dtype],
                  struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape), arr.tobytes()]
    blob = b"".join(parts)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(blob)
            f.write(struct.pack("<I", zlib.crc32(blob)))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_named_tensors(path: str) -> dict[str, np.ndarray]:
    """Read a container written by `save_named_tensors`. The CRC-32 must
    match, every read is bounds-checked and the entries must end exactly at
    the trailer."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] == b"STKT":
        raise StroketokError(
            f"{path}: checkpoint STKT v1 is a retired format (retrain to write v2)"
        )
    if blob[:4] != CHECKPOINT_MAGIC:
        raise CorruptCheckpoint(f"{path}: not a checkpoint file (bad magic)")
    end = len(blob) - 4
    if end < 8 or zlib.crc32(blob[:end]) != struct.unpack("<I", blob[end:])[0]:
        raise CorruptCheckpoint(
            f"{path}: checkpoint is truncated or corrupt (CRC-32 mismatch)"
        )
    pos = 4

    def take(n: int) -> bytes:
        nonlocal pos
        if n > end - pos:
            raise CorruptCheckpoint(
                f"{path}: checkpoint is truncated or corrupt "
                f"(needs {n} bytes at offset {pos}, entries end at {end})"
            )
        pos += n
        return blob[pos - n : pos]

    (count,) = struct.unpack("<I", take(4))
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = struct.unpack("<H", take(2))
        try:
            name = take(nlen).decode("utf-8")
        except UnicodeDecodeError as e:
            raise CorruptCheckpoint(
                f"{path}: checkpoint is corrupt (tensor name at offset "
                f"{pos - nlen} is not UTF-8)"
            ) from e
        tag = take(2)
        if tag not in _DTYPES:
            raise CorruptCheckpoint(
                f"{path}: checkpoint entry {name!r} has an unknown dtype tag {tag!r}"
            )
        ndim = take(1)[0]
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        # math.prod on Python ints: a corrupt shape cannot overflow the size
        data = take(_DTYPES[tag].itemsize * math.prod(shape))
        out[name] = np.frombuffer(data, dtype=_DTYPES[tag]).reshape(shape)
    if pos != end:
        raise CorruptCheckpoint(
            f"{path}: checkpoint is corrupt ({end - pos} bytes after "
            f"its {count} entries)"
        )
    return out


def config_record(obj) -> np.ndarray:
    """The init fields of the dataclass `obj` as one `u8` entry: a JSON
    object with sorted keys."""
    values = {f.name: getattr(obj, f.name) for f in fields(obj) if f.init}
    return np.frombuffer(json.dumps(values, sort_keys=True).encode("utf-8"), np.uint8)


# the JSON values a config field takes, keyed by its annotation (every
# config module postpones annotations, so they are strings); bools are not
# ints here, and an int is a float as in Python
_RECORD_TYPES = {
    "int": lambda v: type(v) is int,
    "float": lambda v: type(v) in (int, float),
    "tuple[int, ...]": lambda v: type(v) is list and all(type(c) is int for c in v),
    "list[str]": lambda v: type(v) is list and all(type(w) is str for w in v),
}


def read_record(cls, named: dict[str, np.ndarray], key: str, path: str):
    """The dataclass `cls` from its `config_record` entry `key`. A missing
    or non-JSON record, a missing, unknown or wrongly typed field and a
    value `cls` rejects raise CorruptCheckpoint naming path, record, field."""
    arr = named.get(key)
    if arr is None:
        raise CorruptCheckpoint(f"{path}: checkpoint has no {key!r} entry")
    where = f"{path}: checkpoint record {key!r}"
    if arr.dtype != np.uint8 or arr.ndim != 1:
        raise CorruptCheckpoint(f"{where} is {arr.ndim}-d {arr.dtype}, not u8 bytes")
    try:
        values = json.loads(arr.tobytes())
    except ValueError as e:
        raise CorruptCheckpoint(f"{where} is not JSON ({e})") from None
    if type(values) is not dict:
        raise CorruptCheckpoint(f"{where} is not a JSON object")
    expected = {f.name: f.type for f in fields(cls) if f.init}
    for name in sorted(expected.keys() | values.keys()):
        if name not in values:
            raise CorruptCheckpoint(f"{where} has no field {name!r}")
        if name not in expected:
            raise CorruptCheckpoint(f"{where} has an unknown field {name!r}")
        if not _RECORD_TYPES[expected[name]](values[name]):
            shown = json.dumps(values[name])
            raise CorruptCheckpoint(
                f"{where} field {name!r} must be {expected[name]}, not {shown[:40]}"
            )
    try:
        return cls(**values)
    except ValueError as e:
        raise CorruptCheckpoint(f"{where}: {e}") from None
