"""Minimal reverse-mode autodiff over float64 numpy arrays.

Just enough machinery to train the codec and the toy sequence model: 1-D
convolutions and their transposes, elementwise ops, matmul, softmax,
layer norm, embedding lookup, MSE and masked cross-entropy, stop-gradient,
and Adam. Every recorded op stores a closure that scatters the incoming
gradient to its parents; backward() walks the graph in reverse topological
order. All math is float64 and deterministic (fixed reduction order,
np.add.at for scatters), so identical seeds give bit-identical parameters.
"""

from __future__ import annotations

import math
import struct
from contextlib import contextmanager

import numpy as np

from .errors import StroketokError

CHECKPOINT_MAGIC = b"STKT"
CHECKPOINT_FORMAT_VERSION = "checkpoint STKT v1"


class ShapeMismatch(StroketokError):
    pass


class GraphCycle(StroketokError):
    pass


class NoGradient(StroketokError):
    pass


class CorruptCheckpoint(StroketokError):
    """A file that is not a well-formed STKT container: wrong magic, cut
    short, undecodable names, or bytes after the last entry."""


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

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        backward(self)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # Operator sugar; wraps plain arrays/scalars as constants.
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    def __neg__(self):
        return mul(self, _wrap(-1.0))


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    if _grad_enabled and any(p.requires_grad for p in parents):
        t = Tensor(data, requires_grad=True)
        t._parents = parents
        t._backward_fn = backward_fn
        return t
    return Tensor(data)


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


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
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data - b.data

    def bw(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape))

    return _make(out_data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def bw(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatch(f"matmul {a.data.shape} @ {b.data.shape}")
    out_data = a.data @ b.data

    def bw(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return _make(out_data, (a, b), bw)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    out_data = np.where(mask, x.data, 0.0)

    def bw(g):
        _accum(x, g * mask)

    return _make(out_data, (x,), bw)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Hard clip with the almost-everywhere gradient (zero when saturated)."""
    inside = (x.data > lo) & (x.data < hi)
    out_data = np.clip(x.data, lo, hi)

    def bw(g):
        _accum(x, g * inside)

    return _make(out_data, (x,), bw)


def stop_gradient(x: Tensor) -> Tensor:
    """Pass the value forward, block the gradient entirely."""
    return Tensor(x.data.copy())


def reshape(x: Tensor, shape) -> Tensor:
    out_data = x.data.reshape(shape)
    orig = x.data.shape

    def bw(g):
        _accum(x, g.reshape(orig))

    return _make(out_data, (x,), bw)


def transpose2d(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeMismatch(f"transpose2d needs a matrix, got {x.data.shape}")
    out_data = x.data.T.copy()

    def bw(g):
        _accum(x, g.T)

    return _make(out_data, (x,), bw)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    idx = [slice(None)] * x.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out_data = x.data[idx].copy()

    def bw(g):
        full = np.zeros_like(x.data)
        full[idx] = g
        _accum(x, full)

    return _make(out_data, (x,), bw)


def concat(xs: list[Tensor], axis: int = 0) -> Tensor:
    out_data = np.concatenate([t.data for t in xs], axis=axis)
    sizes = [t.data.shape[axis] for t in xs]

    def bw(g):
        off = 0
        for t, s in zip(xs, sizes):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(off, off + s)
            _accum(t, g[tuple(idx)])
            off += s

    return _make(out_data, tuple(xs), bw)


def sum_all(x: Tensor) -> Tensor:
    out_data = np.array(x.data.sum())

    def bw(g):
        _accum(x, np.full_like(x.data, float(g)))

    return _make(out_data, (x,), bw)


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size
    out_data = np.array(x.data.mean())

    def bw(g):
        _accum(x, np.full_like(x.data, float(g) / n))

    return _make(out_data, (x,), bw)


# ---------------------------------------------------------------------------
# Convolutions
# ---------------------------------------------------------------------------


def conv1d(
    x: Tensor,
    kernel: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """1-D cross-correlation. x: (C_in, L), kernel: (C_out, C_in, K).

    out[o, t] = b[o] + sum_{i,k} kernel[o, i, k] * x_padded[i, t*stride + k]
    with output length floor((L + 2p - K) / stride) + 1.
    """
    xd, kd = x.data, kernel.data
    if xd.ndim != 2 or kd.ndim != 3 or kd.shape[1] != xd.shape[0]:
        raise ShapeMismatch(f"conv1d x{xd.shape} kernel{kd.shape}")
    if stride < 1:
        raise ShapeMismatch("stride must be >= 1")
    c_in, length = xd.shape
    c_out, _, k = kd.shape
    lp = length + 2 * padding
    if k > lp:
        raise ShapeMismatch(f"kernel {k} longer than padded input {lp}")
    t_out = (lp - k) // stride + 1

    xp = np.zeros((c_in, lp))
    xp[:, padding : padding + length] = xd
    idx = (np.arange(t_out) * stride)[:, None] + np.arange(k)[None, :]  # (T, K)
    cols = xp[:, idx]  # (C_in, T, K)
    cols2 = cols.transpose(1, 0, 2).reshape(t_out, c_in * k)
    w2 = kd.reshape(c_out, c_in * k)
    out_data = (cols2 @ w2.T).T.copy()  # (C_out, T)
    if bias is not None:
        out_data = out_data + bias.data[:, None]

    parents = (x, kernel) if bias is None else (x, kernel, bias)

    def bw(g):
        _accum(kernel, (g @ cols2).reshape(c_out, c_in, k))
        if bias is not None:
            _accum(bias, g.sum(axis=1))
        if x.requires_grad:
            g_cols = (g.T @ w2).reshape(t_out, c_in, k).transpose(1, 0, 2)
            dxp = np.zeros_like(xp)
            # One strided add per kernel tap, taps in reverse: input position
            # p then sums its terms in increasing t (decreasing tap), the
            # order np.add.at over (C_in, T, K) delivers them, so dx keeps
            # its bits.
            span = stride * (t_out - 1) + 1
            for kk in range(k - 1, -1, -1):
                dxp[:, kk : kk + span : stride] += g_cols[:, :, kk]
            _accum(x, dxp[:, padding : padding + length])

    return _make(out_data, parents, bw)


def conv_transpose1d(
    x: Tensor,
    kernel: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """Gradient-of-conv semantics. x: (C_in, L), kernel: (C_in, C_out, K).

    Scatter-add: out[o, t*stride + k] += kernel[i, o, k] * x[i, t], then trim
    `padding` from both ends; output length (L - 1) * stride - 2p + K.
    """
    xd, kd = x.data, kernel.data
    if xd.ndim != 2 or kd.ndim != 3 or kd.shape[0] != xd.shape[0]:
        raise ShapeMismatch(f"conv_transpose1d x{xd.shape} kernel{kd.shape}")
    if stride < 1:
        raise ShapeMismatch("stride must be >= 1")
    c_in, length = xd.shape
    _, c_out, k = kd.shape
    l_full = (length - 1) * stride + k
    l_out = l_full - 2 * padding
    if l_out < 1:
        raise ShapeMismatch(f"output length {l_out} < 1")

    full = np.zeros((c_out, l_full))
    base = stride * np.arange(length)
    for kk in range(k):
        full[:, base + kk] += kd[:, :, kk].T @ xd
    out_data = full[:, padding : padding + l_out].copy()
    if bias is not None:
        out_data = out_data + bias.data[:, None]

    parents = (x, kernel) if bias is None else (x, kernel, bias)
    idx = base[:, None] + np.arange(k)[None, :]  # (L, K) positions in full

    def bw(g):
        gf = np.zeros((c_out, l_full))
        gf[:, padding : padding + l_out] = g
        gwin = gf[:, idx]  # (C_out, L, K)
        _accum(kernel, np.einsum("it,otk->iok", xd, gwin))
        if bias is not None:
            _accum(bias, g.sum(axis=1))
        if x.requires_grad:
            _accum(x, np.einsum("iok,otk->it", kd, gwin))

    return _make(out_data, parents, bw)


# ---------------------------------------------------------------------------
# Neural-net ops
# ---------------------------------------------------------------------------


def embedding(table: Tensor, ids) -> Tensor:
    """Row gather: table (V, D), ids int array (S,), output (S, D)."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ShapeMismatch(f"ids must be 1-D, got {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ShapeMismatch(
            f"id out of range [0, {table.data.shape[0]}): {ids.min()}..{ids.max()}"
        )
    out_data = table.data[ids].copy()

    def bw(g):
        if table.requires_grad:
            gt = np.zeros_like(table.data)
            np.add.at(gt, ids, g)
            _accum(table, gt)

    return _make(out_data, (table,), bw)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        _accum(x, y * (g - dot))

    return _make(y, (x,), bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
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


def mse_loss(a: Tensor, b: Tensor) -> Tensor:
    """Mean of squared differences; gradients flow to both sides."""
    if a.data.shape != b.data.shape:
        raise ShapeMismatch(f"mse {a.data.shape} vs {b.data.shape}")
    diff = a.data - b.data
    n = diff.size
    out_data = np.array((diff * diff).mean())

    def bw(g):
        scale = 2.0 * float(g) / n
        _accum(a, scale * diff)
        _accum(b, -scale * diff)

    return _make(out_data, (a, b), bw)


def cross_entropy(logits: Tensor, targets, mask=None) -> Tensor:
    """Mean negative log-likelihood over unmasked positions.

    logits (S, V); targets int (S,); mask float (S,) or None. Positions with
    mask 0 contribute exactly zero loss and zero gradient.
    """
    targets = np.asarray(targets, dtype=np.int64)
    ld = logits.data
    if ld.ndim != 2 or targets.shape != (ld.shape[0],):
        raise ShapeMismatch(f"cross_entropy logits{ld.shape} targets{targets.shape}")
    if mask is None:
        m = np.ones(ld.shape[0])
    else:
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


class ParameterStore:
    """Named parameters plus Adam state. Frozen parameters never record
    gradients and are skipped by the optimizer."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._frozen: set[str] = set()
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t = 0

    def add(self, name: str, array, frozen: bool = False) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter {name!r}")
        t = Tensor(np.array(array, dtype=np.float64), requires_grad=not frozen)
        self._params[name] = t
        if frozen:
            self._frozen.add(name)
        else:
            self._m[name] = np.zeros_like(t.data)
            self._v[name] = np.zeros_like(t.data)
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return list(self._params)

    def is_frozen(self, name: str) -> bool:
        return name in self._frozen

    def trainable(self):
        for name, t in self._params.items():
            if name not in self._frozen:
                yield name, t

    def zero_grads(self) -> None:
        for t in self._params.values():
            t.grad = None

    def reset_adam_rows(self, name: str, rows) -> None:
        """Clear first- and second-moment state for specific rows (used when
        codebook entries are reseeded)."""
        self._m[name][rows] = 0.0
        self._v[name][rows] = 0.0

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self._params.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        for name, arr in state.items():
            if name not in self._params:
                raise KeyError(f"unknown parameter {name!r}")
            t = self._params[name]
            if t.data.shape != arr.shape:
                raise ShapeMismatch(
                    f"{name}: checkpoint shape {arr.shape} != {t.data.shape}"
                )
            t.data = np.array(arr, dtype=np.float64)


def optimizer_step(
    store: ParameterStore,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One Adam update over every trainable parameter; grads are cleared."""
    present = [name for name, t in store.trainable() if t.grad is not None]
    if not present:
        raise NoGradient("optimizer_step called before backward")
    store._t += 1
    t_step = store._t
    bc1 = 1.0 - beta1**t_step
    bc2 = 1.0 - beta2**t_step
    for name, p in store.trainable():
        if p.grad is None:
            continue
        g = p.grad
        m = store._m[name]
        v = store._v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p.data = p.data - lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    store.zero_grads()


def save_named_tensors(path: str, named: dict[str, np.ndarray]) -> None:
    """Little-endian named-tensor container ("STKT"). Entries are written in
    sorted name order so files are byte-stable."""
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", len(named)))
        for name in sorted(named):
            # np.asarray (not ascontiguousarray) keeps 0-d shapes intact;
            # tobytes() copies to C order regardless.
            arr = np.asarray(named[name], dtype="<f8")
            encoded = name.encode("utf-8")
            f.write(struct.pack("<H", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                f.write(struct.pack("<I", dim))
            f.write(arr.tobytes())


def load_named_tensors(path: str) -> dict[str, np.ndarray]:
    """Read a container written by `save_named_tensors`; every read is
    bounds-checked and the entries must end exactly at the end of the file."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise CorruptCheckpoint(f"{path}: not a checkpoint file (bad magic)")
    pos = 4

    def take(n: int) -> bytes:
        nonlocal pos
        if n > len(blob) - pos:
            raise CorruptCheckpoint(
                f"{path}: checkpoint is truncated or corrupt "
                f"(needs {n} bytes at offset {pos}, file has {len(blob)})"
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
        ndim = take(1)[0]
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        # math.prod on Python ints: a corrupt shape cannot overflow the size
        arr = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8")
        out[name] = arr.reshape(shape).astype(np.float64)
    if pos != len(blob):
        raise CorruptCheckpoint(
            f"{path}: checkpoint is corrupt ({len(blob) - pos} bytes after "
            f"its {count} entries)"
        )
    return out


def checkpoint_entry(
    named: dict[str, np.ndarray], key: str, path: str, ndim: int = 0
) -> np.ndarray:
    """Entry `key` of a loaded checkpoint, checked to be finite with `ndim`
    dimensions (a scalar by default); CorruptCheckpoint names the path and
    the key otherwise."""
    arr = named.get(key)
    if arr is None:
        raise CorruptCheckpoint(f"{path}: checkpoint has no {key!r} entry")
    if arr.ndim != ndim or not np.all(np.isfinite(arr)):
        kind = "scalar" if ndim == 0 else f"{ndim}-d array"
        raise CorruptCheckpoint(
            f"{path}: checkpoint entry {key!r} is not a finite {kind} "
            f"(shape {arr.shape})"
        )
    return arr
