"""Engine ops that only tests use: the per-head attention oracle, the
per-sample codec oracle (`sub` for its straight-through estimator), the
per-sample LM oracle (`concat` of prompt and token rows) and the
finite-difference checks build on them. They record through the engine's
own `_make`/`_accum`/`_unbroadcast`, so they join any graph the program's
ops build."""

from __future__ import annotations

import numpy as np

from stroketok.tensor_engine import ShapeMismatch, Tensor, _accum, _make, _unbroadcast


def sub(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data - b.data

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g, b.data.shape))

    return _make(out_data, (a, b), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatch(f"matmul {a.data.shape} @ {b.data.shape}")
    out_data = a.data @ b.data

    def bw(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return _make(out_data, (a, b), bw)


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


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        _accum(x, y * (g - dot))

    return _make(y, (x,), bw)


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
