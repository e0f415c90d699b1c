import errno
import stat
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from stroketok import tensor_engine as te
from stroketok.tensor_engine import (
    CorruptCheckpoint,
    NoGradient,
    ParameterStore,
    ShapeMismatch,
    Tensor,
    attention,
    backward,
    conv1d,
    conv_transpose1d,
    cross_entropy,
    embedding,
    layer_norm,
    linear,
    load_named_tensors,
    minibatches,
    mse_loss,
    mul,
    no_grad,
    optimizer_step,
    place_rows,
    relu,
    save_named_tensors,
    stop_gradient,
    take_rows,
)

from oracle_ops import (
    EagerAdam,
    concat,
    matmul,
    mean_all,
    narrow,
    softmax,
    sub,
    sum_all,
    transpose2d,
)

FD_H = 1e-5
FD_TOL = 1e-4


def fd_check(make_loss, params: list[Tensor], tol: float = FD_TOL) -> None:
    """Central finite differences vs analytic gradient on every parameter."""
    loss = make_loss()
    backward(loss)
    analytic = [p.grad.copy() for p in params]
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        num = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_H
            up = float(make_loss().data)
            flat[i] = orig - FD_H
            dn = float(make_loss().data)
            flat[i] = orig
            num[i] = (up - dn) / (2 * FD_H)
        num = num.reshape(p.data.shape)
        denom = max(np.abs(num).max(), np.abs(ga).max(), 1e-8)
        assert np.abs(num - ga).max() / denom < tol, f"fd mismatch for {p}"


def rand_param(rng, *shape) -> Tensor:
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def test_conv1d_trivial_examples():
    x = Tensor([[1.0], [2.0], [3.0]])  # time-major: 3 steps, 1 channel
    k = Tensor([[[1.0, 0.0, -1.0]]])
    zero = Tensor(np.zeros(1))
    out = conv1d(x, k, zero)
    np.testing.assert_allclose(out.data, [[-2.0]])

    ident = conv1d(x, Tensor([[[1.0]]]), zero)
    np.testing.assert_allclose(ident.data, x.data)

    x8 = Tensor(np.arange(8, dtype=float)[:, None])
    out8 = conv1d(x8, Tensor([[[1.0, 1.0]]]), zero, stride=2)
    assert out8.data.shape == (4, 1)


def test_conv1d_bias_and_shape_errors():
    x = Tensor(np.ones((5, 2)))
    k = Tensor(np.ones((3, 2, 3)))
    b = Tensor(np.array([1.0, 2.0, 3.0]))
    out = conv1d(x, k, bias=b, padding=1)
    assert out.data.shape == (5, 3)
    with pytest.raises(ShapeMismatch):
        conv1d(x, Tensor(np.ones((3, 4, 3))), b)
    with pytest.raises(ShapeMismatch):
        conv1d(x, Tensor(np.ones((3, 2, 9))), b)


def conv1d_dx_scatter(x, kernel, g, stride, padding):
    """The input gradient of conv1d by one np.add.at scatter of every
    (output step, tap, channel) term, from the op's own column GEMM."""
    length, c_in = x.shape
    c_out, _, k = kernel.shape
    t_out = g.shape[0]
    idx = (np.arange(t_out) * stride)[:, None] + np.arange(k)[None, :]
    w2 = kernel.transpose(2, 1, 0).reshape(k * c_in, c_out)
    g_cols = (g @ w2.T).reshape(t_out, k, c_in)
    dxp = np.zeros((length + 2 * padding, c_in))
    channels = np.arange(c_in)[None, None, :]
    np.add.at(dxp, (idx[:, :, None], channels), g_cols)
    return dxp[padding : padding + length]


def test_conv1d_input_grad_bit_equal_to_scatter():
    rng = np.random.default_rng(8)
    for stride in (1, 2, 3):
        for padding in (0, 1, 2):
            for k in range(1, 7):
                for length in (max(1, k - 2 * padding), 7, 16):
                    x = rand_param(rng, length, 3)
                    kern = rand_param(rng, 4, 3, k)
                    out = conv1d(x, kern, Tensor(np.zeros(4)), stride=stride, padding=padding)
                    g = rng.standard_normal(out.data.shape)
                    backward(sum_all(mul(out, Tensor(g))))
                    want = conv1d_dx_scatter(x.data, kern.data, g, stride, padding)
                    assert x.grad.tobytes() == want.tobytes()


def test_conv_transpose_scatter_example():
    x = Tensor([[1.0], [0.0]])
    k = Tensor([[[1.0, 1.0]]])
    out = conv_transpose1d(x, k, Tensor(np.zeros(1)), stride=2)
    np.testing.assert_allclose(out.data, [[1.0], [1.0], [0.0], [0.0]])


def test_conv_length_round_trip():
    x = Tensor(np.random.default_rng(0).standard_normal((16, 3)))
    k_down = Tensor(np.random.default_rng(1).standard_normal((5, 3, 4)))
    k_up = Tensor(np.random.default_rng(2).standard_normal((5, 3, 4)))
    down = conv1d(x, k_down, Tensor(np.zeros(5)), stride=2, padding=1)
    assert down.data.shape == (8, 5)
    up = conv_transpose1d(down, k_up, Tensor(np.zeros(3)), stride=2, padding=1)
    assert up.data.shape == (16, 3)


def test_conv_adjoint_identity():
    # lengths chosen so stride divides the padded span exactly
    rng = np.random.default_rng(7)
    for stride, pad, k, length in ((1, 0, 3, 20), (2, 1, 4, 20), (3, 2, 5, 19)):
        x = Tensor(rng.standard_normal((length, 4)), requires_grad=True)
        kern = Tensor(rng.standard_normal((6, 4, k)))
        zero_out, zero_in = Tensor(np.zeros(6)), Tensor(np.zeros(4))
        y_shape = conv1d(x, kern, zero_out, stride=stride, padding=pad).data.shape
        y = Tensor(rng.standard_normal(y_shape))
        lhs = float(
            (conv1d(x, kern, zero_out, stride=stride, padding=pad).data * y.data).sum()
        )
        xt = conv_transpose1d(
            Tensor(y.data), Tensor(kern.data), zero_in, stride=stride, padding=pad
        )
        rhs = float((x.data * xt.data).sum())
        assert abs(lhs - rhs) / max(abs(lhs), 1e-12) < 1e-10


def test_backward_square():
    w = Tensor(np.array(3.0), requires_grad=True)
    loss = mul(w, w)
    backward(loss)
    assert w.grad == pytest.approx(6.0)


def test_stop_gradient():
    w = Tensor(np.array(3.0), requires_grad=True)
    loss = mul(stop_gradient(w), w)
    backward(loss)
    assert w.grad == pytest.approx(3.0)


def test_gradcheck_all_primitives():
    rng = np.random.default_rng(42)

    x = rand_param(rng, 12, 3)
    k = rand_param(rng, 4, 3, 3)
    b = rand_param(rng, 4)
    fd_check(lambda: mean_all(conv1d(x, k, bias=b, stride=2, padding=1)), [x, k, b])

    xt = rand_param(rng, 6, 4)
    kt = rand_param(rng, 4, 3, 4)
    bt = rand_param(rng, 3)
    fd_check(
        lambda: mean_all(conv_transpose1d(xt, kt, bias=bt, stride=2, padding=1)),
        [xt, kt, bt],
    )

    xr = rand_param(rng, 5, 5)
    xr.data += 0.05 * np.sign(xr.data)  # keep away from the ReLU kink
    fd_check(lambda: mean_all(relu(xr)), [xr])

    a = rand_param(rng, 4, 3)
    bb = rand_param(rng, 4, 3)
    fd_check(lambda: mse_loss(a, bb, np.full((4, 3), 1 / 12)), [a, bb])

    logits = rand_param(rng, 6, 5)
    targets = rng.integers(0, 5, size=6)
    mask = np.array([1.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    fd_check(lambda: cross_entropy(logits, targets, mask), [logits])

    table = rand_param(rng, 7, 4)
    ids = np.array([0, 3, 3, 6])
    fd_check(lambda: mean_all(embedding(table, ids)), [table])

    ma = rand_param(rng, 3, 4)
    mb = rand_param(rng, 4, 2)
    fd_check(lambda: mean_all(matmul(ma, mb)), [ma, mb])

    xs = rand_param(rng, 3, 6)
    wsm = Tensor(rng.standard_normal((3, 6)))
    # weighting breaks the rows-sum-to-one degeneracy of plain mean(softmax)
    fd_check(lambda: mean_all(mul(softmax(xs), wsm)), [xs])

    xl = rand_param(rng, 4, 8)
    gain = rand_param(rng, 8)
    bias = rand_param(rng, 8)
    fd_check(lambda: mean_all(layer_norm(xl, gain, bias)), [xl, gain, bias])

    xn = rand_param(rng, 5, 8)
    fd_check(lambda: mean_all(narrow(xn, 1, 2, 3)), [xn])

    c1 = rand_param(rng, 2, 3)
    c2 = rand_param(rng, 2, 3)
    fd_check(lambda: mean_all(concat([c1, c2], axis=0)), [c1, c2])

    tp = rand_param(rng, 3, 5)
    fd_check(lambda: sum_all(transpose2d(tp)), [tp])

    sa = rand_param(rng, 4, 3)
    sb = rand_param(rng, 3)  # broadcast over sa's rows
    fd_check(lambda: mean_all(mul(sub(sa, sb), sa)), [sa, sb])


def per_head_attention(q, k, v, heads, start, g=None):
    """Plain-numpy causal attention, one (batch, head, row) at a time: the
    output, and with an output gradient `g` also the q, k and v grads."""
    b, s, d = q.shape
    dh = d // heads
    scale = 1.0 / np.sqrt(dh)
    out = np.zeros_like(q)
    dq, dk, dv = np.zeros_like(q), np.zeros_like(k), np.zeros_like(v)
    for bi in range(b):
        for h in range(heads):
            cols = slice(h * dh, (h + 1) * dh)
            for i in range(s):
                seen = start + i + 1
                keys, values = k[bi, :seen, cols], v[bi, :seen, cols]
                z = keys @ q[bi, i, cols] / np.sqrt(dh)
                w = np.exp(z - z.max())
                w /= w.sum()
                out[bi, i, cols] = w @ values
                if g is None:
                    continue
                gi = g[bi, i, cols]
                dv[bi, :seen, cols] += w[:, None] * gi
                dw = values @ gi
                dz = w * (dw - dw @ w) * scale
                dq[bi, i, cols] = dz @ keys
                dk[bi, :seen, cols] += dz[:, None] * q[bi, i, cols]
    return out if g is None else (out, dq, dk, dv)


def packed_attention(q, k, v, heads, lengths, start, g=None):
    """`attention` over the real rows of padded q (B, S, D) and k, v
    (B, start + S, D), sample b's first lengths[b] rows (and `start` cache
    rows before them): all samples packed into one call when start is 0,
    one call per sample after a cache. The output and, with an output
    gradient `g`, the q, k and v grads come back padded as the inputs,
    0 at padding."""
    calls = [range(len(lengths))] if not start else [[b] for b in range(len(lengths))]
    out = np.zeros_like(q)
    grads = [np.zeros_like(a) for a in (q, k, v)]
    for batch in calls:
        sizes = [lengths[b] for b in batch]

        def pack(a, extra=0):
            return np.concatenate([a[b, : extra + n] for b, n in zip(batch, sizes)])

        qt = Tensor(pack(q), requires_grad=True)
        kt, vt = (Tensor(pack(a, start), requires_grad=True) for a in (k, v))
        got = attention(qt, kt, vt, heads, sizes, start)
        q_cuts = np.cumsum(sizes)[:-1]
        for b, part in zip(batch, np.split(got.data, q_cuts)):
            out[b, : len(part)] = part
        if g is None:
            continue
        backward(sum_all(mul(got, Tensor(pack(g)))))
        kv_cuts = np.cumsum([start + n for n in sizes])[:-1]
        for grad, t, cuts in zip(grads, (qt, kt, vt), (q_cuts, kv_cuts, kv_cuts)):
            for b, part in zip(batch, np.split(t.grad, cuts)):
                grad[b, : len(part)] = part
    return out if g is None else (out, *grads)


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("start", [0, 3])
def test_attention_matches_per_head_loop(heads, start):
    rng = np.random.default_rng(heads * 10 + start)
    q = rng.standard_normal((2, 5, 8))
    k = rng.standard_normal((2, start + 5, 8))
    v = rng.standard_normal((2, start + 5, 8))
    got = packed_attention(q, k, v, heads, [5, 5], start)
    np.testing.assert_allclose(got, per_head_attention(q, k, v, heads, start), atol=1e-12)


@pytest.mark.parametrize("start", [0, 3])
def test_tiled_attention_over_ragged_samples_matches_per_head_loop(start):
    """Three tiles of query rows; the second sample has no rows in the
    last tile and the third none past the first. Packed real rows and
    every grad match the loop over the padded samples."""
    lengths = [150, 70, 9]
    rng = np.random.default_rng(start)
    q = rng.standard_normal((3, 150, 8))
    k = rng.standard_normal((3, start + 150, 8))
    v = rng.standard_normal((3, start + 150, 8))
    # the loss reads real rows only, as the LM's does
    g = rng.standard_normal(q.shape)
    for b, n in enumerate(lengths):
        g[b, n:] = 0.0
    got, *grads = packed_attention(q, k, v, 2, lengths, start, g)
    want, *want_grads = per_head_attention(q, k, v, 2, start, g)
    for b, n in enumerate(lengths):
        np.testing.assert_allclose(got[b, :n], want[b, :n], rtol=0, atol=1e-12)
    for grad, want_grad in zip(grads, want_grads):
        np.testing.assert_allclose(grad, want_grad, rtol=0, atol=1e-12)


@pytest.mark.parametrize("start", [0, 2])
def test_gradcheck_attention(start):
    """Two packed samples, or one after `start` cache rows."""
    lengths = [3] if start else [3, 2]
    n = sum(lengths)
    rng = np.random.default_rng(start)
    q = rand_param(rng, n, 4)
    k = rand_param(rng, start + n, 4)
    v = rand_param(rng, start + n, 4)
    w = Tensor(rng.standard_normal((n, 4)))
    fd_check(lambda: mean_all(mul(attention(q, k, v, 2, lengths, start), w)), [q, k, v])


def test_gradcheck_attention_across_the_tile_edge():
    """70 rows are two tiles; the second sample ends inside the second tile."""
    rng = np.random.default_rng(70)
    q = rand_param(rng, 136, 4)
    k = rand_param(rng, 136, 4)
    v = rand_param(rng, 136, 4)
    w = Tensor(rng.standard_normal((136, 4)))
    fd_check(lambda: mean_all(mul(attention(q, k, v, 2, [70, 66]), w)), [q, k, v])


def test_gradcheck_batched_linear_and_embedding():
    rng = np.random.default_rng(3)
    x = rand_param(rng, 2, 3, 4)
    w = rand_param(rng, 4, 5)
    b = rand_param(rng, 5)
    wl = Tensor(rng.standard_normal((2, 3, 5)))
    fd_check(lambda: mean_all(mul(linear(x, w, b), wl)), [x, w, b])
    out = linear(x, w, b)
    np.testing.assert_allclose(out.data, np.einsum("bsd,de->bse", x.data, w.data) + b.data)

    table = rand_param(rng, 6, 3)
    ids = np.array([[0, 5, 5], [2, 0, 1]])
    assert embedding(table, ids).data.shape == (2, 3, 3)
    we = Tensor(rng.standard_normal((2, 3, 3)))
    fd_check(lambda: mean_all(mul(embedding(table, ids), we)), [table])


def test_rows_by_sample_and_position():
    """take_rows and place_rows over a (sample, position) index: both pass
    a gradcheck, they are adjoint, and place_rows writes into the array it
    is given, leaving its other rows as they were."""
    rng = np.random.default_rng(5)
    rows = (np.array([0, 0, 1, 2, 2]), np.array([1, 3, 0, 2, 3]))
    x = rand_param(rng, 3, 4, 2)
    wt = Tensor(rng.standard_normal((5, 2)))
    fd_check(lambda: mean_all(mul(take_rows(x, rows), wt)), [x])
    y = rand_param(rng, 5, 2)
    base = rng.standard_normal((3, 4, 2))
    wp = Tensor(rng.standard_normal((3, 4, 2)))
    fd_check(lambda: mean_all(mul(place_rows(y, rows, base.copy()), wp)), [y])

    a, b = rng.standard_normal((3, 4, 2)), rng.standard_normal((5, 2))
    lhs = np.sum(take_rows(Tensor(a), rows).data * b)
    rhs = np.sum(a * place_rows(Tensor(b), rows, np.zeros((3, 4, 2))).data)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=0)

    out = base.copy()
    placed = place_rows(Tensor(b), rows, out)
    assert placed.data is out
    np.testing.assert_array_equal(out[rows], b)
    untouched = np.ones((3, 4), dtype=bool)
    untouched[rows] = False
    np.testing.assert_array_equal(out[untouched], base[untouched])


def test_batched_ops_shape_errors():
    def t(*shape):
        return Tensor(np.ones(shape))

    good = (t(4, 4), t(4, 4), t(4, 4))
    cached = (t(3, 4), t(5, 4), t(5, 4))
    assert attention(*good, 2, [3, 1]).data.shape == (4, 4)
    assert attention(*cached, 2, [3], 2).data.shape == (3, 4)
    bad_calls = [
        lambda: attention(*good, 3, [3, 1]),  # D = 4 does not split into 3 heads
        lambda: attention(*good, 0, [3, 1]),
        lambda: attention(*good, 2, [3, 2]),  # lengths must sum to N
        lambda: attention(*good, 2, [3]),
        lambda: attention(*good, 2, [4, 0]),
        lambda: attention(*good, 2, []),
        lambda: attention(*cached, 2, [3], 1),  # keys must cover start + N rows
        lambda: attention(t(4, 4), t(5, 4), t(5, 4), 2, [3, 1]),
        lambda: attention(t(4, 4), t(6, 4), t(6, 4), 2, [3, 1], 2),  # start > 0, 2 samples
        lambda: attention(t(1, 4, 4), t(1, 4, 4), t(1, 4, 4), 2, [4]),
        lambda: attention(t(4, 4), t(4, 4), t(3, 4), 2, [3, 1]),
        lambda: attention(t(4, 4), t(4, 6), t(4, 6), 2, [3, 1]),
        lambda: linear(t(2, 3, 4), t(5, 6), t(6)),
        lambda: linear(t(2, 3, 4), t(4, 6), t(5)),
        lambda: linear(t(2, 3, 4), t(4), t(4)),
    ]
    for call in bad_calls:
        with pytest.raises(ShapeMismatch):
            call()


def test_gradcheck_composed_network_many_seeds():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((8, 2)))
        k1 = rand_param(rng, 3, 2, 4)
        b1 = rand_param(rng, 3)
        k2 = rand_param(rng, 3, 2, 4)  # transpose kernel (C_in, C_out, K)
        target = rng.standard_normal((8, 3))

        def loss_fn():
            h = conv1d(x, k1, bias=b1, stride=2, padding=1)
            h = relu(h)
            u = conv_transpose1d(h, k2, Tensor(np.zeros(2)), stride=2, padding=1)
            h2 = conv1d(u, Tensor(np.ones((3, 2, 1))), Tensor(np.zeros(3)))
            return mse_loss(h2, Tensor(target), np.full((8, 3), 1 / 24))

        fd_check(loss_fn, [k1, b1, k2])


def test_cross_entropy_mask_zero_gradient():
    rng = np.random.default_rng(0)
    logits = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
    targets = np.array([1, 2, 3, 4])
    mask = np.array([1.0, 0.0, 1.0, 0.0])
    backward(cross_entropy(logits, targets, mask))
    assert np.all(logits.grad[1] == 0.0)
    assert np.all(logits.grad[3] == 0.0)
    assert np.any(logits.grad[0] != 0.0)


def test_graph_cycle_defense():
    a = Tensor(np.array(1.0), requires_grad=True)
    b = mul(a, a)
    b._parents = (b,)  # deliberately corrupt the graph
    with pytest.raises(te.GraphCycle):
        backward(b)


def test_backward_requires_scalar():
    a = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        backward(mul(a, a))


def test_adam_first_step_magnitude():
    store = ParameterStore()
    w = store.add("w", np.array(1.0))
    w.grad = np.array(1.0)
    optimizer_step(store, lr=0.1)
    assert float(w.data) == pytest.approx(0.9, abs=1e-6)
    assert w.grad is None


def test_frozen_parameter_untouched():
    store = ParameterStore()
    w = store.add("w", np.array(1.0))
    f = store.add("f", np.array(2.0), frozen=True)
    assert not f.requires_grad
    loss = mul(w, f)
    backward(loss)
    assert f.grad is None
    optimizer_step(store, lr=0.1)
    assert float(f.data) == 2.0


def test_zero_grad_fixed_point():
    store = ParameterStore()
    w = store.add("w", np.array(5.0))
    w.grad = np.array(0.0)
    optimizer_step(store, lr=0.1)
    w.grad = np.array(0.0)
    optimizer_step(store, lr=0.1)
    assert float(w.data) == pytest.approx(5.0, abs=1e-12)


def test_step_before_backward():
    store = ParameterStore()
    store.add("w", np.array(1.0))
    with pytest.raises(NoGradient):
        optimizer_step(store, lr=0.1)


def test_adam_moments_are_allocated_at_first_step_and_match_eager_adam():
    """Moments allocated at a parameter's first step give bit-identical
    parameters to Adam with every moment allocated up front. `late` gets
    its first gradient at step 3: it starts from zero moments, with bias
    correction from the store's step count; frozen `f` gets no moments."""
    rng = np.random.default_rng(5)
    init = {"a": rng.standard_normal((3, 4)), "late": rng.standard_normal(5)}
    store = ParameterStore()
    for name, value in init.items():
        store.add(name, value)
    store.add("f", np.ones(2), frozen=True)
    assert store._adam == {}
    oracle = EagerAdam(init)
    for step in range(1, 7):
        grads = {"a": rng.standard_normal((3, 4))}
        if step >= 3:
            grads["late"] = rng.standard_normal(5)
        for name, g in grads.items():
            store[name].grad = g.copy()
        optimizer_step(store, lr=0.05)
        oracle.step(grads, lr=0.05)
        assert sorted(store._adam) == sorted(grads)
        for name in init:
            assert store[name].data.tobytes() == oracle.params[name].tobytes(), (step, name)
    assert store._t == oracle.t == 6


def test_reset_adam_rows_before_the_first_step_is_a_no_op():
    store = ParameterStore()
    w = store.add("w", np.arange(6.0).reshape(3, 2))
    store.reset_adam_rows("w", np.array([0, 2]))
    assert store._adam == {}
    oracle = EagerAdam({"w": np.arange(6.0).reshape(3, 2)})
    g = np.full((3, 2), 0.5)
    w.grad = g.copy()
    optimizer_step(store, lr=0.1)
    oracle.step({"w": g}, lr=0.1)
    assert w.data.tobytes() == oracle.params["w"].tobytes()


def test_reset_adam_rows_after_a_step_zeroes_only_those_rows():
    rng = np.random.default_rng(8)
    store = ParameterStore()
    w = store.add("w", rng.standard_normal((4, 3)))
    w.grad = rng.standard_normal((4, 3))
    optimizer_step(store, lr=0.1)
    before = [moment.copy() for moment in store._adam["w"]]
    store.reset_adam_rows("w", np.array([0, 2]))
    for moment, old in zip(store._adam["w"], before):
        assert not moment[[0, 2]].any()
        assert moment[[1, 3]].tobytes() == old[[1, 3]].tobytes()
        assert old[[0, 2]].all()


def test_training_determinism():
    def run():
        rng = np.random.default_rng(77)
        store = ParameterStore()
        k = store.add("k", rng.standard_normal((2, 1, 3)))
        b = store.add("b", np.zeros(2))
        x = Tensor(rng.standard_normal((10, 1)))
        target = Tensor(rng.standard_normal((10, 2)))
        for _ in range(25):
            out = conv1d(x, k, bias=b, padding=1)
            loss = mse_loss(out, target, np.full((10, 2), 1 / 20))
            backward(loss)
            optimizer_step(store, lr=1e-2)
        return k.data.tobytes() + b.data.tobytes()

    assert run() == run()


def test_no_grad_context():
    w = Tensor(np.array(2.0), requires_grad=True)
    with no_grad():
        out = mul(w, w)
    assert not out.requires_grad
    assert out._parents == ()


def reseal(blob) -> bytes:
    """`blob` with its CRC-32 trailer recomputed over everything before it."""
    body = bytes(blob[:-4])
    return body + struct.pack("<I", zlib.crc32(body))


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    named = {
        "a.weight": rng.standard_normal((3, 4)),
        "b.bias": rng.standard_normal(7),
        "counts": np.arange(5, dtype=np.int64) - 2,
        "record": np.frombuffer(b'{"k": 1}', dtype=np.uint8),
        "scalar": np.array(3.5),
    }
    p = tmp_path / "ckpt.stkt"
    save_named_tensors(str(p), named)
    blob = p.read_bytes()
    assert blob[:4] == b"STK2"
    assert struct.unpack("<I", blob[-4:])[0] == zlib.crc32(blob[:-4])
    loaded = load_named_tensors(str(p))
    assert set(loaded) == set(named)
    for k in named:
        assert loaded[k].dtype == named[k].dtype
        assert np.array_equal(loaded[k], named[k])
    # byte-stable on rewrite
    save_named_tensors(str(p), loaded)
    assert p.read_bytes() == blob


def test_checkpoint_cut_short_or_padded_raises(tmp_path):
    p = tmp_path / "ckpt.stkt"
    save_named_tensors(str(p), {"w": np.arange(6.0).reshape(2, 3), "s": np.array(1.5)})
    blob = p.read_bytes()
    bad = tmp_path / "bad.stkt"
    # every cut point: inside the magic, the count, a name, a shape, a
    # payload or the trailer
    for n in range(len(blob)):
        bad.write_bytes(blob[:n])
        with pytest.raises(CorruptCheckpoint, match="bad.stkt"):
            load_named_tensors(str(bad))
    bad.write_bytes(blob + b"\0")
    with pytest.raises(CorruptCheckpoint, match="truncated or corrupt"):
        load_named_tensors(str(bad))
    # a byte after the last entry, under a CRC that matches
    bad.write_bytes(reseal(blob[:-4] + b"\0" + blob[-4:]))
    with pytest.raises(CorruptCheckpoint, match="1 bytes after its 2 entries"):
        load_named_tensors(str(bad))


def test_checkpoint_corrupt_name_or_shape_raises(tmp_path):
    p = tmp_path / "ckpt.stkt"
    save_named_tensors(str(p), {"w": np.ones((2, 2))})
    blob = bytearray(p.read_bytes())
    # layout: magic(4) count(4) name length(2) name(1) tag(2) ndim(1) dims(4 each)
    name_at, tag_at, dim_at = 10, 11, 14
    undecodable = blob.copy()
    undecodable[name_at] = 0xFF
    p.write_bytes(bytes(undecodable))
    with pytest.raises(CorruptCheckpoint, match="CRC-32 mismatch"):
        load_named_tensors(str(p))
    p.write_bytes(reseal(undecodable))
    with pytest.raises(CorruptCheckpoint, match="not UTF-8"):
        load_named_tensors(str(p))
    unknown = blob.copy()
    unknown[tag_at : tag_at + 2] = b"f4"
    p.write_bytes(reseal(unknown))
    with pytest.raises(CorruptCheckpoint, match="entry 'w' has an unknown dtype tag b'f4'"):
        load_named_tensors(str(p))
    huge = blob.copy()
    huge[dim_at : dim_at + 8] = b"\xff" * 8  # 2**64-ish elements
    p.write_bytes(reseal(huge))
    with pytest.raises(CorruptCheckpoint, match="truncated or corrupt"):
        load_named_tensors(str(p))


class HalfWriter:
    """A file opened for writing whose first write stores half its bytes
    and then fails, as a full disk would."""

    def __init__(self, path, mode):
        self.f = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, b):
        self.f.write(b[: len(b) // 2])
        self.f.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


def test_a_failed_checkpoint_write_keeps_the_previous_file(tmp_path, monkeypatch):
    p = tmp_path / "ckpt.stkt"
    save_named_tensors(str(p), {"w": np.ones((2, 2))})
    before = p.read_bytes()
    opened = []

    def half_writer(path, mode):
        opened.append(Path(path))
        return HalfWriter(path, mode)

    monkeypatch.setattr(te, "open", half_writer, raising=False)
    with pytest.raises(OSError, match="No space left"):
        save_named_tensors(str(p), {"w": np.zeros((2, 2))})
    monkeypatch.undo()
    # the write went to a file beside the checkpoint, which is gone again
    assert [q.parent for q in opened] == [tmp_path] and opened[0] != p
    assert p.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == [p]
    # a new file gets the mode a plain open gives, not a temp file's 0600
    plain = tmp_path / "plain"
    plain.write_bytes(b"")
    save_named_tensors(str(tmp_path / "new.stkt"), {"w": np.ones(2)})
    assert stat.S_IMODE((tmp_path / "new.stkt").stat().st_mode) == stat.S_IMODE(
        plain.stat().st_mode
    )


def test_minibatches_match_the_cursor_loop():
    """The shared iterator yields the batches, and draws from the rng in the
    order, of the trainers' former cursor loop (a reseed-like draw at each
    epoch start, before that epoch's permutation)."""
    for n, batch_size, steps in ((7, 3, 10), (6, 3, 7), (1, 4, 3), (5, 5, 4)):
        rng = np.random.default_rng(n * 10 + batch_size)
        order = rng.permutation(n)
        want = []
        cursor = 0
        per_epoch = (n + batch_size - 1) // batch_size
        for step in range(steps):
            if cursor == 0 and step > 0:
                rng.integers(0, 100)
                order = rng.permutation(n)
            want.append(order[cursor * batch_size : (cursor + 1) * batch_size].tolist())
            cursor = (cursor + 1) % per_epoch
        want_state = rng.bit_generator.state

        rng = np.random.default_rng(n * 10 + batch_size)
        first = rng.permutation(n)
        it = minibatches(n, batch_size, rng, first, before_epoch=lambda: rng.integers(0, 100))
        got = [b.tolist() for _, b in zip(range(steps), it)]
        assert got == want
        assert rng.bit_generator.state == want_state


# ---------------------------------------------------------------------------
# Time-major convolutions against the former channel-major (C, L) kernels
# ---------------------------------------------------------------------------


def conv1d_channel_major(x, kernel, bias, stride, padding, g):
    """The former (C_in, L) conv1d: its output (C_out, T) and, for the
    upstream gradient g (C_out, T), the gradients of x, kernel and bias."""
    c_in, length = x.shape
    c_out, _, k = kernel.shape
    lp = length + 2 * padding
    t_out = (lp - k) // stride + 1
    xp = np.zeros((c_in, lp))
    xp[:, padding : padding + length] = x
    idx = (np.arange(t_out) * stride)[:, None] + np.arange(k)[None, :]
    cols2 = xp[:, idx].transpose(1, 0, 2).reshape(t_out, c_in * k)
    w2 = kernel.reshape(c_out, c_in * k)
    out = (cols2 @ w2.T).T + bias[:, None]
    dk = (g @ cols2).reshape(c_out, c_in, k)
    g_cols = (g.T @ w2).reshape(t_out, c_in, k).transpose(1, 0, 2)
    dxp = np.zeros_like(xp)
    np.add.at(dxp, (np.arange(c_in)[:, None, None], idx[None]), g_cols)
    return out, dxp[:, padding : padding + length], dk, g.sum(axis=1)


def conv_transpose1d_channel_major(x, kernel, bias, stride, padding, g):
    """The former (C_in, L) conv_transpose1d, forward and gradients, as
    conv1d_channel_major."""
    c_in, length = x.shape
    _, c_out, k = kernel.shape
    l_full = (length - 1) * stride + k
    l_out = l_full - 2 * padding
    full = np.zeros((c_out, l_full))
    base = stride * np.arange(length)
    for kk in range(k):
        full[:, base + kk] += kernel[:, :, kk].T @ x
    out = full[:, padding : padding + l_out] + bias[:, None]
    gf = np.zeros((c_out, l_full))
    gf[:, padding : padding + l_out] = g
    gwin = gf[:, base[:, None] + np.arange(k)[None, :]]
    dk = np.einsum("it,otk->iok", x, gwin)
    dx = np.einsum("iok,otk->it", kernel, gwin)
    return out, dx, dk, g.sum(axis=1)


def time_major_inputs(rng, length, channels):
    """The same (L, C) values as a C-contiguous array, a transposed view of
    a (C, L) array and a row-strided view: the kernels must not depend on
    the input's memory layout."""
    base = rng.standard_normal((length, channels))
    wide = np.zeros((2 * length, channels))
    wide[::2] = base
    return base, [base, np.ascontiguousarray(base.T).T, wide[::2]]


@pytest.mark.parametrize("transposed", [False, True])
def test_conv_kernels_match_channel_major_oracle(transposed):
    rng = np.random.default_rng(81 + transposed)
    op = conv_transpose1d if transposed else conv1d
    oracle = conv_transpose1d_channel_major if transposed else conv1d_channel_major
    worst = 0.0
    for stride in (1, 2, 3):
        for padding in (0, 1, 2):
            for k in range(1, 7):
                for length in (1, 2, 5, 9):
                    if transposed:
                        if (length - 1) * stride + k - 2 * padding < 1:
                            continue
                        c_in, c_out = 4, 3
                        kernel = rng.standard_normal((c_in, c_out, k))
                    else:
                        if k > length + 2 * padding:
                            continue
                        c_in, c_out = 3, 4
                        kernel = rng.standard_normal((c_out, c_in, k))
                    bias = rng.standard_normal(c_out)
                    values, layouts = time_major_inputs(rng, length, c_in)
                    out_len = None
                    for xd in layouts:
                        x = Tensor(xd, requires_grad=True)
                        kt = Tensor(kernel.copy(), requires_grad=True)
                        bt = Tensor(bias.copy(), requires_grad=True)
                        out = op(x, kt, bias=bt, stride=stride, padding=padding)
                        if out_len is None:
                            out_len = out.data.shape[0]
                            g = rng.standard_normal((out_len, c_out))
                            want = oracle(values.T, kernel, bias, stride, padding, g.T)
                        backward(sum_all(mul(out, Tensor(g))))
                        got = (out.data.T, x.grad.T, kt.grad, bt.grad)
                        for a, b in zip(got, want):
                            assert a.shape == b.shape
                            worst = max(worst, float(np.abs(a - b).max()))
    assert worst <= 1e-12
