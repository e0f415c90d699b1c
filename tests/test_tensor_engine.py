import numpy as np
import pytest

from stroketok import tensor_engine as te
from stroketok.tensor_engine import (
    CorruptCheckpoint,
    NoGradient,
    ParameterStore,
    ShapeMismatch,
    Tensor,
    backward,
    clip,
    concat,
    conv1d,
    conv_transpose1d,
    cross_entropy,
    embedding,
    layer_norm,
    load_named_tensors,
    matmul,
    mean_all,
    mse_loss,
    mul,
    narrow,
    no_grad,
    optimizer_step,
    relu,
    save_named_tensors,
    softmax,
    stop_gradient,
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
    x = Tensor([[1.0, 2.0, 3.0]])
    k = Tensor([[[1.0, 0.0, -1.0]]])
    out = conv1d(x, k)
    np.testing.assert_allclose(out.data, [[-2.0]])

    ident = conv1d(x, Tensor([[[1.0]]]))
    np.testing.assert_allclose(ident.data, x.data)

    x8 = Tensor(np.arange(8, dtype=float)[None, :])
    out8 = conv1d(x8, Tensor([[[1.0, 1.0]]]), stride=2)
    assert out8.data.shape == (1, 4)


def test_conv1d_bias_and_shape_errors():
    x = Tensor(np.ones((2, 5)))
    k = Tensor(np.ones((3, 2, 3)))
    b = Tensor(np.array([1.0, 2.0, 3.0]))
    out = conv1d(x, k, bias=b, padding=1)
    assert out.data.shape == (3, 5)
    with pytest.raises(ShapeMismatch):
        conv1d(x, Tensor(np.ones((3, 4, 3))))
    with pytest.raises(ShapeMismatch):
        conv1d(x, Tensor(np.ones((3, 2, 9))))


def test_conv_transpose_scatter_example():
    x = Tensor([[1.0, 0.0]])
    k = Tensor([[[1.0, 1.0]]])
    out = conv_transpose1d(x, k, stride=2)
    np.testing.assert_allclose(out.data, [[1.0, 1.0, 0.0, 0.0]])


def test_conv_length_round_trip():
    x = Tensor(np.random.default_rng(0).standard_normal((3, 16)))
    k_down = Tensor(np.random.default_rng(1).standard_normal((5, 3, 4)))
    k_up = Tensor(np.random.default_rng(2).standard_normal((5, 3, 4)))
    down = conv1d(x, k_down, stride=2, padding=1)
    assert down.data.shape == (5, 8)
    up = conv_transpose1d(down, k_up, stride=2, padding=1)
    assert up.data.shape == (3, 16)


def test_conv_adjoint_identity():
    # lengths chosen so stride divides the padded span exactly
    rng = np.random.default_rng(7)
    for stride, pad, k, length in ((1, 0, 3, 20), (2, 1, 4, 20), (3, 2, 5, 19)):
        x = Tensor(rng.standard_normal((4, length)), requires_grad=True)
        kern = Tensor(rng.standard_normal((6, 4, k)))
        y_shape = conv1d(x, kern, stride=stride, padding=pad).data.shape
        y = Tensor(rng.standard_normal(y_shape))
        lhs = float((conv1d(x, kern, stride=stride, padding=pad).data * y.data).sum())
        xt = conv_transpose1d(
            Tensor(y.data), Tensor(kern.data), stride=stride, padding=pad
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

    x = rand_param(rng, 3, 12)
    k = rand_param(rng, 4, 3, 3)
    b = rand_param(rng, 4)
    fd_check(lambda: mean_all(conv1d(x, k, bias=b, stride=2, padding=1)), [x, k, b])

    xt = rand_param(rng, 4, 6)
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
    fd_check(lambda: mse_loss(a, bb), [a, bb])

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

    xc = rand_param(rng, 4, 6)
    xc.data = np.where(np.abs(xc.data) < 0.9, xc.data, 0.5 * np.sign(xc.data))
    fd_check(lambda: mean_all(clip(xc, -0.8, 0.8)), [xc])

    xn = rand_param(rng, 5, 8)
    fd_check(lambda: mean_all(narrow(xn, 1, 2, 3)), [xn])

    c1 = rand_param(rng, 2, 3)
    c2 = rand_param(rng, 2, 3)
    fd_check(lambda: mean_all(concat([c1, c2], axis=0)), [c1, c2])

    tp = rand_param(rng, 3, 5)
    fd_check(lambda: sum_all(transpose2d(tp)), [tp])


def test_gradcheck_composed_network_many_seeds():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((2, 8)))
        k1 = rand_param(rng, 3, 2, 4)
        b1 = rand_param(rng, 3)
        k2 = rand_param(rng, 3, 2, 4)  # transpose kernel (C_in, C_out, K)
        target = rng.standard_normal((3, 8))

        def loss_fn():
            h = conv1d(x, k1, bias=b1, stride=2, padding=1)
            h = relu(h)
            u = conv_transpose1d(h, k2, stride=2, padding=1)
            h2 = conv1d(u, Tensor(np.ones((3, 2, 1))))
            return mse_loss(h2, Tensor(target))

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


def test_training_determinism():
    def run():
        rng = np.random.default_rng(77)
        store = ParameterStore()
        k = store.add("k", rng.standard_normal((2, 1, 3)))
        b = store.add("b", np.zeros(2))
        x = Tensor(rng.standard_normal((1, 10)))
        target = Tensor(rng.standard_normal((2, 10)))
        for _ in range(25):
            loss = mse_loss(conv1d(x, k, bias=b, padding=1), target)
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


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    named = {
        "a.weight": rng.standard_normal((3, 4)),
        "b.bias": rng.standard_normal(7),
        "scalar": np.array(3.5),
    }
    p = tmp_path / "ckpt.stkt"
    save_named_tensors(str(p), named)
    assert p.read_bytes()[:4] == b"STKT"
    loaded = load_named_tensors(str(p))
    assert set(loaded) == set(named)
    for k in named:
        assert np.array_equal(loaded[k], named[k])
    # byte-stable on rewrite
    blob = p.read_bytes()
    save_named_tensors(str(p), loaded)
    assert p.read_bytes() == blob


def test_checkpoint_cut_short_or_padded_raises(tmp_path):
    p = tmp_path / "ckpt.stkt"
    save_named_tensors(str(p), {"w": np.arange(6.0).reshape(2, 3), "s": np.array(1.5)})
    blob = p.read_bytes()
    bad = tmp_path / "bad.stkt"
    # every cut point: inside the magic, the count, a name, a shape or a payload
    for n in range(len(blob)):
        bad.write_bytes(blob[:n])
        with pytest.raises(CorruptCheckpoint, match="bad.stkt"):
            load_named_tensors(str(bad))
    bad.write_bytes(blob + b"\0")
    with pytest.raises(CorruptCheckpoint, match="1 bytes after its 2 entries"):
        load_named_tensors(str(bad))


def test_checkpoint_corrupt_name_or_shape_raises(tmp_path):
    p = tmp_path / "ckpt.stkt"
    save_named_tensors(str(p), {"w": np.ones((2, 2))})
    blob = bytearray(p.read_bytes())
    # layout: magic(4) count(4) name length(2) name(1) ndim(1) dims(4 each)
    name_at, dim_at = 10, 12
    undecodable = blob.copy()
    undecodable[name_at] = 0xFF
    p.write_bytes(bytes(undecodable))
    with pytest.raises(CorruptCheckpoint, match="not UTF-8"):
        load_named_tensors(str(p))
    huge = blob.copy()
    huge[dim_at : dim_at + 8] = b"\xff" * 8  # 2**64-ish elements
    p.write_bytes(bytes(huge))
    with pytest.raises(CorruptCheckpoint, match="truncated or corrupt"):
        load_named_tensors(str(p))
