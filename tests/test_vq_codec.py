import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stroketok import tensor_engine as te
from stroketok.matrix_codec import TO_UNIT, StrokeMatrix, scale, to_matrix
from stroketok.svg_io import gen_synthetic
from stroketok.tensor_engine import (
    ParameterStore,
    Tensor,
    backward,
    no_grad,
)
from stroketok.vq_codec import (
    BadTokenId,
    batch_loss,
    CodecConfig,
    Codebook,
    Diverged,
    EmptyCodebook,
    MalformedTokens,
    Packing,
    StrokeTokenSeq,
    codec_loss,
    decode,
    detokenize,
    encode,
    init_codec_params,
    load_tokens,
    load_vq_checkpoint,
    lookup_tokens,
    make_codebook,
    pad_rows,
    quantize_residual,
    save_tokens,
    save_vq_checkpoint,
    straight_through,
    tokenize,
    train,
    _decode_tensor,
    _kmeans,
    _nearest,
    _sq_distances,
)


def small_cfg(**kw) -> CodecConfig:
    base = dict(
        compression_stages=1,
        rvq_depth=2,
        codebook_size=8,
        code_dim=6,
        channels=(12,),
        steps=10,
        batch_size=4,
        seed=3,
    )
    base.update(kw)
    return CodecConfig(**base)


def book_from_arrays(levels: list[np.ndarray]) -> Codebook:
    tensors = [Tensor(np.asarray(lv, dtype=float), requires_grad=True) for lv in levels]
    usage = [np.zeros(lv.data.shape[0], dtype=np.int64) for lv in tensors]
    return Codebook(levels=tensors, usage=usage)


def scaled_corpus(n: int, seed: int):
    out = []
    for g in gen_synthetic(n, seed):
        out.append(scale(to_matrix(g), TO_UNIT, g.viewbox))
    return out


def brute_force_rvq(point: np.ndarray, levels: list[np.ndarray]):
    """Independent oracle: python loops, strict-< nearest neighbor."""
    tokens = []
    residual = point.astype(float).copy()
    total = np.zeros_like(residual)
    for li, book in enumerate(levels):
        best, best_d = 0, None
        for e, entry in enumerate(book):
            d = 0.0
            for a, b in zip(residual, entry):
                d += (a - b) ** 2
            if best_d is None or d < best_d:
                best, best_d = e, d
        tokens.append(li * len(book) + best)
        residual = residual - book[best]
        total = total + book[best]
    return tokens, total


def test_config_rejects_empty_batches():
    with pytest.raises(ValueError):
        small_cfg(batch_size=0)


def test_quantize_hand_example():
    # two levels of two entries each; worked by hand
    book = book_from_arrays([[(0.0, 0.0), (1.0, 1.0)], [(0.0, 0.0), (0.2, 0.0)]])
    z = np.array([[1.2, 1.0]])  # one timestep, Dim=2
    zq, ids = quantize_residual(Tensor(z), book)
    assert ids.tolist() == [1, 2 + 1]
    np.testing.assert_allclose(zq.data[0], [1.2, 1.0], atol=1e-15)


def test_quantize_exact_match_zero_error():
    book = book_from_arrays([[(0.5, -0.25), (2.0, 2.0)], [(0.0, 0.0), (1.0, 0.0)]])
    z = np.array([[0.5, -0.25]])
    zq, ids = quantize_residual(Tensor(z), book)
    assert ids.tolist() == [0, 2]
    np.testing.assert_array_equal(zq.data, z)


def test_depth_one_is_plain_vq():
    book = book_from_arrays([[(0.0, 0.0), (1.0, 1.0), (3.0, 3.0)]])
    z = np.array([[0.9, 1.1], [2.6, 2.4]])
    zq, ids = quantize_residual(Tensor(z), book)
    assert ids.tolist() == [1, 2]
    np.testing.assert_allclose(zq.data, [[1.0, 1.0], [3.0, 3.0]])


def test_tie_goes_to_lowest_index():
    book = book_from_arrays([[(1.0, 0.0), (1.0, 0.0), (0.0, 0.0)]])
    z = np.array([[1.0, 0.0]])
    _, ids = quantize_residual(Tensor(z), book)
    assert ids.tolist() == [0]
    # equidistant between entries 0 and 2
    book2 = book_from_arrays([[(1.0, 0.0), (5.0, 5.0), (-1.0, 0.0)]])
    _, ids2 = quantize_residual(Tensor(np.array([[0.0, 0.0]])), book2)
    assert ids2.tolist() == [0]


def test_quantize_matches_bruteforce_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(120):
        dim = int(rng.integers(1, 17))
        size = int(rng.integers(2, 65))
        depth = int(rng.integers(1, 4))
        levels = [rng.normal(size=(size, dim)) for _ in range(depth)]
        if rng.random() < 0.3:  # inject duplicate entries to exercise ties
            for lv in levels:
                lv[size // 2] = lv[0]
        t_len = int(rng.integers(1, 5))
        z = rng.normal(size=(dim, t_len)).T
        book = book_from_arrays(levels)
        zq, ids = quantize_residual(Tensor(z), book)
        for t in range(t_len):
            tokens, total = brute_force_rvq(z[t], levels)
            assert ids[t * depth : (t + 1) * depth].tolist() == tokens
            np.testing.assert_allclose(zq.data[t], total, atol=1e-12)


def test_residual_monotone_with_zero_entry():
    rng = np.random.default_rng(6)
    for _ in range(30):
        dim, size, depth = 5, 7, 3
        levels = [rng.normal(size=(size, dim)) for _ in range(depth)]
        for lv in levels:
            lv[0] = 0.0  # zero vector always available
        z = rng.normal(size=(dim, 4))
        book = book_from_arrays(levels)
        residual = z.T.copy()
        norms = [np.linalg.norm(residual, axis=1)]
        for lv in levels:
            d2 = ((residual[:, None, :] - lv[None]) ** 2).sum(2)
            idx = np.argmin(d2, axis=1)
            residual = residual - lv[idx]
            norms.append(np.linalg.norm(residual, axis=1))
        for a, b in zip(norms, norms[1:]):
            assert np.all(b <= a + 1e-12)


def test_quantize_usage_counts():
    book = book_from_arrays([[(0.0, 0.0), (1.0, 1.0)]])
    z = np.array([[1.0, 1.0], [0.9, 1.1], [0.0, 0.1]])
    quantize_residual(Tensor(z), book, update_usage=True)
    assert book.usage[0].tolist() == [1, 2]


def test_empty_codebook():
    with pytest.raises(EmptyCodebook):
        quantize_residual(Tensor(np.zeros((1, 2))), Codebook(levels=[], usage=[]))


def test_encode_shapes_and_padding():
    cfg = small_cfg()
    store = init_codec_params(cfg, np.random.default_rng(0))
    rows = np.zeros((8, 9))
    z, pad = encode(__import__("stroketok.matrix_codec", fromlist=["StrokeMatrix"]).StrokeMatrix(rows, scaled=True), cfg, store)
    assert z.data.shape == (4, cfg.code_dim) and pad == 0

    cfg2 = small_cfg(compression_stages=2, channels=(12, 12))
    store2 = init_codec_params(cfg2, np.random.default_rng(0))
    from stroketok.matrix_codec import StrokeMatrix

    z2, pad2 = encode(StrokeMatrix(np.zeros((8, 9)), scaled=True), cfg2, store2)
    assert z2.data.shape == (2, cfg2.code_dim) and pad2 == 0

    z3, pad3 = encode(StrokeMatrix(np.zeros((7, 9)), scaled=True), cfg2, store2)
    assert z3.data.shape == (2, cfg2.code_dim) and pad3 == 1


def test_decode_shape_and_clamp():
    from stroketok.matrix_codec import StrokeMatrix

    cfg = small_cfg()
    store = init_codec_params(cfg, np.random.default_rng(1))
    # blow up decoder weights so raw outputs exceed [-1, 1]
    store["dec0.proj.w"].data *= 1000.0
    zq = Tensor(np.random.default_rng(2).normal(size=(4, cfg.code_dim)))
    m = decode(zq, cfg, store)
    assert m.rows.shape == (8, 9)
    assert m.scaled
    assert np.all(np.isfinite(m.rows))
    assert np.abs(m.rows).max() <= 1.0
    trimmed = decode(zq, cfg, store, original_len=5)
    assert trimmed.rows.shape == (5, 9)


def test_loss_zero_and_alpha_off():
    z = Tensor(np.array([[1.0, 0.0]]), requires_grad=True)
    zq = Tensor(z.data.copy())
    recon = Tensor(np.zeros((4, 9)), requires_grad=True)
    # 4 rows over 1 latent row
    cfg = small_cfg(compression_stages=2)
    packing = Packing.of([StrokeMatrix(np.zeros((4, 9)), scaled=True)], cfg)
    total, l_cb, l_cm, l_rc = codec_loss(packing, recon, z, zq, alpha=1.0)
    assert float(total.data) == 0.0

    rng = np.random.default_rng(0)
    recon2 = Tensor(rng.normal(size=(4, 9)), requires_grad=True)
    zq2 = Tensor(rng.normal(size=(1, 2)))
    total2, _, _, l_rc2 = codec_loss(packing, recon2, z, zq2, alpha=0.0)
    assert float(total2.data) == pytest.approx(float(l_rc2.data))


def test_loss_hand_arithmetic():
    # Z=(1,0), Zq=(0,0), matrices equal, alpha=1 -> each VQ term is 0.5
    z = Tensor(np.array([[1.0, 0.0]]), requires_grad=True)
    zq = Tensor(np.zeros((1, 2)))
    recon = Tensor(np.zeros((2, 9)))
    packing = Packing.of([StrokeMatrix(np.zeros((2, 9)), scaled=True)], small_cfg())
    total, l_cb, l_cm, l_rc = codec_loss(packing, recon, z, zq, alpha=1.0)
    assert float(l_cb.data) == pytest.approx(0.5)
    assert float(l_cm.data) == pytest.approx(0.5)
    assert float(l_rc.data) == 0.0
    assert float(total.data) == pytest.approx(1.0)


def test_gradient_routing_as_printed():
    """Commitment term -> codebook only; codebook term -> encoder only."""
    cfg = small_cfg()
    rng = np.random.default_rng(5)
    store = init_codec_params(cfg, rng)
    codebook = make_codebook(cfg, store)
    for lv in codebook.levels:
        lv.data = rng.normal(size=lv.data.shape)
    corpus = scaled_corpus(2, 40)
    m = corpus[0]
    # a zero target and recon as long as m, so the latent rows match z's
    packing = Packing.of([StrokeMatrix(np.zeros((len(m), 9)), scaled=True)], cfg)
    recon = np.zeros(packing.target.shape)

    z, _ = encode(m, cfg, store)
    zq, _ = quantize_residual(z, codebook)
    _, l_cb, l_cm, _ = codec_loss(packing, Tensor(recon, requires_grad=True), z, zq, 1.0)

    backward(l_cm)
    enc_names = [n for n, _ in store.trainable() if n.startswith("enc")]
    for n in enc_names:
        assert store[n].grad is None or not np.any(store[n].grad)
    assert any(np.any(lv.grad) for lv in codebook.levels if lv.grad is not None)

    store.zero_grads()
    z2, _ = encode(m, cfg, store)
    zq2, _ = quantize_residual(z2, codebook)
    _, l_cb2, _, _ = codec_loss(packing, Tensor(recon, requires_grad=True), z2, zq2, 1.0)
    backward(l_cb2)
    for lv in codebook.levels:
        assert lv.grad is None or not np.any(lv.grad)
    assert any(
        store[n].grad is not None and np.any(store[n].grad) for n in enc_names
    )


def test_straight_through_matches_identity_graph():
    """With a codebook that reproduces Z exactly, encoder grads equal the
    no-quantizer autoencoder grads."""
    cfg = small_cfg(rvq_depth=2)
    rng = np.random.default_rng(9)
    store = init_codec_params(cfg, rng)
    m = scaled_corpus(1, 77)[0]

    with no_grad():
        z_plain, pad = encode(m, cfg, store)
    packing = Packing.of([m], cfg)

    # level 0 holds every latent row exactly; level 1 holds only zeros
    book = book_from_arrays([z_plain.data, np.zeros((2, cfg.code_dim))])

    z, _ = encode(m, cfg, store)
    zq, _ = quantize_residual(z, book)
    np.testing.assert_allclose(zq.data, z.data, atol=1e-12)
    recon = _decode_tensor(straight_through(z, zq), cfg, store)
    loss = codec_loss(packing, recon, z, zq, 1.0)[0]
    backward(loss)
    grads_st = {n: t.grad.copy() for n, t in store.trainable() if t.grad is not None}

    store.zero_grads()
    z_id, _ = encode(m, cfg, store)
    recon_id = _decode_tensor(z_id, cfg, store)
    l_rc = codec_loss(packing, recon_id, z_id, Tensor(z_id.data.copy()), 1.0)[0]
    backward(l_rc)
    for name, g in grads_st.items():
        ref = store[name].grad
        assert ref is not None
        assert np.abs(g - ref).max() < 1e-10, name


def test_train_overfit_single_graphic():
    cfg = small_cfg(
        codebook_size=16,
        code_dim=8,
        rvq_depth=2,
        channels=(24,),
        steps=90,
        batch_size=1,
        lr=2e-3,
        seed=11,
    )
    corpus = scaled_corpus(1, 300)
    store, codebook, logs = train(corpus, cfg)
    assert logs[-1]["recon"] < 1e-3


def test_train_seed_determinism(tmp_path):
    cfg = small_cfg(steps=30, seed=21)
    corpus = scaled_corpus(4, 50)
    s1, c1, _ = train(corpus, cfg)
    s2, c2, _ = train(corpus, cfg)
    p1, p2 = tmp_path / "a.stkt", tmp_path / "b.stkt"
    save_vq_checkpoint(str(p1), s1, c1, cfg)
    save_vq_checkpoint(str(p2), s2, c2, cfg)
    assert p1.read_bytes() == p2.read_bytes()


def test_train_diverged():
    cfg = small_cfg(steps=5, lr=1e6)
    corpus = scaled_corpus(2, 8)
    store = init_codec_params(cfg, np.random.default_rng(0))
    store["enc0.down.w"].data *= np.inf
    # direct loop would NaN; train() raises instead of looping forever
    with pytest.raises(Diverged):
        corpus2 = [
            type(corpus[0])(rows=np.full_like(corpus[0].rows, np.nan), scaled=True)
        ]
        train(corpus2, cfg)


def test_tokenize_detokenize_contracts():
    cfg = small_cfg(steps=60, codebook_size=16, code_dim=8, channels=(16,), seed=5)
    graphics = gen_synthetic(4, 61)
    corpus = [scale(to_matrix(g), TO_UNIT, g.viewbox) for g in graphics]
    store, codebook, _ = train(corpus, cfg)

    g = graphics[0]
    seq = tokenize(g, store, codebook, cfg)
    expected_frames = -(-g.command_count() // cfg.rate)
    assert len(seq.tokens) == cfg.rvq_depth * expected_frames
    assert all(type(t) is int for t in seq.tokens)
    assert all(0 <= t < cfg.rvq_depth * cfg.codebook_size for t in seq.tokens)
    assert seq.layout == cfg.layout
    assert seq.meta["orig_len"] == g.command_count()

    out, report = detokenize(seq, store, codebook, cfg, "pc")
    assert report is not None  # the PC fixer ran
    # decode trims to orig_len rows; from_matrix may prepend one synthesized
    # MoveTo when the first decoded row is not a move
    assert g.command_count() <= out.command_count() <= g.command_count() + 1
    assert out.viewbox == g.viewbox

    with pytest.raises(BadTokenId):
        bad = StrokeTokenSeq([cfg.rvq_depth * cfg.codebook_size], seq.layout, seq.meta)
        _, _ = detokenize(bad, store, codebook, cfg, "pc")


def test_lookup_tokens_total_on_any_valid_ids():
    book = book_from_arrays([[(1.0, 0.0), (0.0, 1.0)], [(5.0, 5.0), (7.0, 7.0)]])
    out = lookup_tokens([0, 0], book)  # two level-0 ids in one frame
    np.testing.assert_allclose(out[0], [2.0, 0.0])
    with pytest.raises(BadTokenId):
        lookup_tokens([4], book)


def test_token_file_round_trip(tmp_path):
    """The header is the sequence's own layout, and loading gives it back."""
    for layout, header in (((2, 8, 1), "d=2 B=8 stages=1"), ((3, 16, 2), "d=3 B=16 stages=2")):
        seq = StrokeTokenSeq(tokens=[0, 9, 3, 11], layout=layout)
        p = tmp_path / "g.tok"
        save_tokens(seq, str(p))
        text = p.read_text().splitlines()
        assert text[0] == f"# stroketok v1 {header}"
        assert text[1:] == ["0", "9", "3", "11"]
        assert load_tokens(str(p)) == seq


@pytest.mark.parametrize(
    "text",
    [
        "",
        "0\n1\n",
        "# stroketok v1 d=2 stages=1\n0\n",
        "# stroketok v1 d=2 B=8\n0\n",
        "# stroketok v1 B=8 stages=1\n0\n",
        "# stroketok v1 d=0 B=8 stages=1\n0\n",
        "# stroketok v1 d=2 B=1 stages=1\n0\n",
        "# stroketok v1 d=x B=8 stages=1\n0\n",
        "# stroketok v1 d=2 B=8 stages=1\n0\nseven\n",
    ],
)
def test_malformed_token_file_raises(tmp_path, text):
    p = tmp_path / "g.tok"
    p.write_text(text)
    with pytest.raises(MalformedTokens, match="g.tok"):
        load_tokens(str(p))


def test_checkpoint_round_trip(tmp_path):
    cfg = small_cfg(steps=8)
    corpus = scaled_corpus(3, 17)
    store, codebook, _ = train(corpus, cfg)
    p = tmp_path / "vq.stkt"
    save_vq_checkpoint(str(p), store, codebook, cfg)
    store2, codebook2, cfg2 = load_vq_checkpoint(str(p))
    assert cfg2 == cfg
    for name in store.state_dict():
        assert np.array_equal(store[name].data, store2[name].data)
    for u, u2 in zip(codebook.usage, codebook2.usage, strict=True):
        assert u2.dtype == np.int64 and np.array_equal(u, u2)
    g = gen_synthetic(1, 31)[0]
    s1 = tokenize(g, store, codebook, cfg)
    s2 = tokenize(g, store2, codebook2, cfg2)
    assert s1.tokens == s2.tokens


def brute_nearest(points, entries):
    return np.argmin(_sq_distances(points, entries), axis=1)


def assert_nearest_exact(points, entries):
    points = np.asarray(points, dtype=float)
    entries = np.asarray(entries, dtype=float)
    got = _nearest(points, entries)
    np.testing.assert_array_equal(got, brute_nearest(points, entries))
    return got


def test_nearest_duplicated_entries_and_points_on_entries():
    rng = np.random.default_rng(11)
    for dim in (1, 3, 16, 64):
        entries = rng.normal(size=(24, dim))
        entries[5] = entries[17] = entries[2]
        entries[9] = entries[0]
        points = np.concatenate(
            [entries, entries[[17, 9, 5]], rng.normal(size=(30, dim))]
        )
        got = assert_nearest_exact(points, entries)
        # a point equal to duplicated entries goes to the lowest copy
        assert got[17] == got[5] == 2 and got[9] == 0


def test_nearest_decides_byte_equal_copies_without_the_bruteforce(monkeypatch):
    import stroketok.vq_codec as vq_codec

    rng = np.random.default_rng(15)
    oracle = vq_codec._sq_distances
    for dim in (1, 7, 64):
        base = rng.normal(size=(12, dim))
        # copies before and after their first occurrence, as reseeding leaves them
        entries = base[rng.integers(0, 12, size=40)]
        points = np.concatenate(
            [entries, entries + rng.normal(scale=1e-3, size=entries.shape)]
        )
        want = np.argmin(oracle(points, entries), axis=1)
        checked = []

        def counting(p, e):
            checked.append(len(p))
            return oracle(p, e)

        monkeypatch.setattr(vq_codec, "_sq_distances", counting)
        np.testing.assert_array_equal(vq_codec._nearest(points, entries), want)
        monkeypatch.setattr(vq_codec, "_sq_distances", oracle)
        assert checked == []
    # +0.0 and -0.0 differ in bytes, so they are not copies: the brute force decides
    assert_nearest_exact([[0.0], [-0.0], [1.0]], [[-0.0], [0.0], [0.0], [-0.0]])


def test_nearest_exact_midpoints():
    rng = np.random.default_rng(12)
    for dim in (1, 2, 7, 32):
        entries = rng.integers(-4, 5, size=(10, dim)).astype(float)
        pairs = rng.integers(0, 10, size=(40, 2))
        points = (entries[pairs[:, 0]] + entries[pairs[:, 1]]) / 2.0
        assert_nearest_exact(points, entries)
        # integer grids: many exact distance ties
        grid = rng.integers(-3, 4, size=(50, dim)).astype(float)
        assert_nearest_exact(grid, entries)


@pytest.mark.parametrize("magnitude", [1e-6, 1e-3, 1.0, 1e3, 1e6])
def test_nearest_magnitudes(magnitude):
    rng = np.random.default_rng(13)
    entries = rng.normal(size=(40, 12)) * magnitude
    entries[7] = entries[3]
    points = rng.normal(size=(80, 12)) * magnitude
    points[:10] = entries[rng.integers(0, 40, size=10)]
    # a cloud far from the origin: large norms, small differences
    offset = np.full(12, 1e3 * magnitude)
    assert_nearest_exact(points, entries)
    assert_nearest_exact(points + offset, entries + offset)


def test_nearest_single_dimension_and_single_point():
    assert_nearest_exact([[0.5]], [[0.0], [1.0], [0.5], [0.5]])
    assert_nearest_exact([[0.5]], [[1.0], [0.0]])
    assert_nearest_exact([[2.0, 1.0, 0.0]], [[2.0, 1.0, 0.0], [2.0, 1.0, 0.0]])
    assert_nearest_exact(np.linspace(-1, 2, 31)[:, None], [[0.0], [1.0], [1.0], [0.5]])
    assert_nearest_exact([[3.0]], [[3.0]])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the oracle's inf - inf
def test_nearest_non_finite_rows_and_entries():
    rng = np.random.default_rng(14)
    entries = rng.normal(size=(6, 3))
    points = rng.normal(size=(8, 3))
    points[1, 0] = np.nan
    points[2, 2] = np.inf
    points[3] = -np.inf
    assert_nearest_exact(points, entries)
    for bad in (np.nan, np.inf, -np.inf):
        e = entries.copy()
        e[4, 1] = bad
        assert_nearest_exact(points, e)
    # squares that overflow
    assert_nearest_exact(points * 1e200, entries * 1e200)


finite = st.floats(-1e3, 1e3, allow_nan=False, width=64)
grid = st.integers(-2, 2).map(float)


@settings(deadline=None, max_examples=200)
@given(
    st.integers(1, 6).flatmap(
        lambda dim: st.tuples(
            arrays(np.float64, st.tuples(st.integers(1, 12), st.just(dim)),
                   elements=st.one_of(grid, finite)),
            arrays(np.float64, st.tuples(st.integers(1, 12), st.just(dim)),
                   elements=st.one_of(grid, finite)),
        )
    ),
    st.sampled_from([1e-6, 1.0, 1e6]),
)
def test_nearest_matches_bruteforce_property(pair, magnitude):
    points, entries = pair
    assert_nearest_exact(points * magnitude, entries * magnitude)
    # every entry as a point, and the midpoint of each entry and the next
    assert_nearest_exact(entries, entries)
    assert_nearest_exact((entries + np.roll(entries, 1, axis=0)) / 2, entries)


@settings(deadline=None, max_examples=100)
@given(
    st.integers(1, 6).flatmap(
        lambda dim: st.tuples(
            arrays(np.float64, st.tuples(st.integers(1, 12), st.just(dim)),
                   elements=st.one_of(grid, finite)),
            arrays(np.float64, st.tuples(st.integers(1, 8), st.just(dim)),
                   elements=st.one_of(grid, finite)),
        )
    ),
    st.lists(st.integers(0, 7), min_size=1, max_size=16),
)
def test_nearest_with_copies_matches_bruteforce_property(pair, picks):
    points, base = pair
    entries = base[[i % len(base) for i in picks]]
    assert_nearest_exact(points, entries)
    assert_nearest_exact(entries, entries)
    assert_nearest_exact(base, entries)


# ---------------------------------------------------------------------------
# byte-equal rewrites against test-local copies of the loops they replaced
# ---------------------------------------------------------------------------


def kmeans_mask_loop(data, k, rng, iters=10):
    n = data.shape[0]
    if n >= k:
        centers = data[rng.choice(n, size=k, replace=False)].copy()
    else:
        centers = data[rng.integers(0, n, size=k)].copy()
        centers += rng.normal(0.0, 1e-4, size=centers.shape)
    for _ in range(iters):
        assign = np.argmin(_sq_distances(data, centers), axis=1)
        for c in range(k):
            members = data[assign == c]
            if len(members):
                centers[c] = members.mean(axis=0)
            else:
                centers[c] = data[int(rng.integers(0, n))]
    return centers


def test_kmeans_matches_mask_loop():
    gen = np.random.default_rng(15)
    cases = []
    for _ in range(40):
        n, dim = int(gen.integers(1, 120)), int(gen.integers(1, 9))
        cases.append(gen.normal(size=(n, dim)) * 10.0 ** gen.uniform(-3, 3))
    # n < k, and few distinct points so that clusters go empty
    cases.append(gen.normal(size=(3, 4)))
    cases.append(np.repeat(gen.normal(size=(3, 5)), 7, axis=0))
    cases.append(np.zeros((10, 2)))
    for i, data in enumerate(cases):
        k = int(gen.integers(1, 40)) if i < 40 else 8
        rng_a, rng_b = np.random.default_rng(i), np.random.default_rng(i)
        got = _kmeans(data, k, rng_a)
        want = kmeans_mask_loop(data, k, rng_b)
        assert got.tobytes() == want.tobytes()
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_quantize_usage_tokens_and_lookup_match_scalar_loops():
    rng = np.random.default_rng(16)
    for _ in range(20):
        dim, size = int(rng.integers(1, 9)), int(rng.integers(2, 20))
        depth = int(rng.integers(1, 4))
        levels = [rng.normal(size=(size, dim)) for _ in range(depth)]
        t_len = int(rng.integers(1, 30))
        z = rng.normal(size=(dim, t_len)).T
        book = book_from_arrays(levels)
        book.usage[0][:] = 3  # counts accumulate onto what is there
        _, ids = quantize_residual(Tensor(z), book, update_usage=True)

        residual = z.copy()
        level_ids = []
        usage = [np.zeros(size, dtype=np.int64) for _ in levels]
        usage[0][:] = 3
        for level, lv in enumerate(levels):
            idx = np.argmin(_sq_distances(residual, lv), axis=1)
            level_ids.append(idx)
            residual -= lv[idx]
            np.add.at(usage[level], idx, 1)
        tokens = []
        for t in range(t_len):
            for level, idx in enumerate(level_ids):
                tokens.append(int(level * size + idx[t]))
        assert ids.tolist() == tokens
        for got, want in zip(book.usage, usage):
            assert got.dtype == want.dtype and np.array_equal(got, want)

        # any valid ids, levels in any slot, plus a partial trailing frame
        ids = rng.integers(0, depth * size, size=t_len * depth + depth - 1).tolist()
        out = np.zeros((t_len, dim))
        for t in range(t_len):
            for k in range(depth):
                level, entry = divmod(ids[t * depth + k], size)
                out[t] += levels[level][entry]
        got = lookup_tokens(ids, book)
        assert got.flags.c_contiguous and got.tobytes() == out.tobytes()


# ---------------------------------------------------------------------------
# The packed training step against the former per-sample, channel-major one
# ---------------------------------------------------------------------------


def cm_conv1d(x, kernel, bias, stride=1, padding=0):
    """The former channel-major conv1d op: x (C_in, L) -> (C_out, T)."""
    xd, kd = x.data, kernel.data
    c_in, length = xd.shape
    c_out, _, k = kd.shape
    lp = length + 2 * padding
    t_out = (lp - k) // stride + 1
    xp = np.zeros((c_in, lp))
    xp[:, padding : padding + length] = xd
    idx = (np.arange(t_out) * stride)[:, None] + np.arange(k)[None, :]
    cols2 = xp[:, idx].transpose(1, 0, 2).reshape(t_out, c_in * k)
    w2 = kd.reshape(c_out, c_in * k)
    out = (cols2 @ w2.T).T + bias.data[:, None]

    def bw(g):
        te._accum(kernel, (g @ cols2).reshape(c_out, c_in, k))
        te._accum(bias, g.sum(axis=1))
        if x.requires_grad:
            g_cols = (g.T @ w2).reshape(t_out, c_in, k).transpose(1, 0, 2)
            dxp = np.zeros_like(xp)
            np.add.at(dxp, (np.arange(c_in)[:, None, None], idx[None]), g_cols)
            te._accum(x, dxp[:, padding : padding + length])

    return te._make(out, (x, kernel, bias), bw)


def cm_conv_transpose1d(x, kernel, bias, stride=1, padding=0):
    """The former channel-major conv_transpose1d op: x (C_in, L) ->
    (C_out, L_out)."""
    xd, kd = x.data, kernel.data
    c_in, length = xd.shape
    _, c_out, k = kd.shape
    l_full = (length - 1) * stride + k
    l_out = l_full - 2 * padding
    full = np.zeros((c_out, l_full))
    base = stride * np.arange(length)
    for kk in range(k):
        full[:, base + kk] += kd[:, :, kk].T @ xd
    out = full[:, padding : padding + l_out] + bias.data[:, None]
    idx = base[:, None] + np.arange(k)[None, :]

    def bw(g):
        gf = np.zeros((c_out, l_full))
        gf[:, padding : padding + l_out] = g
        gwin = gf[:, idx]
        te._accum(kernel, np.einsum("it,otk->iok", xd, gwin))
        te._accum(bias, g.sum(axis=1))
        te._accum(x, np.einsum("iok,otk->it", kd, gwin))

    return te._make(out, (x, kernel, bias), bw)


def per_sample_step(matrices, cfg, store, codebook):
    """The former training step: one channel-major graph per sample, each
    sample's three-term loss summed over the batch and scaled by 1/B.
    Returns the loss, each sample's level indices and its latent (T, D)."""
    from stroketok.tensor_engine import (
        add,
        embedding,
        mse_loss,
        mul,
        relu,
        stop_gradient,
    )
    from oracle_ops import sub, transpose2d

    p = (cfg.kernel_size - 2) // 2

    def res(x, prefix):
        h = relu(x)
        h = cm_conv1d(h, store[f"{prefix}.w1"], store[f"{prefix}.b1"], padding=1)
        h = relu(h)
        h = cm_conv1d(h, store[f"{prefix}.w2"], store[f"{prefix}.b2"])
        return add(x, h)

    totals, ids, latents = [], [], []
    for m in matrices:
        rows, _ = pad_rows(m.rows, cfg.compression_stages)
        x = Tensor(rows.T.copy())
        for i in range(cfg.compression_stages):
            x = cm_conv1d(x, store[f"enc{i}.down.w"], store[f"enc{i}.down.b"], 2, p)
            x = res(x, f"enc{i}.res")
            x = cm_conv1d(x, store[f"enc{i}.proj.w"], store[f"enc{i}.proj.b"])
        z = x
        residual = z.data.T.copy()
        acc, levels = None, []
        for book in codebook.levels:
            idx = np.argmin(_sq_distances(residual, book.data), axis=1)
            levels.append(idx)
            residual -= book.data[idx]
            looked = embedding(book, idx)
            acc = looked if acc is None else add(acc, looked)
        zq = transpose2d(acc)
        x = add(z, stop_gradient(sub(zq, z)))
        for j in range(cfg.compression_stages):
            x = cm_conv_transpose1d(x, store[f"dec{j}.up.w"], store[f"dec{j}.up.b"], 2, p)
            x = res(x, f"dec{j}.res")
            x = cm_conv1d(x, store[f"dec{j}.proj.w"], store[f"dec{j}.proj.b"])
        w_latent = np.full(z.data.shape, 1 / z.data.size)
        l_cb = mse_loss(z, stop_gradient(zq), w_latent)
        l_cm = mse_loss(stop_gradient(z), zq, w_latent)
        l_rc = mse_loss(x, Tensor(rows.T.copy()), np.full(rows.T.shape, 1 / rows.size))
        totals.append(add(mul(add(l_cb, l_cm), Tensor(np.array(cfg.alpha))), l_rc))
        ids.append(levels)
        latents.append(z.data.T)
    total = totals[0]
    for t in totals[1:]:
        total = add(total, t)
    return mul(total, Tensor(np.array(1.0 / len(totals)))), ids, latents


def trainable_grads(loss, store):
    backward(loss)
    out = {
        name: np.zeros_like(t.data) if t.grad is None else t.grad.copy()
        for name, t in store.trainable()
    }
    store.zero_grads()
    return out


def random_codec(cfg, seed):
    """Codec parameters with random biases and codebooks, so that gap rows
    would carry non-zero values wherever a mask is missing."""
    rng = np.random.default_rng(seed)
    store = init_codec_params(cfg, rng)
    for name in store.state_dict():
        t = store[name]
        if name.startswith("codebook") or name.endswith((".b", ".b1", ".b2")):
            t.data = rng.normal(0.0, 0.5, size=t.data.shape)
        elif name.startswith("dec") and name.endswith("proj.w"):
            t.data = rng.normal(0.0, 0.3, size=t.data.shape)
    return store, make_codebook(cfg, store)


def random_matrices(rng, count, stages):
    """Scaled matrices whose lengths mostly need padding to 2**stages."""
    lengths = rng.integers(1, 3 * 2**stages + 2, size=count)
    return [
        StrokeMatrix(rng.uniform(-1.0, 1.0, size=(int(n), 9)), scaled=True)
        for n in lengths
    ]


@pytest.mark.parametrize("stages", [1, 2, 3])
@pytest.mark.parametrize("kernel_size", [2, 4, 6, 8])
def test_packed_step_matches_per_sample_step(stages, kernel_size):
    """Loss, every trainable gradient, usage counts and latents of the
    packed step equal the per-sample channel-major step's within 1e-12,
    over batches of 1 and 5, rvq depths 1-3 and alpha 0 and 1."""
    rng = np.random.default_rng(100 * stages + kernel_size)
    for case, batch in enumerate((1, 5, 5)):
        cfg = CodecConfig(
            compression_stages=stages,
            rvq_depth=1 + (stages + case) % 3,
            codebook_size=6,
            code_dim=3,
            channels=(5, 4, 6)[:stages],
            kernel_size=kernel_size,
            alpha=float((stages + kernel_size // 2 + case) % 2),
        )
        store, codebook = random_codec(cfg, 7 * stages + case)
        matrices = random_matrices(rng, batch, stages)

        want_total, want_ids, want_latents = per_sample_step(
            matrices, cfg, store, codebook
        )
        want = trainable_grads(want_total, store)
        want_usage = [np.zeros(cfg.codebook_size, dtype=np.int64) for _ in codebook.levels]
        for levels in want_ids:
            for usage, idx in zip(want_usage, levels):
                usage += np.bincount(idx, minlength=cfg.codebook_size)

        total, _, _, _, latents = batch_loss(matrices, cfg, store, codebook)
        got = trainable_grads(total, store)

        assert abs(float(total.data) - float(want_total.data)) <= 1e-12
        assert got.keys() == want.keys()
        for name in want:
            assert np.abs(got[name] - want[name]).max() <= 1e-12, name
        for usage, want_u in zip(codebook.usage, want_usage):
            assert np.array_equal(usage, want_u)
        assert len(latents) == batch
        for z, want_z in zip(latents, want_latents):
            assert z.shape == want_z.shape
            assert np.abs(z - want_z).max() <= 1e-12
