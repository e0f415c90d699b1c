import math

import numpy as np
import pytest
from scipy import stats

from stroketok.stroke_lm import (
    Diverged,
    EmptyKeywords,
    LmConfig,
    SequenceTooLong,
    Vocab,
    build_prompt,
    batch_loss,
    build_vocab,
    forward_logits,
    generate,
    init_lm_params,
    load_lm_checkpoint,
    sample_from_logits,
    save_lm_checkpoint,
    sequence_loss,
    train_lm,
)
from stroketok import stroke_lm
from stroketok import tensor_engine as te
from stroketok.tensor_engine import (
    Tensor,
    add,
    backward,
    cross_entropy,
    embedding,
    layer_norm,
    mul,
    no_grad,
    relu,
)
from stroketok.vq_codec import StrokeTokenSeq

from oracle_ops import concat, matmul, narrow, softmax, transpose2d


def make_pairs(n_pairs=4, depth=2, size=8, seq_len=6, seed=0):
    rng = np.random.default_rng(seed)
    words = ["circle", "star", "polygon", "polyline", "large", "small"]
    pairs = []
    for i in range(n_pairs):
        kws = [words[i % len(words)], words[(i + 3) % len(words)]]
        tokens = [int(t) for t in rng.integers(0, depth * size, size=seq_len)]
        seq = StrokeTokenSeq(tokens=tokens, layout=(depth, size, 1))
        pairs.append((kws, seq))
    return pairs


def tiny_cfg(**kw):
    base = dict(embed_dim=32, layers=1, heads=2, max_len=64, steps=5, seed=1)
    base.update(kw)
    return LmConfig(**base)


def np_reference_forward(prompt_ids, token_ids, store, vocab, cfg):
    """Independent plain-numpy forward pass (no autodiff machinery)."""

    def p(name):
        return store[name].data

    def ln(x, g, b, eps=1e-5):
        mu = x.mean(-1, keepdims=True)
        var = x.var(-1, keepdims=True)
        return (x - mu) / np.sqrt(var + eps) * g + b

    x = np.concatenate(
        [p("prompt_embed")[np.array(prompt_ids)], p("token_embed")[np.array(token_ids)]]
    )
    s = x.shape[0]
    x = x + p("pos_embed")[:s]
    dh = cfg.embed_dim // cfg.heads
    causal = np.triu(np.full((s, s), -1e9), k=1)
    for layer in range(cfg.layers):
        pre = f"layer{layer}"
        h = ln(x, p(f"{pre}.ln1.g"), p(f"{pre}.ln1.b"))
        q = h @ p(f"{pre}.attn.wq") + p(f"{pre}.attn.wqb")
        k = h @ p(f"{pre}.attn.wk") + p(f"{pre}.attn.wkb")
        v = h @ p(f"{pre}.attn.wv") + p(f"{pre}.attn.wvb")
        outs = []
        for hd in range(cfg.heads):
            sl = slice(hd * dh, (hd + 1) * dh)
            scores = q[:, sl] @ k[:, sl].T / np.sqrt(dh) + causal
            e = np.exp(scores - scores.max(-1, keepdims=True))
            probs = e / e.sum(-1, keepdims=True)
            outs.append(probs @ v[:, sl])
        attn = np.concatenate(outs, axis=1) @ p(f"{pre}.attn.wo") + p(f"{pre}.attn.wob")
        x = x + attn
        h = ln(x, p(f"{pre}.ln2.g"), p(f"{pre}.ln2.b"))
        h = np.maximum(h @ p(f"{pre}.mlp.w1") + p(f"{pre}.mlp.b1"), 0.0)
        x = x + h @ p(f"{pre}.mlp.w2") + p(f"{pre}.mlp.b2")
    x = ln(x, p("ln_f.g"), p("ln_f.b"))
    logits = x @ p("head.w") + p("head.b")
    return logits[len(prompt_ids) :]


def test_vocab_layout():
    pairs = make_pairs(depth=2, size=8)
    vocab = build_vocab(pairs)
    assert vocab.stroke_vocab == 16
    assert (vocab.pad_id, vocab.bos_id, vocab.eos_id) == (16, 17, 18)
    assert vocab.total == 19
    assert vocab.keyword_words[0] == "<unk>"
    assert len(set(vocab.keyword_words)) == len(vocab.keyword_words)


def test_build_prompt():
    vocab = build_vocab(make_pairs())
    ids = build_prompt(["circle"], vocab)
    template_len = len("Generating SVG according to keywords:".split())
    assert len(ids) == template_len + 1
    assert ids[-1] == vocab.keyword_id("circle") != 0
    assert build_prompt(["zzz-unknown"], vocab)[-1] == 0
    two = build_prompt(["circle", "star"], vocab)
    assert two[-2:] == [vocab.keyword_id("circle"), vocab.keyword_id("star")]
    with pytest.raises(EmptyKeywords):
        build_prompt([], vocab)


def test_untrained_ce_is_log_vocab():
    # with a zeroed output head, CE = ln V exactly; V = 259 for d*|B| = 256
    pairs = make_pairs(depth=2, size=128, seq_len=5)
    vocab = build_vocab(pairs)
    assert vocab.total == 259
    cfg = tiny_cfg()
    store = init_lm_params(vocab, cfg)
    prompt = build_prompt(pairs[0][0], vocab)
    loss = sequence_loss(prompt, pairs[0][1].tokens, store, vocab, cfg)
    assert float(loss.data) == pytest.approx(math.log(259), abs=1e-9)
    assert float(loss.data) == pytest.approx(5.557, abs=1e-3)


def test_ce_matches_independent_forward():
    pairs = make_pairs()
    vocab = build_vocab(pairs)
    cfg = tiny_cfg(steps=30, batch_size=4)
    store, vocab, _ = train_lm(pairs, cfg)

    prompt = build_prompt(pairs[0][0], vocab)
    seq = pairs[0][1].tokens
    loss = sequence_loss(prompt, seq, store, vocab, cfg)

    inputs = [vocab.bos_id] + seq
    targets = seq + [vocab.eos_id]
    ref_logits = np_reference_forward(prompt, inputs, store, vocab, cfg)
    z = ref_logits - ref_logits.max(-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(-1, keepdims=True))
    ref = -np.mean([logp[i, t] for i, t in enumerate(targets)])
    assert float(loss.data) == pytest.approx(ref, abs=1e-10)


def test_pad_positions_zero_gradient():
    pairs = make_pairs()
    vocab = build_vocab(pairs)
    cfg = tiny_cfg()
    store = init_lm_params(vocab, cfg)
    store["head.w"].data = np.random.default_rng(0).normal(
        0, 0.1, size=store["head.w"].data.shape
    )
    prompts = [build_prompt(kw, vocab) for kw, _ in pairs[:2]]
    # the second sample is 6 tokens longer than the first
    seqs = [pairs[0][1].tokens, pairs[1][1].tokens + pairs[2][1].tokens]
    assert len(prompts[0]) + len(seqs[0]) < len(prompts[1]) + len(seqs[1])

    loss_batch = batch_loss(prompts, seqs, store, vocab, cfg)
    singles = [
        float(sequence_loss(p, seq, store, vocab, cfg).data)
        for p, seq in zip(prompts, seqs)
    ]
    assert float(loss_batch.data) == pytest.approx(np.mean(singles), abs=1e-12)

    backward(loss_batch)
    # PAD is never an input, so its embedding row takes no gradient
    assert not store["token_embed"].grad[vocab.pad_id].any()


def test_no_lm_op_in_a_training_step_sees_a_padding_row(monkeypatch):
    """Over ragged samples, every layer norm and linear of a training step
    runs on the samples' real rows only: the trunk's on the sum of their
    lengths, the output head's on their token rows."""
    cfg = tiny_cfg(layers=2)
    pairs = make_pairs()
    vocab = build_vocab(pairs)
    store = randomized_store(vocab, cfg, seed=2)
    prompts = [build_prompt(kw, vocab) for kw, _ in pairs[:3]]
    seqs = [pairs[0][1].tokens[:2], pairs[1][1].tokens, []]
    trunk_rows = sum(len(p) + len(s) + 1 for p, s in zip(prompts, seqs))
    token_rows = sum(len(s) + 1 for s in seqs)
    seen = []

    def recording(op):
        def record(x, *args):
            seen.append((op.__name__, int(np.prod(x.data.shape[:-1]))))
            return op(x, *args)
        return record

    for name in ("linear", "layer_norm"):
        monkeypatch.setattr(stroke_lm, name, recording(getattr(stroke_lm, name)))
    backward(batch_loss(prompts, seqs, store, vocab, cfg))
    # per layer: two layer norms and six linears; then ln_f and the head
    assert len(seen) == 8 * cfg.layers + 2
    assert {rows for _, rows in seen[: 8 * cfg.layers]} == {trunk_rows}
    assert seen[8 * cfg.layers :] == [("layer_norm", token_rows), ("linear", token_rows)]


def test_batch_over_attention_tiles_matches_its_samples():
    """Over three attention tiles, where the shorter samples drop out of
    the later ones, a batch's loss and grads are the mean of its samples'
    own."""
    pairs = make_pairs()
    vocab = build_vocab(pairs)
    cfg = tiny_cfg(max_len=176)
    store = randomized_store(vocab, cfg, seed=3)
    prompts = [build_prompt(kw, vocab) for kw, _ in pairs[:3]]
    rng = np.random.default_rng(3)
    seqs = [
        [int(t) for t in rng.integers(0, vocab.stroke_vocab, size=n)] for n in (70, 150, 9)
    ]

    loss_batch = batch_loss(prompts, seqs, store, vocab, cfg)
    backward(loss_batch)
    batch_grads = {name: t.grad for name, t in store.trainable()}
    store.zero_grads()
    singles = []
    for p, seq in zip(prompts, seqs):
        loss = sequence_loss(p, seq, store, vocab, cfg)
        backward(mul(loss, Tensor(np.array(1.0 / len(seqs)))))
        singles.append(float(loss.data))
    assert float(loss_batch.data) == pytest.approx(np.mean(singles), abs=1e-12)
    for name, t in store.trainable():
        assert np.max(np.abs(batch_grads[name] - t.grad)) <= 1e-12, name


def test_training_on_multi_tile_sequences_is_deterministic():
    """Sequences of 100-200 tokens run over several attention tiles; the
    tiles' key and value grads add in a fixed order."""
    rng = np.random.default_rng(3)
    pairs = [
        (kw, StrokeTokenSeq([int(t) for t in rng.integers(0, 16, size=n)], (2, 8, 1)))
        for (kw, _), n in zip(make_pairs(), (100, 200, 150, 130))
    ]
    cfg = tiny_cfg(embed_dim=16, max_len=216, steps=3, batch_size=3)
    runs = [train_lm(pairs, cfg)[0].state_dict() for _ in range(2)]
    for name, value in runs[0].items():
        assert value.tobytes() == runs[1][name].tobytes(), name


def test_train_freezes_prompt_table():
    pairs = make_pairs()
    cfg = tiny_cfg(steps=20, batch_size=2)
    vocab = build_vocab(pairs)
    before = init_lm_params(vocab, cfg)["prompt_embed"].data.tobytes()
    store, vocab2, logs = train_lm(pairs, cfg)
    assert store["prompt_embed"].data.tobytes() == before
    assert len(logs) == 20
    assert logs[-1]["ce"] < logs[0]["ce"]


@pytest.mark.parametrize("bad", [{"batch_size": 0}, {"heads": 0}, {"heads": 3}])
def test_config_rejects_empty_batches_and_uneven_heads(bad):
    with pytest.raises(ValueError):
        tiny_cfg(**bad)


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"steps": 0}, "steps must be >= 1"),
        ({"embed_dim": 0}, "embed_dim must be >= 1"),
        ({"lr": 0.0}, "lr must be finite and > 0"),
        ({"lr": -1.0}, "lr must be finite and > 0"),
        ({"lr": float("nan")}, "lr must be finite and > 0"),
        ({"lr": float("inf")}, "lr must be finite and > 0"),
    ],
)
def test_config_rejects_values_that_crash_or_pass_silently(bad, message):
    with pytest.raises(ValueError, match=message):
        tiny_cfg(**bad)


@pytest.mark.parametrize(
    "temperature, top_k, message",
    [
        (-1.0, 0, "temperature must be finite and >= 0"),
        (float("nan"), 0, "temperature must be finite and >= 0"),
        (float("inf"), 0, "temperature must be finite and >= 0"),
        (1.0, -1, "top_k must be >= 0"),
    ],
)
def test_generate_rejects_unusable_sampling_values(temperature, top_k, message):
    cfg = tiny_cfg()
    pairs, vocab, store = random_lm(cfg)
    with pytest.raises(ValueError, match=message):
        generate(pairs[0][0], store, vocab, cfg, temperature, top_k, 0)


def test_train_raises_diverged_on_a_non_finite_ce():
    # an absurd step size overflows the parameters after one update
    with np.errstate(all="ignore"), pytest.raises(Diverged, match="at step"):
        train_lm(make_pairs(), tiny_cfg(lr=1e300, steps=5))


@pytest.mark.parametrize("bad_id", [-1, "total"])
def test_token_id_outside_the_token_table_is_rejected(bad_id):
    """Token ids index only the token table: -1 does not wrap around to a
    row (of either table) and vocab.total is past the end."""
    pairs = make_pairs()
    vocab = build_vocab(pairs)
    cfg = tiny_cfg()
    store = init_lm_params(vocab, cfg)
    prompt = build_prompt(pairs[0][0], vocab)
    bad = vocab.total if bad_id == "total" else bad_id
    with pytest.raises(te.ShapeMismatch, match="id out of range"):
        sequence_loss(prompt, [0, bad, 1], store, vocab, cfg)


def test_sequence_too_long():
    pairs = make_pairs(seq_len=6)
    vocab = build_vocab(pairs)
    cfg = tiny_cfg(max_len=12)
    store = init_lm_params(vocab, cfg)
    prompt = build_prompt(pairs[0][0], vocab)
    with pytest.raises(SequenceTooLong):
        sequence_loss(prompt, pairs[0][1].tokens, store, vocab, cfg)
    with pytest.raises(SequenceTooLong):
        train_lm(pairs, cfg)


def test_generate_argmax_deterministic():
    pairs = make_pairs()
    cfg = tiny_cfg(steps=40, batch_size=4)
    store, vocab, _ = train_lm(pairs, cfg)
    a = generate(pairs[0][0], store, vocab, cfg, 0.0, 0, 0)
    b = generate(pairs[0][0], store, vocab, cfg, 0.0, 0, 0)
    assert a.tokens == b.tokens
    assert all(0 <= t < vocab.stroke_vocab for t in a.tokens)
    assert a.layout == vocab.layout == (2, 8, 1)


def test_generate_respects_max_len():
    pairs = make_pairs()
    cfg = tiny_cfg(steps=5, max_len=16)
    store, vocab, _ = train_lm(pairs, cfg)
    out = generate(pairs[0][0], store, vocab, cfg, 0.0, 0, 0)
    prompt_len = len(build_prompt(pairs[0][0], vocab))
    assert prompt_len + 1 + out.meta["raw_len"] + 1 <= cfg.max_len + 1
    if out.meta["truncated"]:
        assert out.meta["raw_len"] == cfg.max_len - prompt_len - 1
    assert len(out.tokens) % vocab.rvq_depth == 0
    # with EOS suppressed the cap must stop generation at exactly its length
    store["head.b"].data[vocab.eos_id] = -1e3
    out = generate(pairs[0][0], store, vocab, cfg, 0.0, 0, 0)
    assert out.meta["truncated"]
    assert out.meta["raw_len"] == cfg.max_len - prompt_len - 1
    assert len(out.tokens) % vocab.rvq_depth == 0


def test_huge_temperature_never_emits_pad_or_bos(monkeypatch):
    """The PAD/BOS mask survives division by any finite temperature: at
    1e9 the other ids are drawn almost uniformly, and PAD and BOS never."""
    drawn = []

    def recording(*args):
        drawn.append(sample_from_logits(*args))
        return drawn[-1]

    monkeypatch.setattr(stroke_lm, "sample_from_logits", recording)
    cfg = tiny_cfg(max_len=24)
    pairs, vocab, store = random_lm(cfg)
    for seed in range(1, 9):
        generate(pairs[0][0], store, vocab, cfg, 1e9, 0, seed)
    assert len(set(drawn)) > vocab.stroke_vocab // 2
    assert vocab.pad_id not in drawn and vocab.bos_id not in drawn


def test_sampling_distribution_chi_square():
    rng = np.random.default_rng(123)
    logits = rng.normal(size=11)
    z = logits - logits.max()
    expected = np.exp(z) / np.exp(z).sum()
    draws = 10_000
    counts = np.zeros(11)
    for _ in range(draws):
        counts[sample_from_logits(logits.copy(), 1.0, 0, rng)] += 1
    # merge tiny-expectation bins to keep the chi-square approximation valid
    keep = expected * draws >= 5
    obs = counts[keep]
    exp = expected[keep] * draws
    if (~keep).any():
        obs = np.append(obs, counts[~keep].sum())
        exp = np.append(exp, expected[~keep].sum() * draws)
    _, pvalue = stats.chisquare(obs, exp, sum_check=False)
    assert pvalue > 0.01


def test_top_k_limits_support():
    rng = np.random.default_rng(7)
    logits = np.array([5.0, 4.0, 3.0, -1.0, -2.0])
    seen = {sample_from_logits(logits.copy(), 1.0, 2, rng) for _ in range(500)}
    assert seen <= {0, 1}


def test_lm_checkpoint_round_trip(tmp_path):
    pairs = make_pairs()
    cfg = tiny_cfg(steps=10, batch_size=2)
    store, vocab, _ = train_lm(pairs, cfg)
    p = tmp_path / "lm.stkt"
    save_lm_checkpoint(str(p), store, vocab, cfg)
    store2, vocab2, cfg2 = load_lm_checkpoint(str(p))
    assert cfg2 == cfg
    assert vocab2.keyword_words == vocab.keyword_words
    assert vocab2.stroke_vocab == vocab.stroke_vocab
    a = generate(pairs[0][0], store, vocab, cfg, 1.0, 0, 1)
    b = generate(pairs[0][0], store2, vocab2, cfg2, 1.0, 0, 1)
    assert a.tokens == b.tokens
    # frozen-ness restored
    assert not store2["prompt_embed"].requires_grad


# ---------------------------------------------------------------------------
# Incremental decoding against the full recompute
# ---------------------------------------------------------------------------


def oracle_generate(keywords, store, vocab, cfg, temperature, top_k, seed):
    """Decoding by full recompute: every step re-runs forward_logits over
    the prompt, BOS and every token so far, with no cache. Returns the raw
    emitted ids and whether the length cap stopped them."""
    prompt_ids = build_prompt(keywords, vocab)
    rng = np.random.default_rng(seed)
    out = []
    with no_grad():
        while True:
            token_ids = [vocab.bos_id] + out
            if len(prompt_ids) + len(token_ids) + 1 > cfg.max_len:
                return out, True
            logits = forward_logits(prompt_ids, token_ids, store, vocab, cfg)
            row = logits.data[-1].copy()
            row[[vocab.pad_id, vocab.bos_id]] = -np.inf
            nxt = sample_from_logits(row, temperature, top_k, rng)
            if nxt == vocab.eos_id:
                return out, False
            out.append(nxt)


def random_lm(cfg, seed=0):
    """An untrained LM with a random (not zero) head, so logits differ."""
    pairs = make_pairs()
    vocab = build_vocab(pairs)
    store = init_lm_params(vocab, cfg)
    rng = np.random.default_rng(seed)
    store["head.w"].data = rng.normal(0, 0.5, size=store["head.w"].data.shape)
    store["head.b"].data = rng.normal(0, 0.1, size=store["head.b"].data.shape)
    return pairs, vocab, store


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("heads", [1, 2, 4])
def test_cached_step_logits_match_full_forward(layers, heads):
    cfg = tiny_cfg(layers=layers, heads=heads, max_len=40)
    pairs, vocab, store = random_lm(cfg, seed=layers * 10 + heads)
    prompt = build_prompt(pairs[0][0], vocab)
    rng = np.random.default_rng(heads)
    n_tok = cfg.max_len - len(prompt) - 1
    tokens = [int(t) for t in rng.integers(0, vocab.stroke_vocab, size=n_tok)]
    with no_grad():
        full = forward_logits(prompt, [vocab.bos_id] + tokens, store, vocab, cfg).data
        cache = {}
        prefill = forward_logits(prompt, [vocab.bos_id], store, vocab, cfg, cache=cache)
        rows = [prefill.data]
        for t in tokens:
            rows.append(forward_logits([], [t], store, vocab, cfg, cache=cache).data)
    assert cache["positions"] == cfg.max_len
    cached = np.concatenate(rows, axis=0)
    assert cached.shape == full.shape == (n_tok + 1, vocab.total)
    assert np.max(np.abs(cached - full)) <= 1e-10


@pytest.mark.parametrize("layers,heads", [(1, 2), (2, 4)])
def test_greedy_generation_matches_oracle(layers, heads):
    pairs = make_pairs()
    cfg = tiny_cfg(layers=layers, heads=heads, steps=40, batch_size=4)
    store, vocab, _ = train_lm(pairs, cfg)
    for keywords, _ in pairs:
        got = generate(keywords, store, vocab, cfg, 0.0, 0, 0)
        want, truncated = oracle_generate(keywords, store, vocab, cfg, 0.0, 0, 0)
        assert got.meta["raw_len"] == len(want)
        assert got.meta["truncated"] == truncated
        assert got.tokens == want[: len(want) - len(want) % vocab.rvq_depth]
    # a random head that never picks EOS runs to the cap
    pairs, vocab, store = random_lm(cfg)
    store["head.b"].data[vocab.eos_id] = -1e3
    got = generate(pairs[0][0], store, vocab, cfg, 0.0, 0, 0)
    want, truncated = oracle_generate(pairs[0][0], store, vocab, cfg, 0.0, 0, 0)
    assert truncated and got.meta["truncated"]
    assert got.meta["raw_len"] == len(want)
    assert got.tokens == want[: len(want) - len(want) % vocab.rvq_depth]


def test_seeded_sampling_matches_oracle():
    cfg = tiny_cfg(layers=2, heads=2)
    pairs, vocab, store = random_lm(cfg, seed=3)
    for seed in range(4):
        got = generate(pairs[0][0], store, vocab, cfg, 0.7, 3, seed)
        want, truncated = oracle_generate(pairs[0][0], store, vocab, cfg, 0.7, 3, seed)
        assert got.meta["raw_len"] == len(want) > 0
        assert got.meta["truncated"] == truncated
        assert got.tokens == want[: len(want) - len(want) % vocab.rvq_depth]


def test_decode_steps_write_into_the_buffers_of_the_prefill(monkeypatch):
    """The prefill allocates each layer's K/V buffer once; every decode
    step's attention reads its K and V as views of those buffers, so no
    step copies the cache."""
    cfg = tiny_cfg(layers=2, max_len=24)
    pairs, vocab, store = random_lm(cfg)
    seen = []
    real = stroke_lm.attention

    def capturing(q, k, v, *args):
        seen.append((k.data, v.data))
        return real(q, k, v, *args)

    cache = {}
    with no_grad():
        forward_logits(build_prompt(pairs[0][0], vocab), [vocab.bos_id],
                       store, vocab, cfg, cache=cache)
        buffers = [b for b in cache.values() if isinstance(b, np.ndarray)]
        monkeypatch.setattr(stroke_lm, "attention", capturing)
        for t in (3, 5, 7):
            forward_logits([], [t], store, vocab, cfg, cache=cache)
    assert len(buffers) == cfg.layers
    assert [b for b in cache.values() if isinstance(b, np.ndarray)] == buffers
    assert all(b.shape == (2, cfg.max_len, cfg.embed_dim) for b in buffers)
    assert len(seen) == 3 * cfg.layers
    for n, (k, v) in enumerate(seen):
        positions = cache["positions"] - 2 + n // cfg.layers
        buffer = buffers[n % cfg.layers]
        assert k.shape == v.shape == (positions, cfg.embed_dim)
        assert np.shares_memory(k, buffer) and np.shares_memory(v, buffer)


def test_cache_counts_toward_max_len():
    cfg = tiny_cfg(max_len=12)
    pairs, vocab, store = random_lm(cfg)
    prompt = build_prompt(pairs[0][0], vocab)
    cache = {}
    with no_grad():
        forward_logits(prompt, [vocab.bos_id], store, vocab, cfg, cache=cache)
        room = cfg.max_len - cache["positions"]
        with pytest.raises(SequenceTooLong):
            forward_logits([], [0] * (room + 1), store, vocab, cfg, cache=cache)
        # the failed call left the cache as it was
        forward_logits([], [0] * room, store, vocab, cfg, cache=cache)
        assert cache["positions"] == cfg.max_len
        with pytest.raises(SequenceTooLong):
            forward_logits([], [0], store, vocab, cfg, cache=cache)


# ---------------------------------------------------------------------------
# The batched training step against the per-sample, per-head graph
# ---------------------------------------------------------------------------


def oracle_attention(x, store, prefix, cfg):
    """Causal self-attention one head at a time, as separate engine ops."""
    s = x.data.shape[0]
    dh = cfg.embed_dim // cfg.heads
    q = add(matmul(x, store[f"{prefix}.wq"]), store[f"{prefix}.wqb"])
    k = add(matmul(x, store[f"{prefix}.wk"]), store[f"{prefix}.wkb"])
    v = add(matmul(x, store[f"{prefix}.wv"]), store[f"{prefix}.wvb"])
    mask = Tensor(np.triu(np.full((s, s), -1e9), k=1))
    inv_sqrt = Tensor(np.array(1.0 / np.sqrt(dh)))
    heads = []
    for h in range(cfg.heads):
        qh = narrow(q, 1, h * dh, dh)
        kh = narrow(k, 1, h * dh, dh)
        vh = narrow(v, 1, h * dh, dh)
        scores = add(mul(matmul(qh, transpose2d(kh)), inv_sqrt), mask)
        heads.append(matmul(softmax(scores, axis=-1), vh))
    out = concat(heads, axis=1)
    return add(matmul(out, store[f"{prefix}.wo"]), store[f"{prefix}.wob"])


def oracle_forward_logits(prompt_ids, token_ids, store, cfg):
    """One sample's logits at its token positions, built as (S, D) rows."""
    e_prompt = embedding(store["prompt_embed"], np.asarray(prompt_ids, dtype=np.int64))
    e_tok = embedding(store["token_embed"], np.asarray(token_ids, dtype=np.int64))
    x = concat([e_prompt, e_tok], axis=0)
    x = add(x, narrow(store["pos_embed"], 0, 0, len(prompt_ids) + len(token_ids)))
    for layer in range(cfg.layers):
        p = f"layer{layer}"
        h = layer_norm(x, store[f"{p}.ln1.g"], store[f"{p}.ln1.b"])
        x = add(x, oracle_attention(h, store, f"{p}.attn", cfg))
        h = layer_norm(x, store[f"{p}.ln2.g"], store[f"{p}.ln2.b"])
        h = relu(add(matmul(h, store[f"{p}.mlp.w1"]), store[f"{p}.mlp.b1"]))
        x = add(x, add(matmul(h, store[f"{p}.mlp.w2"]), store[f"{p}.mlp.b2"]))
    x = layer_norm(x, store["ln_f.g"], store["ln_f.b"])
    logits = add(matmul(x, store["head.w"]), store["head.b"])
    return narrow(logits, 0, len(prompt_ids), len(token_ids))


def oracle_step_loss(prompts, seqs, store, vocab, cfg):
    """A training step's loss as one graph per sample: every sample padded
    to the batch's longest token side, its masked CE, then their mean."""
    width = max(len(seq) for seq in seqs) + 1
    total = None
    for prompt, seq in zip(prompts, seqs):
        pad_count = width - (len(seq) + 1)
        inputs = [vocab.bos_id] + list(seq) + [vocab.pad_id] * pad_count
        targets = list(seq) + [vocab.eos_id] + [vocab.pad_id] * pad_count
        mask = np.array([1.0] * (len(seq) + 1) + [0.0] * pad_count)
        logits = oracle_forward_logits(prompt, inputs, store, cfg)
        loss = cross_entropy(logits, np.asarray(targets, dtype=np.int64), mask)
        total = loss if total is None else add(total, loss)
    return mul(total, Tensor(np.array(1.0 / len(seqs))))


def randomized_store(vocab, cfg, seed):
    """Every trainable parameter set to random values, so that every
    gradient (not only the head's) is non-zero."""
    store = init_lm_params(vocab, cfg)
    rng = np.random.default_rng(seed)
    for name, t in store.trainable():
        t.data = t.data + rng.normal(0.0, 0.3, size=t.data.shape)
    return store


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("batch", [1, 5])
def test_batched_step_matches_per_sample_oracle(layers, heads, batch):
    cfg = tiny_cfg(layers=layers, heads=heads, max_len=40)
    pairs = make_pairs(n_pairs=6)
    vocab = build_vocab(pairs)
    keywords = [["circle"], ["star", "large"], ["polygon", "small", "star"],
                ["polyline"], ["large", "small"]]
    prompts = [build_prompt(kw, vocab) for kw in keywords][:batch]
    rng = np.random.default_rng(layers * 100 + heads * 10 + batch)
    seqs = [
        [int(t) for t in rng.integers(0, vocab.stroke_vocab, size=n)]
        for n in (7, 0, 12, 3, 9)[:batch]
    ]
    if batch > 1:
        assert len({len(p) for p in prompts}) > 1 and len({len(s) for s in seqs}) > 1
    got_store = randomized_store(vocab, cfg, seed=heads)
    want_store = randomized_store(vocab, cfg, seed=heads)

    got = batch_loss(prompts, seqs, got_store, vocab, cfg)
    want = oracle_step_loss(prompts, seqs, want_store, vocab, cfg)
    assert abs(float(got.data) - float(want.data)) <= 1e-12
    backward(got)
    backward(want)
    for name, t in want_store.trainable():
        assert np.any(t.grad != 0.0), name
        assert np.max(np.abs(got_store[name].grad - t.grad)) <= 1e-12, name


def count_engine_ops(monkeypatch):
    """Patch the engine so that every recorded op bumps the returned list."""
    calls = []
    real = te._make

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(te, "_make", counting)
    return calls


def test_ops_per_training_step_do_not_grow_with_batch(monkeypatch):
    pairs = make_pairs(n_pairs=8)
    per_step = {}
    for batch_size in (2, 8):
        cfg = tiny_cfg(steps=3, batch_size=batch_size)
        calls = count_engine_ops(monkeypatch)
        train_lm(pairs, cfg)
        per_step[batch_size] = len(calls) / cfg.steps
        monkeypatch.undo()
    assert per_step[2] == per_step[8]


def test_ops_per_decode_step_do_not_grow_with_heads(monkeypatch):
    per_step = {}
    for heads in (1, 2, 4):
        cfg = tiny_cfg(heads=heads)
        pairs, vocab, store = random_lm(cfg)
        cache = {}
        with no_grad():
            forward_logits(build_prompt(pairs[0][0], vocab), [vocab.bos_id],
                           store, vocab, cfg, cache=cache)
            calls = count_engine_ops(monkeypatch)
            forward_logits([], [0], store, vocab, cfg, cache=cache)
        per_step[heads] = len(calls)
        monkeypatch.undo()
    # one layer of two heads took 47 ops per step with a loop over heads
    assert per_step[1] == per_step[2] == per_step[4] < 47
