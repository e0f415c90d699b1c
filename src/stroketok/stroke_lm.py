"""Toy autoregressive generator over stroke tokens, prompt-conditioned.

A small decoder-only transformer (pre-norm, causal) reads a keyword prompt
followed by BOS and the token sequence, and is trained with teacher-forced
cross-entropy on the stroke positions only. The prompt side stands in for a
frozen pretrained text encoder: prompt words index a frozen, seeded
embedding table that never trains; only the stroke embedding, the decoder
blocks, and the output head do. The head starts at zero, so an untrained
model scores every token uniformly (cross-entropy = ln V exactly).

Generation decodes incrementally: one prefill pass runs the prompt and BOS
and keeps every layer's attention K/V rows in a cache owned by the call;
each further step runs only the newest token against that cache. Training
and the loss always run the full sequence with no cache.

Vocabulary layout: stroke ids [0, d*|B|), then PAD, BOS, EOS. Keyword words
live in their own map (UNK = 0).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import tensor_engine as te
from .errors import StroketokError
from .tensor_engine import (
    ParameterStore,
    Tensor,
    add,
    backward,
    concat,
    cross_entropy,
    embedding,
    layer_norm,
    matmul,
    mul,
    narrow,
    no_grad,
    optimizer_step,
    relu,
    softmax,
    transpose2d,
)
from .vq_codec import StrokeTokenSeq

log = logging.getLogger(__name__)

PROMPT_TEMPLATE = "Generating SVG according to keywords:"
UNK_WORD = "<unk>"
_NEG_INF = -1e9


class EmptyKeywords(StroketokError):
    pass


class SequenceTooLong(StroketokError):
    pass


@dataclass
class LmConfig:
    embed_dim: int = 128
    layers: int = 2
    heads: int = 4
    max_len: int = 512
    lr: float = 1e-3
    seed: int = 0
    temperature: float = 1.0
    top_k: int = 0
    steps: int = 3000
    batch_size: int = 8
    mlp_mult: int = 4

    def __post_init__(self):
        if self.max_len < 2:
            raise ValueError("max_len must be >= 2")
        if self.embed_dim % self.heads:
            raise ValueError("embed_dim must divide evenly across heads")


@dataclass
class Vocab:
    stroke_vocab: int  # d * |B|
    keyword_words: list[str]  # index = id; position 0 is UNK
    rvq_depth: int = 2
    codebook_size: int = 128
    stages: int = 1
    _kw_ids: dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self.keyword_words or self.keyword_words[0] != UNK_WORD:
            self.keyword_words = [UNK_WORD] + list(self.keyword_words)
        self._kw_ids = {w: i for i, w in enumerate(self.keyword_words)}

    @property
    def pad_id(self) -> int:
        return self.stroke_vocab

    @property
    def bos_id(self) -> int:
        return self.stroke_vocab + 1

    @property
    def eos_id(self) -> int:
        return self.stroke_vocab + 2

    @property
    def total(self) -> int:
        return self.stroke_vocab + 3

    @property
    def keyword_vocab(self) -> int:
        return len(self.keyword_words)

    def keyword_id(self, word: str) -> int:
        return self._kw_ids.get(word, 0)


def build_vocab(pairs: list[tuple[list[str], StrokeTokenSeq]]) -> Vocab:
    """Keyword map from the corpus plus the stroke layout from its meta."""
    if not pairs:
        raise ValueError("no training pairs")
    meta = pairs[0][1].meta
    depth = int(meta.get("rvq_depth", 2))
    size = int(meta.get("codebook_size", 128))
    stages = int(meta.get("stages", 1))
    words = set(PROMPT_TEMPLATE.split())
    for keywords, _ in pairs:
        for kw in keywords:
            words.update(kw.split())
    return Vocab(
        stroke_vocab=depth * size,
        keyword_words=sorted(words),
        rvq_depth=depth,
        codebook_size=size,
        stages=stages,
    )


def build_prompt(keywords: list[str], vocab: Vocab) -> list[int]:
    """Template words plus keywords, whitespace-tokenized to keyword ids."""
    if not keywords:
        raise EmptyKeywords("at least one keyword is required")
    words = PROMPT_TEMPLATE.split()
    for kw in keywords:
        words.extend(kw.split())
    return [vocab.keyword_id(w) for w in words]


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------


def init_lm_params(vocab: Vocab, cfg: LmConfig) -> ParameterStore:
    rng = np.random.default_rng(cfg.seed)
    store = ParameterStore()
    d = cfg.embed_dim

    # frozen stand-in for a pretrained prompt encoder
    store.add(
        "prompt_embed", rng.normal(0.0, 0.02, size=(vocab.keyword_vocab, d)), frozen=True
    )
    store.add("token_embed", rng.normal(0.0, 0.02, size=(vocab.total, d)))
    store.add("pos_embed", rng.normal(0.0, 0.02, size=(cfg.max_len, d)))

    def lin(shape):
        return rng.normal(0.0, 0.02, size=shape)

    for layer in range(cfg.layers):
        p = f"layer{layer}"
        store.add(f"{p}.ln1.g", np.ones(d))
        store.add(f"{p}.ln1.b", np.zeros(d))
        for name in ("wq", "wk", "wv", "wo"):
            store.add(f"{p}.attn.{name}", lin((d, d)))
            store.add(f"{p}.attn.{name}b", np.zeros(d))
        store.add(f"{p}.ln2.g", np.ones(d))
        store.add(f"{p}.ln2.b", np.zeros(d))
        store.add(f"{p}.mlp.w1", lin((d, cfg.mlp_mult * d)))
        store.add(f"{p}.mlp.b1", np.zeros(cfg.mlp_mult * d))
        store.add(f"{p}.mlp.w2", lin((cfg.mlp_mult * d, d)))
        store.add(f"{p}.mlp.b2", np.zeros(d))

    store.add("ln_f.g", np.ones(d))
    store.add("ln_f.b", np.zeros(d))
    # zero head: uniform predictions at init
    store.add("head.w", np.zeros((d, vocab.total)))
    store.add("head.b", np.zeros(vocab.total))
    return store


def _attention(
    x: Tensor,
    store: ParameterStore,
    prefix: str,
    cfg: LmConfig,
    kv: dict | None = None,
    start: int = 0,
) -> Tensor:
    """Causal multi-head self-attention of x's rows over every earlier row.

    With `kv` (one layer's slot of a generation cache), x holds the rows
    from position `start` on: their K/V rows are appended to the cached
    ones and the queries attend over all of them.
    """
    s = x.data.shape[0]
    dh = cfg.embed_dim // cfg.heads
    q = add(matmul(x, store[f"{prefix}.wq"]), store[f"{prefix}.wqb"])
    k = add(matmul(x, store[f"{prefix}.wk"]), store[f"{prefix}.wkb"])
    v = add(matmul(x, store[f"{prefix}.wv"]), store[f"{prefix}.wvb"])
    if kv is not None:
        if kv:
            k = concat([kv["k"], k], axis=0)
            v = concat([kv["v"], v], axis=0)
        kv["k"], kv["v"] = k, v
    mask = Tensor(np.triu(np.full((s, start + s), _NEG_INF), k=start + 1))
    heads = []
    inv_sqrt = Tensor(np.array(1.0 / np.sqrt(dh)))
    for h in range(cfg.heads):
        qh = narrow(q, 1, h * dh, dh)
        kh = narrow(k, 1, h * dh, dh)
        vh = narrow(v, 1, h * dh, dh)
        scores = add(mul(matmul(qh, transpose2d(kh)), inv_sqrt), mask)
        heads.append(matmul(softmax(scores, axis=-1), vh))
    out = concat(heads, axis=1)
    return add(matmul(out, store[f"{prefix}.wo"]), store[f"{prefix}.wob"])


def forward_logits(
    prompt_ids: list[int],
    token_ids: list[int],
    store: ParameterStore,
    vocab: Vocab,
    cfg: LmConfig,
    *,
    cache: dict | None = None,
) -> Tensor:
    """Logits (len(token_ids), V) for the positions holding token_ids.

    token_ids start with BOS; causal attention runs over the whole
    prompt+token sequence, loss and sampling read token positions only.

    `cache`, when given, is a dict owned by one decoding run. It holds
    each layer's K and V rows for the positions seen so far: the new
    positions (prompt_ids, then token_ids) start after them, attend over
    them, and append their own K/V rows. The first call with an empty dict
    is the prefill; each later call passes `([], [token])` and runs one
    position. Without a cache every position is recomputed.
    """
    start = cache["positions"] if cache else 0
    total_len = start + len(prompt_ids) + len(token_ids)
    if total_len > cfg.max_len:
        raise SequenceTooLong(f"{total_len} positions > max_len {cfg.max_len}")
    e_prompt = embedding(store["prompt_embed"], np.asarray(prompt_ids, dtype=np.int64))
    e_tok = embedding(store["token_embed"], np.asarray(token_ids, dtype=np.int64))
    x = concat([e_prompt, e_tok], axis=0)
    x = add(x, narrow(store["pos_embed"], 0, start, total_len - start))
    for layer in range(cfg.layers):
        p = f"layer{layer}"
        kv = None if cache is None else cache.setdefault(p, {})
        h = layer_norm(x, store[f"{p}.ln1.g"], store[f"{p}.ln1.b"])
        x = add(x, _attention(h, store, f"{p}.attn", cfg, kv, start))
        h = layer_norm(x, store[f"{p}.ln2.g"], store[f"{p}.ln2.b"])
        h = add(matmul(h, store[f"{p}.mlp.w1"]), store[f"{p}.mlp.b1"])
        h = relu(h)
        h = add(matmul(h, store[f"{p}.mlp.w2"]), store[f"{p}.mlp.b2"])
        x = add(x, h)
    if cache is not None:
        cache["positions"] = total_len
    x = layer_norm(x, store["ln_f.g"], store["ln_f.b"])
    logits = add(matmul(x, store["head.w"]), store["head.b"])
    return narrow(logits, 0, len(prompt_ids), len(token_ids))


def sequence_loss(
    prompt_ids: list[int],
    seq_tokens: list[int],
    store: ParameterStore,
    vocab: Vocab,
    cfg: LmConfig,
    pad_to: int | None = None,
) -> Tensor:
    """Teacher-forced CE for one sample; PAD positions are masked out."""
    n = len(seq_tokens)
    if len(prompt_ids) + n + 2 > cfg.max_len:
        raise SequenceTooLong(
            f"prompt {len(prompt_ids)} + sequence {n} + 2 > max_len {cfg.max_len}"
        )
    width = n + 1 if pad_to is None else pad_to
    pad_count = width - (n + 1)
    inputs = [vocab.bos_id] + list(seq_tokens) + [vocab.pad_id] * pad_count
    targets = list(seq_tokens) + [vocab.eos_id] + [vocab.pad_id] * pad_count
    mask = np.array([1.0] * (n + 1) + [0.0] * pad_count)
    logits = forward_logits(prompt_ids, inputs, store, vocab, cfg)
    return cross_entropy(logits, np.asarray(targets, dtype=np.int64), mask)


def train_lm(
    pairs: list[tuple[list[str], StrokeTokenSeq]], cfg: LmConfig
) -> tuple[ParameterStore, Vocab, list[dict]]:
    """Adam on the decoder/stroke-embedding/head; prompt table stays frozen."""
    vocab = build_vocab(pairs)
    store = init_lm_params(vocab, cfg)
    rng = np.random.default_rng(cfg.seed)
    prompts = [build_prompt(kw, vocab) for kw, _ in pairs]
    for (kw, seq), prompt in zip(pairs, prompts):
        if len(prompt) + len(seq.tokens) + 2 > cfg.max_len:
            raise SequenceTooLong(
                f"pair with keywords {kw!r}: {len(seq.tokens)} tokens too long"
            )

    n = len(pairs)
    log_rows: list[dict] = []
    order = rng.permutation(n)
    cursor = 0
    steps_per_epoch = max(1, (n + cfg.batch_size - 1) // cfg.batch_size)
    for step in range(cfg.steps):
        if cursor == 0 and step > 0:
            order = rng.permutation(n)
        batch = order[cursor * cfg.batch_size : (cursor + 1) * cfg.batch_size]
        if len(batch) == 0:
            batch = order[:1]
        cursor = (cursor + 1) % steps_per_epoch

        width = max(len(pairs[int(i)][1].tokens) for i in batch) + 1
        losses = []
        for i in batch:
            _, seq = pairs[int(i)]
            losses.append(
                sequence_loss(
                    prompts[int(i)], seq.tokens, store, vocab, cfg, pad_to=width
                )
            )
        total = losses[0]
        for item in losses[1:]:
            total = add(total, item)
        total = mul(total, Tensor(np.array(1.0 / len(losses))))
        backward(total)
        optimizer_step(store, cfg.lr)
        log_rows.append({"step": step, "ce": float(total.data)})
    return store, vocab, log_rows


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def sample_from_logits(
    row: np.ndarray,
    temperature: float,
    top_k: int,
    rng: np.random.Generator | None,
) -> int:
    """One draw. temperature 0 = argmax (ties to the lowest id)."""
    if temperature <= 0.0:
        return int(np.argmax(row))
    if top_k > 0 and top_k < row.size:
        cutoff = np.sort(row)[-top_k]
        row = np.where(row >= cutoff, row, _NEG_INF)
    z = row / temperature
    z = z - z.max()
    probs = np.exp(z)
    probs /= probs.sum()
    return int(rng.choice(row.size, p=probs))


def generate(
    keywords: list[str],
    store: ParameterStore,
    vocab: Vocab,
    cfg: LmConfig,
    rng: np.random.Generator | None = None,
) -> StrokeTokenSeq:
    """Autoregressive sampling until EOS or the length cap.

    temperature == 0 means argmax (deterministic, ties to the lowest id);
    otherwise softmax sampling at the given temperature over the top_k ids
    (0 = all). PAD/BOS can never be emitted.

    One `forward_logits` call runs the prompt and BOS (the prefill) into a
    per-layer K/V cache; each later call runs only the token just emitted,
    so a sequence of n tokens costs prompt + n positions, not a quadratic
    number.
    """
    prompt_ids = build_prompt(keywords, vocab)
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    out: list[int] = []
    truncated = False
    cache: dict = {}
    context, new_ids = prompt_ids, [vocab.bos_id]
    with no_grad():
        while True:
            if len(prompt_ids) + 1 + len(out) + 1 > cfg.max_len:
                truncated = True
                break
            logits = forward_logits(context, new_ids, store, vocab, cfg, cache=cache)
            row = logits.data[-1].copy()
            row[vocab.pad_id] = _NEG_INF
            row[vocab.bos_id] = _NEG_INF
            nxt = sample_from_logits(row, cfg.temperature, cfg.top_k, rng)
            if nxt == vocab.eos_id:
                break
            out.append(nxt)
            context, new_ids = [], [nxt]
    # drop any trailing partial frame so detokenize sees whole timesteps
    depth = vocab.rvq_depth
    usable = len(out) - (len(out) % depth)
    return StrokeTokenSeq(
        tokens=out[:usable],
        latent_len=usable // depth,
        meta={
            "rvq_depth": vocab.rvq_depth,
            "codebook_size": vocab.codebook_size,
            "stages": vocab.stages,
            "truncated": truncated,
            "raw_len": len(out),
            "keywords": list(keywords),
        },
    )


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_lm_checkpoint(
    path: str, store: ParameterStore, vocab: Vocab, cfg: LmConfig
) -> None:
    named = store.state_dict()
    cfg_fields = (
        "embed_dim",
        "layers",
        "heads",
        "max_len",
        "lr",
        "seed",
        "temperature",
        "top_k",
        "steps",
        "batch_size",
        "mlp_mult",
    )
    for name in cfg_fields:
        named[f"config.{name}"] = np.array(float(getattr(cfg, name)))
    for name in ("stroke_vocab", "rvq_depth", "codebook_size", "stages"):
        named[f"vocab.{name}"] = np.array(float(getattr(vocab, name)))
    blob = "\n".join(vocab.keyword_words).encode("utf-8")
    named["vocab.words_utf8"] = np.frombuffer(blob, dtype=np.uint8).astype(np.float64)
    te.save_named_tensors(path, named)


def load_lm_checkpoint(path: str) -> tuple[ParameterStore, Vocab, LmConfig]:
    named = te.load_named_tensors(path)

    def scalar(prefix, name, cast=int):
        return cast(float(te.checkpoint_entry(named, f"{prefix}.{name}", path)))

    cfg = LmConfig(
        embed_dim=scalar("config", "embed_dim"),
        layers=scalar("config", "layers"),
        heads=scalar("config", "heads"),
        max_len=scalar("config", "max_len"),
        lr=scalar("config", "lr", float),
        seed=scalar("config", "seed"),
        temperature=scalar("config", "temperature", float),
        top_k=scalar("config", "top_k"),
        steps=scalar("config", "steps"),
        batch_size=scalar("config", "batch_size"),
        mlp_mult=scalar("config", "mlp_mult"),
    )
    words = (
        te.checkpoint_entry(named, "vocab.words_utf8", path, ndim=1)
        .astype(np.uint8)
        .tobytes()
        .decode("utf-8")
        .split("\n")
    )
    vocab = Vocab(
        stroke_vocab=scalar("vocab", "stroke_vocab"),
        keyword_words=words,
        rvq_depth=scalar("vocab", "rvq_depth"),
        codebook_size=scalar("vocab", "codebook_size"),
        stages=scalar("vocab", "stages"),
    )
    store = init_lm_params(vocab, cfg)
    params = {
        k: v
        for k, v in named.items()
        if not k.startswith("config.") and not k.startswith("vocab.")
    }
    store.load_state_dict(params)
    return store, vocab, cfg
