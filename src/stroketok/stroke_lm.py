"""Toy autoregressive generator over stroke tokens, prompt-conditioned.

A small decoder-only transformer (pre-norm, causal) reads a keyword prompt
followed by BOS and the token sequence, and is trained with teacher-forced
cross-entropy on the stroke positions only. The prompt side stands in for a
frozen pretrained text encoder: prompt words index a frozen, seeded
embedding table that never trains; only the stroke embedding, the decoder
blocks, and the output head do. The head starts at zero, so an untrained
model scores every token uniformly (cross-entropy = ln V exactly).

One forward serves every caller. `_trunk` lays a batch of samples' rows
end to end as one packed (N, D) array, N the sum of their lengths, and
runs it through the blocks, so every op but attention works on real rows
only. It addresses rows by packed row number: each embedding table takes
its own ids, and the logits are read back at the token rows' numbers.
Attention is one engine op over every head; it alone is told where each
sample ends, and it pads the samples into tiles inside the op, skipping
the masked keys and the padding of shorter samples tile by tile (the
variable-length layout of FlashAttention-2, Dao 2023). Training runs one
batched graph per step (`batch_loss` over the minibatch); `sequence_loss`
and `forward_logits` are its one-sample case, where the packed array is
the sample.

Generation decodes incrementally, under `no_grad`: one prefill pass runs
the prompt and BOS and writes every layer's K/V rows into a buffer of
max_len rows owned by the call; each further step runs only the newest
token and writes its K/V rows at the next position. Training and the loss
always run the full sequence with no cache.

Vocabulary layout: stroke ids [0, d*|B|), then PAD, BOS, EOS; PAD is never
an input and never emitted. Keyword words live in their own map (UNK = 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor_engine as te
from .errors import StroketokError
from .tensor_engine import (
    ParameterStore,
    Tensor,
    add,
    attention,
    backward,
    cross_entropy,
    embedding,
    layer_norm,
    linear,
    no_grad,
    optimizer_step,
    place_rows,
    relu,
    take_rows,
)
from .vq_codec import Diverged, StrokeTokenSeq

PROMPT_TEMPLATE = "Generating SVG according to keywords:"
UNK_WORD = "<unk>"
# width of each block's MLP, in multiples of embed_dim
MLP_MULT = 4


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
    steps: int = 3000
    batch_size: int = 8

    def __post_init__(self):
        if self.max_len < 2:
            raise ValueError("max_len must be >= 2")
        for name in ("embed_dim", "steps", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.heads < 1 or self.embed_dim % self.heads:
            raise ValueError("embed_dim must divide evenly across heads")
        if not 0 < self.lr < np.inf:
            raise ValueError("lr must be finite and > 0")


@dataclass
class Vocab:
    keyword_words: list[str]  # index = id; position 0 is UNK
    rvq_depth: int
    codebook_size: int
    stages: int
    _kw_ids: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("rvq_depth", "codebook_size", "stages"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not self.keyword_words or self.keyword_words[0] != UNK_WORD:
            self.keyword_words = [UNK_WORD] + list(self.keyword_words)
        self._kw_ids = {w: i for i, w in enumerate(self.keyword_words)}

    @property
    def stroke_vocab(self) -> int:  # d * |B|
        return self.rvq_depth * self.codebook_size

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

    @property
    def layout(self) -> tuple[int, int, int]:
        """The (d, B, stages) layout of the stroke tokens it was built on."""
        return (self.rvq_depth, self.codebook_size, self.stages)

    def keyword_id(self, word: str) -> int:
        return self._kw_ids.get(word, 0)


def build_vocab(pairs: list[tuple[list[str], StrokeTokenSeq]]) -> Vocab:
    """Keyword map from the corpus plus the layout of its stroke tokens."""
    if not pairs:
        raise ValueError("no training pairs")
    depth, size, stages = pairs[0][1].layout
    words = set(PROMPT_TEMPLATE.split())
    for keywords, _ in pairs:
        for kw in keywords:
            words.update(kw.split())
    return Vocab(
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


def lm_layout(vocab: Vocab, cfg: LmConfig) -> list[te.Param]:
    """The model's parameters in the order `init_lm_params` draws them."""
    d = cfg.embed_dim
    layout = []

    def normal(name, shape):
        layout.append(te.Param(name, shape, 0.0, 0.02, False))

    def const(name, shape, value):
        layout.append(te.Param(name, shape, value, 0.0, False))

    # frozen stand-in for a pretrained prompt encoder
    layout.append(te.Param("prompt_embed", (vocab.keyword_vocab, d), 0.0, 0.02, True))
    normal("token_embed", (vocab.total, d))
    normal("pos_embed", (cfg.max_len, d))
    for layer in range(cfg.layers):
        p = f"layer{layer}"
        const(f"{p}.ln1.g", (d,), 1.0)
        const(f"{p}.ln1.b", (d,), 0.0)
        for name in ("wq", "wk", "wv", "wo"):
            normal(f"{p}.attn.{name}", (d, d))
            const(f"{p}.attn.{name}b", (d,), 0.0)
        const(f"{p}.ln2.g", (d,), 1.0)
        const(f"{p}.ln2.b", (d,), 0.0)
        normal(f"{p}.mlp.w1", (d, MLP_MULT * d))
        const(f"{p}.mlp.b1", (MLP_MULT * d,), 0.0)
        normal(f"{p}.mlp.w2", (MLP_MULT * d, d))
        const(f"{p}.mlp.b2", (d,), 0.0)
    const("ln_f.g", (d,), 1.0)
    const("ln_f.b", (d,), 0.0)
    # zero head: uniform predictions at init
    const("head.w", (d, vocab.total), 0.0)
    const("head.b", (vocab.total,), 0.0)
    return layout


def init_lm_params(vocab: Vocab, cfg: LmConfig) -> ParameterStore:
    return te.init_params(lm_layout(vocab, cfg), np.random.default_rng(cfg.seed))


def _trunk(
    prompts: list[list[int]],
    token_rows: list[list[int]],
    store: ParameterStore,
    cfg: LmConfig,
    *,
    cache: dict | None = None,
) -> tuple[Tensor, np.ndarray]:
    """Hidden states (N, D) after the last block, for B samples at once,
    and the packed row numbers of the token rows in them.

    The samples' rows lie end to end: sample b's are prompts[b] then
    token_rows[b], so N is the sum of their lengths and no row is padding.
    Each table takes its own ids. The frozen `prompt_embed` never records a
    gradient, so the prompt rows are a constant (N, D) array gathered in
    numpy; `place_rows` writes the `token_embed` rows over it at their
    packed row numbers. Position ids restart at every sample, so
    `embedding` (whose gradient adds repeated ids) reads them. Only
    attention knows where one sample ends: it gets each sample's number of
    rows.

    `cache` (B = 1) is a dict owned by one decoding run, and is valid only
    under `no_grad`: the K and V that attention reads from it are constant
    views. The prefill allocates one (2, max_len, D) K/V buffer per layer;
    each call writes its K and V rows at [start, start + N) and attends
    over a view of rows [0, start + N), so no step copies the cache.
    """
    start = cache["positions"] if cache else 0
    lengths = [len(p) + len(t) for p, t in zip(prompts, token_rows)]
    s = max(lengths)
    if start + s > cfg.max_len:
        raise SequenceTooLong(f"{start + s} positions > max_len {cfg.max_len}")
    # packed row numbers of the prompt and token rows, and each row's position
    prompt_rows, rows, positions = [], [], []
    for p, t in zip(prompts, token_rows):
        first = len(positions) + len(p)
        prompt_rows += range(len(positions), first)
        rows += range(first, first + len(t))
        positions += range(start, start + len(p) + len(t))
    rows = np.array(rows)
    n = len(positions)
    words = store["prompt_embed"].data
    x0 = np.empty((n, words.shape[1]))
    x0[prompt_rows] = words[[w for p in prompts for w in p]]
    tokens = embedding(store["token_embed"], np.concatenate(token_rows))
    x = add(place_rows(tokens, rows, x0), embedding(store["pos_embed"], positions))
    for layer in range(cfg.layers):
        p = f"layer{layer}"
        h = layer_norm(x, store[f"{p}.ln1.g"], store[f"{p}.ln1.b"])
        q, k, v = (
            linear(h, store[f"{p}.attn.w{c}"], store[f"{p}.attn.w{c}b"]) for c in "qkv"
        )
        if cache is not None:
            if not start:  # the prefill
                cache[p] = np.empty((2, cfg.max_len, words.shape[1]))
            kv = cache[p]
            kv[0, start : start + n] = k.data
            kv[1, start : start + n] = v.data
            k, v = Tensor(kv[0, : start + n]), Tensor(kv[1, : start + n])
        a = attention(q, k, v, cfg.heads, lengths, start)
        x = add(x, linear(a, store[f"{p}.attn.wo"], store[f"{p}.attn.wob"]))
        h = layer_norm(x, store[f"{p}.ln2.g"], store[f"{p}.ln2.b"])
        h = relu(linear(h, store[f"{p}.mlp.w1"], store[f"{p}.mlp.b1"]))
        x = add(x, linear(h, store[f"{p}.mlp.w2"], store[f"{p}.mlp.b2"]))
    if cache is not None:
        cache["positions"] = start + n
    return x, rows


def _logits(x: Tensor, rows: np.ndarray, store: ParameterStore) -> Tensor:
    """Output logits (len(rows), V) for the trunk's packed output rows
    numbered `rows`."""
    h = layer_norm(take_rows(x, rows), store["ln_f.g"], store["ln_f.b"])
    return linear(h, store["head.w"], store["head.b"])


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
    Prompt ids index the prompt table and token ids the token table, each
    its own ids. `vocab` is not read (the token table's rows are the
    vocabulary); it stays in the signature the benchmark calls. This is the
    one-sample case of the packed trunk that training runs.

    `cache`, when given, is a dict owned by one decoding run under
    `no_grad`. It holds a preallocated K/V buffer per layer and the number
    of positions seen so far: the new positions (prompt_ids, then
    token_ids) start after them, write their K/V rows into the buffer and
    attend over every row written. The first call with an empty dict is the
    prefill; each later call passes `([], [token])` and runs one position.
    Without a cache every position is recomputed.
    """
    x, rows = _trunk([prompt_ids], [token_ids], store, cfg, cache=cache)
    return _logits(x, rows, store)


def batch_loss(
    prompts: list[list[int]],
    seqs: list[list[int]],
    store: ParameterStore,
    vocab: Vocab,
    cfg: LmConfig,
) -> Tensor:
    """Teacher-forced CE of B samples in one graph: each sample's mean CE
    over its n + 1 target positions (its tokens, then EOS), averaged over
    the samples.

    The trunk runs once over every sample's prompt + [BOS] + tokens rows,
    packed end to end; only each sample's n + 1 token rows reach the output
    head, each weighted 1 / (n + 1).
    """
    for prompt, seq in zip(prompts, seqs):
        if len(prompt) + len(seq) + 2 > cfg.max_len:
            raise SequenceTooLong(
                f"prompt {len(prompt)} + sequence {len(seq)} + 2 > max_len {cfg.max_len}"
            )
    inputs = [[vocab.bos_id] + list(seq) for seq in seqs]
    x, rows = _trunk(prompts, inputs, store, cfg)
    targets = np.concatenate([list(seq) + [vocab.eos_id] for seq in seqs])
    weights = np.concatenate([np.full(len(t), 1.0 / len(t)) for t in inputs])
    return cross_entropy(_logits(x, rows, store), targets, weights)


def sequence_loss(
    prompt_ids: list[int],
    seq_tokens: list[int],
    store: ParameterStore,
    vocab: Vocab,
    cfg: LmConfig,
) -> Tensor:
    """Teacher-forced CE for one sample: the mean over its tokens and EOS;
    the one-sample case of `batch_loss`."""
    return batch_loss([prompt_ids], [seq_tokens], store, vocab, cfg)


def train_lm(
    pairs: list[tuple[list[str], StrokeTokenSeq]], cfg: LmConfig
) -> tuple[ParameterStore, Vocab, list[dict]]:
    """Adam on the decoder/stroke-embedding/head; prompt table stays frozen.

    Each step runs one batched graph (`batch_loss`) over its minibatch."""
    vocab = build_vocab(pairs)
    store = init_lm_params(vocab, cfg)
    rng = np.random.default_rng(cfg.seed)
    prompts = [build_prompt(kw, vocab) for kw, _ in pairs]
    for (kw, seq), prompt in zip(pairs, prompts):
        if len(prompt) + len(seq.tokens) + 2 > cfg.max_len:
            raise SequenceTooLong(
                f"pair with keywords {kw!r}: {len(seq.tokens)} tokens too long"
            )

    log_rows: list[dict] = []
    batches = te.minibatches(len(pairs), cfg.batch_size, rng)
    for step, batch in zip(range(cfg.steps), batches):
        total = batch_loss(
            [prompts[i] for i in batch],
            [pairs[i][1].tokens for i in batch],
            store,
            vocab,
            cfg,
        )
        ce = float(total.data)
        if not np.isfinite(ce):
            raise Diverged(f"CE {ce} at step {step}")
        backward(total)
        optimizer_step(store, cfg.lr)
        log_rows.append({"step": step, "ce": ce})
    return store, vocab, log_rows


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def sample_from_logits(
    row: np.ndarray,
    temperature: float,
    top_k: int,
    rng: np.random.Generator,
) -> int:
    """One draw. temperature 0 = argmax (ties to the lowest id)."""
    if temperature <= 0.0:
        return int(np.argmax(row))
    if top_k > 0 and top_k < row.size:
        cutoff = np.sort(row)[-top_k]
        row = np.where(row >= cutoff, row, -np.inf)
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
    temperature: float,
    top_k: int,
    seed: int,
) -> StrokeTokenSeq:
    """Autoregressive sampling until EOS or the length cap.

    temperature == 0 means argmax (deterministic, ties to the lowest id);
    otherwise softmax sampling at the given temperature over the top_k ids
    (0 = all), drawing from a generator seeded with `seed`. PAD/BOS can
    never be emitted. A temperature that is negative or not finite, or a
    negative top_k, raises ValueError.

    One `forward_logits` call runs the prompt and BOS (the prefill) into a
    per-layer K/V cache; each later call runs only the token just emitted,
    so a sequence of n tokens costs prompt + n positions, not a quadratic
    number.
    """
    if not 0 <= temperature < np.inf:
        raise ValueError("temperature must be finite and >= 0")
    if top_k < 0:
        raise ValueError("top_k must be >= 0")
    prompt_ids = build_prompt(keywords, vocab)
    rng = np.random.default_rng(seed)
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
            row[[vocab.pad_id, vocab.bos_id]] = -np.inf
            nxt = sample_from_logits(row, temperature, top_k, rng)
            if nxt == vocab.eos_id:
                break
            out.append(nxt)
            context, new_ids = [], [nxt]
    # drop any trailing partial frame so detokenize sees whole timesteps
    usable = len(out) - (len(out) % vocab.rvq_depth)
    return StrokeTokenSeq(
        tokens=out[:usable],
        layout=vocab.layout,
        meta={"truncated": truncated, "raw_len": len(out), "keywords": list(keywords)},
    )


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_lm_checkpoint(
    path: str, store: ParameterStore, vocab: Vocab, cfg: LmConfig
) -> None:
    records = {"config": te.config_record(cfg), "vocab": te.config_record(vocab)}
    te.save_named_tensors(path, {**store.state_dict(), **records})


def load_lm_checkpoint(path: str) -> tuple[ParameterStore, Vocab, LmConfig]:
    named = te.load_named_tensors(path)
    cfg = te.read_record(LmConfig, named, "config", path)
    vocab = te.read_record(Vocab, named, "vocab", path)
    params = {k: v for k, v in named.items() if k not in ("config", "vocab")}
    store = te.load_params(lm_layout(vocab, cfg), params, path)
    return store, vocab, cfg
