"""Stroke-token codec: convolutional down/up-sampling around a residual
vector quantizer.

The encoder halves the command axis once per compression stage (stride-2
conv, then a residual block, then a 1x1 conv), mapping the 9 input channels
up to the latent width. The quantizer runs depth-d residual rounds per
latent timestep against per-level codebooks; token ids are level * |B| +
entry, flattened timestep-major. The decoder mirrors the encoder with
transposed convolutions and clamps its output to [-1, 1].

Training follows the three-term objective: alpha * (codebook + commitment)
+ reconstruction, with stop-gradients placed so the codebook term updates
the encoder and the commitment term updates the codebook entries, and a
straight-through estimator feeding the decoder. Codebooks are initialized
by k-means over initial-batch latents; entries unused for a full epoch are
reseeded from recent latents.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import tensor_engine as te
from .errors import StroketokError
from .fixer import fix_pc, fix_pi
from .matrix_codec import FROM_UNIT, TO_UNIT, StrokeMatrix, from_matrix, scale, to_matrix
from .model import Graphic
from .tensor_engine import (
    ParameterStore,
    Tensor,
    add,
    backward,
    clip,
    conv1d,
    conv_transpose1d,
    embedding,
    mse_loss,
    mul,
    no_grad,
    optimizer_step,
    relu,
    stop_gradient,
    sub,
    transpose2d,
)

log = logging.getLogger(__name__)

TOKEN_FORMAT_VERSION = "tokens v1"
DEFAULT_VIEWBOX = (0.0, 0.0, 256.0, 256.0)

FIXER_NONE = "none"
FIXER_PC = "pc"
FIXER_PI = "pi"
_FIXER_CODES = {FIXER_NONE: 0, FIXER_PC: 1, FIXER_PI: 2}
_FIXER_NAMES = {v: k for k, v in _FIXER_CODES.items()}


class EmptyCodebook(StroketokError):
    pass


class Diverged(StroketokError):
    pass


class BadTokenId(StroketokError):
    pass


class MalformedTokens(StroketokError):
    """A token file whose header or token lines do not parse."""


@dataclass
class CodecConfig:
    compression_stages: int = 1
    rvq_depth: int = 2
    codebook_size: int = 256
    code_dim: int = 64
    channels: tuple[int, ...] = (64,)
    alpha: float = 1.0
    lr: float = 1e-3
    seed: int = 0
    batch_size: int = 8
    steps: int = 2000
    kernel_size: int = 4
    target_recon: float | None = None
    fixer_strategy: str = FIXER_PC
    conventional_loss_names: bool = False

    def __post_init__(self):
        if self.compression_stages < 1:
            raise ValueError("compression_stages must be >= 1")
        if self.rvq_depth < 1:
            raise ValueError("rvq_depth must be >= 1")
        if self.codebook_size < 2:
            raise ValueError("codebook_size must be >= 2")
        if self.code_dim < 1 or self.alpha < 0:
            raise ValueError("code_dim must be >= 1 and alpha >= 0")
        if self.fixer_strategy not in _FIXER_CODES:
            raise ValueError(f"fixer_strategy must be one of {sorted(_FIXER_CODES)}")
        if self.kernel_size < 2 or self.kernel_size % 2:
            raise ValueError("kernel_size must be even (exact stride-2 doubling)")

    @property
    def rate(self) -> int:
        return 2**self.compression_stages

    def stage_channels(self) -> list[int]:
        ch = list(self.channels) or [64]
        while len(ch) < self.compression_stages:
            ch.append(ch[-1])
        return ch[: self.compression_stages]


@dataclass
class Codebook:
    """Per-level entry tables (references into the parameter store) plus
    usage counters for dead-entry reseeding."""

    levels: list[Tensor]
    usage: list[np.ndarray]

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def size(self) -> int:
        return self.levels[0].data.shape[0]

    @property
    def dim(self) -> int:
        return self.levels[0].data.shape[1]

    def reset_usage(self) -> None:
        for u in self.usage:
            u[:] = 0


@dataclass
class StrokeTokenSeq:
    tokens: list[int]
    latent_len: int
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Parameters and forward passes
# ---------------------------------------------------------------------------


def init_codec_params(cfg: CodecConfig, rng: np.random.Generator) -> ParameterStore:
    store = ParameterStore()
    k = cfg.kernel_size
    ch = cfg.stage_channels()

    def conv_w(c_out, c_in, ksize):
        std = np.sqrt(2.0 / (c_in * ksize))
        return rng.normal(0.0, std, size=(c_out, c_in, ksize))

    in_ch = 9
    for i, c in enumerate(ch):
        out_ch = cfg.code_dim if i == len(ch) - 1 else c
        store.add(f"enc{i}.down.w", conv_w(c, in_ch, k))
        store.add(f"enc{i}.down.b", np.zeros(c))
        store.add(f"enc{i}.res.w1", conv_w(c, c, 3))
        store.add(f"enc{i}.res.b1", np.zeros(c))
        store.add(f"enc{i}.res.w2", conv_w(c, c, 1))
        store.add(f"enc{i}.res.b2", np.zeros(c))
        store.add(f"enc{i}.proj.w", conv_w(out_ch, c, 1))
        store.add(f"enc{i}.proj.b", np.zeros(out_ch))
        in_ch = out_ch

    rev = list(reversed(ch))
    in_ch = cfg.code_dim
    for j, c in enumerate(rev):
        last = j == len(rev) - 1
        out_ch = 9 if last else c
        # transpose kernels are (C_in, C_out, K)
        std = np.sqrt(2.0 / (in_ch * k))
        store.add(f"dec{j}.up.w", rng.normal(0.0, std, size=(in_ch, c, k)))
        store.add(f"dec{j}.up.b", np.zeros(c))
        store.add(f"dec{j}.res.w1", conv_w(c, c, 3))
        store.add(f"dec{j}.res.b1", np.zeros(c))
        store.add(f"dec{j}.res.w2", conv_w(c, c, 1))
        store.add(f"dec{j}.res.b2", np.zeros(c))
        proj_std = 0.01 if last else np.sqrt(2.0 / c)
        store.add(f"dec{j}.proj.w", rng.normal(0.0, proj_std, size=(out_ch, c, 1)))
        store.add(f"dec{j}.proj.b", np.zeros(out_ch))
        in_ch = c

    for level in range(cfg.rvq_depth):
        store.add(f"codebook.level{level}", np.zeros((cfg.codebook_size, cfg.code_dim)))
    return store


def make_codebook(cfg: CodecConfig, store: ParameterStore) -> Codebook:
    levels = [store[f"codebook.level{i}"] for i in range(cfg.rvq_depth)]
    usage = [np.zeros(cfg.codebook_size, dtype=np.int64) for _ in levels]
    return Codebook(levels=levels, usage=usage)


def _res_block(x: Tensor, store: ParameterStore, prefix: str) -> Tensor:
    h = relu(x)
    h = conv1d(h, store[f"{prefix}.w1"], bias=store[f"{prefix}.b1"], padding=1)
    h = relu(h)
    h = conv1d(h, store[f"{prefix}.w2"], bias=store[f"{prefix}.b2"])
    return add(x, h)


def pad_rows(rows: np.ndarray, stages: int) -> tuple[np.ndarray, int]:
    """Pad the command axis to a multiple of 2**stages by repeating the last
    row; returns the transposed (9, L_padded) array and the pad length."""
    length = rows.shape[0]
    mult = 2**stages
    pad = (-length) % mult
    if pad:
        rows = np.concatenate([rows, np.repeat(rows[-1:], pad, axis=0)], axis=0)
    return rows.T.copy(), pad


def encode(
    m: StrokeMatrix, cfg: CodecConfig, store: ParameterStore
) -> tuple[Tensor, int]:
    """Scaled matrix -> latent (code_dim, T) with T = L_padded / 2**stages.

    Returns the latent tensor and the recorded pad length.
    """
    if not m.scaled:
        raise ValueError("encode expects a scaled matrix")
    data, pad = pad_rows(m.rows, cfg.compression_stages)
    x = Tensor(data)
    for i in range(cfg.compression_stages):
        x = conv1d(
            x,
            store[f"enc{i}.down.w"],
            bias=store[f"enc{i}.down.b"],
            stride=2,
            padding=(cfg.kernel_size - 2) // 2,
        )
        x = _res_block(x, store, f"enc{i}.res")
        x = conv1d(x, store[f"enc{i}.proj.w"], bias=store[f"enc{i}.proj.b"])
    return x, pad


def _decode_tensor(zq: Tensor, cfg: CodecConfig, store: ParameterStore) -> Tensor:
    x = zq
    for j in range(cfg.compression_stages):
        x = conv_transpose1d(
            x,
            store[f"dec{j}.up.w"],
            bias=store[f"dec{j}.up.b"],
            stride=2,
            padding=(cfg.kernel_size - 2) // 2,
        )
        x = _res_block(x, store, f"dec{j}.res")
        x = conv1d(x, store[f"dec{j}.proj.w"], bias=store[f"dec{j}.proj.b"])
    return x


def decode(
    zq,
    cfg: CodecConfig,
    store: ParameterStore,
    pad: int = 0,
    original_len: int | None = None,
) -> StrokeMatrix:
    """Latent (code_dim, T) -> scaled stroke matrix, clamped to [-1, 1],
    with pad rows dropped."""
    t = zq if isinstance(zq, Tensor) else Tensor(zq)
    out = clip(_decode_tensor(t, cfg, store), -1.0, 1.0)
    rows = out.data.T
    if original_len is not None:
        rows = rows[: max(1, min(original_len, rows.shape[0]))]
    elif pad:
        rows = rows[: rows.shape[0] - pad]
    return StrokeMatrix(rows.copy(), scaled=True)


# ---------------------------------------------------------------------------
# Residual quantization
# ---------------------------------------------------------------------------


def _sq_distances(points: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances (N, B), chunked to bound memory.

    The brute-force oracle for `_nearest`: its argmin (ties to the lowest
    index) defines which entry is nearest.
    """
    n, dim = points.shape
    b = entries.shape[0]
    chunk = max(1, int(4_000_000 / max(b * dim, 1)))
    if n <= chunk:
        diff = points[:, None, :] - entries[None, :, :]
        return np.einsum("nbd,nbd->nb", diff, diff)
    out = np.empty((n, b))
    for s in range(0, n, chunk):
        diff = points[s : s + chunk, None, :] - entries[None, :, :]
        out[s : s + chunk] = np.einsum("nbd,nbd->nb", diff, diff)
    return out


_UNIT_ROUNDOFF = 2.0**-53


def _nearest(points: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Index of the nearest entry for each point, (N,): bit for bit
    `np.argmin(_sq_distances(points, entries), axis=1)`, ties to the lowest
    index, without the N x B x D difference tensor.

    Distances are first taken in GEMM form, g = |x|^2 - 2 x.e + |e|^2, and
    checked against the brute force only where they cannot decide. With
    u = 2^-53, gamma_n = n u / (1 - n u) and R = |x| + max|e|, per entry:

    * the brute force rounds each of its D terms at most D + 1 times
      (difference, square, D - 1 additions in any order), and its exact
      value is at most R^2, so it errs by at most gamma_{D+1} R^2;
    * the GEMM form rounds each of |x|^2, x.e and |e|^2 D times (products
      and sums in any order; the factor 2 is exact), then twice more adding
      them, and the three parts' magnitudes sum to at most R^2, so it errs
      by at most gamma_{D+2} R^2.

    With E the sum of both bounds, a brute-force minimiser j and the GEMM
    minimiser m satisfy g_j <= b_j + E <= b_m + E <= g_m + 2E (b the brute
    force). So every brute-force minimiser has g_j <= min g + tol for
    tol = 4 gamma_{D+2} R^2, which exceeds 2E by at least 2u R^2; that slack
    covers the rounding of tol and of min g + tol. The term (D + 2) * tiny
    adds the absolute error gradual underflow can give each product.

    A row with one candidate therefore already holds the brute-force answer.

    Byte-equal copies of an entry (k-means refills and reseeds make them)
    tie in the GEMM form and would send every point near them to the brute
    force. A copy has the same brute-force distance to every point as the
    earlier entry it copies (same operands, same operations), so it is never
    the lowest-index minimiser: when some rows cannot decide and every entry
    is finite, copies are dropped and every row is decided again among the
    first occurrences, where the bound above holds unchanged.

    Rows still with several candidates, or whose minimum or tol is not
    finite (NaN, inf, overflow), are re-decided by `_sq_distances` itself.
    """
    dim = points.shape[1]
    gamma = (dim + 2) * _UNIT_ROUNDOFF / (1.0 - (dim + 2) * _UNIT_ROUNDOFF)
    with np.errstate(over="ignore", invalid="ignore"):
        xx = np.einsum("nd,nd->n", points, points)
        ee = np.einsum("bd,bd->b", entries, entries)
        g = xx[:, None] - 2.0 * (points @ entries.T) + ee[None, :]
        reach = np.sqrt(xx) + np.sqrt(ee.max())
        tol = 4.0 * gamma * reach * reach + (dim + 2) * np.finfo(np.float64).tiny

        def decide():
            idx = np.argmin(g, axis=1)
            bound = g[np.arange(len(idx)), idx] + tol
            candidates = np.count_nonzero(g <= bound[:, None], axis=1)
            return idx, (candidates != 1) | ~np.isfinite(bound)

        idx, undecided = decide()
        if undecided.any() and np.isfinite(ee).all():
            flat = np.ascontiguousarray(entries)
            rows = flat.view(np.dtype((np.void, flat.itemsize * dim))).ravel()
            _, first = np.unique(rows, return_index=True)
            if len(first) < len(entries):
                copies = np.ones(len(entries), dtype=bool)
                copies[first] = False
                g[:, copies] = np.inf
                idx, undecided = decide()
    recheck = np.nonzero(undecided)[0]
    if len(recheck):
        idx[recheck] = np.argmin(_sq_distances(points[recheck], entries), axis=1)
    return idx


def quantize_residual(
    z: Tensor | np.ndarray,
    codebook: Codebook,
    update_usage: bool = False,
) -> tuple[Tensor, StrokeTokenSeq]:
    """d rounds of nearest-neighbor residual coding per latent timestep.

    Returns the quantized latent (differentiable w.r.t. codebook entries;
    indices are constants) and the flat token sequence, timestep-major with
    token id = level * |B| + entry. Ties go to the lowest entry index.
    """
    if not codebook.levels:
        raise EmptyCodebook("codebook has no levels")
    zt = z if isinstance(z, Tensor) else Tensor(z)
    residual = zt.data.T.copy()  # (T, Dim)
    t_len = residual.shape[0]
    size = codebook.size
    level_ids: list[np.ndarray] = []
    acc = None
    for level, book in enumerate(codebook.levels):
        if book.data.shape[0] == 0:
            raise EmptyCodebook(f"level {level} is empty")
        idx = _nearest(residual, book.data)
        level_ids.append(idx)
        residual -= book.data[idx]
        if update_usage:
            codebook.usage[level] += np.bincount(idx, minlength=size)
        looked = embedding(book, idx)  # (T, Dim), grads flow to the book
        acc = looked if acc is None else add(acc, looked)
    zq = transpose2d(acc)

    # timestep-major: row t holds level * |B| + entry for every level
    ids = np.stack(level_ids, axis=1) + np.arange(codebook.depth) * size
    seq = StrokeTokenSeq(
        tokens=ids.ravel().tolist(),
        latent_len=t_len,
        meta={"rvq_depth": codebook.depth, "codebook_size": size},
    )
    return zq, seq


def straight_through(z: Tensor, zq: Tensor) -> Tensor:
    """Forward value of zq, gradient of z."""
    return add(z, stop_gradient(sub(zq, z)))


def lookup_tokens(tokens: list[int], codebook: Codebook) -> np.ndarray:
    """Token ids -> summed entry vectors per timestep, (Dim, T).

    Total over any valid ids: each id names its own level, so sequences from
    a generator decode even with unbalanced levels. Trailing tokens that do
    not fill a whole frame are dropped.
    """
    depth, size = codebook.depth, codebook.size
    for tok in tokens:
        if not 0 <= tok < depth * size:
            raise BadTokenId(f"token {tok} outside [0, {depth * size})")
    t_len = len(tokens) // depth
    if t_len == 0:
        raise BadTokenId("token sequence shorter than one frame")
    frames = np.array(tokens[: t_len * depth]).reshape(t_len, depth)
    level, entry = np.divmod(frames, size)
    books = np.stack([book.data for book in codebook.levels])
    out = np.zeros((codebook.dim, t_len))
    # frame slot by frame slot, so each column sums its entries in token order
    for k in range(depth):
        out += books[level[:, k], entry[:, k]].T
    return out


# ---------------------------------------------------------------------------
# Loss and training
# ---------------------------------------------------------------------------


def codec_loss(
    m: StrokeMatrix | np.ndarray,
    recon: Tensor,
    z: Tensor,
    zq: Tensor,
    alpha: float,
) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """Three-term objective with the printed stop-gradient placement.

    codebook term ||Z - sg[Zq]||^2 (mean) updates the encoder; commitment
    term ||sg[Z] - Zq||^2 updates the codebook entries; reconstruction is
    plain MSE. Total = alpha * (codebook + commit) + recon.
    """
    target = m.rows.T if isinstance(m, StrokeMatrix) else np.asarray(m)
    if target.shape != recon.data.shape:
        raise te.ShapeMismatch(f"recon {recon.data.shape} vs target {target.shape}")
    l_codebook = mse_loss(z, stop_gradient(zq))
    l_commit = mse_loss(stop_gradient(z), zq)
    l_recon = mse_loss(recon, Tensor(target))
    weighted = mul(add(l_codebook, l_commit), Tensor(np.array(alpha)))
    total = add(weighted, l_recon)
    return total, l_codebook, l_commit, l_recon


def _kmeans(
    data: np.ndarray, k: int, rng: np.random.Generator, iters: int = 10
) -> np.ndarray:
    n = data.shape[0]
    if n >= k:
        centers = data[rng.choice(n, size=k, replace=False)].copy()
    else:
        centers = data[rng.integers(0, n, size=k)].copy()
        centers += rng.normal(0.0, 1e-4, size=centers.shape)
    for _ in range(iters):
        assign = _nearest(data, centers)
        # each cluster's members as one contiguous slice, in data order
        grouped = data[np.argsort(assign, kind="stable")]
        bounds = np.concatenate([[0], np.cumsum(np.bincount(assign, minlength=k))])
        for c in range(k):
            lo, hi = bounds[c], bounds[c + 1]
            if hi > lo:
                centers[c] = grouped[lo:hi].mean(axis=0)
            else:
                centers[c] = data[int(rng.integers(0, n))]
    return centers


def _collect_init_latents(
    corpus: list[StrokeMatrix],
    cfg: CodecConfig,
    store: ParameterStore,
    order: np.ndarray,
) -> np.ndarray:
    """Latent columns for codebook init: at least the first batch, extended
    over further batches until |B| vectors exist or the corpus runs out (one
    minibatch rarely supplies enough at desk scale)."""
    cols = []
    count = 0
    with no_grad():
        for rank, i in enumerate(order):
            if rank >= cfg.batch_size and count >= cfg.codebook_size:
                break
            z, _ = encode(corpus[int(i)], cfg, store)
            cols.append(z.data.T)
            count += z.data.shape[1]
    return np.concatenate(cols, axis=0)


def init_codebook_kmeans(
    codebook: Codebook, latents: np.ndarray, rng: np.random.Generator
) -> None:
    """Fit each level to the residuals left by the previous levels."""
    residual = latents.copy()
    for book in codebook.levels:
        k = book.data.shape[0]
        centers = _kmeans(residual, k, rng)
        book.data = centers
        residual -= centers[_nearest(residual, centers)]


def reseed_dead_entries(
    codebook: Codebook,
    store: ParameterStore,
    reservoir: np.ndarray,
    rng: np.random.Generator,
) -> int:
    """Replace entries with zero usage by random recent latents; clears the
    optimizer state of reseeded rows."""
    reseeded = 0
    for level, (book, usage) in enumerate(zip(codebook.levels, codebook.usage)):
        dead = np.nonzero(usage == 0)[0]
        if len(dead) == 0 or len(reservoir) == 0:
            continue
        picks = rng.integers(0, len(reservoir), size=len(dead))
        book.data[dead] = reservoir[picks]
        store.reset_adam_rows(f"codebook.level{level}", dead)
        reseeded += len(dead)
    return reseeded


def train(
    corpus: list[StrokeMatrix], cfg: CodecConfig
) -> tuple[ParameterStore, Codebook, list[dict]]:
    """Minibatch training loop over scaled stroke matrices.

    Returns the trained parameters (codebooks included), the codebook view,
    and a per-step log of the loss terms. Raises Diverged on NaN loss.
    """
    if not corpus:
        raise ValueError("corpus is empty")
    for m in corpus:
        if not m.scaled:
            raise ValueError("all corpus matrices must be scaled")
    rng = np.random.default_rng(cfg.seed)
    store = init_codec_params(cfg, rng)
    codebook = make_codebook(cfg, store)

    n = len(corpus)
    order = rng.permutation(n)
    init_latents = _collect_init_latents(corpus, cfg, store, order)
    init_codebook_kmeans(codebook, init_latents, rng)

    term_names = ("codebook", "commit")
    if cfg.conventional_loss_names:
        term_names = ("commit", "codebook")

    log_rows: list[dict] = []
    reservoir: list[np.ndarray] = []
    steps_per_epoch = max(1, (n + cfg.batch_size - 1) // cfg.batch_size)
    cursor = 0
    recent_recon: list[float] = []

    for step in range(cfg.steps):
        if cursor == 0 and step > 0:
            reseed_pool = (
                np.concatenate(reservoir, axis=0) if reservoir else init_latents
            )
            reseed_dead_entries(codebook, store, reseed_pool, rng)
            codebook.reset_usage()
            reservoir = []
            order = rng.permutation(n)

        lo = cursor * cfg.batch_size
        batch_idx = order[lo : lo + cfg.batch_size]
        if len(batch_idx) == 0:
            batch_idx = order[:1]
        cursor = (cursor + 1) % steps_per_epoch

        totals = []
        terms = np.zeros(3)
        for i in batch_idx:
            m = corpus[int(i)]
            z, pad = encode(m, cfg, store)
            zq, _ = quantize_residual(z, codebook, update_usage=True)
            z_st = straight_through(z, zq)
            recon_full = _decode_tensor(z_st, cfg, store)
            target, _ = pad_rows(m.rows, cfg.compression_stages)
            total, l_cb, l_commit, l_recon = codec_loss(
                target, recon_full, z, zq, cfg.alpha
            )
            totals.append(total)
            terms += (float(l_cb.data), float(l_commit.data), float(l_recon.data))
            reservoir.append(z.data.T)

        batch_total = totals[0]
        for t in totals[1:]:
            batch_total = add(batch_total, t)
        batch_total = mul(batch_total, Tensor(np.array(1.0 / len(totals))))

        value = float(batch_total.data)
        if not np.isfinite(value):
            raise Diverged(f"total loss {value} at step {step}")

        backward(batch_total)
        optimizer_step(store, cfg.lr)

        terms /= len(batch_idx)
        log_rows.append(
            {
                "step": step,
                "total": value,
                term_names[0]: terms[0],
                term_names[1]: terms[1],
                "recon": terms[2],
            }
        )
        if len(reservoir) > 64:
            reservoir = [np.concatenate(reservoir, axis=0)[-8192:]]

        if cfg.target_recon is not None:
            recent_recon.append(terms[2])
            if len(recent_recon) > 50:
                recent_recon.pop(0)
            if (
                len(recent_recon) >= 10
                and float(np.mean(recent_recon)) < cfg.target_recon
            ):
                log.info("early stop at step %d: recon %.3g", step, terms[2])
                break

    return store, codebook, log_rows


# ---------------------------------------------------------------------------
# Tokenize / detokenize
# ---------------------------------------------------------------------------


def tokenize(
    g: Graphic, store: ParameterStore, codebook: Codebook, cfg: CodecConfig
) -> StrokeTokenSeq:
    m = to_matrix(g)
    ms = scale(m, TO_UNIT, g.viewbox)
    with no_grad():
        z, pad = encode(ms, cfg, store)
        _, seq = quantize_residual(z, codebook)
    seq.meta.update(
        {
            "viewbox": list(g.viewbox),
            "orig_len": len(m),
            "pad": pad,
            "stages": cfg.compression_stages,
        }
    )
    return seq


def detokenize(
    seq: StrokeTokenSeq,
    store: ParameterStore,
    codebook: Codebook,
    cfg: CodecConfig,
    fixer: str | None = None,
    with_report: bool = False,
):
    """Token ids -> repaired Graphic (fixer strategy from cfg unless given).

    With with_report=True returns (Graphic, FixReport | None).
    """
    zq = lookup_tokens(seq.tokens, codebook)
    orig_len = seq.meta.get("orig_len")
    with no_grad():
        ms = decode(zq, cfg, store, original_len=orig_len)
    vb = seq.meta.get("viewbox") or list(DEFAULT_VIEWBOX)
    viewbox = (vb[0], vb[1], vb[2], vb[3])
    m = scale(ms, FROM_UNIT, viewbox)
    g = from_matrix(m, viewbox, keywords=tuple(seq.meta.get("keywords", ())))
    strategy = cfg.fixer_strategy if fixer is None else fixer
    report = None
    if strategy == FIXER_PC:
        g, report = fix_pc(g)
    elif strategy == FIXER_PI:
        g, report = fix_pi(g)
    if with_report:
        return g, report
    return g


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------


def save_tokens(seq: StrokeTokenSeq, path: str, cfg: CodecConfig) -> None:
    """One decimal id per line under the pinned header. The header carries
    only the vocabulary layout; viewbox/length metadata travels separately."""
    header = (
        f"# stroketok v1 d={cfg.rvq_depth} B={cfg.codebook_size} "
        f"stages={cfg.compression_stages}"
    )
    with open(path, "w") as f:
        f.write(header + "\n")
        for tok in seq.tokens:
            f.write(f"{tok}\n")


def load_tokens(path: str) -> StrokeTokenSeq:
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or not lines[0].startswith("# stroketok v1"):
        raise MalformedTokens(f"{path}: missing token header")
    fields = dict(
        part.split("=", 1) for part in lines[0].split()[3:] if "=" in part
    )
    layout = {}
    # each field's lower bound is the one CodecConfig enforces
    for key, low in (("d", 1), ("B", 2), ("stages", 1)):
        value = fields.get(key, "")
        if not (value.isascii() and value.isdigit()) or int(value) < low:
            raise MalformedTokens(
                f"{path}: token header field {key} must be an integer >= {low} "
                f"(header {lines[0]!r})"
            )
        layout[key] = int(value)
    try:
        tokens = [int(line) for line in lines[1:] if line.strip()]
    except ValueError as e:
        raise MalformedTokens(f"{path}: token lines must be integers ({e})") from e
    return StrokeTokenSeq(
        tokens=tokens,
        latent_len=len(tokens) // layout["d"],
        meta={
            "rvq_depth": layout["d"],
            "codebook_size": layout["B"],
            "stages": layout["stages"],
        },
    )


_CONFIG_FIELDS = (
    "compression_stages",
    "rvq_depth",
    "codebook_size",
    "code_dim",
    "alpha",
    "lr",
    "seed",
    "batch_size",
    "steps",
    "kernel_size",
)


def save_vq_checkpoint(
    path: str, store: ParameterStore, codebook: Codebook, cfg: CodecConfig
) -> None:
    named = store.state_dict()
    for name in _CONFIG_FIELDS:
        named[f"config.{name}"] = np.array(float(getattr(cfg, name)))
    named["config.channels"] = np.array(cfg.stage_channels(), dtype=np.float64)
    named["config.fixer"] = np.array(float(_FIXER_CODES[cfg.fixer_strategy]))
    named["config.conventional_loss_names"] = np.array(
        float(cfg.conventional_loss_names)
    )
    for level, usage in enumerate(codebook.usage):
        named[f"codebook.usage{level}"] = usage.astype(np.float64)
    te.save_named_tensors(path, named)


def load_vq_checkpoint(path: str) -> tuple[ParameterStore, Codebook, CodecConfig]:
    named = te.load_named_tensors(path)

    def scalar(name, cast=int):
        return cast(float(te.checkpoint_entry(named, f"config.{name}", path)))

    def fixer_name():
        code = scalar("fixer")
        if code not in _FIXER_NAMES:
            raise te.CorruptCheckpoint(f"{path}: unknown fixer code {code}")
        return _FIXER_NAMES[code]

    cfg = CodecConfig(
        compression_stages=scalar("compression_stages"),
        rvq_depth=scalar("rvq_depth"),
        codebook_size=scalar("codebook_size"),
        code_dim=scalar("code_dim"),
        channels=tuple(
            int(c) for c in te.checkpoint_entry(named, "config.channels", path, ndim=1)
        ),
        alpha=scalar("alpha", float),
        lr=scalar("lr", float),
        seed=scalar("seed"),
        batch_size=scalar("batch_size"),
        steps=scalar("steps"),
        kernel_size=scalar("kernel_size"),
        fixer_strategy=fixer_name(),
        conventional_loss_names=bool(scalar("conventional_loss_names")),
    )
    store = init_codec_params(cfg, np.random.default_rng(cfg.seed))
    params = {k: v for k, v in named.items() if not k.startswith("config.")}
    usage_arrays = {
        k: v for k, v in params.items() if k.startswith("codebook.usage")
    }
    for k in usage_arrays:
        params.pop(k)
    store.load_state_dict(params)
    codebook = make_codebook(cfg, store)
    for level in range(cfg.rvq_depth):
        key = f"codebook.usage{level}"
        if key in usage_arrays:
            codebook.usage[level][:] = usage_arrays[key].astype(np.int64)
    return store, codebook, cfg
