"""Stroke-token codec: convolutional down/up-sampling around a residual
vector quantizer.

The encoder halves the command axis once per compression stage (stride-2
conv, then a residual block, then a 1x1 conv), mapping the 9 input channels
up to the latent width. The quantizer runs depth-d residual rounds per
latent timestep against per-level codebooks; token ids are level * |B| +
entry, flattened timestep-major. The decoder mirrors the encoder with
transposed convolutions and clamps its output to [-1, 1].

A token id means something only under its layout (d, B, stages): depth d,
|B| entries a level, a latent downsampled by 2**stages.

Every array is time-major: a matrix is (L, 9) rows and a latent (T, Dim)
rows. Several samples run through the convolutions as one `Packing`: their
rows end to end with zero gap rows between them, re-zeroed after each layer
that a wider convolution reads next. Training runs one such graph per
minibatch (`batch_loss`); `encode` and `decode` of one matrix are the
packing of one, which has no gap rows.

Training follows the three-term objective: alpha * (codebook + commitment)
+ reconstruction, with stop-gradients placed so the codebook term updates
the encoder and the commitment term updates the codebook entries, and a
straight-through estimator feeding the decoder. Codebooks are initialized
by k-means over initial-batch latents; entries unused for a full epoch are
reseeded from recent latents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor_engine as te
from .artifacts import CorruptCheckpoint, StrokeTokenSeq, read_checkpoint, save_checkpoint
from .errors import StroketokError
from .fixer import FixReport, fix_pc, fix_pi
from .matrix_codec import FROM_UNIT, TO_UNIT, StrokeMatrix, from_matrix, scale, to_matrix
from .model import Graphic
from .tensor_engine import (
    ParameterStore,
    Tensor,
    add,
    backward,
    conv1d,
    conv_transpose1d,
    embedding,
    mse_loss,
    mul,
    no_grad,
    optimizer_step,
    place_rows,
    relu,
    stop_gradient,
    take_rows,
)

DEFAULT_VIEWBOX = (0.0, 0.0, 256.0, 256.0)

# decoding's fixers: path clipping, path interpolation, none (the default first)
FIXERS = ("pc", "pi", "none")

# kernel 4, stride 2, padding 1: halves the command axis exactly, and transposed doubles it
_KERNEL = 4


class EmptyCodebook(StroketokError):
    pass


class Diverged(StroketokError):
    pass


class BadTokenId(StroketokError):
    pass


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

    def __post_init__(self):
        if self.compression_stages < 1:
            raise ValueError("compression_stages must be >= 1")
        if self.rvq_depth < 1:
            raise ValueError("rvq_depth must be >= 1")
        if self.codebook_size < 2:
            raise ValueError("codebook_size must be >= 2")
        if self.code_dim < 1 or self.alpha < 0:
            raise ValueError("code_dim must be >= 1 and alpha >= 0")
        if not 0 < self.lr < np.inf:
            raise ValueError("lr must be finite and > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        # one width per compression stage: the last width repeats
        ch = tuple(self.channels)
        if not ch or min(ch) < 1:
            raise ValueError("channels must be >= 1")
        stages = self.compression_stages
        self.channels = (ch + ch[-1:] * stages)[:stages]

    @property
    def rate(self) -> int:
        return 2**self.compression_stages

    @property
    def layout(self) -> tuple[int, int, int]:
        """The (d, B, stages) layout of this codec's token ids."""
        return (self.rvq_depth, self.codebook_size, self.compression_stages)


@dataclass
class Codebook:
    """Per-level entry tables (references into the parameter store) plus
    usage counters for dead-entry reseeding, and the number of entries
    reseeded so far."""

    levels: list[Tensor]
    usage: list[np.ndarray]
    reseeded: int = 0

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


# ---------------------------------------------------------------------------
# Parameters and forward passes
# ---------------------------------------------------------------------------


def codec_layout(cfg: CodecConfig) -> list[te.Param]:
    """The codec's parameters in the order `init_codec_params` draws them:
    He-normal conv kernels, zero biases and zero codebooks (k-means fills
    the codebooks before training)."""
    ch = cfg.channels
    layout = []

    def normal(name, shape, std):
        layout.append(te.Param(name, shape, 0.0, std, False))

    def conv_w(name, c_out, c_in, ksize):
        normal(name, (c_out, c_in, ksize), np.sqrt(2.0 / (c_in * ksize)))

    def zeros(name, shape):
        layout.append(te.Param(name, shape, 0.0, 0.0, False))

    in_ch = 9
    for i, c in enumerate(ch):
        out_ch = cfg.code_dim if i == len(ch) - 1 else c
        conv_w(f"enc{i}.down.w", c, in_ch, _KERNEL)
        zeros(f"enc{i}.down.b", (c,))
        conv_w(f"enc{i}.res.w1", c, c, 3)
        zeros(f"enc{i}.res.b1", (c,))
        conv_w(f"enc{i}.res.w2", c, c, 1)
        zeros(f"enc{i}.res.b2", (c,))
        conv_w(f"enc{i}.proj.w", out_ch, c, 1)
        zeros(f"enc{i}.proj.b", (out_ch,))
        in_ch = out_ch

    rev = list(reversed(ch))
    in_ch = cfg.code_dim
    for j, c in enumerate(rev):
        last = j == len(rev) - 1
        out_ch = 9 if last else c
        # transpose kernels are (C_in, C_out, K)
        normal(f"dec{j}.up.w", (in_ch, c, _KERNEL), np.sqrt(2.0 / (in_ch * _KERNEL)))
        zeros(f"dec{j}.up.b", (c,))
        conv_w(f"dec{j}.res.w1", c, c, 3)
        zeros(f"dec{j}.res.b1", (c,))
        conv_w(f"dec{j}.res.w2", c, c, 1)
        zeros(f"dec{j}.res.b2", (c,))
        normal(f"dec{j}.proj.w", (out_ch, c, 1), 0.01 if last else np.sqrt(2.0 / c))
        zeros(f"dec{j}.proj.b", (out_ch,))
        in_ch = c

    for level in range(cfg.rvq_depth):
        zeros(f"codebook.level{level}", (cfg.codebook_size, cfg.code_dim))
    return layout


def init_codec_params(cfg: CodecConfig, rng: np.random.Generator) -> ParameterStore:
    return te.init_params(codec_layout(cfg), rng)


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
    row; returns the (L_padded, 9) rows and the pad length."""
    length = rows.shape[0]
    mult = 2**stages
    pad = (-length) % mult
    if pad:
        rows = np.concatenate([rows, np.repeat(rows[-1:], pad, axis=0)], axis=0)
    return rows, pad


class Packing:
    """Samples laid end to end on the time axis, so that one pass of every
    convolution runs them all.

    Sample i takes lengths[i] rows at the input (its padded length, a
    multiple of 2**stages) and latent[i] at the latent, and a gap of
    2**stages zero rows separates each pair. At level l (after l stride-2 stages; level
    `stages` is the latent) every count is divided by 2**l, so each sample
    still starts on a stride boundary and the gap keeps at least one row:
    the reach of the kernel-4, padding-1 stride-2 convolutions and of the
    residual block's 3-tap one. The two ends need no gap rows: the
    convolutions' own zero padding is there.

    The network zeroes the gap rows with `mask` after every layer whose
    output a k > 1 convolution reads next, so each sample sees exactly the
    zero padding it would see alone. A packing of one sample has no gap
    rows, so it runs the plain single-sample network: `mask`, `take` and
    `place` return x as it is.
    """

    def __init__(self, lengths: list[int], cfg: CodecConfig):
        self.lengths = np.asarray(lengths, dtype=np.int64)
        self.latent = self.lengths >> cfg.compression_stages
        spans = self.lengths + cfg.rate  # each sample and the gap after it
        self.starts = np.cumsum(spans) - spans
        self.size = int(spans.sum()) - cfg.rate
        self._real: dict[int, np.ndarray] = {}
        self._mask: dict[int, Tensor] = {}
        self.rows: np.ndarray | None = None
        self.target: np.ndarray | None = None
        self.pads: list[int] = []

    @classmethod
    def of(cls, matrices: list[StrokeMatrix], cfg: CodecConfig) -> Packing:
        """The packing of scaled matrices, with their padded rows packed
        (`rows`, the encoder's input) and concatenated (`target`)."""
        if not all(m.scaled for m in matrices):
            raise ValueError("encode expects scaled matrices")
        padded = [pad_rows(m.rows, cfg.compression_stages) for m in matrices]
        packing = cls([len(rows) for rows, _ in padded], cfg)
        packing.target = np.concatenate([rows for rows, _ in padded], axis=0)
        packing.rows = packing.place_array(packing.target, 0)
        packing.pads = [pad for _, pad in padded]
        return packing

    def real(self, level: int) -> np.ndarray:
        """Indices of the samples' rows at `level`, in sample order."""
        if level not in self._real:
            self._real[level] = np.concatenate(
                [
                    np.arange(start, start + length)
                    for start, length in zip(self.starts >> level, self.lengths >> level)
                ]
            )
        return self._real[level]

    def place_array(self, rows: np.ndarray, level: int) -> np.ndarray:
        """The samples' rows at `level` laid out with zero gap rows."""
        if len(self.lengths) == 1:
            return rows
        out = np.zeros((self.size >> level,) + rows.shape[1:])
        out[self.real(level)] = rows
        return out

    def mask(self, x: Tensor, level: int) -> Tensor:
        """x (packed rows at `level`, C) with its gap rows zeroed, by a
        constant 0/1 column."""
        if len(self.lengths) == 1:
            return x
        if level not in self._mask:
            self._mask[level] = Tensor(
                self.place_array(np.ones((len(self.real(level)), 1)), level)
            )
        return mul(x, self._mask[level])

    def take(self, x: Tensor, level: int) -> Tensor:
        """The samples' rows of packed x at `level`, in sample order."""
        return x if len(self.lengths) == 1 else take_rows(x, self.real(level))

    def place(self, x: Tensor, level: int) -> Tensor:
        """The samples' rows x at `level` laid out with zero gap rows."""
        if len(self.lengths) == 1:
            return x
        zeros = np.zeros((self.size >> level,) + x.data.shape[1:])
        return place_rows(x, self.real(level), zeros)


def encode(
    m: StrokeMatrix | Packing, cfg: CodecConfig, store: ParameterStore
) -> tuple[Tensor, int | list[int]]:
    """Scaled matrix -> latent (T, code_dim), T = L_padded / 2**stages, and
    the recorded pad length.

    Given a Packing, encodes all its samples in one pass: the latent holds
    each sample's T_i rows in sample order, and the pad lengths come back as
    a list. A single matrix is the packing of one.
    """
    packing = m if isinstance(m, Packing) else Packing.of([m], cfg)
    x = Tensor(packing.rows)
    for i in range(cfg.compression_stages):
        x = conv1d(
            x,
            store[f"enc{i}.down.w"],
            bias=store[f"enc{i}.down.b"],
            stride=2,
            padding=_KERNEL // 2 - 1,
        )
        x = packing.mask(x, i + 1)
        x = _res_block(x, store, f"enc{i}.res")
        x = conv1d(x, store[f"enc{i}.proj.w"], bias=store[f"enc{i}.proj.b"])
        # the last projection is read only through `take`, which skips gaps
        if i + 1 < cfg.compression_stages:
            x = packing.mask(x, i + 1)
    z = packing.take(x, cfg.compression_stages)
    return z, packing.pads if m is packing else packing.pads[0]


def _decode_tensor(
    zq: Tensor, cfg: CodecConfig, store: ParameterStore, packing: Packing | None = None
) -> Tensor:
    """Latent rows (T, code_dim) -> unclamped rows (T * 2**stages, 9).
    `packing` says which sample each latent row belongs to; by default all
    rows are one sample."""
    stages = cfg.compression_stages
    if packing is None:
        packing = Packing([zq.data.shape[0] << stages], cfg)
    x = packing.place(zq, stages)  # gap rows start at zero
    for j in range(stages):
        level = stages - 1 - j
        x = conv_transpose1d(
            x,
            store[f"dec{j}.up.w"],
            bias=store[f"dec{j}.up.b"],
            stride=2,
            padding=_KERNEL // 2 - 1,
        )
        x = packing.mask(x, level)
        x = _res_block(x, store, f"dec{j}.res")
        x = conv1d(x, store[f"dec{j}.proj.w"], bias=store[f"dec{j}.proj.b"])
        if level > 0:  # level 0 is read only through `take`
            x = packing.mask(x, level)
    return packing.take(x, 0)


def decode(
    zq: Tensor, cfg: CodecConfig, store: ParameterStore, pad: int = 0
) -> StrokeMatrix:
    """Latent (T, code_dim) of one sample -> scaled stroke matrix, clamped
    to [-1, 1], with its last `pad` rows dropped."""
    rows = np.clip(_decode_tensor(zq, cfg, store).data, -1.0, 1.0)
    if pad:
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
    z: Tensor,
    codebook: Codebook,
    update_usage: bool = False,
) -> tuple[Tensor, np.ndarray]:
    """d rounds of nearest-neighbor residual coding per latent row (T, Dim).

    Returns the quantized latent (T, Dim) (differentiable w.r.t. codebook
    entries; indices are constants) and the flat token ids (T * d,),
    timestep-major with token id = level * |B| + entry. Ties go to the
    lowest entry index.
    """
    if not codebook.levels:
        raise EmptyCodebook("codebook has no levels")
    residual = z.data.copy()
    size = codebook.size
    level_ids: list[np.ndarray] = []
    zq = None
    for level, book in enumerate(codebook.levels):
        if book.data.shape[0] == 0:
            raise EmptyCodebook(f"level {level} is empty")
        idx = _nearest(residual, book.data)
        level_ids.append(idx)
        residual -= book.data[idx]
        if update_usage:
            codebook.usage[level] += np.bincount(idx, minlength=size)
        looked = embedding(book, idx)  # (T, Dim), grads flow to the book
        zq = looked if zq is None else add(zq, looked)

    # timestep-major: row t holds level * |B| + entry for every level
    ids = np.stack(level_ids, axis=1) + np.arange(codebook.depth) * size
    return zq, ids.ravel()


def straight_through(z: Tensor, zq: Tensor) -> Tensor:
    """Forward value of zq, gradient of z: z plus the constant zq - z."""
    return add(z, Tensor(zq.data - z.data))


def lookup_tokens(tokens: list[int], codebook: Codebook) -> np.ndarray:
    """Token ids -> summed entry vectors per timestep, (T, Dim).

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
    out = np.zeros((t_len, codebook.dim))
    # frame slot by frame slot, so each row sums its entries in token order
    for k in range(depth):
        out += books[level[:, k], entry[:, k]]
    return out


# ---------------------------------------------------------------------------
# Loss and training
# ---------------------------------------------------------------------------


def codec_loss(
    packing: Packing, recon: Tensor, z: Tensor, zq: Tensor, alpha: float
) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """Three-term objective with the printed stop-gradient placement.

    codebook term ||Z - sg[Zq]||^2 updates the encoder; commitment term
    ||sg[Z] - Zq||^2 updates the codebook entries; reconstruction is the
    squared error of recon against `packing.target`. Total = alpha *
    (codebook + commit) + recon.

    The rows of recon, z and zq belong to the packing's samples in turn,
    and each term is each sample's mean, averaged over the samples.
    """
    target = packing.target
    if target.shape != recon.data.shape:
        raise te.ShapeMismatch(f"recon {recon.data.shape} vs target {target.shape}")
    n, latent = len(packing.lengths), packing.latent
    w_latent = np.repeat(1.0 / (n * latent * z.data.shape[1]), latent)[:, None]
    w_rows = np.repeat(1.0 / (n * packing.lengths * 9), packing.lengths)[:, None]
    l_codebook = mse_loss(z, stop_gradient(zq), w_latent)
    l_commit = mse_loss(stop_gradient(z), zq, w_latent)
    l_recon = mse_loss(recon, Tensor(target), w_rows)
    weighted = mul(add(l_codebook, l_commit), Tensor(np.array(alpha)))
    total = add(weighted, l_recon)
    return total, l_codebook, l_commit, l_recon


def batch_loss(
    matrices: list[StrokeMatrix],
    cfg: CodecConfig,
    store: ParameterStore,
    codebook: Codebook,
) -> tuple[Tensor, Tensor, Tensor, Tensor, list[np.ndarray]]:
    """One graph over a minibatch of scaled matrices: each sample's
    `codec_loss`, averaged over the batch, from one packed pass. The
    codebook's usage counters count the batch's entries.

    Returns the total, the codebook, commitment and reconstruction terms,
    and each sample's latent rows.
    """
    packing = Packing.of(matrices, cfg)
    z, _ = encode(packing, cfg, store)
    zq, _ = quantize_residual(z, codebook, update_usage=True)
    recon = _decode_tensor(straight_through(z, zq), cfg, store, packing)
    total, l_cb, l_commit, l_recon = codec_loss(packing, recon, z, zq, cfg.alpha)
    latents = np.split(z.data, np.cumsum(packing.latent)[:-1])
    return total, l_cb, l_commit, l_recon, latents


# Lloyd iterations per codebook level
_KMEANS_ITERS = 10


def _kmeans(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = data.shape[0]
    if n >= k:
        centers = data[rng.choice(n, size=k, replace=False)].copy()
    else:
        centers = data[rng.integers(0, n, size=k)].copy()
        centers += rng.normal(0.0, 1e-4, size=centers.shape)
    for _ in range(_KMEANS_ITERS):
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
    """Latent rows for codebook init: at least the first batch, extended
    over further batches until |B| vectors exist or the corpus runs out (one
    minibatch rarely supplies enough at desk scale)."""
    taken = []
    count = 0
    for rank, i in enumerate(order):
        if rank >= cfg.batch_size and count >= cfg.codebook_size:
            break
        taken.append(corpus[int(i)])
        count += -(-len(corpus[int(i)]) // cfg.rate)
    with no_grad():
        z, _ = encode(Packing.of(taken, cfg), cfg, store)
    return z.data


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

    Each step runs one graph over its minibatch: the samples are packed
    into one sequence (`Packing`), encoded in one pass, quantized in sample
    order, decoded in one pass, and the loss is each sample's own loss
    averaged over the batch.

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

    log_rows: list[dict] = []
    reservoir: list[np.ndarray] = []

    def new_epoch():
        reseed_pool = np.concatenate(reservoir, axis=0) if reservoir else init_latents
        codebook.reseeded += reseed_dead_entries(codebook, store, reseed_pool, rng)
        codebook.reset_usage()
        reservoir.clear()

    batches = te.minibatches(n, cfg.batch_size, rng, order, before_epoch=new_epoch)
    for step, batch_idx in zip(range(cfg.steps), batches):
        batch = [corpus[int(i)] for i in batch_idx]
        total, l_cb, l_commit, l_recon, latents = batch_loss(batch, cfg, store, codebook)

        value = float(total.data)
        if not np.isfinite(value):
            raise Diverged(f"total loss {value} at step {step}")

        backward(total)
        optimizer_step(store, cfg.lr)

        terms = (float(l_cb.data), float(l_commit.data), float(l_recon.data))
        log_rows.append(
            {
                "step": step,
                "total": value,
                "codebook": terms[0],
                "commit": terms[1],
                "recon": terms[2],
            }
        )
        # one reservoir entry per sample, as the trimming below counts them
        reservoir.extend(latents)
        if len(reservoir) > 64:
            reservoir[:] = [np.concatenate(reservoir, axis=0)[-8192:]]

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
        z, _ = encode(ms, cfg, store)
        _, ids = quantize_residual(z, codebook)
    meta = {"viewbox": list(g.viewbox), "orig_len": len(m)}
    return StrokeTokenSeq(ids.tolist(), cfg.layout, meta)


def detokenize(
    seq: StrokeTokenSeq,
    store: ParameterStore,
    codebook: Codebook,
    cfg: CodecConfig,
    fixer: str,
) -> tuple[Graphic, FixReport | None]:
    """Token ids -> (repaired Graphic, its FixReport) under `fixer`, one of
    FIXERS; the report is None when no fixer runs."""
    zq = Tensor(lookup_tokens(seq.tokens, codebook))
    # keep orig_len of the decoded rows, clamped to [1, rows]
    rows = zq.data.shape[0] * cfg.rate
    pad = rows - max(1, min(seq.meta.get("orig_len", rows), rows))
    with no_grad():
        ms = decode(zq, cfg, store, pad=pad)
    vb = seq.meta.get("viewbox") or list(DEFAULT_VIEWBOX)
    viewbox = (vb[0], vb[1], vb[2], vb[3])
    m = scale(ms, FROM_UNIT, viewbox)
    g = from_matrix(m, viewbox, keywords=tuple(seq.meta.get("keywords", ())))
    report = None
    if fixer == "pc":
        g, report = fix_pc(g)
    elif fixer == "pi":
        g, report = fix_pi(g)
    return g, report


def save_vq_checkpoint(
    path: str, store: ParameterStore, codebook: Codebook, cfg: CodecConfig
) -> None:
    usage = {"codebook.usage": np.array(codebook.usage)}
    save_checkpoint(path, store, {"config": cfg}, usage)


def load_vq_checkpoint(path: str) -> tuple[ParameterStore, Codebook, CodecConfig]:
    """Inverse of `save_vq_checkpoint`. The usage entry must hold i8 counts,
    non-negative, codebook_size of them for each level."""
    store, (cfg,), (usage,) = read_checkpoint(
        path, {"config": CodecConfig}, codec_layout, ("codebook.usage",)
    )
    shape = (cfg.rvq_depth, cfg.codebook_size)
    if usage.dtype != np.int64 or usage.shape != shape or np.any(usage < 0):
        raise CorruptCheckpoint(
            f"{path}: checkpoint entry 'codebook.usage' must hold {shape} non-negative "
            f"i8 counts (found {usage.dtype}, shape {usage.shape})"
        )
    codebook = make_codebook(cfg, store)
    codebook.usage = list(usage.copy())
    return store, codebook, cfg
