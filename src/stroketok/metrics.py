"""Code-level evaluation: edit distance, compression ratio, recall, IoU.

Graphics are compared through a symbol serialization: every command becomes
nine symbols (its type plus eight coordinates quantized to a 256-bin grid
over the viewbox, both axes sharing the larger extent). The edit score is
the Levenshtein distance between two serializations normalized by the
longer one, which makes it a proper metric on serialized form.

The distance is computed by `edit_distance`, the bit-parallel algorithm of
Myers (1999, JACM 46(3)) in Hyyrö's (2003) formulation for global edit
distance: one DP column is held as two bit-vectors of vertical deltas, with
Python ints as bit-vectors of any width, so a pair of serializations of n
and m symbols costs n big-int steps of m bits instead of n * m Python-level
cell updates. `levenshtein`, the two-row DP, is kept as its test oracle.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .artifacts import StrokeTokenSeq, check_layout
from .errors import StroketokError
from .model import Graphic
from .render import rasterize

EDIT_BINS = 256

# Symbol space: 0..2 are command types, 3..258 are coordinate bins.
_TYPE_SYMBOL = {"M": 0, "L": 1, "C": 2}
_BIN_OFFSET = 3


class ZeroLength(StroketokError):
    """Compression ratio is undefined for empty sequences."""


class RenderFailure(StroketokError):
    """Graphic could not be rasterized for pixel comparison."""


def serialize_symbols(g: Graphic) -> list[int]:
    """Nine symbols per command: type, then 256-bin quantized coordinates."""
    min_x, min_y, w, h = g.viewbox
    extent = max(w, h)
    cmds = list(g.all_commands())
    coords = np.array(
        [[v for p in cmd.points() for v in p] for cmd in cmds], dtype=np.float64
    ).reshape(len(cmds), 8)
    lo = np.array([min_x, min_y] * 4, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scaled = (coords - lo) / extent * EDIT_BINS
    if not np.isfinite(scaled).all():
        raise ValueError("cannot bin a non-finite coordinate or a zero-extent viewbox")
    # clip before the integer cast, so out-of-viewbox points clamp to the edge bins
    bins = np.clip(np.floor(scaled), 0, EDIT_BINS - 1)
    out = np.empty((len(cmds), 9), dtype=np.int64)
    out[:, 0] = [_TYPE_SYMBOL[cmd.cmd_type] for cmd in cmds]
    out[:, 1:] = bins.astype(np.int64) + _BIN_OFFSET
    return out.ravel().tolist()


def code_length(g: Graphic) -> int:
    """Symbol count of the serialized simplified code (9 per command)."""
    return 9 * g.command_count()


def levenshtein(a, b) -> int:
    """Classic two-row DP edit distance over equality-comparable symbols."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a):
        cur = [i + 1]
        for j, cb in enumerate(b):
            cur.append(min(prev[j + 1] + 1, cur[j] + 1, prev[j] + (ca != cb)))
        prev = cur
    return prev[-1]


def edit_distance(a, b) -> int:
    """Levenshtein distance by the Myers/Hyyrö bit-parallel algorithm; equal
    to `levenshtein` on any two sequences of hashable symbols.

    Bit i of `pv`/`mv` is set when D[i+1][j] - D[i][j] is +1/-1 in the
    current column j of the DP over the shorter sequence (rows) and the
    longer one (columns); `score` follows D[m][j] through the horizontal
    delta at bit m-1. Complements are taken by XOR with the m-bit mask
    rather than `~`, so every int stays non-negative: CPython's negative
    big ints cost extra work on every operation.
    """
    if len(a) < len(b):
        a, b = b, a
    m = len(b)
    if m == 0:
        return len(a)
    peq: dict = {}
    for i, c in enumerate(b):
        peq[c] = peq.get(c, 0) | (1 << i)
    mask = (1 << m) - 1
    high = 1 << (m - 1)
    pv, mv, score = mask, 0, m
    for c in a:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ((xh | pv) ^ mask)
        mh = pv & xh
        if ph & high:
            score += 1
        elif mh & high:
            score -= 1
        # global distance: row 0 is D[0][j] = j, so a +1 enters at bit 0
        ph = ((ph << 1) | 1) & mask
        pv = ((mh << 1) & mask) | ((xv | ph) ^ mask)
        mv = ph & xv
    return score


def edit_score(a: Graphic, b: Graphic) -> float:
    """Normalized edit distance between the two symbol serializations."""
    sa = serialize_symbols(a)
    sb = serialize_symbols(b)
    longest = max(len(sa), len(sb))
    if longest == 0:
        return 0.0
    return edit_distance(sa, sb) / longest


def compression_ratio(code_len: int, token_len: int) -> float:
    """code_len / token_len; values > 1 mean the tokens are shorter."""
    if code_len <= 0 or token_len <= 0:
        raise ZeroLength(f"lengths must be positive, got {code_len}, {token_len}")
    return code_len / token_len


def recall_score(golden: StrokeTokenSeq, generated: StrokeTokenSeq) -> float:
    """Multiset recall of the golden token ids within the generated ones,
    which must share their layout."""
    check_layout("golden", golden.layout, "generated", generated.layout)
    gold = Counter(golden.tokens)
    hits = gold & Counter(generated.tokens)
    if not golden.tokens:
        raise ZeroLength("golden token sequence is empty")
    return sum(hits.values()) / len(golden.tokens)


def pixel_iou(a: Graphic, b: Graphic, res: int = 128, stroke_px: int = 2) -> float:
    """IoU of the two stroked-pixel sets at res x res.

    Rasterizes with a 2 px stroke by default: at comparison resolutions a
    1 px stroke makes the score hypersensitive to sub-pixel wobble.
    """
    try:
        ga = rasterize(a, res, stroke_px)
        gb = rasterize(b, res, stroke_px)
    except (ValueError, OverflowError) as e:
        raise RenderFailure(str(e)) from e
    union = int(np.count_nonzero(ga | gb))
    if union == 0:
        return 1.0
    inter = int(np.count_nonzero(ga & gb))
    return inter / union

