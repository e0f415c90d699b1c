"""Correctness checks the benchmark makes on the program's outputs.

Each check is written apart from the code it checks (its own edit distance,
symbol serialization, token-file parser and chain test) or tests a property
the method must have (greedy generation is the argmax of the model's own
teacher-forced logits; a trained LM beats the zero head). A failed check
raises CheckFailed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    pass


def levenshtein(a, b) -> int:
    """Edit distance by a numpy row DP. Substitution and deletion come from
    the previous row; insertions are one pass of cumulative minimum:
    cur[j] = min_k<=j (cand[k] + j - k) = j + cummin(cand - index)[j]."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if len(a) < len(b):
        a, b = b, a
    m = len(b)
    if m == 0:
        return len(a)
    j = np.arange(m + 1)
    prev = j.copy()
    cur = np.empty(m + 1, dtype=np.int64)
    for i, ca in enumerate(a, start=1):
        cur[0] = i
        np.minimum(prev[1:] + 1, prev[:-1] + (b != ca), out=cur[1:])
        prev = np.minimum.accumulate(cur - j) + j
    return int(prev[-1])


_TYPE_SYMBOL = {"M": 0, "L": 1, "C": 2}


def symbols(g) -> np.ndarray:
    """The edit metric's serialization: per command its type, then the
    eight coordinates binned to 256 over the larger viewbox extent."""
    min_x, min_y, w, h = g.viewbox
    extent = max(w, h)
    rows = np.array(
        [[v for p in c.points() for v in p] for c in g.all_commands()], dtype=np.float64
    )
    lo = np.array([min_x, min_y] * 4)
    bins = np.clip(np.floor((rows - lo) / extent * 256).astype(np.int64), 0, 255) + 3
    types = np.array([_TYPE_SYMBOL[c.cmd_type] for c in g.all_commands()])
    return np.concatenate([types[:, None], bins], axis=1).ravel()


def edit_value(golden, candidate) -> float:
    sa, sb = symbols(golden), symbols(candidate)
    longest = max(len(sa), len(sb))
    return levenshtein(sa, sb) / longest if longest else 0.0


def check_edit(report: dict, pairs: dict) -> None:
    """Every record's edit equals our own distance; `pairs` maps record
    name to the (golden, candidate) graphics as evaluate compares them."""
    names = [r["name"] for r in report["records"]]
    if sorted(names) != sorted(pairs):
        raise CheckFailed(f"report covers {sorted(names)}, expected {sorted(pairs)}")
    for r in report["records"]:
        want = edit_value(*pairs[r["name"]])
        if r["edit"] != want:
            raise CheckFailed(f"{r['name']}: edit {r['edit']!r} != {want!r}")


def check_cr(report: dict, command_counts: dict, token_counts: dict) -> None:
    """cr = 9 x source command count / token count, exactly."""
    for r in report["records"]:
        want = 9 * command_counts[r["name"]] / token_counts[r["name"]]
        if r["cr"] != want:
            raise CheckFailed(f"{r['name']}: cr {r['cr']!r} != {want!r}")


def read_tokens(path: Path) -> tuple[dict, list[int]]:
    """Parse a token file: `# stroketok v1 d=.. B=.. stages=..`, one id a line."""
    lines = Path(path).read_text().splitlines()
    head = lines[0].split() if lines else []
    if head[:3] != ["#", "stroketok", "v1"]:
        raise CheckFailed(f"{path}: bad token header {lines[:1]!r}")
    fields = {k: int(v) for k, v in (part.split("=", 1) for part in head[3:])}
    return fields, [int(x) for x in lines[1:] if x.strip()]


def check_tokens(tokens: list[int], depth: int, size: int, expected_len: int | None) -> None:
    """Ids lie in [0, d*B); a tokenized file holds d * ceil(L / 2^stages)
    ids, and any sequence holds whole frames of d ids."""
    bad = [t for t in tokens if not 0 <= t < depth * size]
    if bad:
        raise CheckFailed(f"token ids {bad[:4]} outside [0, {depth * size})")
    if expected_len is not None and len(tokens) != expected_len:
        raise CheckFailed(f"{len(tokens)} tokens, expected {expected_len}")
    if len(tokens) % depth:
        raise CheckFailed(f"{len(tokens)} tokens is not a whole number of {depth}-id frames")


def expected_token_count(commands: int, depth: int, stages: int) -> int:
    return depth * math.ceil(commands / 2**stages)


def _masked(row: np.ndarray, masked: tuple[int, ...]) -> np.ndarray:
    row = row.copy()
    row[list(masked)] = -np.inf
    return row


def check_generation(
    tokens: list[int],
    logits_fn,
    *,
    eos: int,
    masked: tuple[int, ...],
    cap: int,
    depth: int,
    tol: float = 1e-9,
) -> tuple[int, bool]:
    """Greedy generation is the argmax of the model's teacher-forced logits.

    `logits_fn(ids)` returns one logits row per id of [BOS] + ids, the last
    row predicting what follows. Each emitted token must be a maximum of its
    row (PAD/BOS masked, within `tol` of rounding); after the last one comes
    EOS, the length cap `cap`, or fewer than `depth` ids of a partial frame
    that generate drops and then EOS or the cap. Returns the raw emitted
    length and whether the cap stopped it.
    """
    if not tokens:
        raise CheckFailed("empty generation")
    seq = list(tokens)
    rows = logits_fn(seq)
    for i, tok in enumerate(seq):
        row = _masked(rows[i], masked)
        if row[tok] < row.max() - tol:
            raise CheckFailed(f"token {i} = {tok} is not the argmax ({int(np.argmax(row))})")
    dropped = 0
    while len(seq) < cap:
        nxt = int(np.argmax(_masked(rows[len(seq)], masked)))
        if nxt == eos:
            return len(seq), False
        dropped += 1
        if dropped >= depth:
            raise CheckFailed(f"a whole frame after token {len(tokens)} was dropped")
        seq.append(nxt)
        rows = logits_fn(seq)
    return len(seq), True


def check_chain(graphic_json: str) -> None:
    """Within every path, each command begins exactly where the previous
    one ends (what the PC fixer promises)."""
    for pi, rows in enumerate(json.loads(graphic_json)["paths"]):
        for j in range(1, len(rows)):
            if rows[j][1:3] != rows[j - 1][7:9]:
                raise CheckFailed(
                    f"path {pi}: command {j} begins at {rows[j][1:3]}, "
                    f"previous ends at {rows[j - 1][7:9]}"
                )


def check_lm_ce(lm_ce: float, vocab_total: int) -> None:
    """A trained LM must beat the untrained zero head, whose CE is ln V."""
    if not lm_ce < math.log(vocab_total):
        raise CheckFailed(f"lm_ce {lm_ce} >= ln V = {math.log(vocab_total)}")


def digest_tree(root: Path) -> dict[str, str]:
    """sha256 of every file under root, by relative path."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def check_same_bytes(first: dict[str, str], now: dict[str, str]) -> None:
    if first.keys() != now.keys():
        raise CheckFailed(f"artifact set changed: {sorted(first.keys() ^ now.keys())[:4]}")
    diff = [k for k in first if first[k] != now[k]]
    if diff:
        raise CheckFailed(f"artifacts differ from round 1: {diff[:4]}")
