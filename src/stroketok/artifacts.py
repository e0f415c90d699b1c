"""Every file format of the program except graphic JSON (`svg_io`) and the
report (`cli`): checkpoints, their config records, and stroke-token files.

Checkpoints (`checkpoint STKT v2`) hold named, typed entries, integers
little-endian: magic b"STK2" (v1 began b"STKT"), a u32 entry count, then
per entry in sorted name order
    u16 name length, UTF-8 name, 2-byte dtype tag (f8 float64, i8 int64,
    u8 byte), u8 ndim, ndim u32 dims, the data in C order;
last a u32 trailer, zlib.crc32 of every byte before it. Parameters are f8,
codebook usage counts i8, and a config one u8 entry: the JSON object of
its dataclass's init fields (written by `save_checkpoint`, read back by
`read_record`).

Token files (`tokens v1`) are UTF-8 text: the header line is exactly
`# stroketok v1 d=<n> B=<n> stages=<n>`, then one id a line. Values and ids
are 1 to 18 ASCII digits, d >= 1, B >= 2, stages >= 1 (as CodecConfig
requires), and ids are stroke ids, in [0, d*B); an id line of "-" and
digits is reported as outside that range. Blank lines are skipped.
"""

from __future__ import annotations

import json
import math
import os
import re
import struct
import zlib
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import StroketokError
from .tensor_engine import ParameterStore

CHECKPOINT_MAGIC = b"STK2"
CHECKPOINT_FORMAT_VERSION = "checkpoint STKT v2"
# dtype tag of an entry -> its element type
_DTYPES = {b"f8": np.dtype("<f8"), b"i8": np.dtype("<i8"), b"u8": np.dtype("u1")}
_TAGS = {dtype: tag for tag, dtype in _DTYPES.items()}

TOKEN_FORMAT_VERSION = "tokens v1"
# a header value or an id: ASCII digits only (int() alone would also take
# signs, spaces, underscores and other scripts' digits), few enough for int64
_DIGITS = re.compile("[0-9]{1,18}")
_HEADER = re.compile(r"# stroketok v1 d=({0}) B=({0}) stages=({0})".format(_DIGITS.pattern))


class CorruptCheckpoint(StroketokError):
    """A file that is not a well-formed STKT v2 container (wrong magic, a
    CRC-32 mismatch, entries that overrun or stop short of the trailer), or
    whose entries do not make up the checkpoint read from it."""


class MalformedTokens(StroketokError):
    """A token file whose header or token lines do not parse."""


class LayoutMismatch(StroketokError):
    """Token ids of one (d, B, stages) layout read against another."""


def save_named_tensors(path: str, named: dict[str, np.ndarray]) -> None:
    """Write `named` as a checkpoint (the layout is in the module docstring)
    through a temporary file beside `path` that replaces it only once
    complete, so a failed write leaves the previous file or none."""
    parts = [CHECKPOINT_MAGIC, struct.pack("<I", len(named))]
    for name in sorted(named):
        # np.asarray (not ascontiguousarray) keeps 0-d shapes intact;
        # tobytes() copies to C order regardless.
        arr = np.asarray(named[name])
        encoded = name.encode("utf-8")
        parts += [struct.pack("<H", len(encoded)), encoded, _TAGS[arr.dtype],
                  struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape), arr.tobytes()]
    blob = b"".join(parts)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(blob)
            f.write(struct.pack("<I", zlib.crc32(blob)))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_named_tensors(path: str) -> dict[str, np.ndarray]:
    """Read a container written by `save_named_tensors`. The CRC-32 must
    match, every read is bounds-checked and the entries must end exactly at
    the trailer."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] == b"STKT":
        raise StroketokError(
            f"{path}: checkpoint STKT v1 is a retired format (retrain to write v2)"
        )
    if blob[:4] != CHECKPOINT_MAGIC:
        raise CorruptCheckpoint(f"{path}: not a checkpoint file (bad magic)")
    end = len(blob) - 4
    if end < 8 or zlib.crc32(blob[:end]) != struct.unpack("<I", blob[end:])[0]:
        raise CorruptCheckpoint(
            f"{path}: checkpoint is truncated or corrupt (CRC-32 mismatch)"
        )
    pos = 4

    def take(n: int) -> bytes:
        nonlocal pos
        if n > end - pos:
            raise CorruptCheckpoint(
                f"{path}: checkpoint is truncated or corrupt "
                f"(needs {n} bytes at offset {pos}, entries end at {end})"
            )
        pos += n
        return blob[pos - n : pos]

    (count,) = struct.unpack("<I", take(4))
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = struct.unpack("<H", take(2))
        try:
            name = take(nlen).decode("utf-8")
        except UnicodeDecodeError as e:
            raise CorruptCheckpoint(
                f"{path}: checkpoint is corrupt (tensor name at offset "
                f"{pos - nlen} is not UTF-8)"
            ) from e
        tag = take(2)
        if tag not in _DTYPES:
            raise CorruptCheckpoint(
                f"{path}: checkpoint entry {name!r} has an unknown dtype tag {tag!r}"
            )
        ndim = take(1)[0]
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        # math.prod on Python ints: a corrupt shape cannot overflow the size
        data = take(_DTYPES[tag].itemsize * math.prod(shape))
        out[name] = np.frombuffer(data, dtype=_DTYPES[tag]).reshape(shape)
    if pos != end:
        raise CorruptCheckpoint(
            f"{path}: checkpoint is corrupt ({end - pos} bytes after "
            f"its {count} entries)"
        )
    return out


# the JSON values a config field takes, keyed by its annotation (every
# config module postpones annotations, so they are strings); bools are not
# ints here, and an int is a float as in Python
_RECORD_TYPES = {
    "int": lambda v: type(v) is int,
    "float": lambda v: type(v) in (int, float),
    "tuple[int, ...]": lambda v: type(v) is list and all(type(c) is int for c in v),
    "list[str]": lambda v: type(v) is list and all(type(w) is str for w in v),
}


def read_record(cls, named: dict[str, np.ndarray], key: str, path: str):
    """The dataclass `cls` from its config record entry `key`. A missing
    or non-JSON record, a missing, unknown or wrongly typed field and a
    value `cls` rejects raise CorruptCheckpoint naming path, record, field."""
    arr = named.get(key)
    if arr is None:
        raise CorruptCheckpoint(f"{path}: checkpoint has no {key!r} entry")
    where = f"{path}: checkpoint record {key!r}"
    if arr.dtype != np.uint8 or arr.ndim != 1:
        raise CorruptCheckpoint(f"{where} is {arr.ndim}-d {arr.dtype}, not u8 bytes")
    try:
        values = json.loads(arr.tobytes())
    except (ValueError, RecursionError) as e:
        raise CorruptCheckpoint(f"{where} is not JSON ({e})") from None
    if type(values) is not dict:
        raise CorruptCheckpoint(f"{where} is not a JSON object")
    expected = {f.name: f.type for f in fields(cls) if f.init}
    for name in sorted(expected.keys() | values.keys()):
        if name not in values:
            raise CorruptCheckpoint(f"{where} has no field {name!r}")
        if name not in expected:
            raise CorruptCheckpoint(f"{where} has an unknown field {name!r}")
        if not _RECORD_TYPES[expected[name]](values[name]):
            shown = json.dumps(values[name])
            raise CorruptCheckpoint(
                f"{where} field {name!r} must be {expected[name]}, not {shown[:40]}"
            )
    try:
        return cls(**values)
    except ValueError as e:
        raise CorruptCheckpoint(f"{where}: {e}") from None


def save_checkpoint(path: str, store: ParameterStore, records: dict, arrays: dict) -> None:
    """`store`'s parameters, the further `arrays`, and each dataclass of
    `records` as the config record under its key (its init fields as one
    `u8` entry: a JSON object with sorted keys), as one checkpoint."""
    named = {**store.state_dict(), **arrays}
    for key, obj in records.items():
        values = {f.name: getattr(obj, f.name) for f in fields(obj) if f.init}
        record = json.dumps(values, sort_keys=True).encode("utf-8")
        named[key] = np.frombuffer(record, np.uint8)
    save_named_tensors(path, named)


def read_checkpoint(path: str, records: dict, layout_of, arrays: tuple[str, ...]):
    """Inverse of `save_checkpoint`: (store, values, arrays), `values` the
    dataclasses of `records` (key -> class, read in order) and `arrays` the
    entries it names, for the caller to check. Every other entry must be
    f8 of its shape in `layout_of(*values)`, which must have no other
    parameter; the store holds copies. A missing parameter, an unknown
    tensor, a wrong dtype or shape raises CorruptCheckpoint naming the key."""
    named = load_named_tensors(path)
    values = [read_record(cls, named, key, path) for key, cls in records.items()]
    for key in arrays:
        if key not in named:
            raise CorruptCheckpoint(f"{path}: checkpoint has no {key!r} entry")
    state = {k: v for k, v in named.items() if k not in records and k not in arrays}
    layout = layout_of(*values)
    for p in layout:
        if p.name not in state:
            raise CorruptCheckpoint(f"{path}: checkpoint has no {p.name!r} entry")
        arr = state[p.name]
        if arr.dtype != np.float64 or arr.shape != p.shape:
            raise CorruptCheckpoint(
                f"{path}: checkpoint entry {p.name!r} is {_TAGS[arr.dtype].decode()} "
                f"of shape {arr.shape}, expected f8 of shape {p.shape}"
            )
    names = {p.name for p in layout}
    for name in state:
        if name not in names:
            raise CorruptCheckpoint(f"{path}: checkpoint has an unknown entry {name!r}")
    store = ParameterStore()
    for p in layout:
        store.add(p.name, state[p.name], frozen=p.frozen)
    return store, values, [named[k] for k in arrays]


@dataclass
class StrokeTokenSeq:
    """Token ids under the (d, B, stages) layout that gives them meaning.
    `meta` holds what decoding may use besides (viewbox, orig_len,
    keywords) and what generating reports."""

    tokens: list[int]
    layout: tuple[int, int, int]
    meta: dict = field(default_factory=dict)


def layout_text(layout: tuple[int, int, int]) -> str:
    """A token layout (d, B, stages) as the token file header writes it."""
    return "d={} B={} stages={}".format(*layout)


def check_layout(
    name: str, layout: tuple[int, int, int], other_name: str, other: tuple[int, int, int]
) -> None:
    """Raise LayoutMismatch, naming both sources and both layouts, unless
    the token layouts of `name` and `other_name` are equal."""
    if layout != other:
        raise LayoutMismatch(
            f"token layouts differ: {name} has {layout_text(layout)}, "
            f"{other_name} has {layout_text(other)}"
        )


def save_tokens(seq: StrokeTokenSeq, path: str) -> None:
    """One decimal id per line under the pinned header. The header carries
    only the sequence's layout; viewbox/length metadata travels separately."""
    with open(path, "w") as f:
        f.write(f"# stroketok v1 {layout_text(seq.layout)}\n")
        for tok in seq.tokens:
            f.write(f"{tok}\n")


def load_tokens(path: str) -> StrokeTokenSeq:
    try:
        with open(path, "rb") as f:
            lines = f.read().decode("utf-8").splitlines() or [""]
    except UnicodeDecodeError as e:
        raise MalformedTokens(f"{path}: token file is not UTF-8 text ({e})") from None
    header = _HEADER.fullmatch(lines[0])
    layout = tuple(map(int, header.groups())) if header else (0, 0, 0)
    # the lower bounds are the ones CodecConfig enforces
    if any(v < low for v, low in zip(layout, (1, 2, 1))):
        raise MalformedTokens(
            f"{path}: token header must be '# stroketok v1 d=<n> B=<n> stages=<n>' "
            f"with d >= 1, B >= 2 and stages >= 1, not {lines[0]!r}"
        )
    # stroke ids only: PAD, BOS and EOS (d*B and up) belong to the LM, and
    # a negative id would index the LM's embedding table from its end
    vocab = layout[0] * layout[1]
    tokens = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        if not _DIGITS.fullmatch(line.removeprefix("-")):
            raise MalformedTokens(
                f"{path}: line {lineno}: token lines must be decimal ids, not {line[:40]!r}"
            )
        tok = int(line)
        if line.startswith("-") or tok >= vocab:
            raise MalformedTokens(
                f"{path}: line {lineno}: token id {line} is outside the stroke "
                f"vocabulary [0, {vocab})"
            )
        tokens.append(tok)
    return StrokeTokenSeq(tokens, layout)
