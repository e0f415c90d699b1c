"""Flat key=value training configuration shared by train-vq and train-lm.

Files hold one `key = value` per line ('#' comments allowed). The keys are
the fields of `CodecConfig` under their own names and the fields of
`LmConfig` under an `lm_` prefix, except `seed`, which sets both configs.
A value parses by its field's annotation: an int is `-?[0-9]+`, a float an
ASCII decimal, exponent, `nan`, `inf` or `-inf`, and a `tuple[int, ...]`
takes comma-separated ints (`channels = 16,32`). Unknown keys are rejected so
typos fail loudly. The file is the only source of these settings: a key it
leaves out takes the dataclass default. Both configs are built, so either
training subcommand validates the whole file. Decoding choices (the fixer,
the sampling temperature, top-k and seed) are not config keys but flags of
the commands that decode.
"""

from __future__ import annotations

import re
from dataclasses import fields

from .errors import StroketokError
from .stroke_lm import LmConfig
from .vq_codec import CodecConfig


class UnknownConfigKey(StroketokError):
    pass


def _key_targets() -> dict[str, list]:
    """Config key -> every (config class, field) that it sets."""
    targets: dict[str, list] = {}
    for f in fields(CodecConfig):
        targets.setdefault(f.name, []).append((CodecConfig, f))
    for f in fields(LmConfig):
        key = f.name if f.name == "seed" else f"lm_{f.name}"
        targets.setdefault(key, []).append((LmConfig, f))
    return targets


_TARGETS = _key_targets()
# LmConfig field -> its config key, to name keys in LmConfig's messages
_LM_KEYS = {
    f.name: key for key, targets in _TARGETS.items() for cls, f in targets if cls is LmConfig
}


# ASCII forms only: int() and float() alone also take "+", "_", inner
# spaces and other scripts' digits
_FORMS = {
    "int": (re.compile(r"-?[0-9]+"), int),
    "float": (re.compile(r"-?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?|nan|-?inf"), float),
}


def _coerce(kind: str, raw: str):
    if kind == "tuple[int, ...]":
        return tuple(_coerce("int", c) for c in raw.split(","))
    form, parse = _FORMS[kind]
    if not form.fullmatch(raw.strip()):
        raise ValueError(f"{raw.strip()!r} is not a plain {kind}")
    return parse(raw)


def parse_config_text(text: str) -> dict:
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise UnknownConfigKey(f"line {lineno}: expected key = value")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _TARGETS:
            raise UnknownConfigKey(f"line {lineno}: unknown key {key!r}")
        try:
            out[key] = _coerce(_TARGETS[key][0][1].type, raw)
        except ValueError as e:
            raise ValueError(f"line {lineno}: bad value for {key!r}: {e}") from None
    return out


def load_pipeline_config(path: str | None) -> tuple[CodecConfig, LmConfig]:
    values: dict = {}
    if path:
        with open(path) as f:
            values = parse_config_text(f.read())
    kwargs: dict = {CodecConfig: {}, LmConfig: {}}
    for key, val in values.items():
        for cls, f in _TARGETS[key]:
            kwargs[cls][f.name] = val
    codec = CodecConfig(**kwargs[CodecConfig])
    try:
        lm = LmConfig(**kwargs[LmConfig])
    except ValueError as e:
        message = re.sub(r"\w+", lambda m: _LM_KEYS.get(m[0], m[0]), str(e))
        raise ValueError(message) from None
    return codec, lm
