"""Flat key=value pipeline configuration shared by the CLI subcommands.

Files hold one `key = value` per line ('#' comments allowed). Unknown keys
are rejected so typos fail loudly. Command-line flags override file values,
which override the defaults below.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import StroketokError
from .stroke_lm import LmConfig
from .vq_codec import CodecConfig


class UnknownConfigKey(StroketokError):
    pass


@dataclass
class PipelineConfig:
    # codec training
    compression_stages: int = 1
    rvq_depth: int = 2
    codebook_size: int = 256
    code_dim: int = 64
    channels: str = "64"  # comma-separated per-stage widths
    alpha: float = 1.0
    lr: float = 1e-3
    seed: int = 0
    batch_size: int = 8
    steps: int = 2000
    kernel_size: int = 4
    target_recon: float = -1.0  # negative disables early stopping
    conventional_loss_names: bool = False
    # sequence model
    lm_embed_dim: int = 128
    lm_layers: int = 2
    lm_heads: int = 4
    lm_max_len: int = 512
    lm_lr: float = 1e-3
    lm_steps: int = 3000
    lm_batch_size: int = 8
    temperature: float = 1.0
    top_k: int = 0
    # corpus rules
    max_commands: int = 1024
    min_commands: int = 2
    min_keywords: int = 0
    # post-processing and metrics
    fixer: str = "pc"  # pc | pi | none
    eval_res: int = 128
    eval_stroke_px: int = 2

    def codec_config(self) -> CodecConfig:
        target = self.target_recon if self.target_recon > 0 else None
        return CodecConfig(
            compression_stages=self.compression_stages,
            rvq_depth=self.rvq_depth,
            codebook_size=self.codebook_size,
            code_dim=self.code_dim,
            channels=tuple(int(c) for c in str(self.channels).split(",") if c),
            alpha=self.alpha,
            lr=self.lr,
            seed=self.seed,
            batch_size=self.batch_size,
            steps=self.steps,
            kernel_size=self.kernel_size,
            target_recon=target,
            fixer_strategy=self.fixer,
            conventional_loss_names=self.conventional_loss_names,
        )

    def lm_config(self) -> LmConfig:
        return LmConfig(
            embed_dim=self.lm_embed_dim,
            layers=self.lm_layers,
            heads=self.lm_heads,
            max_len=self.lm_max_len,
            lr=self.lm_lr,
            seed=self.seed,
            temperature=self.temperature,
            top_k=self.top_k,
            steps=self.lm_steps,
            batch_size=self.lm_batch_size,
        )


_FIELD_TYPES = {f.name: f.type for f in fields(PipelineConfig)}


def _coerce(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    raw = raw.strip()
    if kind == "bool":
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"{key}: expected a boolean, got {raw!r}")
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    return raw


def parse_config_text(text: str) -> dict:
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise UnknownConfigKey(f"line {lineno}: expected key = value")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELD_TYPES:
            raise UnknownConfigKey(f"line {lineno}: unknown key {key!r}")
        out[key] = _coerce(key, raw)
    return out


def load_pipeline_config(path: str | None, overrides: dict | None = None) -> PipelineConfig:
    values: dict = {}
    if path:
        with open(path) as f:
            values.update(parse_config_text(f.read()))
    for key, val in (overrides or {}).items():
        if val is not None:
            if key not in _FIELD_TYPES:
                raise UnknownConfigKey(f"unknown config key {key!r}")
            values[key] = val
    return PipelineConfig(**values)
