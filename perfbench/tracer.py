"""Span tracing for the traced run, installed from the benchmark's own files.

Wrappers replace a function at the module attribute through which its
callers reach it (for example `stroketok.vq_codec.conv1d`, which the codec
calls, or `stroketok.cli.load_vq_checkpoint`, which the CLI calls). Each call
records a span: name, start, end, parent span, round, and whether autodiff
was recording. Spans stay in memory and are written out when the run ends.
A layer's self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import gzip
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def sites():
    """(module, attribute, span name) for every wrapped call site."""
    from stroketok import cli, metrics, stroke_lm, tensor_engine, vq_codec

    out = [
        (cli, "load_vq_checkpoint", "cli.ckpt_load"),
        (cli, "load_lm_checkpoint", "cli.ckpt_load"),
        (cli, "load_graphic", "svg_io.load_graphic"),
        (cli, "dump_graphic", "svg_io.dump_graphic"),
        (cli, "simplify", "svg_io.simplify"),
        (cli, "preprocess", "svg_io.preprocess"),
        (cli, "to_matrix", "matrix_codec.to_matrix"),
        (cli, "train_vq", "vq_codec.train"),
        (cli, "tokenize", "vq_codec.tokenize"),
        (cli, "detokenize", "vq_codec.detokenize"),
        (cli, "train_lm", "stroke_lm.train_lm"),
        (cli, "lm_generate", "stroke_lm.generate"),
        (cli, "edit_score", "metrics.edit_score"),
        (cli, "pixel_iou", "metrics.pixel_iou"),
        (metrics, "rasterize", "render.rasterize"),
        (vq_codec, "to_matrix", "matrix_codec.to_matrix"),
        (vq_codec, "from_matrix", "matrix_codec.from_matrix"),
        (vq_codec, "encode", "vq_codec.encode"),
        (vq_codec, "quantize_residual", "vq_codec.quantize_residual"),
        (vq_codec, "decode", "vq_codec.decode"),
        # training decodes through the private tensor-level half of decode
        (vq_codec, "_decode_tensor", "vq_codec.decode"),
        (vq_codec, "init_codebook_kmeans", "vq_codec.init_codebook_kmeans"),
        (vq_codec, "reseed_dead_entries", "vq_codec.reseed_dead_entries"),
        (vq_codec, "fix_pc", "fixer.fix_pc"),
        (stroke_lm, "forward_logits", "stroke_lm.forward_logits"),
        (stroke_lm, "sequence_loss", "stroke_lm.sequence_loss"),
    ]
    # every engine op the codec and the LM import by name
    for module in (vq_codec, stroke_lm):
        for attr, fn in vars(module).items():
            if inspect.isfunction(fn) and fn.__module__ == tensor_engine.__name__ and attr != "no_grad":
                out.append((module, attr, f"tensor_engine.{attr}"))
    return out


class Tracer:
    def __init__(self):
        from stroketok import tensor_engine

        self._te = tensor_engine
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = []
        self.parent = []
        self.round = []
        self.grad = []
        self.start = []
        self.end = []
        self._stack: list[int] = []
        self.round_no = 0
        self.stage = ""
        # per (round, key) exact counts taken from return values and arguments
        self.counts: dict[tuple[int, str], float] = defaultdict(float)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        sid = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.round.append(self.round_no)
        self.grad.append(self._te._grad_enabled)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def stage_span(self, stage: str):
        """Root span around one CLI call of a round."""
        self.stage = stage
        sid = self._open(self._name_id(f"cli.{stage}"))
        try:
            yield
        finally:
            self._close(sid)
            self.stage = ""

    def _wrap(self, fn, name: str):
        name_id = self._name_id(name)
        after = _AFTER.get(name)
        tracer = self

        def wrapped(*args, **kwargs):
            sid = tracer._open(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if after is not None:
                after(tracer, args, out)
            return out

        wrapped.__wrapped__ = fn
        return wrapped

    @contextmanager
    def installed(self):
        """Wrap every site for the duration of the block, then restore."""
        saved = []
        try:
            for module, attr, name in sites():
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[(self.round_no, key)] += value

    # -- analysis ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.array(self.start)
        end = np.array(self.end)
        parent = np.array(self.parent, dtype=np.int64)
        dur = end - start
        child = np.zeros(len(dur))
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        # parents precede children, so one forward pass finds each root
        root = np.arange(len(parent))
        for i in np.nonzero(has)[0]:
            root[i] = root[parent[i]]
        return {
            "name": np.array(self.name, dtype=np.int64),
            "round": np.array(self.round, dtype=np.int64),
            "grad": np.array(self.grad, dtype=bool),
            "parent": parent,
            "root": root,
            "dur": dur,
            "self": dur - child,
        }

    def write(self, path: Path) -> None:
        """Spans as gzip TSV: id, parent, round, name, start, end, grad."""
        with gzip.open(path, "wt") as f:
            f.write("id\tparent\tround\tname\tstart\tend\tgrad\n")
            for i in range(len(self.start)):
                f.write(
                    f"{i}\t{self.parent[i]}\t{self.round[i]}\t{self.names[self.name[i]]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{int(self.grad[i])}\n"
                )


def _after_reseed(tracer, args, out):
    tracer.count("reseeded_entries", out)


def _after_fix(tracer, args, out):
    tracer.count("repairs", out[1].violations_found)


def _after_generate(tracer, args, out):
    tracer.count("generated")
    tracer.count("gen_truncated", bool(out.meta.get("truncated")))


def _after_forward(tracer, args, out):
    if tracer.stage == "generate":
        tracer.count("gen_positions", len(args[0]) + len(args[1]))


_AFTER = {
    "vq_codec.reseed_dead_entries": _after_reseed,
    "fixer.fix_pc": _after_fix,
    "stroke_lm.generate": _after_generate,
    "stroke_lm.forward_logits": _after_forward,
}
