"""Workload definitions and the corpus builders that turn a seed into inputs.

Every workload runs every pipeline stage, so every end-to-end metric exists
on every workload; the sizes differ so that a different layer dominates each
one (see README.md). The training seed stays at the config default: the
workload seed only decides the corpus the program is given.

Graphic lengths are fixed lists, not drawn from the seed, so the work per
round is the same on every seed and only the geometry differs: the short
corpus picks whole `gen-synth` graphics of the listed lengths from a larger
`gen-synth` pool, the long corpora cut concatenated shapes to length.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, replace
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    # one graphic per entry, of that many commands: picked from a gen-synth
    # pool when `pooled`, else concatenated from gen-synth shapes
    lengths: tuple[int, ...]
    pooled: bool
    # pipeline config (written to a key = value file for the CLI)
    codec: dict
    lm: dict
    vq_steps: int
    lm_steps: int
    # prompts: keywords of the first n_prompts corpus graphics
    n_prompts: int
    # evaluate runs on the first n_eval corpus graphics (all when None)
    n_eval: int | None

    def config_text(self) -> str:
        items = {**self.codec, **self.lm, "lm_steps": self.lm_steps, "steps": self.vq_steps}
        return "".join(f"{k} = {v}\n" for k, v in sorted(items.items()))

    @property
    def n_graphics(self) -> int:
        return len(self.lengths)

    @property
    def lm_batch(self) -> int:
        return int(self.lm.get("lm_batch_size", 8))

    def lm_epochs(self) -> int:
        """Whole epochs run by train-lm. The sizes are chosen so that every
        pair is trained the same number of times, which makes the count of
        trained target positions exact without replaying the shuffle."""
        per_epoch = self.n_graphics // self.lm_batch
        if self.n_graphics % self.lm_batch or self.lm_steps % per_epoch:
            raise ValueError(f"{self.name}: train-lm steps must cover whole epochs")
        return self.lm_steps // per_epoch


SHORT = Workload(
    name="short-corpus",
    # the 1/64, 3/64, ..., 63/64 quantiles of the lengths of gen-synth
    # graphics of at least 5 commands (mean 12). With none shorter, a
    # quarter of the corpus ends at token 6, so the trained LM's greedy
    # generation stops at one EOS slot on every seed instead of emitting
    # EOS at slot 2 or 4 on some (or at slot 0: an empty, failed generate)
    lengths=(5, 5, 5, 5, 5, 5, 6, 6, 7, 7, 8, 9, 9, 10, 10, 10,
             10, 10, 11, 11, 11, 12, 13, 13, 15, 15, 17, 18, 26, 28, 30, 32),
    pooled=True,
    codec={},
    lm={
        "lm_embed_dim": 32, "lm_layers": 1, "lm_heads": 2, "lm_max_len": 64,
        "lm_lr": 0.01, "lm_batch_size": 32,
    },
    vq_steps=32,
    lm_steps=16,
    n_prompts=2,
    n_eval=None,
)

LONG_CORPUS = Workload(
    name="long-corpus",
    lengths=tuple(range(128, 353, 32)),
    pooled=False,
    codec={"compression_stages": 3, "codebook_size": 16},
    lm={"lm_embed_dim": 32, "lm_layers": 1, "lm_heads": 2, "lm_max_len": 104, "lm_lr": 0.01},
    vq_steps=8,
    lm_steps=4,
    n_prompts=1,
    n_eval=2,
)

LONG_GENERATE = Workload(
    name="long-generate",
    lengths=tuple(range(100, 297, 28)),
    pooled=False,
    codec={"lr": 0.01, "codebook_size": 64},
    lm={"lm_embed_dim": 32, "lm_layers": 1, "lm_heads": 2, "lm_max_len": 312, "lm_lr": 0.01},
    vq_steps=4,
    lm_steps=4,
    n_prompts=2,
    n_eval=2,
)

WORKLOADS = {w.name: w for w in (SHORT, LONG_CORPUS, LONG_GENERATE)}


def tiny(w: Workload) -> Workload:
    """The same workload at a size that runs one round in about a second,
    for the benchmark's own tests."""
    lengths = w.lengths[::4] if w.pooled else tuple(n // 4 for n in w.lengths)
    lm = {**w.lm, "lm_batch_size": min(w.lm_batch, len(lengths))}
    return replace(w, lengths=lengths, vq_steps=2, lm=lm)


def build_long_corpus(lengths, seed: int, out_dir: Path) -> None:
    """One graphic per target length, made of consecutive gen-synth shapes
    and cut at exactly that many commands (a path prefix is still a chained
    path). Keywords are those of the graphic's first shape."""
    from stroketok.model import Graphic, Path as GPath
    from stroketok.svg_io import dump_graphic, gen_synthetic, simplify

    need = sum(lengths)
    # gen-synth graphics hold about 11 commands each; ask for plenty
    pool = gen_synthetic(max(8, need // 4), seed)
    shapes = ((g.keywords, p) for g in pool for p in g.paths)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, target in enumerate(lengths):
        kept = []
        count = 0
        keywords = None
        while count < target:
            kw, p = next(shapes)
            keywords = keywords or kw
            take = min(len(p.commands), target - count)
            kept.append(GPath(p.commands[:take]))
            count += take
        g = simplify(Graphic(paths=tuple(kept), viewbox=pool[0].viewbox, keywords=keywords))
        (out_dir / f"long_{i:04d}.json").write_text(dump_graphic(g))


def pick_from_pool(lengths, pool_dir: Path, out_dir: Path) -> None:
    """Copy one pool graphic per target length, in pool order, taking the
    nearest length when the pool has none left of the exact one."""
    pool = []
    for p in sorted(pool_dir.glob("*.json")):
        count = sum(len(rows) for rows in json.loads(p.read_text())["paths"])
        pool.append((count, p))
    out_dir.mkdir(parents=True, exist_ok=True)
    for target in lengths:
        i = min(range(len(pool)), key=lambda k: (abs(pool[k][0] - target), k))
        shutil.copy(pool.pop(i)[1], out_dir)
