"""Command-line entry point: one binary, one subcommand per pipeline stage.

Every subcommand runs in the calling process, one file after another.
The argument parser depends only on the code, so it is built once per
process and reused by every `main` call; each call still reads and checks
its checkpoints afresh.
Exit codes: 0 success, 1 domain error (message on stderr), 2 usage error.
Training settings, the seed included, come from the --config file alone;
decoding choices are flags of the commands that decode (--fixer, and
generate's --temperature, --top-k and sampling --seed). Given identical
inputs, config and flags, every subcommand writes byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import statistics
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import load_pipeline_config
from .errors import StroketokError
from .matrix_codec import TO_UNIT, scale, to_matrix
from .metrics import (
    code_length,
    compression_ratio,
    edit_score,
    pixel_iou,
    recall_score,
)
from .model import EmptyGraphic, MalformedSvg
from .render import rasterize, save_pbm, save_png
from .stroke_lm import (
    generate as lm_generate,
    load_lm_checkpoint,
    save_lm_checkpoint,
    train_lm,
)
from .svg_io import (
    GRAPHIC_FORMAT_VERSION,
    Rejected,
    dump_graphic,
    gen_synthetic,
    graphic_to_svg,
    load_graphic,
    parse_svg,
    preprocess,
    simplify,
)
from .tensor_engine import CHECKPOINT_FORMAT_VERSION
from .vq_codec import (
    FIXERS,
    TOKEN_FORMAT_VERSION,
    check_layout,
    detokenize,
    load_tokens,
    load_vq_checkpoint,
    save_tokens,
    save_vq_checkpoint,
    tokenize,
    train as train_vq,
)

log = logging.getLogger("stroketok")

REPORT_FORMAT_VERSION = "report v1"

_FORMAT_VERSIONS = (
    GRAPHIC_FORMAT_VERSION,
    CHECKPOINT_FORMAT_VERSION,
    TOKEN_FORMAT_VERSION,
    REPORT_FORMAT_VERSION,
)


def _load_graphic_file(path: Path):
    if path.suffix == ".svg":
        return parse_svg(path.read_text())
    return load_graphic(path.read_text())


def _write_graphic(g, path: Path) -> None:
    if path.suffix == ".svg":
        path.write_text(graphic_to_svg(g))
    else:
        path.write_text(dump_graphic(g))


def _write_decoded(g, report, path: Path) -> None:
    """The graphic, and its fix report beside it when a fixer ran; with no
    fixer, a report an earlier run left there is removed."""
    _write_graphic(g, path)
    report_path = path.with_suffix(path.suffix + ".fixreport.json")
    if report is None:
        report_path.unlink(missing_ok=True)
    else:
        report_path.write_text(json.dumps(dataclasses.asdict(report), sort_keys=True))


def _preprocess_one(path: Path, ns):
    """The preprocessed graphic, or the reason it was skipped."""
    try:
        g = _load_graphic_file(path)
    except (MalformedSvg, EmptyGraphic, ValueError) as e:
        return str(e)
    g = simplify(g)
    if ns.min_keywords and len(g.keywords) < ns.min_keywords:
        return "TooFewKeywords"
    out = preprocess(g, max_commands=ns.max_commands, min_commands=ns.min_commands)
    return out.reason if isinstance(out, Rejected) else out


def cmd_gen_synth(ns) -> int:
    out_dir = Path(ns.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    graphics = gen_synthetic(ns.n, ns.seed)
    for i, g in enumerate(graphics):
        (out_dir / f"synth_{i:04d}.json").write_text(dump_graphic(g))
    print(f"wrote {len(graphics)} graphics to {out_dir}")
    return 0


def cmd_preprocess(ns) -> int:
    in_dir, out_dir = Path(ns.in_dir), Path(ns.out)
    files = sorted(
        p for p in in_dir.iterdir() if p.suffix in (".svg", ".json") and p.is_file()
    )
    if not files:
        raise StroketokError(f"no .svg or .json files in {in_dir}")
    out_dir.mkdir(parents=True, exist_ok=True)
    # every file is read before any is written, so a read error writes nothing
    results = [(p.stem, _preprocess_one(p, ns)) for p in files]
    kept = 0
    reasons: dict[str, int] = {}
    for stem, out in results:
        if isinstance(out, str):
            reasons[out] = reasons.get(out, 0) + 1
            log.warning("skipped %s: %s", stem, out)
        else:
            (out_dir / f"{stem}.json").write_text(dump_graphic(out))
            kept += 1
    print(f"kept {kept}/{len(files)}; skipped: {reasons or 'none'}")
    return 0


def _load_corpus_matrices(corpus_dir: Path):
    files = sorted(corpus_dir.glob("*.json"))
    if not files:
        raise StroketokError(f"no .json graphics in {corpus_dir}")
    graphics = [load_graphic(p.read_text()) for p in files]
    return [scale(to_matrix(g), TO_UNIT, g.viewbox) for g in graphics]


def cmd_train_vq(ns) -> int:
    cfg, _ = load_pipeline_config(ns.config)
    matrices = _load_corpus_matrices(Path(ns.corpus))
    store, codebook, logs = train_vq(matrices, cfg)
    save_vq_checkpoint(ns.out, store, codebook, cfg)
    if ns.log:
        Path(ns.log).write_text(json.dumps(logs, sort_keys=True))
    final = logs[-1] if logs else {}
    print(
        f"trained {len(matrices)} matrices for {len(logs)} steps; "
        f"final recon {final.get('recon', float('nan')):.6g}; wrote {ns.out}"
    )
    for level, usage in enumerate(codebook.usage):
        print(
            f"codebook level {level}: {np.count_nonzero(usage)} of {len(usage)} "
            "entries used in the last epoch"
        )
    print(f"reseeded {codebook.reseeded} dead entries in all")
    return 0


def cmd_tokenize(ns) -> int:
    store, codebook, cfg = load_vq_checkpoint(ns.ckpt)
    src = Path(ns.in_path)
    dst = Path(ns.out)
    if src.is_dir():
        dst.mkdir(parents=True, exist_ok=True)
        files = sorted(src.glob("*.json"))
        if not files:
            raise StroketokError(f"no .json graphics in {src}")
        for p in files:
            seq = tokenize(load_graphic(p.read_text()), store, codebook, cfg)
            save_tokens(seq, str(dst / f"{p.stem}.tok"))
        print(f"tokenized {len(files)} graphics into {dst}")
    else:
        seq = tokenize(_load_graphic_file(src), store, codebook, cfg)
        save_tokens(seq, str(dst))
        print(f"wrote {len(seq.tokens)} tokens to {dst}")
    return 0


def cmd_detokenize(ns) -> int:
    store, codebook, cfg = load_vq_checkpoint(ns.ckpt)
    seq = load_tokens(ns.in_path)
    check_layout(ns.in_path, seq.layout, ns.ckpt, cfg.layout)
    if ns.meta:
        meta_g = _load_graphic_file(Path(ns.meta))
        seq.meta["viewbox"] = list(meta_g.viewbox)
        seq.meta["orig_len"] = meta_g.command_count()
        seq.meta["keywords"] = list(meta_g.keywords)
    g, report = detokenize(seq, store, codebook, cfg, fixer=ns.fixer)
    out = Path(ns.out)
    _write_decoded(g, report, out)
    print(f"decoded {len(seq.tokens)} tokens -> {out}")
    return 0


def cmd_train_lm(ns) -> int:
    _, cfg = load_pipeline_config(ns.config)
    tokens_dir = Path(ns.tokens)
    corpus_dir = Path(ns.corpus) if ns.corpus else tokens_dir
    tok_files = sorted(tokens_dir.glob("*.tok"))
    if not tok_files:
        raise StroketokError(f"no .tok files in {tokens_dir}")
    pairs = []
    first = None  # (path, layout) of the first token file read
    for p in tok_files:
        side = corpus_dir / f"{p.stem}.json"
        if not side.exists():
            log.warning("no keywords for %s (missing %s); skipped", p.stem, side)
            continue
        g = load_graphic(side.read_text())
        if not g.keywords:
            log.warning("empty keywords for %s; skipped", p.stem)
            continue
        seq = load_tokens(str(p))
        first = first or (str(p), seq.layout)
        check_layout(str(p), seq.layout, *first)
        pairs.append((list(g.keywords), seq))
    if not pairs:
        raise StroketokError("no usable (keywords, tokens) pairs")
    store, vocab, logs = train_lm(pairs, cfg)
    save_lm_checkpoint(ns.out, store, vocab, cfg)
    if ns.log:
        Path(ns.log).write_text(json.dumps(logs, sort_keys=True))
    print(
        f"trained on {len(pairs)} pairs for {len(logs)} steps; "
        f"final CE {logs[-1]['ce']:.4f}; wrote {ns.out}"
    )
    return 0


def cmd_generate(ns) -> int:
    lm_store, vocab, lm_cfg = load_lm_checkpoint(ns.lm)
    vq_store, codebook, vq_cfg = load_vq_checkpoint(ns.vq)
    check_layout(ns.lm, vocab.layout, ns.vq, vq_cfg.layout)
    keywords = ns.keywords.split()
    seq = lm_generate(keywords, lm_store, vocab, lm_cfg, ns.temperature, ns.top_k, ns.seed)
    if not seq.tokens:
        raise StroketokError("model generated an empty token sequence")
    g, report = detokenize(seq, vq_store, codebook, vq_cfg, fixer=ns.fixer)
    out = Path(ns.out)
    _write_decoded(g, report, out)
    if ns.tokens_out:
        save_tokens(seq, ns.tokens_out)
    stop = "stopped at length cap" if seq.meta["truncated"] else "stopped at EOS"
    print(
        f"generated {len(seq.tokens)} tokens (raw {seq.meta['raw_len']}, {stop}) "
        f"from {keywords!r} -> {out}"
    )
    return 0


def _evaluate_one(golden_path: Path, cand_path: Path, vq, ns):
    store, codebook, cfg = vq
    golden = simplify(load_graphic(golden_path.read_text()))
    candidate = simplify(_load_graphic_file(cand_path))
    gold_seq = tokenize(golden, store, codebook, cfg)
    cand_seq = tokenize(candidate, store, codebook, cfg)
    cr = compression_ratio(code_length(golden), len(gold_seq.tokens))
    return {
        "edit": edit_score(golden, candidate),
        "cr": cr,
        "cr_inverse": 1.0 / cr,
        "recall": recall_score(gold_seq, cand_seq),
        "pixel_iou": pixel_iou(golden, candidate, res=ns.res, stroke_px=ns.stroke_px),
    }


def cmd_evaluate(ns) -> int:
    golden_dir, cand_dir = Path(ns.golden), Path(ns.candidate)
    golden_files = sorted(golden_dir.glob("*.json"))
    if not golden_files:
        raise StroketokError(f"no golden .json graphics in {golden_dir}")
    pairs = []
    for p in golden_files:
        for ext in (".json", ".svg"):
            cand = cand_dir / (p.stem + ext)
            if cand.exists():
                pairs.append((p, cand))
                break
        else:
            log.warning("no candidate for %s; skipped", p.stem)
    if not pairs:
        raise StroketokError("no golden/candidate pairs found")
    vq = load_vq_checkpoint(ns.ckpt)

    rows = [{"name": g.stem, **_evaluate_one(g, cand, vq, ns)} for g, cand in pairs]
    metrics_keys = ("edit", "cr", "cr_inverse", "recall", "pixel_iou")
    aggregates = {
        "mean": {k: statistics.fmean(r[k] for r in rows) for k in metrics_keys},
        "median": {k: statistics.median(r[k] for r in rows) for k in metrics_keys},
    }
    report = {
        "format": REPORT_FORMAT_VERSION,
        "records": rows,
        "aggregates": aggregates,
    }
    Path(ns.report).write_text(json.dumps(report, sort_keys=True, indent=1))
    mean = aggregates["mean"]
    print(
        f"evaluated {len(rows)} pairs: edit {mean['edit']:.4f}, "
        f"CR {mean['cr']:.3f} (inverse {mean['cr_inverse']:.4f}), "
        f"recall {mean['recall']:.4f}, IoU {mean['pixel_iou']:.4f}"
    )
    return 0


def cmd_render(ns) -> int:
    g = _load_graphic_file(Path(ns.in_path))
    grid = rasterize(g, ns.res, stroke_px=ns.stroke_px)
    out = Path(ns.out)
    if out.suffix == ".pbm":
        save_pbm(grid, str(out))
    else:
        save_png(grid, str(out))
    print(f"rendered {ns.in_path} at {ns.res}x{ns.res} -> {out}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stroketok",
        description="Tokenize vector graphics into discrete stroke tokens, "
        "train the codec and a toy generator, and evaluate reconstructions.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version="stroketok "
        + __version__
        + "; formats: "
        + "; ".join(_FORMAT_VERSIONS),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="write a deterministic synthetic corpus")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_synth)

    p = sub.add_parser("preprocess", help="simplify and filter a corpus directory")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-commands", type=int, default=1024)
    p.add_argument("--min-commands", type=int, default=2)
    p.add_argument("--min-keywords", type=int, default=0)
    p.set_defaults(fn=cmd_preprocess)

    p = sub.add_parser("train-vq", help="train the stroke-token codec")
    p.add_argument("--corpus", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None)
    p.set_defaults(fn=cmd_train_vq)

    p = sub.add_parser("tokenize", help="graphics -> stroke token files")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_tokenize)

    p = sub.add_parser("detokenize", help="stroke token file -> graphic")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--meta", default=None, help="source graphic for viewbox/length")
    p.add_argument("--fixer", choices=FIXERS, default=FIXERS[0])
    p.set_defaults(fn=cmd_detokenize)

    p = sub.add_parser("train-lm", help="train the keyword-conditioned generator")
    p.add_argument("--tokens", required=True)
    p.add_argument("--corpus", default=None, help="dir with matching .json keywords")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None)
    p.set_defaults(fn=cmd_train_lm)

    p = sub.add_parser("generate", help="keywords -> SVG via the trained models")
    p.add_argument("--lm", required=True)
    p.add_argument("--vq", required=True)
    p.add_argument("--keywords", required=True)
    p.add_argument("--fixer", choices=FIXERS, default=FIXERS[0])
    p.add_argument("--out", required=True)
    p.add_argument("--tokens-out", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--top-k", dest="top_k", type=int, default=0)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("evaluate", help="score candidate graphics against golden")
    p.add_argument("--golden", required=True)
    p.add_argument("--candidate", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--res", type=int, default=128)
    p.add_argument("--stroke-px", dest="stroke_px", type=int, default=2)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("render", help="rasterize a graphic to PNG/PBM")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--res", type=int, default=256)
    p.add_argument("--stroke-px", dest="stroke_px", type=int, default=1)
    p.set_defaults(fn=cmd_render)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return ns.fn(ns)
    except (StroketokError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
