"""Byte-identity manifest: run a tiny seeded pipeline through the CLI and
print one `sha256  relative/path` line per artifact, sorted by path.

    PYTHONPATH=src python tools/artifact_manifest.py [--workdir DIR] > manifest.txt

The pipeline is gen-synth -> preprocess -> train-vq -> tokenize ->
detokenize (with --meta, and once without it) -> render (one
reconstruction, to PNG and to PBM) -> train-lm -> generate (greedy,
sampled, top-k sampled, and greedy with the PI fixer) -> evaluate,
in-process through `stroketok.cli.main`, with the training logs written
too. Every step is seeded, so two checkouts that produce the same bytes
print the same manifest: a change meant to keep every artifact's bytes is
checked with `diff parent.txt change.txt`. Without --workdir the run
happens in a temporary directory that is removed afterwards.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from stroketok import cli

# small enough to run in a few seconds, big enough that k-means, both RVQ
# levels, two compression stages and dead-entry reseeding all run
TINY_CONFIG = """\
compression_stages = 2
channels = 16,16
code_dim = 8
codebook_size = 16
batch_size = 4
steps = 12
lm_embed_dim = 16
lm_layers = 1
lm_heads = 2
lm_max_len = 48
lm_steps = 6
lm_batch_size = 4
"""


def run_pipeline(workdir: Path) -> None:
    """Write every artifact of the tiny pipeline under `workdir`."""
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "tiny.cfg").write_text(TINY_CONFIG)

    def run(*argv) -> None:
        args = [str(a) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(args)
        if code != 0:
            raise RuntimeError(f"stroketok {' '.join(args)} exited {code}")

    w = workdir
    run("gen-synth", "--n", 12, "--seed", 7, "--out", w / "raw")
    run("preprocess", "--in", w / "raw", "--out", w / "corpus", "--max-commands", 40)
    run("train-vq", "--corpus", w / "corpus", "--config", w / "tiny.cfg",
        "--out", w / "vq.ckpt", "--log", w / "vq_log.json")
    run("tokenize", "--ckpt", w / "vq.ckpt", "--in", w / "corpus", "--out", w / "tok")
    (w / "rec").mkdir()
    corpus = sorted((w / "corpus").glob("*.json"))
    for p in corpus:
        run("detokenize", "--ckpt", w / "vq.ckpt", "--in", w / "tok" / f"{p.stem}.tok",
            "--out", w / "rec" / p.name, "--meta", p)
    # no --meta: the default viewbox, and the pad rows decoded too
    run("detokenize", "--ckpt", w / "vq.ckpt", "--in", w / "tok" / f"{corpus[0].stem}.tok",
        "--out", w / "rec_no_meta.json")
    for ext in (".png", ".pbm"):
        run("render", "--in", w / "rec" / corpus[0].name, "--out", w / f"render{ext}")
    run("train-lm", "--tokens", w / "tok", "--corpus", w / "corpus",
        "--config", w / "tiny.cfg", "--out", w / "lm.ckpt", "--log", w / "lm_log.json")
    (w / "gen").mkdir()
    for name, flags in (("greedy", ("--temperature", 0)),
                        ("sampled", ("--temperature", 1, "--seed", 3)),
                        ("top_k", ("--temperature", 0.7, "--top-k", 5, "--seed", 3)),
                        ("greedy_pi", ("--temperature", 0, "--fixer", "pi"))):
        run("generate", "--lm", w / "lm.ckpt", "--vq", w / "vq.ckpt",
            "--keywords", "circle", *flags, "--out", w / "gen" / f"{name}.json",
            "--tokens-out", w / "gen" / f"{name}.tok")
    run("evaluate", "--golden", w / "corpus", "--candidate", w / "rec",
        "--ckpt", w / "vq.ckpt", "--report", w / "report.json")


def manifest(workdir: Path) -> list[str]:
    """`sha256  relative/path` for every file under `workdir`, sorted."""
    lines = []
    for p in sorted(q for q in workdir.rglob("*") if q.is_file()):
        digest = hashlib.sha256(p.read_bytes()).hexdigest()
        lines.append(f"{digest}  {p.relative_to(workdir).as_posix()}")
    return lines


def build_manifest(workdir: Path) -> list[str]:
    run_pipeline(workdir)
    return manifest(workdir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workdir", default=None,
                        help="where to run (must not exist yet); default: a temporary dir")
    ns = parser.parse_args(argv)
    if ns.workdir:
        workdir = Path(ns.workdir)
        if workdir.exists():
            parser.error(f"{workdir} already exists")
        lines = build_manifest(workdir)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            lines = build_manifest(Path(tmp) / "run")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
