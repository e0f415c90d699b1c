"""Pipeline benchmark: drives `stroketok.cli.main(argv)` in-process.

    python3 perfbench/run.py --workload short-corpus --seed 1 --seconds 40 --trace 0

After set-up (a fresh interpreter importing the program, then writing and
preprocessing the workload corpus), a run is a sequence of identical rounds
until --seconds is spent. Every round runs train-vq, tokenize + detokenize,
train-lm, generate and evaluate once, then checks the outputs; after every
second round the set-up is timed again. Each timing metric is the median
over the run's rounds (or set-ups), so a slow spell of the host hits every
stage alike. With --trace 1 every other round runs with span wrappers
installed (tracer.py); the per-layer table comes from those rounds and the
tracing overhead from comparing them with the untraced ones.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (end-to-end with --trace 0, per-layer with --trace 1). Each CLI call
and each check is one operation; a non-zero exit or a failed check counts as
failed.
"""

import os
import sys

if __name__ == "__main__":
    # one thread everywhere: BLAS is pinned before numpy loads, here and in
    # the interpreters that time the import
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
from program import import_program  # noqa: E402
from workloads import WORKLOADS, build_long_corpus, pick_from_pool  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
# gen-synth pool size, per graphic of a pooled corpus
POOL = 8


def time_import() -> float:
    """Wall time of a fresh interpreter, from its start to its exit, that
    imports the program compiled from source."""
    code = f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); import program; program.import_program()"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-B", "-c", code], check=True)
    return time.perf_counter() - t0


class Ops:
    """Counts operations; runs CLI calls and checks."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0

    def call(self, argv: list, tracer=None) -> float | None:
        """One CLI call; its wall time, or None when it failed."""
        argv = [str(a) for a in argv]
        self.attempted += 1
        span = tracer.stage_span(argv[0]) if tracer else contextlib.nullcontext()
        try:
            with contextlib.redirect_stdout(io.StringIO()), span:
                t0 = time.perf_counter()
                rc = self.cli.main(argv)
                dt = time.perf_counter() - t0
        except Exception:
            traceback.print_exc()
            rc = -1
        if rc != 0:
            self.failed += 1
            print(f"failed ({rc}): stroketok {' '.join(argv)}", file=sys.stderr)
            return None
        return dt

    def check(self, name: str, fn, *args):
        """One check; its return value, or None when it failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as e:
            self.failed += 1
            print(f"check {name} failed: {e}", file=sys.stderr)
            return None


def make_corpus(w, seed: int, d: Path, ops: Ops, tracer=None) -> None:
    raw = d / "raw"
    if w.pooled:
        ops.call(["gen-synth", "--n", POOL * w.n_graphics, "--seed", seed, "--out", d / "pool"], tracer)
        pick_from_pool(w.lengths, d / "pool", raw)
    else:
        build_long_corpus(w.lengths, seed, raw)
    ops.call(["preprocess", "--in", raw, "--out", d / "corpus"], tracer)
    (d / "pipeline.cfg").write_text(w.config_text())


def set_up(w, seed: int, d: Path, ops: Ops, tracer=None):
    """One set-up in d: a fresh interpreter imports the program, then the
    corpus is written and preprocessed and the benchmark loads it. Returns
    the Bench and the set-up time."""
    import_s = time_import()
    with tracer.installed() if tracer else contextlib.nullcontext():
        t0 = time.perf_counter()
        make_corpus(w, seed, d, ops, tracer)
        bench = Bench(w, d, ops)
    return bench, import_s + time.perf_counter() - t0


class Bench:
    """One workload's inputs, rounds and checks."""

    def __init__(self, w, work: Path, ops: Ops):
        from stroketok.svg_io import load_graphic, simplify
        from stroketok.vq_codec import CodecConfig

        self.w = w
        self.work = work
        self.ops = ops
        self.corpus = work / "corpus"
        self.cfg = work / "pipeline.cfg"
        files = sorted(self.corpus.glob("*.json"))
        if len(files) != w.n_graphics:
            raise SystemExit(f"error: corpus holds {len(files)} graphics, expected {w.n_graphics}")
        graphics = {p.stem: load_graphic(p.read_text()) for p in files}
        self.graphics = graphics
        self.counts = {k: g.command_count() for k, g in graphics.items()}
        if not w.pooled and sorted(self.counts.values()) != sorted(w.lengths):
            raise SystemExit(f"error: corpus command counts {sorted(self.counts.values())}")
        codec = CodecConfig(**w.codec)
        self.depth, self.size, self.stages = codec.rvq_depth, codec.codebook_size, codec.compression_stages
        eval_names = [p.stem for p in files[: w.n_eval]]
        if w.n_eval is None:
            self.golden = self.corpus
        else:
            self.golden = work / "golden"
            self.golden.mkdir()
            for name in eval_names:
                shutil.copy(self.corpus / f"{name}.json", self.golden)
        self.eval_golden = {n: simplify(graphics[n]) for n in eval_names}
        self.prompts = [list(graphics[p.stem].keywords) for p in files[: w.n_prompts]]
        self.first_digest = None
        self.quality = {}
        self.raw_lens = None
        self.token_counts = {}

    def round(self, r: int, tracer=None) -> dict:
        """Run every stage once, then every check. Returns stage times."""
        ops, rd = self.ops, self.work / f"round{r}"
        rd.mkdir()
        vq, lm, tok, rec, gen = rd / "vq.ckpt", rd / "lm.ckpt", rd / "tok", rd / "rec", rd / "gen"
        rec.mkdir()
        gen.mkdir()
        t = {}
        install = tracer.installed() if tracer else contextlib.nullcontext()
        with install:
            t["train_vq"] = ops.call(
                ["train-vq", "--corpus", self.corpus, "--config", self.cfg, "--out", vq], tracer
            )
            recon = [ops.call(["tokenize", "--ckpt", vq, "--in", self.corpus, "--out", tok], tracer)]
            for name in self.counts:
                recon.append(ops.call(
                    ["detokenize", "--ckpt", vq, "--in", tok / f"{name}.tok",
                     "--out", rec / f"{name}.json", "--meta", self.corpus / f"{name}.json"],
                    tracer,
                ))
            t["recon"] = None if None in recon else sum(recon)
            t["train_lm"] = ops.call(
                ["train-lm", "--tokens", tok, "--corpus", self.corpus, "--config", self.cfg,
                 "--out", lm], tracer
            )
            t["gen"] = [
                ops.call(
                    ["generate", "--lm", lm, "--vq", vq, "--keywords", " ".join(kw),
                     "--temperature", "0", "--out", gen / f"g{k}.json",
                     "--tokens-out", gen / f"g{k}.tok"],
                    tracer,
                )
                for k, kw in enumerate(self.prompts)
            ]
            t["eval"] = ops.call(
                ["evaluate", "--golden", self.golden, "--candidate", rec, "--ckpt", vq,
                 "--report", rd / "report.json"],
                tracer,
            )
        self.check_round(r, rd)
        if r > 1:
            shutil.rmtree(rd)
        return t

    # -- checks -----------------------------------------------------------

    def check_round(self, r: int, rd: Path) -> None:
        """The same checks every round, so every round attempts as many
        operations. Quality is read in round 1; later rounds must repeat its
        bytes."""
        ops = self.ops
        ops.check("tokens", self._check_tokens, rd)
        ops.check("chain", self._check_chains, rd)
        ops.check("edit", self._check_edit, rd)
        ops.check("cr", self._check_cr, rd)
        lm_ce = ops.check("lm_ce", self._check_lm_ce, rd)
        self.raw_lens = ops.check("generation", self._check_generation, rd)
        digest = ops.check("digest", checks.digest_tree, rd)
        if r == 1:
            self.first_digest = digest
            self.quality = ops.check("quality", self._quality, rd, lm_ce) or {}
        else:
            ops.check("same_bytes", checks.check_same_bytes, self.first_digest or {}, digest or {})

    def _check_tokens(self, rd: Path) -> None:
        layout = {"d": self.depth, "B": self.size, "stages": self.stages}
        self.token_counts = {}
        for name, n in self.counts.items():
            head, toks = checks.read_tokens(rd / "tok" / f"{name}.tok")
            if head != layout:
                raise checks.CheckFailed(f"{name}.tok header {head} != {layout}")
            want = checks.expected_token_count(n, self.depth, self.stages)
            checks.check_tokens(toks, self.depth, self.size, want)
            self.token_counts[name] = len(toks)
        for p in sorted((rd / "gen").glob("*.tok")):
            checks.check_tokens(checks.read_tokens(p)[1], self.depth, self.size, None)

    def _check_chains(self, rd: Path) -> None:
        outputs = [
            p for sub in ("rec", "gen") for p in sorted((rd / sub).glob("*.json"))
            if not p.name.endswith(".fixreport.json")
        ]
        if len(outputs) != len(self.counts) + len(self.prompts):
            raise FileNotFoundError(f"{len(outputs)} fixed outputs in {rd}")
        for p in outputs:
            checks.check_chain(p.read_text())

    def _check_edit(self, rd: Path) -> None:
        from stroketok.svg_io import load_graphic, simplify

        pairs = {
            name: (g, simplify(load_graphic((rd / "rec" / f"{name}.json").read_text())))
            for name, g in self.eval_golden.items()
        }
        checks.check_edit(_report(rd), pairs)

    def _check_cr(self, rd: Path) -> None:
        checks.check_cr(_report(rd), self.counts, self.token_counts)

    def _lm(self, rd: Path):
        from stroketok.stroke_lm import load_lm_checkpoint

        return load_lm_checkpoint(str(rd / "lm.ckpt"))

    def _check_lm_ce(self, rd: Path) -> float:
        from stroketok.stroke_lm import build_prompt, sequence_loss
        from stroketok.tensor_engine import no_grad

        store, vocab, cfg = self._lm(rd)
        ces = []
        with no_grad():
            for name, g in self.graphics.items():
                toks = checks.read_tokens(rd / "tok" / f"{name}.tok")[1]
                prompt = build_prompt(list(g.keywords), vocab)
                ces.append(float(sequence_loss(prompt, toks, store, vocab, cfg).data))
        lm_ce = statistics.fmean(ces)
        checks.check_lm_ce(lm_ce, vocab.total)
        return lm_ce

    def _check_generation(self, rd: Path) -> list[tuple[int, bool]]:
        from stroketok.stroke_lm import build_prompt, forward_logits
        from stroketok.tensor_engine import no_grad

        store, vocab, cfg = self._lm(rd)
        out = []
        for k, kw in enumerate(self.prompts):
            prompt = build_prompt(kw, vocab)

            def logits_fn(ids):
                with no_grad():
                    return forward_logits(prompt, [vocab.bos_id] + ids, store, vocab, cfg).data

            toks = checks.read_tokens(rd / "gen" / f"g{k}.tok")[1]
            out.append(checks.check_generation(
                toks, logits_fn, eos=vocab.eos_id, masked=(vocab.pad_id, vocab.bos_id),
                cap=cfg.max_len - len(prompt) - 1, depth=vocab.rvq_depth,
            ))
        return out

    def _quality(self, rd: Path, lm_ce: float | None) -> dict:
        mean = _report(rd)["aggregates"]["mean"]
        return {"recon_mse": self._recon_mse(rd), "lm_ce": lm_ce, "recon_edit": mean["edit"],
                "recon_iou": mean["pixel_iou"], "cr": mean["cr"]}

    def _recon_mse(self, rd: Path) -> float:
        """Unit-space MSE between each corpus matrix and the decode of its
        quantized latent, with no fixer, pooled over every matrix entry."""
        import numpy as np
        from stroketok.matrix_codec import TO_UNIT, scale, to_matrix
        from stroketok.tensor_engine import no_grad
        from stroketok.vq_codec import decode, encode, load_vq_checkpoint, quantize_residual

        store, codebook, cfg = load_vq_checkpoint(str(rd / "vq.ckpt"))
        total, count = 0.0, 0
        with no_grad():
            for g in self.graphics.values():
                m = scale(to_matrix(g), TO_UNIT, g.viewbox)
                z, pad = encode(m, cfg, store)
                zq, _ = quantize_residual(z, codebook)
                rec = decode(zq, cfg, store, pad=pad)
                total += float(np.sum((rec.rows - m.rows) ** 2))
                count += m.rows.size
        return total / count


def _report(rd: Path) -> dict:
    return json.loads((rd / "report.json").read_text())


def end_to_end(w, bench: Bench, times: list[dict], setup_s: float) -> dict:
    def med(values):
        return statistics.median(values) if values else float("nan")

    n = len(bench.counts)
    lm_tokens = w.lm_epochs() * sum(c + 1 for c in bench.token_counts.values())
    raw = sum(length for length, _ in bench.raw_lens or [])
    ok = [t for t in times if None not in (t["train_vq"], t["recon"], t["train_lm"], t["eval"], *t["gen"])]
    q = bench.quality
    values = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "train_vq_steps_per_s": (med([w.vq_steps / t["train_vq"] for t in ok]), "steps/s"),
        "train_lm_tokens_per_s": (med([lm_tokens / t["train_lm"] for t in ok]), "tokens/s"),
        "recon_graphics_per_s": (med([n / t["recon"] for t in ok]), "graphics/s"),
        "gen_graphic_s": (med([statistics.fmean(t["gen"]) for t in ok]), "s"),
        "gen_tokens_per_s": (med([raw / sum(t["gen"]) for t in ok]), "tokens/s"),
        "eval_pairs_per_s": (med([len(bench.eval_golden) / t["eval"] for t in ok]), "pairs/s"),
        "recon_mse": (q.get("recon_mse"), "mse"),
        "lm_ce": (q.get("lm_ce"), "nats"),
        "recon_edit": (q.get("recon_edit"), "ratio"),
        "recon_iou": (q.get("recon_iou"), "ratio"),
        "cr": (q.get("cr"), "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(w, bench: Bench, tracer, rounds: list[int], overhead: float, corpus_tok: Path) -> tuple[dict, dict]:
    """Per-round self times and exact counts from the traced rounds."""
    import numpy as np

    a = tracer.arrays()
    names = np.array(tracer.names + [""])
    name = names[a["name"]]
    root = names[a["name"][a["root"]]]
    traced = np.isin(a["round"], rounds)
    k = len(rounds)

    def self_s(*span_names):
        return float(a["self"][np.isin(name, span_names) & traced].sum()) / k

    def spans(*span_names):
        return int((np.isin(name, span_names) & traced).sum()) / k

    engine = np.char.startswith(name.astype(str), "tensor_engine.")

    def ops_per_step(stage, steps):
        return int((engine & a["grad"] & traced & (root == f"cli.{stage}")).sum()) / (steps * k)

    def count(key):
        return sum(v for (r, c), v in tracer.counts.items() if c == key and r in rounds) / k

    named_ops = ["tensor_engine." + op for op in (
        "optimizer_step", "conv1d", "conv_transpose1d", "backward", "matmul", "softmax", "layer_norm")]
    other_ops = float(a["self"][engine & traced & ~np.isin(name, named_ops)].sum()) / k
    used = [set() for _ in range(bench.depth)]
    for p in corpus_tok.glob("*.tok"):
        for t in checks.read_tokens(p)[1]:
            level, entry = divmod(t, bench.size)
            used[level].add(entry)
    generated = count("generated")
    values = {
        "cli.ckpt_load_s": (self_s("cli.ckpt_load"), "s"),
        "cli.ckpt_loads": (spans("cli.ckpt_load"), "count"),
        "svg_io.load_graphic_s": (self_s("svg_io.load_graphic"), "s"),
        "svg_io.dump_graphic_s": (self_s("svg_io.dump_graphic"), "s"),
        # set-up is traced as round 0; this one is per set-up, not per round
        "svg_io.preprocess_s": (
            float(a["self"][np.isin(name, ("svg_io.simplify", "svg_io.preprocess")) & (a["round"] == 0)].sum()),
            "s",
        ),
        "matrix_codec.to_matrix_s": (self_s("matrix_codec.to_matrix"), "s"),
        "matrix_codec.from_matrix_s": (self_s("matrix_codec.from_matrix"), "s"),
        "tensor_engine.vq_ops_per_step": (ops_per_step("train-vq", w.vq_steps), "count"),
        "tensor_engine.lm_ops_per_step": (ops_per_step("train-lm", w.lm_steps), "count"),
        **{f"{n}_s": (self_s(n), "s") for n in named_ops},
        "tensor_engine.other_ops_s": (other_ops, "s"),
        "vq_codec.encode_s": (self_s("vq_codec.encode"), "s"),
        "vq_codec.quantize_residual_s": (self_s("vq_codec.quantize_residual"), "s"),
        "vq_codec.decode_s": (self_s("vq_codec.decode"), "s"),
        "vq_codec.init_codebook_kmeans_s": (self_s("vq_codec.init_codebook_kmeans"), "s"),
        "vq_codec.reseeded_entries": (count("reseeded_entries"), "count"),
        **{f"vq_codec.codebook_used.level{i}": (len(u), "count") for i, u in enumerate(used)},
        "stroke_lm.forward_logits_s": (self_s("stroke_lm.forward_logits"), "s"),
        "stroke_lm.gen_positions": (count("gen_positions") / generated if generated else 0.0, "count"),
        "stroke_lm.sequence_loss_s": (self_s("stroke_lm.sequence_loss"), "s"),
        "stroke_lm.gen_truncated": (count("gen_truncated"), "count"),
        "fixer.fix_pc_s": (self_s("fixer.fix_pc"), "s"),
        "fixer.repairs": (count("repairs"), "count"),
        "metrics.edit_score_s": (self_s("metrics.edit_score"), "s"),
        "metrics.pixel_iou_s": (self_s("metrics.pixel_iou"), "s"),
        "render.rasterize_s": (self_s("render.rasterize"), "s"),
        "trace.overhead": (overhead, "ratio"),
    }
    # each stage's inclusive time per round, and each layer's self time
    # inside it, for shares such as checkpoint reloads within evaluate
    by_stage = {}
    for stage in sorted(set(root[traced & (a["parent"] < 0)])):
        in_stage = traced & (root == stage)
        top = in_stage & (a["parent"] < 0)
        layers = {n: float(a["self"][in_stage & (name == n)].sum()) / k for n in sorted(set(name[in_stage]))}
        by_stage[stage] = {"total_s": float(a["dur"][top].sum()) / k, "self_s": layers}
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, by_stage


def run(w, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    cli = import_program()
    from tracer import Tracer

    ops = Ops(cli)
    tracer = Tracer() if trace else None
    work = out_dir / f"work-{w.name}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        bench, first = set_up(w, seed, work, ops, tracer)
        setup_times = [first]

        times, walls, traced_rounds, traced_walls = [], [], [], []
        start = time.perf_counter()
        r = 0
        while True:
            r += 1
            traced = trace and r % 2 == 0
            if tracer:
                tracer.round_no = r
            t = bench.round(r, tracer if traced else None)
            stage_sum = sum(v for v in (t["train_vq"], t["recon"], t["train_lm"], t["eval"], *t["gen"]) if v)
            if traced:
                traced_rounds.append(r)
                traced_walls.append(stage_sum)
            else:
                times.append(t)
                walls.append(stage_sum)
            # further set-ups between rounds, so that setup_s samples the
            # host's speed over the whole run rather than in its first seconds
            if r % 2 == 0:
                d = work / f"setup{r}"
                d.mkdir()
                setup_times.append(set_up(w, seed, d, ops)[1])
                shutil.rmtree(d)
            # stop before a round that would end past the budget
            elapsed = time.perf_counter() - start
            if (traced_rounds or not trace) and elapsed * (r + 1) / r > seconds:
                break
        # round 1 is warm-up (first calls, cold caches) unless it is the only one
        times, walls = times[1:] or times, walls[1:] or walls
        if trace:
            overhead = statistics.median(traced_walls) / statistics.median(walls)
            metrics, by_stage = per_layer(w, bench, tracer, traced_rounds, overhead, work / "round1" / "tok")
            stem = out_dir / f"{w.name}-seed{seed}"
            tracer.write(stem.with_name(stem.name + "-spans.tsv.gz"))
            stem.with_name(stem.name + "-layers.json").write_text(json.dumps(
                {"workload": w.name, "seed": seed, "traced_rounds": traced_rounds,
                 "metrics": metrics, "by_stage": by_stage}, indent=1, sort_keys=True))
        else:
            metrics = end_to_end(w, bench, times, statistics.median(setup_times))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), OUT_DIR)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
