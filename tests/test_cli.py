import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import numpy as np

from hypothesis import given, settings
from hypothesis import strategies as st

from stroketok import cli
from stroketok import tensor_engine as te
from stroketok.artifacts import (
    CorruptCheckpoint,
    load_named_tensors,
    save_named_tensors,
)
from stroketok.stroke_lm import generate, load_lm_checkpoint
from stroketok.vq_codec import load_vq_checkpoint

TINY_CONFIG = """\
steps = 3
codebook_size = 16
channels = 16
code_dim = 16
lm_embed_dim = 16
lm_layers = 1
lm_heads = 2
lm_max_len = 40
lm_steps = 3
"""


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A tiny corpus run through train-vq, tokenize, detokenize and train-lm."""
    d = tmp_path_factory.mktemp("pipeline")
    cfg = d / "tiny.cfg"
    cfg.write_text(TINY_CONFIG)
    corpus, tok, rec = d / "corpus", d / "tok", d / "rec"

    def run(*argv):
        assert cli.main([str(a) for a in argv]) == 0

    run("gen-synth", "--n", 6, "--seed", 0, "--out", corpus)
    run("train-vq", "--corpus", corpus, "--config", cfg, "--out", d / "vq.ckpt")
    run("tokenize", "--ckpt", d / "vq.ckpt", "--in", corpus, "--out", tok)
    rec.mkdir()
    for p in sorted(corpus.glob("*.json")):
        run("detokenize", "--ckpt", d / "vq.ckpt", "--in", tok / f"{p.stem}.tok",
            "--out", rec / p.name, "--meta", p)
    run("train-lm", "--tokens", tok, "--corpus", corpus, "--config", cfg,
        "--out", d / "lm.ckpt")
    return d


def test_train_vq_reports_codebook_health(pipeline, capsys, monkeypatch):
    """train-vq prints each level's entries used in the last epoch (the
    usage counts its checkpoint stores) and the reseeded entries, summed
    over every reseed_dead_entries call of the run."""
    from stroketok import vq_codec

    d = pipeline
    reseeded = []
    real = vq_codec.reseed_dead_entries

    def counting(*args):
        reseeded.append(real(*args))
        return reseeded[-1]

    monkeypatch.setattr(vq_codec, "reseed_dead_entries", counting)
    capsys.readouterr()
    assert cli.main([
        "train-vq", "--corpus", str(d / "corpus"), "--config", str(d / "tiny.cfg"),
        "--out", str(d / "vq_health.ckpt"),
    ]) == 0
    lines = capsys.readouterr().out.splitlines()
    _, codebook, _ = vq_codec.load_vq_checkpoint(str(d / "vq_health.ckpt"))
    assert len(codebook.usage) == 2 and len(reseeded) == 2
    assert lines[1:] == [
        f"codebook level {level}: {np.count_nonzero(usage)} of 16 entries used "
        "in the last epoch"
        for level, usage in enumerate(codebook.usage)
    ] + [f"reseeded {sum(reseeded)} dead entries in all"]
    assert sum(reseeded) > 0


def test_generate_reports_raw_length_and_cap(pipeline, capsys):
    d = pipeline
    store, vocab, cfg = load_lm_checkpoint(str(d / "lm.ckpt"))
    stops = set()
    for seed in range(6):
        capsys.readouterr()
        assert cli.main([
            "generate", "--lm", str(d / "lm.ckpt"), "--vq", str(d / "vq.ckpt"),
            "--keywords", "circle", "--temperature", "1", "--seed", str(seed),
            "--out", str(d / "gen.json"),
        ]) == 0
        line = capsys.readouterr().out.strip()
        m = re.fullmatch(
            r"generated (\d+) tokens \(raw (\d+), stopped at (length cap|EOS)\) "
            r"from .*",
            line,
        )
        assert m, line
        seq = generate(["circle"], store, vocab, cfg, 1.0, 0, seed)
        assert int(m.group(1)) == len(seq.tokens)
        assert int(m.group(2)) == seq.meta["raw_len"]
        assert (m.group(3) == "length cap") == seq.meta["truncated"]
        stops.add(m.group(3))
    # the seeds cover both ways a generation can stop
    assert stops == {"EOS", "length cap"}


def test_evaluate_loads_checkpoint_once(pipeline, monkeypatch):
    d = pipeline
    loads = []
    real = cli.load_vq_checkpoint

    def counting(path):
        loads.append(path)
        return real(path)

    monkeypatch.setattr(cli, "load_vq_checkpoint", counting)
    assert cli.main(["evaluate", "--golden", str(d / "corpus"), "--candidate",
                     str(d / "rec"), "--ckpt", str(d / "vq.ckpt"),
                     "--report", str(d / "r1.json")]) == 0
    assert loads == [str(d / "vq.ckpt")]


def test_loaders_build_stores_from_the_file_without_drawing(pipeline, monkeypatch):
    """A loaded store holds copies of the file's arrays and nothing drawn:
    with every rng constructor and `init_params` made to raise (numpy's
    Generator type is immutable, so its `normal` cannot be patched), both
    loaders still succeed. The stores hold no Adam moments, `prompt_embed`
    stays frozen, and every parameter is a writable array of its own."""
    d = pipeline

    def no_draws(*args, **kwargs):
        raise AssertionError("a loader drew initial weights")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    monkeypatch.setattr(te, "init_params", no_draws)
    vq_store = load_vq_checkpoint(str(d / "vq.ckpt"))[0]
    lm_store = load_lm_checkpoint(str(d / "lm.ckpt"))[0]
    monkeypatch.undo()

    assert not lm_store["prompt_embed"].requires_grad
    assert "prompt_embed" not in dict(lm_store.trainable())
    for name, store, records in (("vq.ckpt", vq_store, {"config", "codebook.usage"}),
                                 ("lm.ckpt", lm_store, {"config", "vocab"})):
        assert store._adam == {}
        named = load_named_tensors(str(d / name))
        params = {k: v for k, v in named.items() if k not in records}
        assert sorted(store._params) == sorted(params)
        for key, arr in params.items():
            data = store[key].data
            assert data.dtype == arr.dtype and data.shape == arr.shape
            assert data.tobytes() == arr.tobytes(), key
            assert data.flags.writeable and data.flags.owndata, key
        assert sorted(name for name, _ in store.trainable()) == sorted(
            set(params) - {"prompt_embed"})


def test_decoding_without_a_fixer_removes_a_stale_fix_report(pipeline, tmp_path):
    d = pipeline
    tok = sorted((d / "tok").glob("*.tok"))[0]
    for argv in (
        ["detokenize", "--ckpt", str(d / "vq.ckpt"), "--in", str(tok)],
        ["generate", "--lm", str(d / "lm.ckpt"), "--vq", str(d / "vq.ckpt"),
         "--keywords", "circle"],
    ):
        out = tmp_path / f"{argv[0]}.json"
        report = tmp_path / f"{argv[0]}.json.fixreport.json"
        assert cli.main(argv + ["--out", str(out), "--fixer", "pc"]) == 0
        assert report.exists()
        assert cli.main(argv + ["--out", str(out), "--fixer", "none"]) == 0
        assert out.exists() and not report.exists()
        # with no report to remove, decoding without a fixer still succeeds
        assert cli.main(argv + ["--out", str(out), "--fixer", "none"]) == 0


def test_flags_do_not_leak_between_main_calls(pipeline, tmp_path):
    d = pipeline
    base = ["generate", "--lm", str(d / "lm.ckpt"), "--vq", str(d / "vq.ckpt"),
            "--keywords", "circle"]

    def run(name, *flags):
        out, tok = tmp_path / f"{name}.json", tmp_path / f"{name}.tok"
        assert cli.main(base + ["--out", str(out), "--tokens-out", str(tok), *flags]) == 0
        return out.read_bytes() + tok.read_bytes()

    first = run("first")
    run("flagged", "--top-k", "5", "--temperature", "0.7", "--seed", "3", "--fixer", "pi")
    assert run("after") == first


def test_version_and_usage_errors_after_an_earlier_call(pipeline, capsys, tmp_path):
    assert cli.main(["gen-synth", "--n", "1", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert cli.main(["--version"]) == 0
    assert capsys.readouterr().out.startswith("stroketok ")
    assert cli.main(["generate", "--lm", "x.ckpt"]) == 2
    assert "usage: stroketok generate" in capsys.readouterr().err
    assert cli.main(["gen-synth", "--n", "1", "--out", str(tmp_path)]) == 0


def test_build_parser_builds_the_parser_once(monkeypatch, tmp_path):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    try:
        for _ in range(3):
            assert cli.main(["gen-synth", "--n", "1", "--out", str(tmp_path)]) == 0
        assert cli.main(["--version"]) == 0
        assert built.count("stroketok") == 1
        assert cli.build_parser() is cli.build_parser()
    finally:
        cli.build_parser.cache_clear()


def test_evaluate_bad_checkpoint_exits_1(pipeline, capsys):
    d = pipeline
    bad = d / "bad.ckpt"
    bad.write_bytes((d / "vq.ckpt").read_bytes()[:300])
    code = cli.main(["evaluate", "--golden", str(d / "corpus"), "--candidate",
                     str(d / "rec"), "--ckpt", str(bad), "--report",
                     str(d / "bad.json")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (d / "bad.json").exists()


@pytest.mark.parametrize("argv", [
    ["evaluate", "--golden", "g", "--candidate", "c", "--ckpt", "k", "--report", "r"],
    ["preprocess", "--in", "i", "--out", "o"],
], ids=["evaluate", "preprocess"])
def test_jobs_is_a_usage_error(argv, capsys):
    assert cli.main(argv + ["--jobs", "2"]) == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_cli_imports_no_process_pool():
    """Every subcommand runs in the calling process, so importing the CLI
    loads neither multiprocessing nor concurrent.futures."""
    code = ("import sys, stroketok.cli; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
            "if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


@pytest.mark.parametrize(
    "line, message",
    [
        ("lm_steps = 0", "lm_steps must be >= 1"),
        ("lm_embed_dim = 0", "lm_embed_dim must be >= 1"),
        ("lm_lr = nan", "lm_lr must be finite and > 0"),
        ("lr = -1", "lr must be finite and > 0"),
        ("lm_lr = inf", "lm_lr must be finite and > 0"),
        ("channels = 0", "channels must be >= 1"),
        ("channels = 16,-3", "channels must be >= 1"),
    ],
)
def test_bad_training_values_exit_1_with_one_line(pipeline, capsys, tmp_path, line,
                                                  message):
    """A value no training can use stops train-lm before it trains, with one
    line naming the config key."""
    d = pipeline
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(TINY_CONFIG + line + "\n")
    capsys.readouterr()
    assert cli.main(["train-lm", "--tokens", str(d / "tok"), "--corpus", str(d / "corpus"),
                     "--config", str(cfg), "--out", str(tmp_path / "lm.ckpt")]) == 1
    assert assert_one_error_line(capsys) == f"error: {message}"
    assert not (tmp_path / "lm.ckpt").exists()


def generate_argv(d, *flags):
    return ["generate", "--lm", str(d / "lm.ckpt"), "--vq", str(d / "vq.ckpt"),
            "--keywords", "circle", *flags, "--out", str(d / "gen.json")]


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--temperature", "nan"), "temperature must be finite and >= 0"),
        (("--temperature", "-1"), "temperature must be finite and >= 0"),
        (("--top-k", "-1"), "top_k must be >= 0"),
    ],
)
def test_bad_sampling_flags_exit_1_with_one_line(pipeline, capsys, flags, message):
    """generate checks its sampling flags before it draws a token: a value
    no draw can use exits 1 with one line naming the setting."""
    capsys.readouterr()
    assert cli.main(generate_argv(pipeline, *flags)) == 1
    assert assert_one_error_line(capsys) == f"error: {message}"


def test_huge_temperature_generates_stroke_ids_only(pipeline, capsys):
    """At temperature 1e9 the draws are near uniform. A finite mask score
    such as -1e9, divided by 1e9, no longer excludes PAD and BOS (ids d*B
    and d*B + 1): with one, they are drawn on 3 of these 5 seeds and the
    graphic fails to decode."""
    for seed in range(1, 6):
        assert cli.main(generate_argv(pipeline, "--temperature", "1e9",
                                      "--seed", str(seed))) == 0
    assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize("cut", [6, 300])
def test_truncated_checkpoint_exits_1_with_one_line(pipeline, capsys, cut):
    d = pipeline
    bad = d / f"cut{cut}.ckpt"
    bad.write_bytes((d / "vq.ckpt").read_bytes()[:cut])
    tok = sorted((d / "tok").glob("*.tok"))[0]
    capsys.readouterr()
    assert cli.main(["detokenize", "--ckpt", str(bad), "--in", str(tok),
                     "--out", str(d / "cut.json")]) == 1
    assert f"{bad}: checkpoint is truncated or corrupt" in assert_one_error_line(capsys)
    assert cli.main(["generate", "--lm", str(d / "lm.ckpt"), "--vq", str(bad),
                     "--keywords", "circle", "--out", str(d / "cut.json")]) == 1
    assert f"{bad}: checkpoint is truncated or corrupt" in assert_one_error_line(capsys)
    assert not (d / "cut.json").exists()


@pytest.mark.parametrize(
    "header", ["# stroketok v1 d=2 stages=1", "# stroketok v1 d=0 B=16 stages=1"]
)
def test_malformed_token_header_exits_1_with_one_line(pipeline, capsys, header):
    d = pipeline
    good = sorted((d / "tok").glob("*.tok"))[0]
    bad = d / "bad.tok"
    bad.write_text("\n".join([header] + good.read_text().splitlines()[1:]) + "\n")
    capsys.readouterr()
    assert cli.main(["detokenize", "--ckpt", str(d / "vq.ckpt"), "--in", str(bad),
                     "--out", str(d / "bad.json")]) == 1
    assert f"{bad}: token header" in assert_one_error_line(capsys)
    assert not (d / "bad.json").exists()


@pytest.mark.parametrize("bad_id", [-1, 32, 34])
def test_token_id_outside_the_stroke_vocabulary_exits_1_with_one_line(
    pipeline, capsys, tmp_path, bad_id
):
    """With d=2 and B=16 the stroke ids are 0..31: 32 is PAD and 34 EOS, and
    -1 would index the prompt words. Both readers stop on the file's line."""
    d = pipeline
    good = sorted((d / "tok").glob("*.tok"))
    lines = good[0].read_text().splitlines()
    assert lines[0].endswith("d=2 B=16 stages=1")
    toks = tmp_path / "tok"
    toks.mkdir()
    for p in good:
        (toks / p.name).write_bytes(p.read_bytes())
    bad = toks / good[0].name
    bad.write_text("\n".join(lines[:2] + [str(bad_id)] + lines[3:]) + "\n")
    out = tmp_path / "out"
    message = (f"{bad}: line 3: token id {bad_id} is outside the stroke "
               "vocabulary [0, 32)")
    for argv in (
        ["detokenize", "--ckpt", d / "vq.ckpt", "--in", bad, "--out", out],
        ["train-lm", "--tokens", toks, "--corpus", d / "corpus", "--config",
         d / "tiny.cfg", "--out", out],
    ):
        capsys.readouterr()
        assert cli.main([str(a) for a in argv]) == 1, argv
        assert message in assert_one_error_line(capsys)
        assert not out.exists()


def rewrite_checkpoint(src, dst, drop=(), replace=None):
    named = load_named_tensors(str(src))
    for key in drop:
        del named[key]
    named.update(replace or {})
    save_named_tensors(str(dst), named)
    return dst


DROP = object()


def edited_record(src, key, **changes):
    """Record `key` of checkpoint `src` as a u8 entry, with `changes` made
    to its fields (DROP removes one)."""
    values = json.loads(load_named_tensors(str(src))[key].tobytes())
    values.update(changes)
    values = {k: v for k, v in values.items() if v is not DROP}
    return np.frombuffer(json.dumps(values).encode(), dtype=np.uint8)


@pytest.mark.parametrize(
    "case, message",
    [
        ("ckpt_dir", "Is a directory"),
        ('{"viewbox": [0, 0, 8, 8]}', "an object holding viewbox and paths"),
        ('[[["M", 0, 0, 0, 0, 0, 0, 1, 1]]]', "an object holding viewbox and paths"),
        ('{"viewbox": [0, 0, 8, 8], "paths": [[1, 2]]}', "each a list of command rows"),
        ('{"viewbox": [0, 0, 8, 8], "paths": [[["M", null, 0, 0, 0, 0, 0, 1, 1]]]}',
         "coordinates of paths[0][0] must be numbers"),
        ('{"viewbox": [0, 0, "a", 8], "paths": [[["M", 0, 0, 0, 0, 0, 0, 1, 1]]]}',
         "viewbox must be numbers"),
        ('{"viewbox": [0, 0, 8, 8], "paths": [[["M", 0, 0, 0, 0, 0, 0, 1, 1], '
         '["L", 1, 1, 0, 0, 0, 0, 1e999, 2]]]}', "coordinates of paths[0][1] must be finite"),
        ('{"viewbox": [0, 0, 8, 8], "keywords": [1, 2], '
         '"paths": [[["M", 0, 0, 0, 0, 0, 0, 1, 1]]]}', "keywords must be a list of strings"),
    ],
)
def test_bad_tokenize_input_exits_1_with_one_line(pipeline, capsys, case, message):
    d = pipeline
    ckpt, graphic = d / "vq.ckpt", sorted((d / "corpus").glob("*.json"))[0]
    if case == "ckpt_dir":
        ckpt = d / "corpus"
    else:
        graphic = d / "bad_graphic.json"
        graphic.write_text(case)
    capsys.readouterr()
    assert cli.main(["tokenize", "--ckpt", str(ckpt), "--in", str(graphic),
                     "--out", str(d / "bad_input.tok")]) == 1
    assert message in assert_one_error_line(capsys)
    assert not (d / "bad_input.tok").exists()


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("nan_viewbox.json",
         '{"viewbox": [0, 0, NaN, 8], "paths": [[["M", 0, 0, 0, 0, 0, 0, 1, 1]]]}',
         "viewbox must be finite numbers"),
        ("inf_number.svg",
         '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 8 8">'
         '<path d="M 0 0 L 1e999 5"/></svg>',
         "path number '1e999' at offset 8 is not finite"),
        ("overflow_step.svg",
         '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 8 8">'
         '<path d="M 1e308 0 l 1e308 5"/></svg>',
         "geometry overflows: a lowered L command has points ((1e+308, 0.0), (inf,"),
        ("overflow_span.svg",
         '<svg xmlns="http://www.w3.org/2000/svg"><path d="M 1e308 0 L -1e308 5"/></svg>',
         "geometry overflows: a lowered L command"),
        ("overflow_bbox.svg",
         '<svg xmlns="http://www.w3.org/2000/svg"><path d="M 1e308 0 L 0 0 L -1e308 5"/></svg>',
         "geometry overflows: its bounding box (-1e+308, 0.0, inf, 5.0) is not finite"),
    ],
)
def test_non_finite_input_exits_1_with_one_line(pipeline, capsys, tmp_path, name, text,
                                                message):
    src, out = tmp_path / name, tmp_path / "out"
    src.write_text(text)
    for argv in (["tokenize", "--ckpt", pipeline / "vq.ckpt", "--in", src, "--out", out],
                 ["render", "--in", src, "--out", out]):
        capsys.readouterr()
        assert cli.main([str(a) for a in argv]) == 1, argv
        assert message in assert_one_error_line(capsys)
        assert not out.exists()


def test_render_of_an_overflowing_pixel_exits_1_with_one_line(capsys, tmp_path):
    src, out = tmp_path / "far.json", tmp_path / "far.png"
    src.write_text('{"viewbox": [0, 0, 8, 8], "paths": [[["M", 0, 0, 0, 0, 0, 0, 0, 0], '
                   '["L", 0, 0, 0, 0, 0, 0, 1e308, 5]]]}')
    capsys.readouterr()
    assert cli.main(["render", "--in", str(src), "--out", str(out)]) == 1
    assert "maps to the non-finite pixel (inf, " in assert_one_error_line(capsys)
    assert not out.exists()


def test_token_layout_mismatch_exits_1_naming_both_layouts(pipeline, capsys, tmp_path):
    """Token ids read against a codec or a token file of another (d, B,
    stages) layout stop with one line naming both layouts, before any
    output is written."""
    d = pipeline
    b8_cfg = tmp_path / "b8.cfg"
    b8_cfg.write_text(TINY_CONFIG.replace("codebook_size = 16", "codebook_size = 8"))
    b8 = tmp_path / "b8.ckpt"
    corpus = sorted((d / "corpus").glob("*.json"))
    mixed = tmp_path / "mixed"
    mixed.mkdir()
    for p in sorted((d / "tok").glob("*.tok"))[:2]:
        (mixed / p.name).write_bytes(p.read_bytes())
    for argv in (
        ["train-vq", "--corpus", d / "corpus", "--config", b8_cfg, "--out", b8],
        ["tokenize", "--ckpt", b8, "--in", corpus[2], "--out", mixed / f"{corpus[2].stem}.tok"],
    ):
        assert cli.main([str(a) for a in argv]) == 0
    out = tmp_path / "out"
    cases = [
        ["detokenize", "--ckpt", b8, "--in", d / "tok" / f"{corpus[0].stem}.tok",
         "--out", out],
        ["generate", "--lm", d / "lm.ckpt", "--vq", b8, "--keywords", "circle",
         "--out", out, "--tokens-out", tmp_path / "gen.tok"],
        ["train-lm", "--tokens", mixed, "--corpus", d / "corpus", "--config",
         d / "tiny.cfg", "--out", out],
    ]
    for argv in cases:
        capsys.readouterr()
        assert cli.main([str(a) for a in argv]) == 1, argv
        line = assert_one_error_line(capsys)
        assert "d=2 B=16 stages=1" in line and "d=2 B=8 stages=1" in line, line
        assert not out.exists() and not (tmp_path / "gen.tok").exists()


def assert_error_names(capsys, path, message):
    line = assert_one_error_line(capsys)
    assert f"{path}: " in line and message in line, line


def test_checkpoint_missing_or_bad_entry_exits_1_with_one_line(pipeline, capsys):
    d = pipeline
    only_w = d / "only_w.ckpt"
    save_named_tensors(str(only_w), {"w": np.ones((2, 3))})
    v1 = d / "v1.ckpt"
    v1.write_bytes(b"STKT" + (0).to_bytes(4, "little"))
    flipped = d / "flipped.ckpt"
    blob = bytearray((d / "vq.ckpt").read_bytes())
    blob[len(blob) // 2] ^= 0x20
    flipped.write_bytes(bytes(blob))
    tok = sorted((d / "tok").glob("*.tok"))[0]

    def vq_config(name, **changes):
        replace = {"config": edited_record(d / "vq.ckpt", "config", **changes)}
        return rewrite_checkpoint(d / "vq.ckpt", d / name, replace=replace)

    record = "checkpoint record 'config'"
    vq_cases = [
        (only_w, "checkpoint has no 'config' entry"),
        (v1, "checkpoint STKT v1 is a retired format"),
        (flipped, "checkpoint is truncated or corrupt"),
        (vq_config("no_depth.ckpt", rvq_depth=DROP), f"{record} has no field 'rvq_depth'"),
        (vq_config("retired_field.ckpt", conventional_loss_names=True),
         f"{record} has an unknown field 'conventional_loss_names'"),
        (vq_config("float_depth.ckpt", rvq_depth=2.0),
         f"{record} field 'rvq_depth' must be int, not 2.0"),
        (vq_config("bool_stages.ckpt", compression_stages=True),
         f"{record} field 'compression_stages' must be int, not true"),
        (vq_config("str_channels.ckpt", channels=[16, "16"]),
         f"{record} field 'channels' must be tuple[int, ...], not [16, \"16\"]"),
        (vq_config("str_lr.ckpt", lr="0.001"), f"{record} field 'lr' must be float, not"),
        (vq_config("zero_depth.ckpt", rvq_depth=0), f"{record}: rvq_depth must be >= 1"),
        (vq_config("zero_width.ckpt", channels=[0]), f"{record}: channels must be >= 1"),
        (vq_config("stored_fixer.ckpt", fixer="pc"),
         f"{record} has an unknown field 'fixer'"),
        (rewrite_checkpoint(d / "vq.ckpt", d / "not_json.ckpt",
                            replace={"config": np.frombuffer(b"{", dtype=np.uint8)}),
         f"{record} is not JSON"),
        (rewrite_checkpoint(d / "vq.ckpt", d / "f8_config.ckpt",
                            replace={"config": np.ones(3)}),
         f"{record} is 1-d float64, not u8 bytes"),
    ]
    capsys.readouterr()
    for bad, message in vq_cases:
        assert cli.main(["detokenize", "--ckpt", str(bad), "--in", str(tok),
                         "--out", str(d / "bad.json")]) == 1
        assert_error_names(capsys, bad, message)
        assert cli.main(["generate", "--lm", str(d / "lm.ckpt"), "--vq", str(bad),
                         "--keywords", "circle", "--out", str(d / "bad.json")]) == 1
        assert_error_names(capsys, bad, message)

    def lm_record(name, key, **changes):
        replace = {key: edited_record(d / "lm.ckpt", key, **changes)}
        return rewrite_checkpoint(d / "lm.ckpt", d / name, replace=replace)

    lm_cases = [
        (only_w, "checkpoint has no 'config' entry"),
        (v1, "checkpoint STKT v1 is a retired format"),
        (rewrite_checkpoint(d / "lm.ckpt", d / "no_vocab.ckpt", drop=["vocab"]),
         "checkpoint has no 'vocab' entry"),
        (lm_record("no_words.ckpt", "vocab", keyword_words=DROP),
         "checkpoint record 'vocab' has no field 'keyword_words'"),
        (lm_record("stored_size.ckpt", "vocab", stroke_vocab=32),
         "checkpoint record 'vocab' has an unknown field 'stroke_vocab'"),
        (lm_record("int_words.ckpt", "vocab", keyword_words=["<unk>", 7]),
         "checkpoint record 'vocab' field 'keyword_words' must be list[str]"),
        (lm_record("negative_size.ckpt", "vocab", codebook_size=-5),
         "checkpoint record 'vocab': codebook_size must be >= 1"),
        (lm_record("float_heads.ckpt", "config", heads=2.5),
         "checkpoint record 'config' field 'heads' must be int, not 2.5"),
        (lm_record("uneven_heads.ckpt", "config", heads=3),
         "checkpoint record 'config': embed_dim must divide evenly across heads"),
        (lm_record("stored_temperature.ckpt", "config", temperature=1.0),
         "checkpoint record 'config' has an unknown field 'temperature'"),
    ]
    for bad, message in lm_cases:
        assert cli.main(["generate", "--lm", str(bad), "--vq", str(d / "vq.ckpt"),
                         "--keywords", "circle", "--out", str(d / "bad.json")]) == 1
        assert_error_names(capsys, bad, message)
    assert not (d / "bad.json").exists()


def test_json_nested_past_the_recursion_limit_exits_1_with_one_line(pipeline, capsys,
                                                                    tmp_path):
    """200 000 nested arrays, as a graphic or as a checkpoint's config
    record: one line naming the graphic's fault, or the file and record."""
    d = pipeline
    deep = "[" * 200_000 + "]" * 200_000
    src, out = tmp_path / "deep.json", tmp_path / "out"
    src.write_text(deep)
    for argv in (["tokenize", "--ckpt", d / "vq.ckpt", "--in", src, "--out", out],
                 ["render", "--in", src, "--out", out]):
        capsys.readouterr()
        assert cli.main([str(a) for a in argv]) == 1, argv
        assert "graphic JSON nests too deeply" in assert_one_error_line(capsys)
    record = {"config": np.frombuffer(deep.encode(), dtype=np.uint8)}
    bad_vq = rewrite_checkpoint(d / "vq.ckpt", tmp_path / "vq.ckpt", replace=record)
    bad_lm = rewrite_checkpoint(d / "lm.ckpt", tmp_path / "lm.ckpt", replace=record)
    tok = sorted((d / "tok").glob("*.tok"))[0]
    for bad, argv in (
        (bad_vq, ["detokenize", "--ckpt", bad_vq, "--in", tok, "--out", out]),
        (bad_lm, ["generate", "--lm", bad_lm, "--vq", d / "vq.ckpt", "--keywords", "circle",
                  "--out", out]),
    ):
        capsys.readouterr()
        assert cli.main([str(a) for a in argv]) == 1, argv
        assert_error_names(capsys, bad, "checkpoint record 'config' is not JSON")
    assert not out.exists()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_flipped_bit_raises_corrupt_checkpoint(pipeline, data):
    """The CRC-32 trailer catches every single-bit error, wherever it falls:
    magic, counts, names, shapes, records, parameters or the trailer."""
    for name, load in (("vq.ckpt", load_vq_checkpoint), ("lm.ckpt", load_lm_checkpoint)):
        blob = bytearray((pipeline / name).read_bytes())
        bit = data.draw(st.integers(0, 8 * len(blob) - 1), label=name)
        blob[bit // 8] ^= 1 << (bit % 8)
        bad = pipeline / f"flipped_bit_{name}"
        bad.write_bytes(bytes(blob))
        with pytest.raises(CorruptCheckpoint):
            load(str(bad))


def test_checkpoint_parameters_must_match_the_model(pipeline, capsys):
    d = pipeline
    tok = sorted((d / "tok").glob("*.tok"))[0]
    vq_cases = [
        (rewrite_checkpoint(d / "vq.ckpt", d / "vq_extra.ckpt", replace={"w": np.ones(3)}),
         "unknown entry 'w'"),
        (rewrite_checkpoint(d / "vq.ckpt", d / "vq_missing.ckpt", drop=["dec0.up.b"]),
         "no 'dec0.up.b' entry"),
        (rewrite_checkpoint(d / "vq.ckpt", d / "vq_shape.ckpt",
                            replace={"enc0.down.b": np.ones(3)}),
         "entry 'enc0.down.b' is f8 of shape (3,), expected f8 of shape (16,)"),
        (rewrite_checkpoint(d / "vq.ckpt", d / "vq_i8.ckpt",
                            replace={"enc0.down.b": np.ones(16, dtype=np.int64)}),
         "entry 'enc0.down.b' is i8 of shape (16,), expected f8 of shape (16,)"),
    ]
    capsys.readouterr()
    for bad, message in vq_cases:
        assert cli.main(["detokenize", "--ckpt", str(bad), "--in", str(tok),
                         "--out", str(d / "bad.json")]) == 1
        assert_error_names(capsys, bad, message)
        assert cli.main(["generate", "--lm", str(d / "lm.ckpt"), "--vq", str(bad),
                         "--keywords", "circle", "--out", str(d / "bad.json")]) == 1
        assert_error_names(capsys, bad, message)
    # usage counts: codebook_size (16) of them for each of levels 0 and 1
    usage = np.arange(32).reshape(2, 16)
    must_hold = "entry 'codebook.usage' must hold (2, 16) non-negative i8 counts"
    usage_cases = [
        ({"codebook.usage7": usage}, "unknown entry 'codebook.usage7'"),
        ({"codebook.usage": np.where(usage == 3, np.nan, usage)},
         f"{must_hold} (found float64, shape (2, 16))"),
        ({"codebook.usage": usage[:, :5]}, f"{must_hold} (found int64, shape (2, 5))"),
        ({"codebook.usage": usage[:1]}, f"{must_hold} (found int64, shape (1, 16))"),
        ({"codebook.usage": usage - 1}, f"{must_hold} (found int64, shape (2, 16))"),
        ({"codebook.usage": usage + 0.5}, f"{must_hold} (found float64"),
        ({"codebook.usage": usage.astype(np.uint8)}, f"{must_hold} (found uint8"),
    ]
    for i, (replace, message) in enumerate(usage_cases):
        bad = rewrite_checkpoint(d / "vq.ckpt", d / f"vq_usage{i}.ckpt", replace=replace)
        assert cli.main(["detokenize", "--ckpt", str(bad), "--in", str(tok),
                         "--out", str(d / "bad.json")]) == 1
        assert_error_names(capsys, bad, message)
    bad = rewrite_checkpoint(d / "vq.ckpt", d / "vq_no_usage.ckpt", drop=["codebook.usage"])
    assert cli.main(["detokenize", "--ckpt", str(bad), "--in", str(tok),
                     "--out", str(d / "bad.json")]) == 1
    assert_error_names(capsys, bad, "no 'codebook.usage' entry")
    lm_cases = [
        (rewrite_checkpoint(d / "lm.ckpt", d / "lm_extra.ckpt", replace={"w": np.ones(3)}),
         "unknown entry 'w'"),
        (rewrite_checkpoint(d / "lm.ckpt", d / "lm_missing.ckpt", drop=["head.b"]),
         "no 'head.b' entry"),
        (rewrite_checkpoint(d / "lm.ckpt", d / "lm_u8.ckpt",
                            replace={"pos_embed": np.ones((40, 16), dtype=np.uint8)}),
         "entry 'pos_embed' is u8 of shape (40, 16), expected f8 of shape (40, 16)"),
    ]
    for bad, message in lm_cases:
        assert cli.main(["generate", "--lm", str(bad), "--vq", str(d / "vq.ckpt"),
                         "--keywords", "circle", "--out", str(d / "bad.json")]) == 1
        assert_error_names(capsys, bad, message)
    assert not (d / "bad.json").exists()
