import re

import pytest

import numpy as np

from stroketok import cli
from stroketok.stroke_lm import generate, load_lm_checkpoint
from stroketok.tensor_engine import load_named_tensors, save_named_tensors

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


def test_generate_reports_raw_length_and_cap(pipeline, capsys):
    d = pipeline
    store, vocab, cfg = load_lm_checkpoint(str(d / "lm.ckpt"))
    cfg.temperature = 1.0
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
        cfg.seed = seed
        seq = generate(["circle"], store, vocab, cfg)
        assert int(m.group(1)) == len(seq.tokens)
        assert int(m.group(2)) == seq.meta["raw_len"]
        assert (m.group(3) == "length cap") == seq.meta["truncated"]
        stops.add(m.group(3))
    # the seeds cover both ways a generation can stop
    assert stops == {"EOS", "length cap"}


def test_evaluate_loads_checkpoint_once_and_jobs_agree(pipeline, monkeypatch):
    d = pipeline
    loads = []
    real = cli.load_vq_checkpoint

    def counting(path):
        loads.append(path)
        return real(path)

    monkeypatch.setattr(cli, "load_vq_checkpoint", counting)
    common = ["evaluate", "--golden", str(d / "corpus"), "--candidate", str(d / "rec"),
              "--ckpt", str(d / "vq.ckpt")]
    assert cli.main(common + ["--report", str(d / "r1.json"), "--jobs", "1"]) == 0
    assert loads == [str(d / "vq.ckpt")]
    assert cli.main(common + ["--report", str(d / "r2.json"), "--jobs", "2"]) == 0
    assert (d / "r1.json").read_bytes() == (d / "r2.json").read_bytes()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_evaluate_bad_checkpoint_exits_1(pipeline, capsys, jobs):
    d = pipeline
    bad = d / f"bad{jobs}.ckpt"
    bad.write_bytes((d / "vq.ckpt").read_bytes()[:300])
    code = cli.main(["evaluate", "--golden", str(d / "corpus"), "--candidate",
                     str(d / "rec"), "--ckpt", str(bad), "--report",
                     str(d / "bad.json"), "--jobs", jobs])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (d / "bad.json").exists()


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


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


def rewrite_checkpoint(src, dst, drop=(), replace=None):
    named = load_named_tensors(str(src))
    for key in drop:
        del named[key]
    named.update(replace or {})
    save_named_tensors(str(dst), named)
    return dst


def assert_error_names(capsys, path, message):
    line = assert_one_error_line(capsys)
    assert f"{path}: " in line and message in line, line


def test_checkpoint_missing_or_bad_entry_exits_1_with_one_line(pipeline, capsys):
    d = pipeline
    only_w = d / "only_w.ckpt"
    save_named_tensors(str(only_w), {"w": np.ones((2, 3))})
    tok = sorted((d / "tok").glob("*.tok"))[0]
    vq_cases = [
        (only_w, "no 'config.compression_stages' entry"),
        (rewrite_checkpoint(d / "vq.ckpt", d / "no_channels.ckpt",
                            drop=["config.channels"]), "no 'config.channels' entry"),
        (rewrite_checkpoint(d / "vq.ckpt", d / "vec_depth.ckpt",
                            replace={"config.rvq_depth": np.array([2.0, 2.0])}),
         "entry 'config.rvq_depth' is not a finite scalar"),
        (rewrite_checkpoint(d / "vq.ckpt", d / "inf_stages.ckpt",
                            replace={"config.compression_stages": np.array(np.inf)}),
         "entry 'config.compression_stages' is not a finite scalar"),
        (rewrite_checkpoint(d / "vq.ckpt", d / "bad_fixer.ckpt",
                            replace={"config.fixer": np.array(7.0)}), "unknown fixer code 7"),
    ]
    capsys.readouterr()
    for bad, message in vq_cases:
        assert cli.main(["detokenize", "--ckpt", str(bad), "--in", str(tok),
                         "--out", str(d / "bad.json")]) == 1
        assert_error_names(capsys, bad, message)
        assert cli.main(["generate", "--lm", str(d / "lm.ckpt"), "--vq", str(bad),
                         "--keywords", "circle", "--out", str(d / "bad.json")]) == 1
        assert_error_names(capsys, bad, message)
    lm_cases = [
        (only_w, "no 'config.embed_dim' entry"),
        (rewrite_checkpoint(d / "lm.ckpt", d / "no_vocab.ckpt",
                            drop=["vocab.stroke_vocab"]), "no 'vocab.stroke_vocab' entry"),
        (rewrite_checkpoint(d / "lm.ckpt", d / "no_words.ckpt",
                            drop=["vocab.words_utf8"]), "no 'vocab.words_utf8' entry"),
        (rewrite_checkpoint(d / "lm.ckpt", d / "vec_heads.ckpt",
                            replace={"config.heads": np.ones(2)}),
         "entry 'config.heads' is not a finite scalar"),
    ]
    for bad, message in lm_cases:
        assert cli.main(["generate", "--lm", str(bad), "--vq", str(d / "vq.ckpt"),
                         "--keywords", "circle", "--out", str(d / "bad.json")]) == 1
        assert_error_names(capsys, bad, message)
    assert not (d / "bad.json").exists()
