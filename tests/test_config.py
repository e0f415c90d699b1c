"""The config schema: the config-file keys and both checkpoints' config
records come from the `CodecConfig`, `LmConfig` and `Vocab` fields."""

import json
from dataclasses import fields

import numpy as np
import pytest

from stroketok import cli, config
from stroketok.artifacts import load_named_tensors
from stroketok.config import UnknownConfigKey, load_pipeline_config, parse_config_text
from stroketok.stroke_lm import (
    LmConfig,
    Vocab,
    init_lm_params,
    load_lm_checkpoint,
    save_lm_checkpoint,
)
from stroketok.vq_codec import (
    CodecConfig,
    init_codec_params,
    load_vq_checkpoint,
    make_codebook,
    save_vq_checkpoint,
)

KEYS = (
    "alpha batch_size channels code_dim codebook_size compression_stages "
    "lm_batch_size lm_embed_dim lm_heads lm_layers lm_lr lm_max_len "
    "lm_steps lr rvq_depth seed steps"
).split()

# every key, each at a value other than its default
EVERY_KEY = """\
compression_stages = 2
rvq_depth = 3
codebook_size = 5
code_dim = 3
channels = 4,6
alpha = 0.5
lr = 0.02
seed = 9
batch_size = 3
steps = 7  # a comment
lm_embed_dim = 12
lm_layers = 3
lm_heads = 3
lm_max_len = 20
lm_lr = 0.05
lm_steps = 11
lm_batch_size = 2
"""

CODEC = CodecConfig(
    compression_stages=2, rvq_depth=3, codebook_size=5, code_dim=3, channels=(4, 6),
    alpha=0.5, lr=0.02, seed=9, batch_size=3, steps=7,
)
LM = LmConfig(
    embed_dim=12, layers=3, heads=3, max_len=20, lr=0.05, seed=9, steps=11, batch_size=2,
)


def test_the_accepted_keys_are_the_config_fields():
    assert sorted(config._TARGETS) == KEYS
    assert sorted(parse_config_text(EVERY_KEY)) == KEYS


def test_every_key_parses_to_its_field(tmp_path):
    p = tmp_path / "every.cfg"
    p.write_text(EVERY_KEY)
    codec, lm = load_pipeline_config(str(p))
    assert codec == CODEC
    assert lm == LM
    assert parse_config_text("channels = 16,32") == {"channels": (16, 32)}
    assert load_pipeline_config(None) == (CodecConfig(), LmConfig())


@pytest.mark.parametrize(
    "key",
    ["max_commands", "min_commands", "min_keywords", "eval_res", "eval_stroke_px",
     "target_recon", "fixer", "kernel_size"],
)
def test_keys_no_subcommand_reads_are_rejected(key):
    with pytest.raises(UnknownConfigKey, match=f"line 3: unknown key '{key}'"):
        parse_config_text(f"steps = 4\n# {key} = 1\n{key} = 256\n")


@pytest.mark.parametrize(
    "key",
    ["mlp_mult", "lm_mlp_mult", "lm_seed", "lm_top_k", "embed_dim", "temperature", "top_k"],
)
def test_lm_fields_outside_the_key_rule_are_rejected(key):
    with pytest.raises(UnknownConfigKey, match=f"line 1: unknown key '{key}'"):
        parse_config_text(f"{key} = 4\n")


@pytest.mark.parametrize(
    "line",
    ["channels = 1_6,+32", "channels = 16,,32,", "channels =", "steps = \u0661\u0660",
     "steps = 1e3", "steps = 0x10", "steps = 1 0", "lr = 1_0e-3", "lr = +0.1", "lr = NaN",
     "lr = infinity", "lr = 1e", "lr = \u0661"],
)
def test_values_are_plain_ascii_numbers(line):
    """An int is -?[0-9]+, a float an ASCII decimal or exponent form, and
    channel entries are ints, none empty. int() and float() alone would
    take the underscores, signs and other scripts' digits above."""
    key = line.split()[0]
    with pytest.raises(ValueError, match=f"^line 2: bad value for '{key}': .* is not a plain"):
        parse_config_text(f"steps = 4\n{line}\n")


def test_plain_values_parse():
    assert parse_config_text("channels = 16, -3\nalpha = .5\nlr = -2.5E-3\nsteps = -2") == {
        "channels": (16, -3), "alpha": 0.5, "lr": -0.0025, "steps": -2}
    # nan and inf reach the configs' own range checks
    for text in ("nan", "inf", "-inf"):
        assert str(parse_config_text(f"lr = {text}")["lr"]) == text


def test_seed_sets_both_configs(tmp_path):
    p = tmp_path / "seed.cfg"
    p.write_text("seed = 17\n")
    codec, lm = load_pipeline_config(str(p))
    assert codec.seed == lm.seed == 17


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


def test_a_bad_value_exits_1_with_one_line(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert cli.main(["gen-synth", "--n", "2", "--out", str(corpus)]) == 0
    p = tmp_path / "bad.cfg"
    p.write_text("codebook_size = 1\n")
    capsys.readouterr()
    assert cli.main(["train-vq", "--corpus", str(corpus), "--config", str(p),
                     "--out", str(tmp_path / "vq.ckpt")]) == 1
    assert "codebook_size must be >= 2" in one_error_line(capsys)
    # train-lm builds the codec config too, so it rejects the same file
    assert cli.main(["train-lm", "--tokens", str(tmp_path), "--config", str(p),
                     "--out", str(tmp_path / "lm.ckpt")]) == 1
    assert "codebook_size must be >= 2" in one_error_line(capsys)
    assert not (tmp_path / "vq.ckpt").exists() and not (tmp_path / "lm.ckpt").exists()


@pytest.mark.parametrize(
    "text, names",
    [
        # a value that does not parse names its key and its line
        ("steps = 1\nsteps = abc\n", ["line 2", "'steps'"]),
        # an LmConfig check names the config keys, not the LmConfig fields
        ("lm_heads = 3\n", ["lm_embed_dim", "lm_heads"]),
    ],
)
def test_a_bad_value_names_its_key(tmp_path, capsys, text, names):
    p = tmp_path / "bad.cfg"
    p.write_text(text)
    capsys.readouterr()
    for command in ("train-vq", "train-lm"):
        assert cli.main([command, "--corpus" if command == "train-vq" else "--tokens",
                         str(tmp_path), "--config", str(p),
                         "--out", str(tmp_path / "out.ckpt")]) == 1
        line = one_error_line(capsys)
        assert all(name in line for name in names), line
        assert " embed_dim" not in line, line


def test_checkpoints_store_every_scalar_field(tmp_path):
    """Every field of the three dataclasses, each config field away from its
    default, survives its checkpoint as one JSON record of exactly the
    init fields; a field that dropped out of the record would come back at
    its default and fail."""
    vocab = Vocab(keyword_words=["circle", "star"], rvq_depth=3, codebook_size=5, stages=2)
    for obj in (CODEC, LM):
        for f in fields(obj):
            assert getattr(obj, f.name) != f.default, f.name

    store = init_codec_params(CODEC, np.random.default_rng(0))
    p = tmp_path / "vq.ckpt"
    save_vq_checkpoint(str(p), store, make_codebook(CODEC, store), CODEC)
    _, _, codec = load_vq_checkpoint(str(p))
    assert codec == CODEC
    record = json.loads(load_named_tensors(str(p))["config"].tobytes())
    assert sorted(record) == sorted(f.name for f in fields(CodecConfig))

    p = tmp_path / "lm.ckpt"
    save_lm_checkpoint(str(p), init_lm_params(vocab, LM), vocab, LM)
    _, vocab2, lm = load_lm_checkpoint(str(p))
    assert lm == LM
    assert vocab2 == vocab
    record = json.loads(load_named_tensors(str(p))["vocab"].tobytes())
    assert record == {"codebook_size": 5, "keyword_words": ["<unk>", "circle", "star"],
                      "rvq_depth": 3, "stages": 2}
