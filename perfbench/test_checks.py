"""Tests of the benchmark's own checks and of its round, at a tiny size.

Every check must pass on the program's real outputs and fail once one of
those outputs is corrupted. Run with `python -m pytest perfbench`.
"""

import json
import math
import shutil

import numpy as np
import pytest

import checks
import run
import workloads

BENCHMARK = json.loads((run.BENCH_DIR.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def round1(tmp_path_factory):
    """A tiny short-corpus set-up and one round, kept for corrupting."""
    cli = run.import_program()
    w = workloads.tiny(workloads.SHORT)
    work = tmp_path_factory.mktemp("work")
    ops = run.Ops(cli)
    run.make_corpus(w, 1, work, ops)
    bench = run.Bench(w, work, ops)
    bench.round(1)
    assert ops.failed == 0
    return bench, work / "round1"


def test_levenshtein_matches_the_program_dp():
    run.import_program()
    from stroketok.metrics import levenshtein as program_dp

    rng = np.random.default_rng(0)
    for _ in range(200):
        a = list(rng.integers(0, 4, rng.integers(0, 12)))
        b = list(rng.integers(0, 4, rng.integers(0, 12)))
        assert checks.levenshtein(a, b) == program_dp(a, b)


def test_every_check_passes_on_real_outputs(round1):
    bench, rd = round1
    bench._check_tokens(rd)
    bench._check_chains(rd)
    bench._check_edit(rd)
    bench._check_cr(rd)
    bench._check_generation(rd)
    bench._check_lm_ce(rd)


def _corrupt_report(rd, tmp_path, key, change):
    copy = tmp_path / "round"
    shutil.copytree(rd, copy)
    report = json.loads((copy / "report.json").read_text())
    report["records"][0][key] = change(report["records"][0][key])
    (copy / "report.json").write_text(json.dumps(report))
    return copy


def test_wrong_edit_value_fails(round1, tmp_path):
    bench, rd = round1
    copy = _corrupt_report(rd, tmp_path, "edit", lambda v: v + 1e-9)
    with pytest.raises(checks.CheckFailed, match="edit"):
        bench._check_edit(copy)


def test_wrong_cr_fails(round1, tmp_path):
    bench, rd = round1
    bench._check_tokens(rd)
    copy = _corrupt_report(rd, tmp_path, "cr", lambda v: v * 1.5)
    with pytest.raises(checks.CheckFailed, match="cr"):
        bench._check_cr(copy)


def _replace_token(text, value):
    lines = text.splitlines()
    lines[1] = str(value)
    return "\n".join(lines) + "\n"


def test_out_of_range_token_fails(round1, tmp_path):
    bench, rd = round1
    copy = tmp_path / "round"
    shutil.copytree(rd, copy)
    tok = sorted((copy / "tok").glob("*.tok"))[0]
    tok.write_text(_replace_token(tok.read_text(), bench.depth * bench.size))
    with pytest.raises(checks.CheckFailed, match="outside"):
        bench._check_tokens(copy)


def test_non_argmax_generated_token_fails(round1, tmp_path):
    bench, rd = round1
    copy = tmp_path / "round"
    shutil.copytree(rd, copy)
    tok = copy / "gen" / "g0.tok"
    first = checks.read_tokens(tok)[1][0]
    tok.write_text(_replace_token(tok.read_text(), (first + 1) % bench.size))
    with pytest.raises(checks.CheckFailed, match="argmax"):
        bench._check_generation(copy)


def test_broken_chain_fails(round1, tmp_path):
    bench, rd = round1
    copy = tmp_path / "round"
    shutil.copytree(rd, copy)
    out = sorted((copy / "rec").glob("*[0-9].json"))[0]
    doc = json.loads(out.read_text())
    path = next(p for p in doc["paths"] if len(p) > 1)
    path[1][1] += 0.5
    out.write_text(json.dumps(doc))
    with pytest.raises(checks.CheckFailed, match="begins at"):
        bench._check_chains(copy)


def test_changed_artifact_fails(round1):
    _, rd = round1
    first = checks.digest_tree(rd)
    now = dict(first, **{"lm.ckpt": "0" * 64})
    with pytest.raises(checks.CheckFailed, match="differ"):
        checks.check_same_bytes(first, now)


def test_any_error_in_a_check_counts_as_one_failed_operation():
    ops = run.Ops(cli=None)
    assert ops.check("boom", lambda: [][0]) is None
    assert (ops.attempted, ops.failed) == (1, 1)


def test_lm_ce_must_beat_the_zero_head():
    with pytest.raises(checks.CheckFailed):
        checks.check_lm_ce(math.log(515), 515)
    checks.check_lm_ce(math.log(515) - 1e-6, 515)


def test_generation_check_on_a_fake_model():
    eos, pad, bos = 5, 3, 4
    table = np.zeros((8, 6))
    table[:, 1] = 1.0  # token 1 everywhere...
    table[4, eos] = 2.0  # ...until EOS after four tokens

    def logits_fn(ids):
        return table[: len(ids) + 1]

    kw = dict(eos=eos, masked=(pad, bos), depth=2)
    assert checks.check_generation([1, 1, 1, 1], logits_fn, cap=7, **kw) == (4, False)
    # a partial frame of one token is dropped before EOS
    table[4, eos], table[5, eos] = 0.0, 2.0
    assert checks.check_generation([1, 1, 1, 1], logits_fn, cap=7, **kw) == (5, False)
    # the cap stops it
    table[5, eos] = 0.0
    assert checks.check_generation([1, 1, 1, 1, 1, 1], logits_fn, cap=6, **kw) == (6, True)
    with pytest.raises(checks.CheckFailed, match="argmax"):
        checks.check_generation([1, 0, 1, 1], logits_fn, cap=7, **kw)
    with pytest.raises(checks.CheckFailed, match="empty"):
        checks.check_generation([], logits_fn, cap=7, **kw)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_of_each_workload(name, tmp_path):
    """The benchmark's own path, traced and untraced rounds, at tiny size."""
    w = workloads.tiny(workloads.WORKLOADS[name])
    for trace, listed in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run(w, 1, 0.1, trace, tmp_path)
        assert result["correct"] and result["failed"] == 0, result
        assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCHMARK[listed])
        for m in BENCHMARK[listed]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
            assert math.isfinite(result["metrics"][m["name"]]["value"])
