import importlib.util
from pathlib import Path

from stroketok.stroke_lm import load_lm_checkpoint, save_lm_checkpoint
from stroketok.vq_codec import load_vq_checkpoint, save_vq_checkpoint

TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifact_manifest.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("artifact_manifest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_pipeline_is_byte_deterministic(tmp_path):
    tool = load_tool()
    first = tool.build_manifest(tmp_path / "a")
    second = tool.build_manifest(tmp_path / "b")
    assert first == second
    paths = [line.split("  ", 1)[1] for line in first]
    assert paths == sorted(paths)
    for artifact in ("vq.ckpt", "lm.ckpt", "vq_log.json", "lm_log.json", "report.json",
                     "gen/greedy.tok", "gen/sampled.json.fixreport.json", "gen/top_k.tok",
                     "rec_no_meta.json", "rec_no_fixer.json",
                     "gen/greedy_pi.json.fixreport.json", "render.png", "render.pbm"):
        assert artifact in paths
    for stage in ("tok/", "rec/"):
        assert sum(p.startswith(stage) for p in paths) >= 12


def test_main_prints_the_manifest(tmp_path, capsys):
    tool = load_tool()
    assert tool.main(["--workdir", str(tmp_path / "run")]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed == tool.manifest(tmp_path / "run")


def test_checkpoints_resave_byte_identical(tmp_path):
    """Each of the pipeline's checkpoints, loaded and saved again by the
    program's own loader and saver, comes back byte for byte: the config
    records and typed entries hold everything the file does."""
    tool = load_tool()
    tool.run_pipeline(tmp_path / "run")
    for name, load, save in (("vq.ckpt", load_vq_checkpoint, save_vq_checkpoint),
                             ("lm.ckpt", load_lm_checkpoint, save_lm_checkpoint)):
        src, dst = tmp_path / "run" / name, tmp_path / name
        save(str(dst), *load(str(src)))
        assert dst.read_bytes() == src.read_bytes(), name
