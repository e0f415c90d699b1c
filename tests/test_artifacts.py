"""The artifacts module owns the program's file formats: token files
round-trip under any layout and reject any other bytes with a
StroketokError; the engine and the model modules touch no file; and every
name the benchmark's tracer wraps still exists where it looks for it."""

import ast
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stroketok.artifacts import StrokeTokenSeq, load_tokens, save_tokens
from stroketok.errors import StroketokError

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stroketok"
HEADER = b"# stroketok v1 d=2 B=8 stages=1\n"


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("tok")


@settings(max_examples=100, deadline=None)
@given(data=st.data(), d=st.integers(1, 2**20), b=st.integers(2, 2**20),
       stages=st.integers(1, 2**20))
def test_token_file_round_trip_under_any_layout(scratch, data, d, b, stages):
    tokens = data.draw(st.lists(st.integers(0, d * b - 1), max_size=50))
    seq = StrokeTokenSeq(tokens, (d, b, stages))
    p = scratch / "round.tok"
    save_tokens(seq, str(p))
    assert load_tokens(str(p)) == seq


@settings(max_examples=300, deadline=None)
@given(blob=st.one_of(
    st.binary(),
    st.binary().map(lambda tail: HEADER + tail),
    st.text().map(lambda tail: HEADER + tail.encode()),
))
def test_any_bytes_load_as_stroke_ids_or_raise_a_stroketok_error(scratch, blob):
    p = scratch / "any.tok"
    p.write_bytes(blob)
    try:
        seq = load_tokens(str(p))
    except StroketokError as e:
        assert str(p) in str(e)
        return
    d, b, _ = seq.layout
    assert all(0 <= t < d * b for t in seq.tokens)


def test_every_site_the_tracer_wraps_exists():
    """The tracer wraps program functions by (module, attribute); a name
    that moves must fail here, not in a later traced benchmark run. The
    tracer's source is compiled in memory, so nothing is written beside it."""
    path = ROOT / "perfbench" / "tracer.py"
    tracer = types.ModuleType("tracer")
    exec(compile(path.read_text(), str(path), "exec"), tracer.__dict__)
    sites = tracer.sites()
    assert sites
    for module, attr, span in sites:
        assert callable(getattr(module, attr, None)), (module.__name__, attr, span)


def imported_modules(path):
    """Top-level modules of every absolute import in `path`."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def calls_open(path):
    return any(
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open"
        for node in ast.walk(ast.parse(path.read_text()))
    )


def test_the_engine_and_the_models_touch_no_file():
    assert not imported_modules(PACKAGE / "tensor_engine.py") & {"json", "os", "struct", "zlib"}
    for name in ("tensor_engine.py", "vq_codec.py", "stroke_lm.py"):
        assert not imported_modules(PACKAGE / name) & {"struct", "zlib"}, name
        assert not calls_open(PACKAGE / name), name
