import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stroketok.metrics import (
    RenderFailure,
    ZeroLength,
    code_length,
    compression_ratio,
    edit_distance,
    edit_score,
    levenshtein,
    pixel_iou,
    recall_score,
    serialize_symbols,
)
from stroketok.model import Graphic, Path, cubic_cmd, line_cmd, move_cmd
from stroketok.svg_io import gen_synthetic
from stroketok.vq_codec import LayoutMismatch, StrokeTokenSeq


def brute_force_edit(a, b):
    """Exponential recursion; the DP oracle for short sequences."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    return min(
        brute_force_edit(a[1:], b) + 1,
        brute_force_edit(a, b[1:]) + 1,
        brute_force_edit(a[1:], b[1:]) + (a[0] != b[0]),
    )


def seq(tokens, d=2, b=16, stages=1):
    return StrokeTokenSeq(tokens=list(tokens), layout=(d, b, stages))


def scalar_serialize(g):
    """The per-coordinate loop serialize_symbols replaced; its oracle."""
    min_x, min_y, w, h = g.viewbox
    extent = max(w, h)
    out = []
    for cmd in g.all_commands():
        out.append({"M": 0, "L": 1, "C": 2}[cmd.cmd_type])
        for x, y in cmd.points():
            for v, lo in ((x, min_x), (y, min_y)):
                b = int(np.floor((v - lo) / extent * 256))
                out.append(3 + min(max(b, 0), 255))
    return out


def test_kitten_sitting():
    assert levenshtein("kitten", "sitting") == 3
    assert edit_distance("kitten", "sitting") == 3
    assert edit_distance("sitting", "kitten") == 3


def test_dp_matches_bruteforce_exhaustive_short():
    alphabet = "abcd"
    strings = [""]
    for n in (1, 2, 3):
        strings += ["".join(s) for s in itertools.product(alphabet, repeat=n)]
    for a in strings:
        for b in strings:
            assert levenshtein(a, b) == brute_force_edit(a, b)
            # includes either side empty and both argument orders
            assert edit_distance(a, b) == levenshtein(a, b)


@pytest.mark.parametrize("m", [1, 63, 64, 65, 127, 128, 129, 300])
def test_edit_distance_matches_dp_at_bit_widths(m):
    """The shorter side sets the bit-vector width; cover word boundaries,
    with the shorter sequence passed first and second."""
    rng = np.random.default_rng(m)
    for extra in (0, 1, 37):
        short = rng.integers(0, 5, size=m).tolist()
        # the longer side is an edited copy, so distances span small and large
        long = [s if rng.random() < 0.7 else int(rng.integers(0, 5)) for s in short]
        long += rng.integers(0, 5, size=extra).tolist()
        want = levenshtein(long, short)
        assert edit_distance(short, long) == want
        assert edit_distance(long, short) == want


def test_edit_distance_matches_dp_on_serialized_graphics():
    sym = [serialize_symbols(g) for g in gen_synthetic(6, 21)]
    for a, b in itertools.combinations(sym, 2):
        assert edit_distance(a, b) == levenshtein(a, b)


@settings(deadline=None, max_examples=200)
@given(
    st.lists(st.integers(0, 6), max_size=90),
    st.lists(st.integers(0, 6), max_size=90),
)
def test_edit_distance_equals_dp_property(a, b):
    assert edit_distance(a, b) == levenshtein(a, b)


def test_dp_matches_bruteforce_random_len8():
    rng = np.random.default_rng(5)
    alphabet = "abcd"
    for _ in range(200):
        a = "".join(rng.choice(list(alphabet), size=rng.integers(0, 9)))
        b = "".join(rng.choice(list(alphabet), size=rng.integers(0, 9)))
        assert levenshtein(a, b) == brute_force_edit(a, b)


def test_edit_score_identity():
    g = gen_synthetic(1, 3)[0]
    assert edit_score(g, g) == 0.0


def test_edit_score_metric_properties():
    graphics = gen_synthetic(6, 88)
    scores = {}
    for i, a in enumerate(graphics):
        for j, b in enumerate(graphics):
            scores[i, j] = edit_score(a, b)
    for i in range(6):
        assert scores[i, i] == 0.0
        for j in range(6):
            assert scores[i, j] == pytest.approx(scores[j, i])
    # triangle inequality on the unnormalized distance
    sym = [serialize_symbols(g) for g in graphics]
    for i, j, k in itertools.permutations(range(6), 3):
        dij = levenshtein(sym[i], sym[j])
        djk = levenshtein(sym[j], sym[k])
        dik = levenshtein(sym[i], sym[k])
        assert dik <= dij + djk


def test_serialization_symbol_count():
    g = gen_synthetic(1, 9)[0]
    assert len(serialize_symbols(g)) == 9 * g.command_count() == code_length(g)


def test_serialization_matches_scalar_loop():
    for g in gen_synthetic(24, 4):
        assert serialize_symbols(g) == scalar_serialize(g)
    # a 40 x 10 viewbox offset from the origin, with points left of, above,
    # right of and below it, so every clamp and the shared extent are used
    wide = Graphic(
        paths=(
            Path((
                move_cmd((-5.0, 3.0), (-5.0, 3.0)),
                line_cmd((-5.0, 3.0), (52.5, -7.25)),
                cubic_cmd((52.5, -7.25), (10.0, 12.4), (29.99, 30.0), (12.0, 4.5)),
                line_cmd((12.0, 4.5), (50.0, 13.0)),
            )),
        ),
        viewbox=(10.0, 2.0, 40.0, 10.0),
    )
    got = serialize_symbols(wide)
    assert got == scalar_serialize(wide)
    assert 3 in got and 258 in got
    assert serialize_symbols(Graphic(paths=(), viewbox=(0, 0, 1, 1))) == []


def test_serialization_rejects_non_finite_coordinates():
    bad = Graphic(
        paths=(Path((move_cmd((0.0, 0.0), (0.0, 0.0)), line_cmd((0.0, 0.0), (np.nan, 1.0)))),),
        viewbox=(0, 0, 16, 16),
    )
    with pytest.raises(ValueError):
        serialize_symbols(bad)


def test_compression_ratio():
    assert compression_ratio(1000, 250) == 4.0
    assert compression_ratio(7, 7) == 1.0
    with pytest.raises(ZeroLength):
        compression_ratio(10, 0)
    assert compression_ratio(250, 1000) * compression_ratio(1000, 250) == 1.0


def test_recall():
    golden = seq([3, 7, 7, 9])
    assert recall_score(golden, seq([7, 3])) == 0.5
    assert recall_score(golden, seq([3, 7, 7, 9])) == 1.0
    assert recall_score(golden, seq([1, 2, 4])) == 0.0


def test_recall_monotone_in_generated():
    rng = np.random.default_rng(11)
    golden = seq(list(rng.integers(0, 32, size=20)))
    gen = []
    prev = 0.0
    for _ in range(30):
        gen.append(int(rng.integers(0, 32)))
        cur = recall_score(golden, seq(gen))
        assert cur >= prev
        prev = cur


def test_recall_vocab_mismatch():
    """Ids of two layouts are not comparable: the error names both."""
    with pytest.raises(LayoutMismatch) as ei:
        recall_score(seq([1], d=2), seq([1], d=3, b=8, stages=2))
    assert str(ei.value) == (
        "token layouts differ: golden has d=2 B=16 stages=1, "
        "generated has d=3 B=8 stages=2"
    )


def test_pixel_iou_identity_and_disjoint():
    g = gen_synthetic(1, 6)[0]
    assert pixel_iou(g, g, res=64) == 1.0
    a = Graphic(
        paths=(Path((move_cmd((1, 1), (1, 1)), line_cmd((1, 1), (3, 1)))),),
        viewbox=(0, 0, 16, 16),
    )
    b = Graphic(
        paths=(Path((move_cmd((1, 12), (1, 12)), line_cmd((1, 12), (3, 12)))),),
        viewbox=(0, 0, 16, 16),
    )
    assert pixel_iou(a, b, res=64) == 0.0


def test_pixel_iou_translation_counting_oracle():
    from stroketok.render import rasterize

    a = Graphic(
        paths=(Path((move_cmd((2, 2), (2, 2)), line_cmd((2, 2), (14, 2)))),),
        viewbox=(0, 0, 16, 16),
    )
    shifted = Graphic(
        paths=(Path((move_cmd((2, 10), (2, 10)), line_cmd((2, 10), (14, 10)))),),
        viewbox=(0, 0, 16, 16),
    )
    half_overlap = Graphic(
        paths=(Path((move_cmd((8, 2), (8, 2)), line_cmd((8, 2), (20, 2)))),),
        viewbox=(0, 0, 16, 16),
    )
    val = pixel_iou(a, half_overlap, res=64)
    assert 0.0 < val < 1.0
    ga = rasterize(a, 64, 2)
    gb = rasterize(half_overlap, 64, 2)
    inter = int((ga & gb).sum())
    union = int((ga | gb).sum())
    assert val == inter / union
    assert pixel_iou(a, shifted, res=64) == 0.0


def test_render_failure():
    bad = Graphic(
        paths=(Path((move_cmd((0, 0), (0, 0)),)),),
        viewbox=(0, 0, 16, 16),
    )
    with pytest.raises(RenderFailure):
        pixel_iou(bad, bad, res=4)  # res below the floor
