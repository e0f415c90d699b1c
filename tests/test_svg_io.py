import math

import numpy as np
import pytest

from stroketok.model import CUBIC, LINE, MOVE, EmptyGraphic, MalformedSvg
from stroketok.pathdata import KAPPA, arc_to_cubics, elevate_quadratic
from stroketok.svg_io import (
    Rejected,
    TOO_LONG,
    dump_graphic,
    gen_synthetic,
    graphic_to_svg,
    load_graphic,
    parse_svg,
    preprocess,
    simplify,
)


def cubic_point(p0, c0, c1, p1, t):
    s = 1 - t
    return (
        s**3 * p0[0] + 3 * s**2 * t * c0[0] + 3 * s * t**2 * c1[0] + t**3 * p1[0],
        s**3 * p0[1] + 3 * s**2 * t * c0[1] + 3 * s * t**2 * c1[1] + t**3 * p1[1],
    )


def quad_point(p0, q, p1, t):
    s = 1 - t
    return (
        s**2 * p0[0] + 2 * s * t * q[0] + t**2 * p1[0],
        s**2 * p0[1] + 2 * s * t * q[1] + t**2 * p1[1],
    )


def test_parse_line():
    g = parse_svg('<svg viewBox="0 0 10 10"><path d="M 0 0 L 10 0"/></svg>')
    assert len(g.paths) == 1
    cmds = g.paths[0].commands
    assert [c.cmd_type for c in cmds] == [MOVE, LINE]
    assert cmds[0].begin == (0.0, 0.0) and cmds[0].end == (0.0, 0.0)
    assert cmds[1].begin == (0.0, 0.0) and cmds[1].end == (10.0, 0.0)
    assert g.viewbox == (0.0, 0.0, 10.0, 10.0)


def test_close_lowered_not_error():
    g = parse_svg('<svg><path d="M 0 0 Z"/></svg>')
    cmds = g.paths[0].commands
    assert [c.cmd_type for c in cmds] == [MOVE, LINE]
    assert cmds[1].begin == cmds[1].end == (0.0, 0.0)


def test_quadratic_degree_elevation():
    g = parse_svg('<svg viewBox="0 0 4 4"><path d="M 0 0 Q 2 4 4 0"/></svg>')
    c = g.paths[0].commands[1]
    assert c.cmd_type == CUBIC
    assert c.ctrl0 == pytest.approx((4 / 3, 8 / 3))
    assert c.ctrl1 == pytest.approx((8 / 3, 8 / 3))
    # sampling oracle: elevated cubic must match the quadratic pointwise
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        pc = cubic_point(c.begin, c.ctrl0, c.ctrl1, c.end, t)
        pq = quad_point((0, 0), (2, 4), (4, 0), t)
        assert pc == pytest.approx(pq, abs=1e-12)


def test_elevation_oracle_random():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p0, q, p1 = [tuple(rng.uniform(-10, 10, 2)) for _ in range(3)]
        c0, c1 = elevate_quadratic(p0, q, p1)
        for t in np.linspace(0, 1, 9):
            assert cubic_point(p0, c0, c1, p1, t) == pytest.approx(
                quad_point(p0, q, p1, t), abs=1e-9
            )


def test_arc_quarter_circle_kappa():
    segs = arc_to_cubics((1.0, 0.0), 1.0, 1.0, 0.0, 0, 1, (0.0, 1.0))
    assert len(segs) == 1
    c0, c1, end = segs[0]
    assert end == (0.0, 1.0)
    assert c0 == pytest.approx((1.0, KAPPA), abs=1e-12)
    assert c1 == pytest.approx((KAPPA, 1.0), abs=1e-12)


def test_arc_radial_error_oracle():
    # max radial deviation of the cubic approximation < 3e-4 * r
    for r in (1.0, 5.0, 37.5):
        segs = arc_to_cubics((r, 0.0), r, r, 0.0, 0, 1, (0.0, r))
        (c0, c1, end) = segs[0]
        worst = 0.0
        for t in np.linspace(0, 1, 2000):
            x, y = cubic_point((r, 0.0), c0, c1, end, t)
            worst = max(worst, abs(math.hypot(x, y) - r))
        assert worst < 3e-4 * r


def test_arc_full_sweeps_chain():
    # 270-degree arc splits into three segments that chain exactly
    segs = arc_to_cubics((1.0, 0.0), 1.0, 1.0, 0.0, 1, 1, (0.0, -1.0))
    assert len(segs) == 3
    assert segs[-1][2] == (0.0, -1.0)


def test_rect_decomposition():
    g = parse_svg('<svg viewBox="0 0 8 8"><rect x="1" y="1" width="2" height="3"/></svg>')
    cmds = g.paths[0].commands
    assert [c.cmd_type for c in cmds] == [MOVE, LINE, LINE, LINE, LINE]
    assert cmds[0].end == (1.0, 1.0)
    assert [c.end for c in cmds[1:]] == [(3.0, 1.0), (3.0, 4.0), (1.0, 4.0), (1.0, 1.0)]


SHAPES_DOC = """<svg viewBox="0 0 100 100">
  <circle cx="50" cy="50" r="10"/>
  <ellipse cx="20" cy="20" rx="5" ry="8"/>
  <line x1="0" y1="0" x2="10" y2="10"/>
  <polyline points="0,0 5,5 10,0"/>
  <polygon points="60,60 80,60 70,80"/>
</svg>"""

# every path command, absolute then relative, over several subpaths
EVERY_COMMAND_DOC = (
    '<svg viewBox="0 0 40 40"><path d="M1 1 L2 2 H3 V4 C5 5 6 6 7 7 S8 8 9 9 '
    "Q10 12 13 14 T15 16 A2 3 0 0 1 18 11 Z m1 1 l1 1 h1 v1 c1 1 2 2 3 3 "
    's1 1 2 2 q1 1 2 2 t1 1 a2 2 0 1 0 3 3 z M30 30 L31 31"/></svg>'
)


def test_shapes_lower():
    g = parse_svg(SHAPES_DOC)
    assert len(g.paths) == 5
    types = {c.cmd_type for c in g.all_commands()}
    assert types <= {MOVE, LINE, CUBIC}
    # circle: MoveTo plus four cubics
    assert [c.cmd_type for c in g.paths[0].commands] == [MOVE] + [CUBIC] * 4


def test_unsupported_skipped(caplog):
    doc = '<svg viewBox="0 0 4 4"><text x="1" y="1">hi</text><path d="M0 0 L1 1"/></svg>'
    with caplog.at_level("WARNING"):
        g = parse_svg(doc)
    assert len(g.paths) == 1
    assert any("text" in r.message for r in caplog.records)


def deep_svg(depth: int) -> str:
    """Three drawables in document order, the middle one under `depth`
    nested groups (and the first under one, with a skipped <defs>)."""
    return ('<svg viewBox="0 0 10 10"><g><defs><path d="M9 9 L8 8"/></defs>'
            '<circle cx="5" cy="5" r="2"/></g>'
            + "<g>" * depth + '<path d="M0 0 L5 5 C6 6 7 6 8 5"/>' + "</g>" * depth
            + '<line x1="1" y1="1" x2="3" y2="3"/></svg>')


def test_nesting_depth_changes_nothing():
    """Groups nest to any depth (the walk keeps its own stack): 5000 of
    them parse to the graphic that one group gives, in document order."""
    deep, flat = parse_svg(deep_svg(5000)), parse_svg(deep_svg(1))
    assert deep == flat
    assert [len(p) for p in deep.paths] == [5, 3, 2]


def test_empty_graphic():
    with pytest.raises(EmptyGraphic):
        parse_svg('<svg viewBox="0 0 4 4"><defs/></svg>')


def test_malformed_xml_offset():
    with pytest.raises(MalformedSvg) as ei:
        parse_svg("<svg><path d='M 0 0'></svg>")
    assert ei.value.offset >= 0


def test_malformed_path_grammar():
    with pytest.raises(MalformedSvg):
        parse_svg('<svg><path d="L 1 1"/></svg>')  # must start with moveto
    with pytest.raises(MalformedSvg):
        parse_svg('<svg><path d="M 0 0 Z 5 5"/></svg>')  # stray args after Z
    with pytest.raises(MalformedSvg):
        parse_svg('<svg><path d="M 0 0 L 1"/></svg>')  # missing coordinate


@pytest.mark.parametrize(
    "doc, field",
    [
        ('<svg viewBox="0 0 1e999 8"><path d="M 0 0 L 1 5"/></svg>', "viewBox"),
        ('<svg viewBox="0 0 8 8"><circle r="nan"/></svg>', "<circle> attribute r"),
        ('<svg viewBox="0 0 8 8"><rect width="inf" height="1"/></svg>',
         "<rect> attribute width"),
        ('<svg viewBox="0 0 8 8"><polygon points="0 0 1 -1e999 2 2"/></svg>',
         "<polygon> attribute points"),
    ],
)
def test_non_finite_numbers_are_rejected_by_field(doc, field):
    with pytest.raises(MalformedSvg, match="finite") as ei:
        parse_svg(doc)
    assert field in str(ei.value)


def test_interconnection_exact():
    doc = '<svg viewBox="0 0 10 10"><path d="M1 1 L5 5 Q 6 7 8 8 C 9 9 9 5 5 1 Z"/></svg>'
    g = parse_svg(doc)
    for path in g.paths:
        for a, b in zip(path.commands, path.commands[1:]):
            assert a.end == b.begin


def test_lowering_soundness_sampled():
    # lowered output must track source primitives at 64 parameter samples
    doc = '<svg viewBox="0 0 20 20"><path d="M 2 2 A 5 5 0 0 1 12 2"/></svg>'
    g = parse_svg(doc)
    cmds = [c for c in g.all_commands() if c.cmd_type == CUBIC]
    # source: semicircle of radius 5 centered at (7, 2), sweep-positive
    center = (7.0, 2.0)
    worst = 0.0
    for c in cmds:
        for t in np.linspace(0, 1, 64):
            x, y = cubic_point(c.begin, c.ctrl0, c.ctrl1, c.end, t)
            worst = max(worst, abs(math.hypot(x - center[0], y - center[1]) - 5.0))
    assert worst < 0.01  # arc tolerance in canvas units


def test_simplify_idempotent():
    for doc in (
        '<svg viewBox="0 0 10 10"><path d="M1 1 C 2 3 4 5 6 7 L 8 8"/></svg>',
        SHAPES_DOC,
        EVERY_COMMAND_DOC,
    ):
        g = parse_svg(doc)
        s1 = simplify(g)
        assert simplify(s1) == s1
        assert s1 == g  # parse output is already canonical
        # the pen rule, across elements and subpaths
        for prev, path in zip(g.paths, g.paths[1:]):
            assert path.commands[0].begin == prev.commands[-1].end


def test_simplify_multipath_pen_chain():
    g = parse_svg('<svg viewBox="0 0 10 10"><path d="M1 1 L2 2 M5 5 L6 6"/></svg>')
    assert len(g.paths) == 2
    assert g.paths[1].commands[0].begin == (2.0, 2.0)  # pen carried across


def test_preprocess_too_long():
    pts = " ".join(f"L {i % 7} {i % 5}" for i in range(1, 1200))
    g = parse_svg(f'<svg viewBox="0 0 8 8"><path d="M 0 0 {pts}"/></svg>')
    out = preprocess(g)
    assert out == Rejected(TOO_LONG)
    assert preprocess(g, max_commands=2000).command_count() == 1200


def test_preprocess_dedup():
    doc = '<svg viewBox="0 0 8 8"><path d="M1 1 L2 2"/><path d="M1 1 L2 2"/></svg>'
    g = parse_svg(doc)
    out = preprocess(g)
    assert len(out.paths) == 1


def test_preprocess_outer_box():
    doc = (
        '<svg viewBox="0 0 100 100">'
        '<rect x="0" y="0" width="100" height="100"/>'
        '<path d="M10 10 L50 50 L90 10"/></svg>'
    )
    g = parse_svg(doc)
    out = preprocess(g)
    assert len(out.paths) == 1
    assert len(out.paths[0]) == 3
    # a small rectangle stays
    doc2 = doc.replace('width="100" height="100"', 'width="40" height="40"')
    out2 = preprocess(parse_svg(doc2))
    assert len(out2.paths) == 2


def test_preprocess_never_grows():
    for g in gen_synthetic(10, 11):
        out = preprocess(g)
        assert not isinstance(out, Rejected)
        assert out.command_count() <= g.command_count()


def test_synthetic_deterministic():
    a = gen_synthetic(1, 7)
    b = gen_synthetic(1, 7)
    assert a == b


def test_synthetic_circle_structure():
    for g in gen_synthetic(40, 5):
        if "circle" in g.keywords:
            types = [c.cmd_type for c in g.paths[0].commands]
            assert types == [MOVE] + [CUBIC] * 4
            break
    else:
        pytest.fail("no circle generated in 40 draws")


def test_synthetic_passes_preprocess():
    # preprocess as oracle over the generated set
    for g in gen_synthetic(100, 13):
        out = preprocess(g)
        assert not isinstance(out, Rejected)
        assert out.command_count() == g.command_count()
        assert len(g.keywords) >= 2


def test_json_round_trip():
    for g in gen_synthetic(5, 3):
        text = dump_graphic(g)
        g2 = load_graphic(text)
        # 6-decimal quantization; a second dump must be byte-stable
        assert dump_graphic(g2) == text
        assert g2.viewbox == g.viewbox and g2.keywords == g.keywords
        for pa, pb in zip(g.paths, g2.paths):
            for ca, cb in zip(pa.commands, pb.commands):
                assert ca.cmd_type == cb.cmd_type
                for qa, qb in zip(ca.points(), cb.points()):
                    assert qa == pytest.approx(qb, abs=1e-6)
        # interconnection survives quantization bit-exactly
        for path in g2.paths:
            for a, b in zip(path.commands, path.commands[1:]):
                assert a.end == b.begin


def test_json_six_decimals():
    g = gen_synthetic(1, 1)[0]
    assert '"viewbox":[0.000000,0.000000,256.000000,256.000000]' in dump_graphic(g)


def test_svg_writer_parses_back():
    g = gen_synthetic(3, 21)[0]
    doc = graphic_to_svg(g)
    g2 = parse_svg(doc)
    assert g2.command_count() == g.command_count()
    first = g.paths[0].commands[-1].end
    second = g2.paths[0].commands[-1].end
    assert second == pytest.approx(first, abs=1e-5)
