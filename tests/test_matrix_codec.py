import numpy as np
import pytest

from stroketok.matrix_codec import (
    FROM_UNIT,
    TO_UNIT,
    BrokenChain,
    DomainViolation,
    StrokeMatrix,
    from_matrix,
    scale,
    snap_type,
    to_matrix,
)
from stroketok.model import CUBIC, LINE, MOVE, Graphic, Path, line_cmd, move_cmd
from stroketok.svg_io import gen_synthetic, parse_svg


def simple_graphic():
    return parse_svg('<svg viewBox="0 0 10 10"><path d="M 0 0 L 10 0"/></svg>')


def test_to_matrix_fill_rule_rows():
    m = to_matrix(simple_graphic())
    assert m.rows.shape == (2, 9)
    # MoveTo with begin == end: all points collapse to the origin
    np.testing.assert_allclose(m.rows[0], [-1, 0, 0, 0, 0, 0, 0, 0, 0])
    # LineTo controls at thirds of the segment
    np.testing.assert_allclose(m.rows[1], [0, 0, 0, 10 / 3, 0, 20 / 3, 0, 10, 0])


def test_row_count_is_total_commands():
    doc = (
        '<svg viewBox="0 0 50 50">'
        '<path d="M1 1 L2 2"/><path d="M3 3 L4 4 L5 5"/><path d="M6 6 L7 7 L8 8 L9 9"/>'
        "</svg>"
    )
    g = parse_svg(doc)
    assert [len(p) for p in g.paths] == [2, 3, 4]
    assert to_matrix(g).rows.shape == (9, 9)


def test_round_trip_exact():
    for g in gen_synthetic(20, 123):
        m = to_matrix(g)
        g2 = from_matrix(m, g.viewbox, g.keywords)
        assert g2 == g


def test_round_trip_with_scaling():
    for g in gen_synthetic(10, 99):
        m = to_matrix(g)
        ms = scale(m, TO_UNIT, g.viewbox)
        assert ms.scaled and np.abs(ms.rows).max() <= 1.0 + 1e-12
        m2 = scale(ms, FROM_UNIT, g.viewbox)
        assert np.abs(m2.rows - m.rows).max() < 1e-9


def test_broken_chain_detected():
    p = Path((move_cmd((0, 0), (0, 0)), line_cmd((3, 3), (5, 5))))
    g = Graphic(paths=(p,), viewbox=(0, 0, 10, 10))
    with pytest.raises(BrokenChain):
        to_matrix(g)


def test_type_snapping():
    assert snap_type(0.9 * 1.0 + 0.1 * 0.0) == CUBIC
    assert snap_type(-0.6) == MOVE
    assert snap_type(-0.4) == LINE
    assert snap_type(0.2) == LINE
    # snapping invariant under monotone rescaling of distance: argmin only
    row = np.array([0.49, 1, 1, 1, 1, 1, 1, 2, 2.0])
    g = from_matrix(StrokeMatrix(row[None, :]), (0, 0, 4, 4))
    assert g.paths[0].commands[-1].cmd_type == LINE


def test_leading_line_synthesizes_move():
    rows = np.array([[0.0, 1, 1, 2, 2, 3, 3, 4, 4]])
    g = from_matrix(StrokeMatrix(rows), (0, 0, 8, 8))
    cmds = g.paths[0].commands
    assert cmds[0].cmd_type == MOVE
    assert cmds[0].begin == cmds[0].end == (1.0, 1.0)
    assert cmds[1].cmd_type == LINE


def test_from_matrix_splits_at_moves():
    rows = np.array(
        [
            [-1.0, 0, 0, 0, 0, 0, 0, 1, 1],
            [0.0, 1, 1, 2, 2, 3, 3, 4, 4],
            [-1.0, 4, 4, 0, 0, 0, 0, 5, 5],
            [1.0, 5, 5, 6, 6, 7, 7, 8, 8],
        ]
    )
    g = from_matrix(StrokeMatrix(rows), (0, 0, 8, 8))
    assert len(g.paths) == 2
    assert [len(p) for p in g.paths] == [2, 2]


def test_scale_trivials():
    rows = np.array([[0.0, 128, 128, 0, 0, 256, 256, 128, 0.0]])
    ms = scale(StrokeMatrix(rows), TO_UNIT, (0, 0, 256, 256))
    np.testing.assert_allclose(ms.rows[0], [0, 0, 0, -1, -1, 1, 1, 0, -1])


def test_scale_property_random():
    rng = np.random.default_rng(17)
    for _ in range(50):
        rows = rng.uniform(-50, 300, size=(rng.integers(1, 30), 9))
        vb = (
            float(rng.uniform(-20, 20)),
            float(rng.uniform(-20, 20)),
            float(rng.uniform(1, 400)),
            float(rng.uniform(1, 400)),
        )
        m = StrokeMatrix(rows.copy())
        back = scale(scale(m, TO_UNIT, vb), FROM_UNIT, vb, eps=np.inf)
        assert np.abs(back.rows - rows).max() < 1e-12


def test_scale_affine_preserves_ratios():
    rows = np.array([[0.0, 0, 0, 1, 1, 2, 2, 4, 4]])
    ms = scale(StrokeMatrix(rows), TO_UNIT, (0, 0, 8, 8))
    x = ms.rows[0][[1, 3, 5, 7]]
    # collinear spacing ratios preserved: (x1-x0):(x2-x1):(x3-x2) = 1:1:2
    d = np.diff(x)
    assert d[1] == pytest.approx(d[0])
    assert d[2] == pytest.approx(2 * d[0])


def test_domain_violation():
    rows = np.array([[0.0, 1.5, 0, 0, 0, 0, 0, 0, 0]])
    with pytest.raises(DomainViolation):
        scale(StrokeMatrix(rows, scaled=True), FROM_UNIT, (0, 0, 2, 2))
    # within epsilon passes
    rows2 = np.array([[0.0, 1.0 + 1e-10, 0, 0, 0, 0, 0, 0, 0]])
    scale(StrokeMatrix(rows2, scaled=True), FROM_UNIT, (0, 0, 2, 2))


def test_scale_direction_preconditions():
    m = to_matrix(simple_graphic())
    with pytest.raises(ValueError):
        scale(scale(m, TO_UNIT, (0, 0, 10, 10)), TO_UNIT, (0, 0, 10, 10))
