import time

import numpy as np
import pytest

from stroketok.model import Graphic, Path, cubic_cmd, line_cmd, move_cmd
from stroketok.render import _draw_segment, _flatten_cubic, rasterize, save_pbm, save_png
from stroketok.svg_io import gen_synthetic


def one_path(cmds, vb=(0, 0, 16, 16)):
    return Graphic(paths=(Path(tuple(cmds)),), viewbox=vb)


def test_horizontal_line_one_row():
    g = one_path([move_cmd((0, 8), (0, 8)), line_cmd((0, 8), (16, 8))])
    grid = rasterize(g, 16)
    rows = np.nonzero(grid.any(axis=1))[0]
    assert len(rows) == 1
    assert grid[rows[0]].sum() >= 14


def test_moveto_draws_nothing():
    g = one_path([move_cmd((2, 2), (2, 2))])
    assert rasterize(g, 16).sum() == 0
    g2 = one_path([move_cmd((0, 0), (0, 0)), move_cmd((0, 0), (12, 12))])
    assert rasterize(g2, 16).sum() == 0


def test_cubic_flattening_matches_dense_sampling():
    p0, c0, c1, p1 = (1.0, 1.0), (5.0, 14.0), (11.0, -2.0), (15.0, 15.0)
    g = one_path([move_cmd(p0, p0), cubic_cmd(p0, c0, c1, p1)])
    res = 64
    grid = rasterize(g, res)

    dense = np.zeros_like(grid)
    sf = (res - 1) / 16.0
    prev = None
    for t in np.linspace(0, 1, 1024):
        s = 1 - t
        x = s**3 * p0[0] + 3 * s**2 * t * c0[0] + 3 * s * t**2 * c1[0] + t**3 * p1[0]
        y = s**3 * p0[1] + 3 * s**2 * t * c0[1] + 3 * s * t**2 * c1[1] + t**3 * p1[1]
        px, py = int(round(x * sf)), int(round(y * sf))
        if 0 <= px < res and 0 <= py < res:
            dense[py, px] = True
        prev = (px, py)

    # every flattened pixel within 1 px (Chebyshev) of a dense-sample pixel
    ys, xs = np.nonzero(grid)
    dys, dxs = np.nonzero(dense)
    for y, x in zip(ys, xs):
        assert np.min(np.maximum(np.abs(dys - y), np.abs(dxs - x))) <= 1


def test_flattening_refinement():
    p0, c0, c1, p1 = (0.0, 0.0), (20.0, 40.0), (40.0, -20.0), (60.0, 10.0)
    fine, coarse = [p0], [p0]
    _flatten_cubic(p0, c0, c1, p1, 0.125, 0, fine)
    _flatten_cubic(p0, c0, c1, p1, 0.25, 0, coarse)
    assert len(fine) >= len(coarse)
    # doubling the threshold never strays: coarse vertices near fine polyline
    fine_arr = np.array(fine)
    for v in coarse:
        d = np.hypot(fine_arr[:, 0] - v[0], fine_arr[:, 1] - v[1]).min()
        assert d <= 1.0


def test_determinism():
    g = gen_synthetic(1, 42)[0]
    a = rasterize(g, 128)
    b = rasterize(g, 128)
    assert np.array_equal(a, b)


def test_stroke_dilation():
    g = one_path([move_cmd((0, 8), (0, 8)), line_cmd((0, 8), (16, 8))])
    thin = rasterize(g, 32, stroke_px=1)
    thick = rasterize(g, 32, stroke_px=3)
    assert thick.sum() > thin.sum()
    assert (thin & ~thick).sum() == 0  # dilation is a superset


def test_res_floor():
    g = gen_synthetic(1, 1)[0]
    with pytest.raises(ValueError):
        rasterize(g, 4)
    # and a stroke narrower than one pixel
    for stroke_px in (0, -3):
        with pytest.raises(ValueError, match="stroke_px must be >= 1"):
            rasterize(g, 32, stroke_px=stroke_px)


def test_file_outputs(tmp_path):
    g = gen_synthetic(1, 14)[0]
    grid = rasterize(g, 32)
    png = tmp_path / "g.png"
    pbm = tmp_path / "g.pbm"
    save_png(grid, str(png))
    save_pbm(grid, str(pbm))
    blob = png.read_bytes()
    assert blob[:8] == b"\x89PNG\r\n\x1a\n"
    text = pbm.read_text().splitlines()
    assert text[0] == "P1" and text[1] == "32 32"
    # deterministic bytes
    save_png(grid, str(png))
    assert png.read_bytes() == blob


def reference_walk(res, x0, y0, x1, y1):
    """The unclipped Bresenham walk the rasterizer used before clipping:
    every pixel of the segment visited, the off-canvas ones skipped."""
    grid = np.zeros((res, res), dtype=bool)
    dx, dy = abs(x1 - x0), -abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx + dy
    x, y = x0, y0
    while True:
        if 0 <= x < res and 0 <= y < res:
            grid[y, x] = True
        if x == x1 and y == y1:
            break
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x += sx
        if e2 <= dx:
            err += dx
            y += sy
    return grid


@pytest.mark.parametrize("lo, hi", [(0, 16), (-40, 56)], ids=["on_canvas", "crossing"])
def test_clipped_walk_draws_the_unclipped_pixels(lo, hi):
    """Segments with both ends on the canvas, and segments that cross its
    edges, light exactly the pixels of the unclipped walk."""
    rng = np.random.default_rng(0)
    res = 16
    for x0, y0, x1, y1 in rng.integers(lo, hi, size=(2000, 4)).tolist():
        grid = np.zeros((res, res), dtype=bool)
        _draw_segment(grid, x0, y0, x1, y1)
        assert np.array_equal(grid, reference_walk(res, x0, y0, x1, y1)), (x0, y0, x1, y1)


@pytest.mark.parametrize("far", [1e6, 1e300])
def test_far_segment_renders_fast(far):
    g = one_path([move_cmd((0, 0), (0, 0)), line_cmd((0, 0), (far, 5))], vb=(0, 0, 8, 8))
    t0 = time.perf_counter()
    grid = rasterize(g, 256)
    assert time.perf_counter() - t0 < 0.1
    assert grid[0, 0] and grid.sum() == 256
