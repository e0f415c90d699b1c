"""Minimal monochrome rasterizer for simplified graphics.

Cubics are flattened (`flatten_cubic`) by recursive midpoint subdivision
until the control points sit within FLATNESS_PX = 0.25 px of the chord, then
every segment is drawn with an integer Bresenham walk, clipped to the canvas
before it starts, and optionally dilated to the requested stroke width.
MoveTo draws nothing. Bitmaps are boolean res x res grids, True = stroke on
a white background.

Outputs: 8-bit grayscale PNG (stroke black) and P1 PBM text.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

from .model import CUBIC, LINE, MOVE, Graphic, Point

FLATNESS_PX = 0.25
_MAX_DEPTH = 24


def _flatten_cubic(p0, p1, p2, p3, flatness: float, depth: int, out: list) -> None:
    # Flatness = max control-point distance to the chord p0-p3.
    dx, dy = p3[0] - p0[0], p3[1] - p0[1]
    chord = math.hypot(dx, dy)
    if chord < 1e-12:
        d1 = math.dist(p1, p0)
        d2 = math.dist(p2, p0)
    else:
        d1 = abs((p1[0] - p0[0]) * dy - (p1[1] - p0[1]) * dx) / chord
        d2 = abs((p2[0] - p0[0]) * dy - (p2[1] - p0[1]) * dx) / chord
    if max(d1, d2) <= flatness or depth >= _MAX_DEPTH:
        out.append(p3)
        return
    # de Casteljau split at t = 1/2
    m01 = ((p0[0] + p1[0]) / 2, (p0[1] + p1[1]) / 2)
    m12 = ((p1[0] + p2[0]) / 2, (p1[1] + p2[1]) / 2)
    m23 = ((p2[0] + p3[0]) / 2, (p2[1] + p3[1]) / 2)
    m012 = ((m01[0] + m12[0]) / 2, (m01[1] + m12[1]) / 2)
    m123 = ((m12[0] + m23[0]) / 2, (m12[1] + m23[1]) / 2)
    mid = ((m012[0] + m123[0]) / 2, (m012[1] + m123[1]) / 2)
    _flatten_cubic(p0, m01, m012, mid, flatness, depth + 1, out)
    _flatten_cubic(mid, m123, m23, p3, flatness, depth + 1, out)


def flatten_cubic(p0: Point, p1: Point, p2: Point, p3: Point) -> list[Point]:
    """Polyline vertices approximating the cubic within FLATNESS_PX,
    starting at p0."""
    out: list[Point] = [p0]
    _flatten_cubic(p0, p1, p2, p3, FLATNESS_PX, 0, out)
    return out


def _draw_segment(grid: np.ndarray, x0: int, y0: int, x1: int, y1: int) -> None:
    """Mark the on-canvas pixels of the Bresenham walk from (x0, y0) to
    (x1, y1).

    Along the major axis x (|x1 - x0| >= |y1 - y0|; a y-major segment is
    walked on the transposed grid), step k of the walk is at x0 + sx*k,
    y0 + sy*((2*b*k + a) // (2*a)) for a = |x1 - x0|, b = |y1 - y0|: exactly
    where the incremental walk (err = a - b, e2 = 2*err) puts it. So the
    steps on the canvas form one range of k, found in closed form, and only
    those are visited.
    """
    if abs(x1 - x0) < abs(y1 - y0):
        grid, x0, y0, x1, y1 = grid.T, y0, x0, y1, x1
    res = grid.shape[0]
    a, b = abs(x1 - x0), abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    k_lo, k_hi = 0, a
    if not (0 <= x0 < res and 0 <= y0 < res and 0 <= x1 < res and 0 <= y1 < res):
        # the steps that keep x, and the y offsets that keep y, on the canvas
        x_lo, x_hi = sorted((-x0 * sx, (res - 1 - x0) * sx))
        j_lo, j_hi = sorted((-y0 * sy, (res - 1 - y0) * sy))
        k_lo, k_hi = max(0, x_lo), min(a, x_hi)
        if b:
            # the first step with offset >= j_lo (a ceiling division), the
            # last with offset <= j_hi
            k_lo = max(k_lo, -((a - 2 * a * j_lo) // (2 * b)))
            k_hi = min(k_hi, (2 * a * j_hi + a - 1) // (2 * b))
        elif not j_lo <= 0 <= j_hi:
            return
    two_a = 2 * a or 1  # a == 0 is a single pixel, offset 0
    for k in range(k_lo, k_hi + 1):
        grid[y0 + sy * ((2 * b * k + a) // two_a), x0 + sx * k] = True


def _dilate(grid: np.ndarray, stroke_px: int) -> np.ndarray:
    lo = -((stroke_px - 1) // 2)
    hi = stroke_px // 2
    out = np.zeros_like(grid)
    for oy in range(lo, hi + 1):
        for ox in range(lo, hi + 1):
            shifted = np.roll(grid, (oy, ox), axis=(0, 1))
            # np.roll wraps; zero the wrapped band
            if oy > 0:
                shifted[:oy, :] = False
            elif oy < 0:
                shifted[oy:, :] = False
            if ox > 0:
                shifted[:, :ox] = False
            elif ox < 0:
                shifted[:, ox:] = False
            out |= shifted
    return out


def rasterize(g: Graphic, res: int, stroke_px: int = 1) -> np.ndarray:
    """Boolean res x res bitmap of the graphic's outline, stroke_px wide."""
    if res < 8:
        raise ValueError("res must be >= 8")
    if stroke_px < 1:
        raise ValueError("stroke_px must be >= 1")
    min_x, min_y, w, h = g.viewbox
    extent = max(w, h)
    sf = (res - 1) / extent

    def to_px(p: Point) -> Point:
        x, y = (p[0] - min_x) * sf, (p[1] - min_y) * sf
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"point {p} maps to the non-finite pixel ({x}, {y})")
        return (x, y)

    grid = np.zeros((res, res), dtype=bool)
    for path in g.paths:
        for cmd in path.commands:
            if cmd.cmd_type == MOVE:
                continue
            if cmd.cmd_type == LINE:
                pts = [to_px(cmd.begin), to_px(cmd.end)]
            elif cmd.cmd_type == CUBIC:
                pts = flatten_cubic(
                    to_px(cmd.begin), to_px(cmd.ctrl0), to_px(cmd.ctrl1), to_px(cmd.end)
                )
            else:
                continue
            for a, b in zip(pts, pts[1:]):
                _draw_segment(
                    grid,
                    int(round(a[0])),
                    int(round(a[1])),
                    int(round(b[0])),
                    int(round(b[1])),
                )
    return _dilate(grid, stroke_px)


def save_pbm(grid: np.ndarray, path: str) -> None:
    res_y, res_x = grid.shape
    lines = [f"P1", f"{res_x} {res_y}"]
    for row in grid:
        lines.append(" ".join("1" if v else "0" for v in row))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def save_png(grid: np.ndarray, path: str) -> None:
    """8-bit grayscale PNG, stroke black on white. Deterministic bytes."""
    img = np.where(grid, 0, 255).astype(np.uint8)
    height, width = img.shape
    raw = b"".join(b"\x00" + img[y].tobytes() for y in range(height))

    def chunk(tag: bytes, payload: bytes) -> bytes:
        return (
            struct.pack(">I", len(payload))
            + tag
            + payload
            + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
        )

    header = struct.pack(">IIBBBBB", width, height, 8, 0, 0, 0, 0)
    png = (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", header)
        + chunk(b"IDAT", zlib.compress(raw, 9))
        + chunk(b"IEND", b"")
    )
    with open(path, "wb") as f:
        f.write(png)
