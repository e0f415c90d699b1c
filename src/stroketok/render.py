"""Minimal monochrome rasterizer for simplified graphics.

Cubics are flattened (`flatten_cubic`) by recursive midpoint subdivision
until the control points sit within FLATNESS_PX = 0.25 px of the chord, then
every segment is drawn with an integer Bresenham walk and optionally dilated
to the requested stroke width.
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
    res = grid.shape[0]
    dx = abs(x1 - x0)
    dy = -abs(y1 - y0)
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


def _dilate(grid: np.ndarray, stroke_px: int) -> np.ndarray:
    if stroke_px <= 1:
        return grid
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
    """Boolean res x res bitmap of the graphic's stroked outline."""
    if res < 8:
        raise ValueError("res must be >= 8")
    min_x, min_y, w, h = g.viewbox
    extent = max(w, h)
    sf = (res - 1) / extent

    def to_px(p: Point) -> Point:
        return ((p[0] - min_x) * sf, (p[1] - min_y) * sf)

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
