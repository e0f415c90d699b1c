"""Bidirectional conversion between graphics and the L x 9 stroke matrix.

Row layout: (T, x0, y0, c0x, c0y, c1x, c1y, x1, y1). The type channel T uses
-1.0 for MoveTo, 0.0 for LineTo and +1.0 for CubicBezier in both scaled and
unscaled space (equally spaced codes maximize the snapping margin when
decoding noisy matrices). Coordinate scaling to [-1, 1] is affine and
aspect-preserving: both axes share the larger viewbox extent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StroketokError
from .fixer import check_connectivity
from .model import (
    CUBIC,
    LINE,
    MOVE,
    BasicCommand,
    Graphic,
    Path,
)

TYPE_CODES = {MOVE: -1.0, LINE: 0.0, CUBIC: 1.0}
_CODE_VALUES = np.array([-1.0, 0.0, 1.0])
_CODE_TYPES = (MOVE, LINE, CUBIC)

TO_UNIT = "to_unit"
FROM_UNIT = "from_unit"

_X_COLS = (1, 3, 5, 7)
_Y_COLS = (2, 4, 6, 8)


class NotSimplified(StroketokError):
    """Graphic contains a command outside the three basic types."""


class BrokenChain(StroketokError):
    """Within-path interconnection violated; run the fixer first."""


class DomainViolation(StroketokError):
    """Scaled matrix entry outside [-1-eps, 1+eps]."""


@dataclass
class StrokeMatrix:
    rows: np.ndarray  # (L, 9) float64
    scaled: bool = False

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.float64)
        if self.rows.ndim != 2 or self.rows.shape[1] != 9:
            raise ValueError(f"stroke matrix must be (L, 9), got {self.rows.shape}")

    def __len__(self) -> int:
        return self.rows.shape[0]


def to_matrix(g: Graphic) -> StrokeMatrix:
    """Stack every command of every path into one unscaled matrix row each.

    Coordinates are written verbatim (the control fill for M/L is applied
    where commands are created, not here, so repaired graphics keep their
    literal values). Raises BrokenChain at the first within-path begin/end
    gap `check_connectivity` finds at its default tolerance, 1e-6 of the
    larger viewbox extent.
    """
    if not g.paths:
        raise ValueError("graphic has no paths")
    gaps = check_connectivity(g)
    if gaps:
        pi, j, gap = gaps[0]
        raise BrokenChain(f"path {pi}: gap {gap:g} between commands {j} and {j + 1}")
    rows = []
    for pi, path in enumerate(g.paths):
        for j, cmd in enumerate(path.commands):
            if cmd.cmd_type not in TYPE_CODES:
                raise NotSimplified(f"path {pi} command {j}: type {cmd.cmd_type!r}")
            rows.append(
                (
                    TYPE_CODES[cmd.cmd_type],
                    cmd.begin[0],
                    cmd.begin[1],
                    cmd.ctrl0[0],
                    cmd.ctrl0[1],
                    cmd.ctrl1[0],
                    cmd.ctrl1[1],
                    cmd.end[0],
                    cmd.end[1],
                )
            )
    return StrokeMatrix(np.array(rows, dtype=np.float64), scaled=False)


def snap_type(value: float) -> str:
    """Nearest canonical type code; argmin over distances to -1/0/+1."""
    return _CODE_TYPES[int(np.argmin(np.abs(_CODE_VALUES - value)))]


def from_matrix(
    m: StrokeMatrix,
    viewbox: tuple[float, float, float, float],
    keywords: tuple[str, ...] = (),
) -> Graphic:
    """Total inverse of to_matrix for arbitrary (decoder-output) matrices.

    T channels snap to the nearest code; rows split into a new path at every
    MoveTo; a leading LineTo/Cubic gets a synthesized zero-length MoveTo.
    The result may violate interconnection; the fixer repairs it downstream.
    """
    if m.scaled:
        raise ValueError("from_matrix expects an unscaled matrix")
    if len(m) == 0:
        raise ValueError("matrix has no rows")
    paths: list[Path] = []
    current: list[BasicCommand] = []
    for row in m.rows:
        t = snap_type(float(row[0]))
        cmd = BasicCommand(
            t,
            (float(row[1]), float(row[2])),
            (float(row[3]), float(row[4])),
            (float(row[5]), float(row[6])),
            (float(row[7]), float(row[8])),
        )
        if t == MOVE:
            if current:
                paths.append(Path(tuple(current)))
            current = [cmd]
        else:
            if not current:
                b = cmd.begin
                current = [BasicCommand(MOVE, b, b, b, b)]
            current.append(cmd)
    if current:
        paths.append(Path(tuple(current)))
    return Graphic(paths=tuple(paths), viewbox=viewbox, keywords=keywords)


def scale(
    m: StrokeMatrix,
    direction: str,
    viewbox: tuple[float, float, float, float],
    eps: float = 1e-9,
) -> StrokeMatrix:
    """Affine map between canvas coordinates and [-1, 1] space.

    Per axis: u = 2 (v - min) / E - 1 with E = max(width, height) shared by
    both axes. The type channel is already in [-1, 1] and passes through.
    """
    min_x, min_y, w, h = viewbox
    extent = max(w, h)
    if extent <= 0:
        raise ValueError(f"viewbox extent must be positive, got {viewbox}")
    rows = m.rows.copy()
    if direction == TO_UNIT:
        if m.scaled:
            raise ValueError("matrix is already scaled")
        for cols, lo in ((_X_COLS, min_x), (_Y_COLS, min_y)):
            rows[:, cols] = 2.0 * (rows[:, cols] - lo) / extent - 1.0
        return StrokeMatrix(rows, scaled=True)
    if direction == FROM_UNIT:
        if not m.scaled:
            raise ValueError("matrix is not scaled")
        bad = np.abs(rows) > 1.0 + eps
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise DomainViolation(
                f"scaled entry [{i},{j}] = {rows[i, j]:g} outside [-1, 1]"
            )
        for cols, lo in ((_X_COLS, min_x), (_Y_COLS, min_y)):
            rows[:, cols] = (rows[:, cols] + 1.0) * extent / 2.0 + lo
        return StrokeMatrix(rows, scaled=False)
    raise ValueError(f"direction must be {TO_UNIT!r} or {FROM_UNIT!r}")

