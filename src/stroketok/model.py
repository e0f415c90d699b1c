"""Core geometry model: graphics made of three basic commands.

Every drawable in this package is reduced to ordered paths of MoveTo ("M"),
LineTo ("L") and CubicBezier ("C") commands. Each command carries a begin
point, two control points and an end point, so a command is fully described
by its type plus eight coordinates. For M and L the control points are the
exact cubic representation of the segment (points at 1/3 and 2/3 between
begin and end), which keeps every channel geometrically meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import StroketokError

MOVE = "M"
LINE = "L"
CUBIC = "C"
BASIC_TYPES = (MOVE, LINE, CUBIC)

Point = tuple[float, float]


class MalformedSvg(StroketokError):
    """XML or path-grammar violation. `offset` locates the failure: a byte
    offset into the document for XML errors, or an offset into the failing
    attribute value for path-grammar errors."""

    def __init__(self, message: str, offset: int = -1):
        super().__init__(message)
        self.offset = offset


class EmptyGraphic(StroketokError):
    """Document contained no drawable content."""


@dataclass(frozen=True)
class BasicCommand:
    cmd_type: str
    begin: Point
    ctrl0: Point
    ctrl1: Point
    end: Point

    def points(self) -> tuple[Point, Point, Point, Point]:
        return (self.begin, self.ctrl0, self.ctrl1, self.end)

    def is_finite(self) -> bool:
        return all(math.isfinite(v) for p in self.points() for v in p)


def _lerp(a: Point, b: Point, t: float) -> Point:
    return (a[0] + (b[0] - a[0]) * t, a[1] + (b[1] - a[1]) * t)


def fill_controls(begin: Point, end: Point) -> tuple[Point, Point]:
    """Canonical control points for M/L commands: the segment's exact cubic."""
    return _lerp(begin, end, 1.0 / 3.0), _lerp(begin, end, 2.0 / 3.0)


def move_cmd(begin: Point, end: Point) -> BasicCommand:
    c0, c1 = fill_controls(begin, end)
    return BasicCommand(MOVE, begin, c0, c1, end)


def line_cmd(begin: Point, end: Point) -> BasicCommand:
    c0, c1 = fill_controls(begin, end)
    return BasicCommand(LINE, begin, c0, c1, end)


def cubic_cmd(begin: Point, ctrl0: Point, ctrl1: Point, end: Point) -> BasicCommand:
    return BasicCommand(CUBIC, begin, ctrl0, ctrl1, end)


@dataclass(frozen=True)
class Path:
    """Ordered commands; canonical paths start with MoveTo and chain exactly
    (each command's end equals the next command's begin). Decoded paths may
    violate chaining until repaired."""

    commands: tuple[BasicCommand, ...]

    def __len__(self) -> int:
        return len(self.commands)


@dataclass(frozen=True)
class Graphic:
    paths: tuple[Path, ...]
    viewbox: tuple[float, float, float, float]
    keywords: tuple[str, ...] = field(default=())

    def command_count(self) -> int:
        return sum(len(p) for p in self.paths)

    def all_commands(self):
        for p in self.paths:
            yield from p.commands

    def max_extent(self) -> float:
        return max(self.viewbox[2], self.viewbox[3])


def bounding_box(commands) -> tuple[float, float, float, float]:
    """(min_x, min_y, width, height) over all command points; degenerate
    extents are padded to 1 so the box is always usable as a viewbox."""
    xs: list[float] = []
    ys: list[float] = []
    for cmd in commands:
        for x, y in cmd.points():
            xs.append(x)
            ys.append(y)
    if not xs:
        return (0.0, 0.0, 1.0, 1.0)
    min_x, min_y = min(xs), min(ys)
    w = max(xs) - min_x
    h = max(ys) - min_y
    return (min_x, min_y, w if w > 0 else 1.0, h if h > 0 else 1.0)
