"""SVG path-data ("d" attribute) parsing and lowering to M/L/C.

The full SVG command set is accepted; everything is lowered on the fly:

* H/V become LineTo
* Z becomes a LineTo back to the subpath start (possibly zero-length)
* Q/T are degree-elevated to cubics, S/T reflect the previous control point
* A is converted to cubics, one per <=90 degree sweep, after the W3C
  endpoint-to-center parameterization (with out-of-range radii correction)

Results come back as subpaths: each starts with a MoveTo whose begin point
is provisional (the caller chains it to the running pen position).
"""

from __future__ import annotations

import math
import re

from .model import (
    BasicCommand,
    MalformedSvg,
    Point,
    cubic_cmd,
    line_cmd,
    move_cmd,
)

# One cubic segment approximating a 90-degree circular arc uses this handle
# length as a fraction of the radius: (4/3) * tan(pi/8) = (4/3) * (sqrt(2)-1).
KAPPA = 4.0 / 3.0 * (math.sqrt(2.0) - 1.0)

_COMMANDS = set("MmLlHhVvCcSsQqTtAaZz")
_NUMBER_RE = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")
_WSP_COMMA_RE = re.compile(r"[\s,]+")


class _Scanner:
    """Token scanner over a d string, tracking character offsets."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_sep(self) -> None:
        m = _WSP_COMMA_RE.match(self.text, self.pos)
        if m:
            self.pos = m.end()

    def at_end(self) -> bool:
        self.skip_sep()
        return self.pos >= len(self.text)

    def peek_command(self) -> str | None:
        self.skip_sep()
        if self.pos < len(self.text) and self.text[self.pos] in _COMMANDS:
            return self.text[self.pos]
        return None

    def take_command(self) -> str:
        cmd = self.peek_command()
        if cmd is None:
            raise MalformedSvg(
                f"expected path command at offset {self.pos}", offset=self.pos
            )
        self.pos += 1
        return cmd

    def number(self) -> float:
        self.skip_sep()
        m = _NUMBER_RE.match(self.text, self.pos)
        if not m:
            raise MalformedSvg(f"expected number at offset {self.pos}", offset=self.pos)
        value = float(m.group(0))
        if not math.isfinite(value):
            raise MalformedSvg(
                f"path number {m.group(0)!r} at offset {self.pos} is not finite",
                offset=self.pos,
            )
        self.pos = m.end()
        return value

    def flag(self) -> int:
        # Arc flags are a single 0/1 character and may be packed ("..0130..").
        self.skip_sep()
        if self.pos < len(self.text) and self.text[self.pos] in "01":
            v = int(self.text[self.pos])
            self.pos += 1
            return v
        raise MalformedSvg(f"expected arc flag at offset {self.pos}", offset=self.pos)

    def starts_argument(self) -> bool:
        self.skip_sep()
        if self.pos >= len(self.text):
            return False
        return self.text[self.pos] not in _COMMANDS


def elevate_quadratic(p0: Point, q: Point, p2: Point) -> tuple[Point, Point]:
    """Control points of the cubic equal to the quadratic (p0, q, p2)."""
    c0 = (p0[0] + 2.0 / 3.0 * (q[0] - p0[0]), p0[1] + 2.0 / 3.0 * (q[1] - p0[1]))
    c1 = (p2[0] + 2.0 / 3.0 * (q[0] - p2[0]), p2[1] + 2.0 / 3.0 * (q[1] - p2[1]))
    return c0, c1


def arc_to_cubics(
    start: Point,
    rx: float,
    ry: float,
    rotation_deg: float,
    large_arc: int,
    sweep: int,
    end: Point,
) -> list[tuple[Point, Point, Point]]:
    """Approximate an elliptical arc with cubic segments of <=90 degrees.

    Returns (ctrl0, ctrl1, end) triples; empty when the arc degenerates to
    a straight line (zero radius) or a zero-length path, which the caller
    must handle (LineTo and no-op respectively).
    """
    rx, ry = abs(rx), abs(ry)
    if rx == 0.0 or ry == 0.0 or start == end:
        return []

    phi = math.radians(rotation_deg)
    cos_phi, sin_phi = math.cos(phi), math.sin(phi)

    # Endpoint -> center parameterization (W3C implementation notes B.2.4).
    dx2 = (start[0] - end[0]) / 2.0
    dy2 = (start[1] - end[1]) / 2.0
    x1p = cos_phi * dx2 + sin_phi * dy2
    y1p = -sin_phi * dx2 + cos_phi * dy2

    lam = (x1p * x1p) / (rx * rx) + (y1p * y1p) / (ry * ry)
    if lam > 1.0:
        s = math.sqrt(lam)
        rx *= s
        ry *= s

    num = rx * rx * ry * ry - rx * rx * y1p * y1p - ry * ry * x1p * x1p
    den = rx * rx * y1p * y1p + ry * ry * x1p * x1p
    radicand = max(num / den, 0.0)
    coef = math.sqrt(radicand)
    if large_arc == sweep:
        coef = -coef
    cxp = coef * (rx * y1p / ry)
    cyp = -coef * (ry * x1p / rx)

    cx = cos_phi * cxp - sin_phi * cyp + (start[0] + end[0]) / 2.0
    cy = sin_phi * cxp + cos_phi * cyp + (start[1] + end[1]) / 2.0

    theta1 = math.atan2((y1p - cyp) / ry, (x1p - cxp) / rx)
    theta2 = math.atan2((-y1p - cyp) / ry, (-x1p - cxp) / rx)
    dtheta = theta2 - theta1
    if sweep and dtheta < 0:
        dtheta += 2.0 * math.pi
    elif not sweep and dtheta > 0:
        dtheta -= 2.0 * math.pi

    n_seg = max(1, int(math.ceil(abs(dtheta) / (math.pi / 2.0) - 1e-9)))
    out: list[tuple[Point, Point, Point]] = []
    for i in range(n_seg):
        t1 = theta1 + dtheta * i / n_seg
        t2 = theta1 + dtheta * (i + 1) / n_seg
        k = 4.0 / 3.0 * math.tan((t2 - t1) / 4.0)

        def ellipse_pt(t: float) -> Point:
            ex = rx * math.cos(t)
            ey = ry * math.sin(t)
            return (
                cos_phi * ex - sin_phi * ey + cx,
                sin_phi * ex + cos_phi * ey + cy,
            )

        def ellipse_deriv(t: float) -> Point:
            ex = -rx * math.sin(t)
            ey = ry * math.cos(t)
            return (cos_phi * ex - sin_phi * ey, sin_phi * ex + cos_phi * ey)

        p1 = ellipse_pt(t1)
        p2 = ellipse_pt(t2)
        d1 = ellipse_deriv(t1)
        d2 = ellipse_deriv(t2)
        c0 = (p1[0] + k * d1[0], p1[1] + k * d1[1])
        c1 = (p2[0] - k * d2[0], p2[1] - k * d2[1])
        out.append((c0, c1, p2))
    # Snap the final end point so chains stay exact.
    if out:
        c0, c1, _ = out[-1]
        out[-1] = (c0, c1, end)
    return out


def parse_path_data(d: str) -> list[list[BasicCommand]]:
    """Parse a d string into lowered subpaths.

    Each returned subpath starts with a MoveTo whose begin equals its end;
    the caller re-chains begins across subpaths/elements (pen rule).
    """
    sc = _Scanner(d)
    subpaths: list[list[BasicCommand]] = []
    current: list[BasicCommand] = []
    pen: Point = (0.0, 0.0)
    subpath_start: Point = (0.0, 0.0)
    prev_cubic_ctrl: Point | None = None
    prev_quad_ctrl: Point | None = None
    last_cmd = ""

    first = sc.peek_command()
    if first is None:
        if sc.at_end():
            return []
        raise MalformedSvg("path data must start with a command", offset=sc.pos)
    if first not in "Mm":
        raise MalformedSvg("path data must start with a moveto", offset=sc.pos)

    def flush() -> None:
        nonlocal current
        if current:
            subpaths.append(current)
            current = []

    def emit(cmd: BasicCommand) -> None:
        nonlocal prev_cubic_ctrl, prev_quad_ctrl
        current.append(cmd)
        prev_cubic_ctrl = cmd.ctrl1 if cmd.cmd_type == "C" else None
        prev_quad_ctrl = None

    def point() -> Point:
        """The next coordinate pair, made absolute for a relative command."""
        x, y = sc.number(), sc.number()
        return (pen[0] + x, pen[1] + y) if rel else (x, y)

    while not sc.at_end():
        if sc.peek_command() is None:
            # Implicit repeats are consumed by the inner loop, so leftover
            # non-command tokens here are grammar violations (e.g. "Z 5 5").
            raise MalformedSvg(f"stray data at offset {sc.pos}", offset=sc.pos)
        letter = sc.take_command()
        rel = letter.islower()
        op = letter.upper()
        first_group = True

        while first_group or sc.starts_argument():
            first_group = False
            if op == "M":
                pen = point()
                flush()
                subpath_start = pen
                emit(move_cmd(pen, pen))
                prev_quad_ctrl = None
                # Subsequent coordinate pairs are implicit linetos.
                op = "L"
            elif op == "L":
                end = point()
                emit(line_cmd(pen, end))
                pen = end
            elif op == "H":
                x = sc.number()
                if rel:
                    x = pen[0] + x
                emit(line_cmd(pen, (x, pen[1])))
                pen = (x, pen[1])
            elif op == "V":
                y = sc.number()
                if rel:
                    y = pen[1] + y
                emit(line_cmd(pen, (pen[0], y)))
                pen = (pen[0], y)
            elif op == "C":
                c0, c1, end = point(), point(), point()
                emit(cubic_cmd(pen, c0, c1, end))
                pen = end
            elif op == "S":
                c1, end = point(), point()
                if last_cmd.upper() in ("C", "S") and prev_cubic_ctrl is not None:
                    c0 = (2 * pen[0] - prev_cubic_ctrl[0], 2 * pen[1] - prev_cubic_ctrl[1])
                else:
                    c0 = pen
                emit(cubic_cmd(pen, c0, c1, end))
                pen = end
            elif op == "Q":
                q, end = point(), point()
                c0, c1 = elevate_quadratic(pen, q, end)
                emit(cubic_cmd(pen, c0, c1, end))
                prev_quad_ctrl = q
                pen = end
            elif op == "T":
                end = point()
                if last_cmd.upper() in ("Q", "T") and prev_quad_ctrl is not None:
                    q = (2 * pen[0] - prev_quad_ctrl[0], 2 * pen[1] - prev_quad_ctrl[1])
                else:
                    q = pen
                c0, c1 = elevate_quadratic(pen, q, end)
                emit(cubic_cmd(pen, c0, c1, end))
                prev_quad_ctrl = q
                pen = end
            elif op == "A":
                rx, ry = sc.number(), sc.number()
                rot = sc.number()
                large = sc.flag()
                swp = sc.flag()
                end = point()
                segs = arc_to_cubics(pen, rx, ry, rot, large, swp, end)
                if not segs:
                    if end != pen:
                        emit(line_cmd(pen, end))
                        pen = end
                else:
                    for c0, c1, seg_end in segs:
                        emit(cubic_cmd(pen, c0, c1, seg_end))
                        pen = seg_end
            elif op == "Z":
                emit(line_cmd(pen, subpath_start))
                pen = subpath_start
                break  # Z takes no arguments and cannot repeat.
            else:
                raise MalformedSvg(
                    f"unknown path command {letter!r} at offset {sc.pos}", offset=sc.pos
                )
            last_cmd = letter
        last_cmd = letter

    flush()
    return subpaths
