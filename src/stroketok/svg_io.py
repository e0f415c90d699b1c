"""SVG ingestion, canonicalization, corpus preprocessing, and file formats.

The pipeline for a document is parse_svg -> simplify -> preprocess. Parsing
already lowers every supported element and path command to the three basic
commands; simplify canonicalizes chaining and control-point fills and is
idempotent; preprocess applies the corpus rules (duplicate-path removal,
outer-box removal, command-count thresholds) and may reject a graphic.

Canonical graphics are exchanged as JSON:

    {"viewbox": [4 numbers], "keywords": ["..."],
     "paths": [[["M", x0, y0, c0x, c0y, c1x, c1y, x1, y1], ...], ...]}

with numbers serialized to 6 decimal places.
"""

from __future__ import annotations

import json
import logging
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    BASIC_TYPES,
    CUBIC,
    LINE,
    MOVE,
    BasicCommand,
    EmptyGraphic,
    Graphic,
    MalformedSvg,
    Path,
    Point,
    bounding_box,
    cubic_cmd,
    line_cmd,
    move_cmd,
)
from .pathdata import KAPPA, _NUMBER_RE, parse_path_data

log = logging.getLogger(__name__)

GRAPHIC_FORMAT_VERSION = "graphic-json v1"

_SUPPORTED_SHAPES = ("rect", "circle", "ellipse", "line", "polyline", "polygon")
_CONTAINERS = ("svg", "g", "a", "switch")
_IGNORED = ("defs", "style", "metadata", "title", "desc", "script", "symbol")


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _floats(text: str, field: str) -> list[float]:
    """The numbers in `text`; MalformedSvg naming `field` if one overflows
    to infinity."""
    vals = [float(m.group(0)) for m in _NUMBER_RE.finditer(text)]
    if not all(map(math.isfinite, vals)):
        raise MalformedSvg(f"{field} {text!r} holds a non-finite number")
    return vals


def _ellipse_subpath(cx: float, cy: float, rx: float, ry: float) -> list[BasicCommand]:
    """Closed ellipse as MoveTo plus four quarter-turn cubics."""
    kx, ky = KAPPA * rx, KAPPA * ry
    p0 = (cx + rx, cy)
    p1 = (cx, cy + ry)
    p2 = (cx - rx, cy)
    p3 = (cx, cy - ry)
    cmds = [move_cmd(p0, p0)]
    cmds.append(cubic_cmd(p0, (cx + rx, cy + ky), (cx + kx, cy + ry), p1))
    cmds.append(cubic_cmd(p1, (cx - kx, cy + ry), (cx - rx, cy + ky), p2))
    cmds.append(cubic_cmd(p2, (cx - rx, cy - ky), (cx - kx, cy - ry), p3))
    cmds.append(cubic_cmd(p3, (cx + kx, cy - ry), (cx + rx, cy - ky), p0))
    return cmds


def _polyline(pts: list[Point]) -> list[BasicCommand]:
    """MoveTo the first point, then one LineTo to each later point."""
    return [move_cmd(pts[0], pts[0])] + [line_cmd(a, b) for a, b in zip(pts, pts[1:])]


def _shape_subpaths(tag: str, el: ET.Element) -> list[list[BasicCommand]]:
    def attr(name: str, default: float = 0.0) -> float:
        raw = el.get(name)
        if raw is None:
            return default
        value = float(raw)
        if not math.isfinite(value):
            raise MalformedSvg(f"<{tag}> attribute {name} {raw!r} is not a finite number")
        return value

    if tag == "rect":
        x, y = attr("x"), attr("y")
        w, h = attr("width"), attr("height")
        if w <= 0 or h <= 0:
            return []
        rx = attr("rx", 0.0)
        ry = attr("ry", rx)
        if rx > 0 or ry > 0:
            rx = min(rx if rx > 0 else ry, w / 2)
            ry = min(ry if ry > 0 else rx, h / 2)
            d = (
                f"M {x + rx} {y} L {x + w - rx} {y} A {rx} {ry} 0 0 1 {x + w} {y + ry} "
                f"L {x + w} {y + h - ry} A {rx} {ry} 0 0 1 {x + w - rx} {y + h} "
                f"L {x + rx} {y + h} A {rx} {ry} 0 0 1 {x} {y + h - ry} "
                f"L {x} {y + ry} A {rx} {ry} 0 0 1 {x + rx} {y} Z"
            )
            return parse_path_data(d)
        return [_polyline([(x, y), (x + w, y), (x + w, y + h), (x, y + h), (x, y)])]
    if tag == "circle":
        r = attr("r")
        if r <= 0:
            return []
        return [_ellipse_subpath(attr("cx"), attr("cy"), r, r)]
    if tag == "ellipse":
        rx, ry = attr("rx"), attr("ry")
        if rx <= 0 or ry <= 0:
            return []
        return [_ellipse_subpath(attr("cx"), attr("cy"), rx, ry)]
    if tag == "line":
        p0 = (attr("x1"), attr("y1"))
        p1 = (attr("x2"), attr("y2"))
        return [[move_cmd(p0, p0), line_cmd(p0, p1)]]
    if tag in ("polyline", "polygon"):
        vals = _floats(el.get("points", ""), f"<{tag}> attribute points")
        if len(vals) % 2 == 1:
            log.warning("%s has odd coordinate count; dropping trailing value", tag)
            vals = vals[:-1]
        pts = [(vals[i], vals[i + 1]) for i in range(0, len(vals), 2)]
        if len(pts) < 2:
            return []
        if tag == "polygon" and pts[-1] != pts[0]:
            pts.append(pts[0])
        return [_polyline(pts)]
    return []


def parse_svg(text: str) -> Graphic:
    """Parse an SVG document into a lowered Graphic.

    All path syntax and supported shape elements are reduced to M/L/C during
    parsing, and `simplify` chains each path's leading MoveTo to the previous
    path's end (the pen rule). Unsupported drawables are skipped with a
    warning. The viewbox comes from the document's viewBox attribute, or the
    chained geometry's bounding box when absent.
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as e:
        line, col = e.position
        offset = sum(len(ln) + 1 for ln in text.splitlines()[: line - 1]) + col
        raise MalformedSvg(f"XML parse error: {e}", offset=offset) from e

    if _local(root.tag) != "svg":
        raise MalformedSvg(f"root element is <{_local(root.tag)}>, expected <svg>")

    subpaths: list[list[BasicCommand]] = []

    def walk(el: ET.Element) -> None:
        tag = _local(el.tag)
        if tag in _IGNORED:
            return
        if el.get("transform"):
            log.warning("ignoring transform on <%s>", tag)
        if tag == "path":
            d = el.get("d", "")
            if d.strip():
                subpaths.extend(parse_path_data(d))
        elif tag in _SUPPORTED_SHAPES:
            subpaths.extend(_shape_subpaths(tag, el))
        elif tag in _CONTAINERS:
            for child in el:
                walk(child)
        else:
            log.warning("skipping unsupported element <%s>", tag)

    walk(root)

    if not subpaths:
        raise EmptyGraphic("document has no drawable content")

    vb_attr = root.get("viewBox")
    vals = _floats(vb_attr, "viewBox") if vb_attr else []
    if vb_attr and (len(vals) != 4 or vals[2] <= 0 or vals[3] <= 0):
        raise MalformedSvg(f"invalid viewBox {vb_attr!r}")
    paths = tuple(Path(tuple(sub)) for sub in subpaths)
    g = simplify(Graphic(paths=paths, viewbox=(0.0, 0.0, 1.0, 1.0)))
    for cmd in g.all_commands():
        if not all(math.isfinite(v) for pt in cmd.points() for v in pt):
            raise MalformedSvg(
                f"geometry overflows: a lowered {cmd.cmd_type} command has points "
                f"{cmd.points()}"
            )
    # the document's viewBox, or the chained geometry's bounding box
    if vb_attr:
        return replace(g, viewbox=(vals[0], vals[1], vals[2], vals[3]))
    vb = bounding_box(g.all_commands())
    if not all(map(math.isfinite, vb)):
        raise MalformedSvg(f"geometry overflows: its bounding box {vb} is not finite")
    return replace(g, viewbox=vb)


def simplify(g: Graphic) -> Graphic:
    """Canonicalize a lowered graphic.

    Re-chains begin points exactly (within paths, and path-leading MoveTo
    begins across paths per the pen rule) and recomputes the canonical
    control-point fill for M/L commands. Idempotent; geometry of already
    canonical graphics is untouched.
    """
    new_paths: list[Path] = []
    pen: Point | None = None
    for path in g.paths:
        cmds: list[BasicCommand] = []
        for j, cmd in enumerate(path.commands):
            if cmd.cmd_type not in BASIC_TYPES:
                raise ValueError(f"unknown command type {cmd.cmd_type!r}")
            if j == 0 and cmd.cmd_type == MOVE:
                begin = pen if pen is not None else cmd.end
            elif j == 0:
                begin = cmd.begin
            else:
                begin = cmds[-1].end
            if cmd.cmd_type == CUBIC:
                cmds.append(cubic_cmd(begin, cmd.ctrl0, cmd.ctrl1, cmd.end))
            elif cmd.cmd_type == LINE:
                cmds.append(line_cmd(begin, cmd.end))
            else:
                cmds.append(move_cmd(begin, cmd.end))
        new_paths.append(Path(tuple(cmds)))
        pen = cmds[-1].end
    return Graphic(paths=tuple(new_paths), viewbox=g.viewbox, keywords=g.keywords)


@dataclass(frozen=True)
class Rejected:
    """Preprocess outcome for graphics outside the corpus thresholds."""

    reason: str


TOO_LONG = "TooLong"
TOO_SHORT = "TooShort"


def _rounded_path_key(path: Path, grid: float) -> tuple:
    """Geometry key for duplicate detection. The leading MoveTo's begin is
    pen bookkeeping (it differs between otherwise identical paths), so only
    drawn geometry enters the key."""
    key = []
    for j, cmd in enumerate(path.commands):
        row: list = [cmd.cmd_type]
        pts = (cmd.end,) if j == 0 and cmd.cmd_type == MOVE else (
            cmd.ctrl0,
            cmd.ctrl1,
            cmd.end,
        )
        for x, y in pts:
            row.append(round(x / grid))
            row.append(round(y / grid))
        key.append(tuple(row))
    return tuple(key)


# an outer box covers at least this share of each viewbox dimension
_BOX_COVER = 0.98


def _is_outer_box(path: Path, viewbox, grid: float) -> bool:
    """Axis-aligned closed rectangle covering at least `_BOX_COVER` of each
    viewbox dimension (the "outer box" frames some corpora add)."""
    cmds = path.commands
    if cmds[0].cmd_type != MOVE or any(c.cmd_type != LINE for c in cmds[1:]):
        return False
    if len(cmds) < 4:
        return False
    verts = [cmds[0].end] + [c.end for c in cmds[1:]]
    if math.dist(verts[-1], verts[0]) > grid:
        return False
    for a, b in zip(verts, verts[1:]):
        if abs(a[0] - b[0]) > grid and abs(a[1] - b[1]) > grid:
            return False
    xs = {round(v[0] / grid) for v in verts}
    ys = {round(v[1] / grid) for v in verts}
    if len(xs) != 2 or len(ys) != 2:
        return False
    w = (max(xs) - min(xs)) * grid
    h = (max(ys) - min(ys)) * grid
    return w >= _BOX_COVER * viewbox[2] and h >= _BOX_COVER * viewbox[3]


def preprocess(
    g: Graphic, max_commands: int = 1024, min_commands: int = 2
) -> Graphic | Rejected:
    """Corpus rules: drop duplicate paths and the outer box, bound length.

    Duplicate detection compares command sequences after rounding
    coordinates to a grid of 1e-4 of the larger viewbox extent. Returns a
    Rejected value (not an error) when the remaining command count falls
    outside [min_commands, max_commands].
    """
    grid = 1e-4 * g.max_extent()
    seen: set[tuple] = set()
    kept: list[Path] = []
    for path in g.paths:
        key = _rounded_path_key(path, grid)
        if key in seen:
            continue
        seen.add(key)
        if _is_outer_box(path, g.viewbox, grid):
            continue
        kept.append(path)

    total = sum(len(p) for p in kept)
    if total > max_commands:
        return Rejected(TOO_LONG)
    if total < min_commands or not kept:
        return Rejected(TOO_SHORT)
    out = Graphic(paths=tuple(kept), viewbox=g.viewbox, keywords=g.keywords)
    if len(kept) != len(g.paths):
        out = simplify(out)  # re-chain pen positions across removed paths
    return out


# ---------------------------------------------------------------------------
# Synthetic corpus
# ---------------------------------------------------------------------------

_SIZE_WORDS = ("tiny", "small", "medium", "large", "huge")
_COUNT_WORDS = ("zero", "one", "two", "three", "four", "five", "six", "seven", "eight")
_FAMILIES = ("polyline", "polygon", "circle", "star")
_VIEW = (0.0, 0.0, 256.0, 256.0)


def _r2(v: float) -> float:
    return round(v, 2)


def _size_word(extent: float) -> str:
    idx = min(int(extent / 14.0), len(_SIZE_WORDS) - 1)
    return _SIZE_WORDS[idx]


def _synth_polyline(rng: np.random.Generator) -> tuple[list[list[Point]], list[str]]:
    k = int(rng.integers(3, 8))
    cx, cy = rng.uniform(60, 196, size=2)
    pts = []
    x, y = cx, cy
    for _ in range(k):
        pts.append((_r2(x), _r2(y)))
        x = float(np.clip(x + rng.uniform(-48, 48), 12, 244))
        y = float(np.clip(y + rng.uniform(-48, 48), 12, 244))
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    extent = max(max(xs) - min(xs), max(ys) - min(ys))
    return [pts], ["polyline", _size_word(extent), _COUNT_WORDS[k]]


def _polygon_points(rng: np.random.Generator, sides: int) -> list[Point]:
    cx, cy = rng.uniform(70, 186, size=2)
    r = rng.uniform(20, 58)
    rot = rng.uniform(0, 2 * math.pi)
    pts = []
    for i in range(sides):
        a = rot + 2 * math.pi * i / sides
        rr = r * rng.uniform(0.85, 1.0)
        pts.append((_r2(cx + rr * math.cos(a)), _r2(cy + rr * math.sin(a))))
    return pts


def _synth_polygon(rng: np.random.Generator) -> tuple[list[list[Point]], list[str]]:
    sides = int(rng.integers(3, 9))
    pts = _polygon_points(rng, sides)
    pts.append(pts[0])
    r = max(abs(p[0] - pts[0][0]) + abs(p[1] - pts[0][1]) for p in pts[1:-1])
    return [pts], ["polygon", _COUNT_WORDS[sides], _size_word(r)]


def _synth_star(rng: np.random.Generator) -> tuple[list[list[Point]], list[str]]:
    spikes = int(rng.integers(5, 9))
    cx, cy = rng.uniform(70, 186, size=2)
    r_out = rng.uniform(28, 58)
    r_in = r_out * rng.uniform(0.35, 0.55)
    rot = rng.uniform(0, 2 * math.pi)
    pts = []
    for i in range(2 * spikes):
        a = rot + math.pi * i / spikes
        r = r_out if i % 2 == 0 else r_in
        pts.append((_r2(cx + r * math.cos(a)), _r2(cy + r * math.sin(a))))
    pts.append(pts[0])
    return [pts], ["star", _COUNT_WORDS[spikes], _size_word(r_out)]


def _synth_circle(rng: np.random.Generator) -> tuple[Path, list[str]]:
    cx, cy = rng.uniform(72, 184, size=2)
    r = rng.uniform(22, 56)
    cmds = _ellipse_subpath(_r2(cx), _r2(cy), _r2(r), _r2(r))
    rounded = []
    for c in cmds:
        pts = [(_r2(px), _r2(py)) for px, py in c.points()]
        rounded.append(BasicCommand(c.cmd_type, pts[0], pts[1], pts[2], pts[3]))
    return Path(tuple(rounded)), ["circle", _size_word(r), "round"]


def gen_synthetic(n: int, seed: int) -> list[Graphic]:
    """Deterministic toy corpus: polylines, polygons, circles, and stars.

    Each graphic holds one or two shapes of one family inside a 256x256
    viewbox, with keywords naming the family plus size/count words. Every
    output passes preprocess at the default thresholds.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    out: list[Graphic] = []
    for _ in range(n):
        family = _FAMILIES[int(rng.integers(0, len(_FAMILIES)))]
        n_shapes = int(rng.integers(1, 3))
        paths: list[Path] = []
        keywords: list[str] = []
        for _ in range(n_shapes):
            if family == "circle":
                path, kws = _synth_circle(rng)
                paths.append(path)
            else:
                fn = {
                    "polyline": _synth_polyline,
                    "polygon": _synth_polygon,
                    "star": _synth_star,
                }[family]
                point_lists, kws = fn(rng)
                paths.extend(Path(tuple(_polyline(pts))) for pts in point_lists)
            if not keywords:
                keywords = kws
        # simplify applies the pen rule across the shapes
        g = Graphic(paths=tuple(paths), viewbox=_VIEW, keywords=tuple(keywords))
        out.append(simplify(g))
    return out


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def dump_graphic(g: Graphic) -> str:
    """Serialize to the canonical graphic JSON (6-decimal numbers)."""
    parts = ["{"]
    parts.append('"viewbox":[' + ",".join(_fmt(v) for v in g.viewbox) + "],")
    parts.append('"keywords":' + json.dumps(list(g.keywords)) + ",")
    path_strs = []
    for path in g.paths:
        rows = []
        for c in path.commands:
            coords = ",".join(
                _fmt(v) for p in (c.begin, c.ctrl0, c.ctrl1, c.end) for v in p
            )
            rows.append(f'["{c.cmd_type}",{coords}]')
        path_strs.append("[" + ",".join(rows) + "]")
    parts.append('"paths":[' + ",".join(path_strs) + "]")
    parts.append("}")
    return "".join(parts)


def load_graphic(text: str) -> Graphic:
    obj = json.loads(text)
    if not isinstance(obj, dict) or "viewbox" not in obj or "paths" not in obj:
        raise ValueError("graphic JSON must be an object holding viewbox and paths")
    vb = obj["viewbox"]
    if not isinstance(vb, list) or len(vb) != 4:
        raise ValueError("viewbox must have 4 numbers")
    try:
        vb = [float(v) for v in vb]
    except (TypeError, ValueError):
        raise ValueError(f"viewbox must be numbers, got {vb!r}") from None
    if not all(map(math.isfinite, vb)):
        raise ValueError(f"viewbox must be finite numbers, got {vb!r}")
    keywords = obj.get("keywords", [])
    if not isinstance(keywords, list) or not all(isinstance(k, str) for k in keywords):
        raise ValueError("keywords must be a list of strings")
    if not isinstance(obj["paths"], list) or not all(
        isinstance(rows, list) and all(isinstance(row, list) and row for row in rows)
        for rows in obj["paths"]
    ):
        raise ValueError("paths must be a list of paths, each a list of command rows")
    paths = []
    for i, rows in enumerate(obj["paths"]):
        cmds = []
        for j, row in enumerate(rows):
            t = row[0]
            if t not in BASIC_TYPES:
                raise ValueError(f"unknown command type {t!r}")
            try:
                nums = [float(v) for v in row[1:]]
            except (TypeError, ValueError):
                raise ValueError(
                    f"coordinates of paths[{i}][{j}] must be numbers, got {row[1:]!r}"
                ) from None
            if len(nums) != 8:
                raise ValueError("command row must hold a type and 8 numbers")
            if not all(map(math.isfinite, nums)):
                raise ValueError(
                    f"coordinates of paths[{i}][{j}] must be finite, got {nums!r}"
                )
            cmds.append(
                BasicCommand(
                    t,
                    (nums[0], nums[1]),
                    (nums[2], nums[3]),
                    (nums[4], nums[5]),
                    (nums[6], nums[7]),
                )
            )
        paths.append(Path(tuple(cmds)))
    return Graphic(
        paths=tuple(paths),
        viewbox=(vb[0], vb[1], vb[2], vb[3]),
        keywords=tuple(keywords),
    )


def graphic_to_svg(g: Graphic) -> str:
    """Emit a minimal stroked SVG document for visual inspection, stroked
    1/128 of the larger viewbox extent wide."""
    stroke_width = g.max_extent() / 128.0
    vb = " ".join(_fmt(v) for v in g.viewbox)
    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{vb}">']
    for path in g.paths:
        d_parts = []
        for c in path.commands:
            if c.cmd_type == MOVE:
                d_parts.append(f"M {_fmt(c.end[0])} {_fmt(c.end[1])}")
            elif c.cmd_type == LINE:
                d_parts.append(f"L {_fmt(c.end[0])} {_fmt(c.end[1])}")
            else:
                d_parts.append(
                    "C "
                    + " ".join(
                        _fmt(v) for p in (c.ctrl0, c.ctrl1, c.end) for v in p
                    )
                )
        lines.append(
            f'  <path d="{" ".join(d_parts)}" fill="none" stroke="black" '
            f'stroke-width="{_fmt(stroke_width)}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
