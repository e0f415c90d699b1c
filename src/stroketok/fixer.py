"""Repair of begin/end interconnection violations in decoded graphics.

Two strategies:

* clip ("pc"): overwrite every command's begin point with the previous
  command's end point. Command count is preserved; end and control points
  are untouched.
* interpolate ("pi"): between every disconnected pair, insert a bridging
  MoveTo whose begin is the previous end and whose end is the next begin.
  Original commands are byte-identical afterwards. The inserted command
  carries literal zero control points, deliberately bypassing the canonical
  control fill used elsewhere.

Both operate within paths only and are idempotent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import MOVE, BasicCommand, Graphic, Path

STRATEGY_PC = "PC"
STRATEGY_PI = "PI"


@dataclass(frozen=True)
class FixReport:
    strategy: str
    violations_found: int
    commands_inserted: int
    max_gap: float


def default_connect_tol(g: Graphic) -> float:
    """Gap below which a pair counts as interconnected when reporting."""
    return 1e-6 * g.max_extent()


def check_connectivity(
    g: Graphic, tol: float | None = None
) -> list[tuple[int, int, float]]:
    """All within-path adjacent pairs with a begin/end gap above `tol`.

    Returns (path index, index of the earlier command, gap) triples. The
    default tolerance is 1e-6 of the larger viewbox extent.
    """
    if tol is None:
        tol = default_connect_tol(g)
    out = []
    for pi, path in enumerate(g.paths):
        for j in range(len(path.commands) - 1):
            gap = math.dist(path.commands[j].end, path.commands[j + 1].begin)
            if gap > tol:
                out.append((pi, j, gap))
    return out


def fix_pc(g: Graphic) -> tuple[Graphic, FixReport]:
    """Path clipping: begin(j+1) := end(j) exactly, for every pair."""
    violations = 0
    max_gap = 0.0
    new_paths = []
    for path in g.paths:
        cmds = list(path.commands)
        for j in range(len(cmds) - 1):
            prev_end = cmds[j].end
            nxt = cmds[j + 1]
            if nxt.begin != prev_end:
                violations += 1
                max_gap = max(max_gap, math.dist(nxt.begin, prev_end))
                cmds[j + 1] = BasicCommand(
                    nxt.cmd_type, prev_end, nxt.ctrl0, nxt.ctrl1, nxt.end
                )
        new_paths.append(Path(tuple(cmds)))
    fixed = Graphic(paths=tuple(new_paths), viewbox=g.viewbox, keywords=g.keywords)
    return fixed, FixReport(STRATEGY_PC, violations, 0, max_gap)


def fix_pi(g: Graphic) -> tuple[Graphic, FixReport]:
    """Path interpolation: bridge every pair that is not exactly connected
    with a MoveTo, so the output always passes check_connectivity at tol=0
    and no original coordinate ever moves.
    """
    violations = 0
    max_gap = 0.0
    new_paths = []
    for path in g.paths:
        cmds: list[BasicCommand] = []
        for j, cmd in enumerate(path.commands):
            if j > 0:
                prev_end = cmds[-1].end
                gap = math.dist(prev_end, cmd.begin)
                if gap > 0.0 and prev_end != cmd.begin:
                    violations += 1
                    max_gap = max(max_gap, gap)
                    cmds.append(
                        BasicCommand(MOVE, prev_end, (0.0, 0.0), (0.0, 0.0), cmd.begin)
                    )
            cmds.append(cmd)
        new_paths.append(Path(tuple(cmds)))
    fixed = Graphic(paths=tuple(new_paths), viewbox=g.viewbox, keywords=g.keywords)
    return fixed, FixReport(STRATEGY_PI, violations, violations, max_gap)
