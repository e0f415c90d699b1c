"""Properties over random graphics and random JSON: the fixers are
idempotent, graphic JSON is a fixed point after one round trip, and the
graphic loader fails only with ValueError."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from stroketok.fixer import fix_pc, fix_pi
from stroketok.model import Graphic, Path, cubic_cmd, line_cmd, move_cmd
from stroketok.svg_io import dump_graphic, load_graphic

coords = st.floats(-1e3, 1e3, allow_nan=False)
points = st.tuples(coords, coords)


@st.composite
def paths(draw):
    """A MoveTo, then 1-8 L and C commands; each command after the first
    begins where the previous one ends, unless the chain breaks there."""
    start = draw(points)
    cmds = [move_cmd(start, start)]
    for _ in range(draw(st.integers(1, 8))):
        begin = draw(points) if draw(st.booleans()) else cmds[-1].end
        if draw(st.booleans()):
            cmds.append(line_cmd(begin, draw(points)))
        else:
            cmds.append(cubic_cmd(begin, draw(points), draw(points), draw(points)))
    return Path(tuple(cmds))


graphics = st.builds(
    Graphic,
    paths=st.lists(paths(), min_size=1, max_size=3).map(tuple),
    viewbox=st.tuples(coords, coords, st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)),
    keywords=st.lists(st.text(max_size=8), max_size=3).map(tuple),
)


@settings(max_examples=200, deadline=None)
@given(g=graphics)
def test_fixers_are_idempotent(g):
    for fix in (fix_pc, fix_pi):
        once, _ = fix(g)
        twice, report = fix(once)
        assert report.violations_found == 0
        assert twice == once


@settings(max_examples=200, deadline=None)
@given(g=graphics)
def test_graphic_json_is_a_fixed_point_after_one_round_trip(g):
    text = dump_graphic(g)
    assert dump_graphic(load_graphic(text)) == text


scalars = (st.none() | st.booleans() | st.integers() | st.integers(10**308, 10**320)
           | st.floats() | st.text(max_size=4) | st.sampled_from(["M", "L", "C"]))
json_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=9)
    | st.dictionaries(st.sampled_from(["viewbox", "paths", "keywords"]) | st.text(max_size=4),
                      children, max_size=4),
    max_leaves=40,
)


# the shape of graphic JSON, with any values in it
near_graphics = st.fixed_dictionaries(
    {"viewbox": st.lists(scalars, max_size=5),
     "paths": st.lists(st.lists(st.lists(scalars, max_size=10), max_size=3), max_size=3)},
    optional={"keywords": st.lists(scalars, max_size=3) | json_values},
)


@settings(max_examples=300, deadline=None)
@given(value=json_values | near_graphics)
def test_load_graphic_raises_only_value_error(value):
    try:
        load_graphic(json.dumps(value))
    except ValueError:
        pass
