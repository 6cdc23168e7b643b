"""Every numeric argument of the public entry points gives a result or a RopelabError.

Sizes, indices, counts, seeds and offsets follow one integer rule,
:func:`ropelab.errors.check_integer`; these tests hold every entry point to it
at edge values, and hold the rule to its one home.
"""

import inspect
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ropelab
from ropelab import (
    RopelabError,
    SchemeConfig,
    TextSegment,
    TokenCoordinate,
    TrialConfig,
    VideoGrid,
    VideoSegment,
    boundary_score_table,
    build_frequency_schedule,
    build_layout,
    decay_curve,
    heatmap,
    heatmap_csv,
    heatmap_svg,
    monte_carlo_heatmap,
    pair_positions,
    rotate_with_scheme,
    scheme_position,
    vrope_position,
)
from ropelab.errors import check_integer

# each size drawn here is either tiny or far past the element budget, so no
# call can allocate more than a few cells
EDGES = [
    0, -1, True, np.True_, np.int64(2), 2**53 - 1, 2**53 + 1, 2**63, 2**64,
    math.nan, math.inf, -math.inf, 2.0,
]
edge = st.sampled_from(EDGES)
# range() itself takes only Python and numpy integers
index = st.sampled_from([v for v in EDGES if isinstance(v, (int, np.integer))])

_GRID = heatmap(SchemeConfig("vrope", d=8), VideoGrid(2, 2, 1), 0, (0, 0, 0, 0))

ENTRY_POINTS = {
    "VideoGrid": lambda a, b, c, e: VideoGrid(a, b, c),
    "TextSegment": lambda a, b, c, e: TextSegment(a),
    "SchemeConfig": lambda a, b, c, e: SchemeConfig("rope3d", d=a, base=b),
    "SchemeConfig-partition": lambda a, b, c, e: SchemeConfig("rope3d", d=12, partition=(a, b, c)),
    "build_frequency_schedule": lambda a, b, c, e: build_frequency_schedule(b, a),
    "TrialConfig": lambda a, b, c, e: TrialConfig(a, b),
    "scheme_position": lambda a, b, c, e: scheme_position(
        SchemeConfig("rope1d"), TokenCoordinate(a, b, c), VideoGrid(2, 2, 2), e
    ),
    "vrope_position": lambda a, b, c, e: vrope_position(TokenCoordinate(a, b, c), VideoGrid(2, 2, 2), e),
    "pair_positions": lambda a, b, c, e: pair_positions((a, b, c), SchemeConfig("rope3d", d=8)),
    "rotate_with_scheme": lambda a, b, c, e: rotate_with_scheme(
        np.ones(8), (a, b, c), SchemeConfig("rope3d", d=8)
    ),
    "heatmap": lambda a, b, c, e: heatmap(SchemeConfig("vrope", d=8), VideoGrid(a, b, 2), c, (e,) * 4),
    # trials stay at 2: the trial count is the one size that buys work, not memory
    "monte_carlo_heatmap": lambda a, b, c, e: monte_carlo_heatmap(
        SchemeConfig("rope3d", d=8), VideoGrid(a, 2, b), c, (e,) * 3, TrialConfig(e, 2)
    ),
    "decay_curve": lambda a, b, c, e: decay_curve(build_frequency_schedule(10000.0, 8), a),
    "build_layout": lambda a, b, c, e: boundary_score_table(
        build_layout([TextSegment(a), VideoSegment(VideoGrid(b, c, 1)), TextSegment(2)], SchemeConfig("vrope"))
    ),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
@settings(max_examples=80, deadline=None)
@given(args=st.tuples(edge, edge, edge, edge))
def test_numeric_arguments_give_a_result_or_a_ropelab_error(name, args):
    try:
        ENTRY_POINTS[name](*args)
    except RopelabError:
        pass


@pytest.mark.parametrize("writer", [heatmap_csv, heatmap_svg])
@settings(max_examples=80, deadline=None)
@given(start=index, stop=index)
def test_cells_endpoints_give_a_result_or_a_ropelab_error(writer, start, stop):
    try:
        writer(_GRID, range(start, stop))
    except RopelabError:
        pass


def test_the_integer_rule_has_one_home():
    home = inspect.getsource(check_integer)
    assert "numbers.Integral" in home
    for path in sorted(Path(ropelab.__file__).parent.glob("*.py")):
        assert "Integral" not in path.read_text().replace(home, ""), path.name
