"""Every numeric argument of the public entry points gives a result or a RopelabError.

Sizes, indices, counts, seeds and offsets follow one integer rule,
:func:`ropelab.errors.check_integer`; these tests hold every entry point to it
at edge values, and hold the rule to its one home. Inputs that once gave a
NaN, a bool read as 1 or a raw numpy warning each raise their RopelabError.
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
    BoundaryScore,
    ConfigError,
    CoordinateError,
    DecayCurve,
    ParameterError,
    RopelabError,
    SchemeConfig,
    ScoreGrid,
    TextSegment,
    TokenCoordinate,
    TrialConfig,
    VideoGrid,
    VideoSegment,
    attention_score,
    attention_score_oracle,
    boundary_score_table,
    build_frequency_schedule,
    build_layout,
    decay_curve,
    expected_self_score,
    heatmap,
    heatmap_csv,
    heatmap_svg,
    monte_carlo_heatmap,
    pair_positions,
    rotate,
    rotate_with_scheme,
    scheme_position,
    symmetric_indices,
    text_position,
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
    "symmetric_indices": lambda a, b, c, e: symmetric_indices(TokenCoordinate(a, b, c)),
    "text_position": lambda a, b, c, e: text_position(a, SchemeConfig("rope3d", d=8)),
    "pair_positions": lambda a, b, c, e: pair_positions((a, b, c), SchemeConfig("rope3d", d=8)),
    "rotate": lambda a, b, c, e: rotate(np.ones(4), (a, b)),
    "expected_self_score": lambda a, b, c, e: expected_self_score(
        (a, b, c, e), build_frequency_schedule(10000.0, 8)
    ),
    "attention_score": lambda a, b, c, e: attention_score(np.ones(4), (a, b), np.ones(4), (c, e)),
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


_ROPE3D = SchemeConfig("rope3d", d=8)
_SCHEDULE = build_frequency_schedule(10000.0, 4)

# inputs that once gave a NaN, a value read from a bool, or a raw numpy warning
REJECTED = {
    "rotate-inf": (ParameterError, lambda: rotate(np.ones(4), [np.inf, 0])),
    "rotate-nan": (ParameterError, lambda: rotate(np.ones(4), [np.nan, 0])),
    "rotate-batch-nan": (ParameterError, lambda: rotate(np.ones((3, 4)), [[0, 0], [0, 0], [0, -np.inf]])),
    "expected_self_score-inf": (ParameterError, lambda: expected_self_score(np.full(2, np.inf), _SCHEDULE)),
    "expected_self_score-nan": (ParameterError, lambda: expected_self_score([[0, 0], [np.nan, 0]], _SCHEDULE)),
    "expected_self_score-overflow": (
        ParameterError, lambda: expected_self_score([0, 1.7e308], build_frequency_schedule(0.5, 4))
    ),
    "attention_score-nan": (ParameterError, lambda: attention_score(np.ones(4), [0, np.nan], np.ones(4), [0, 0])),
    "attention_score-inf": (ParameterError, lambda: attention_score(np.ones(4), [0, 0], np.ones(4), [-np.inf, 0])),
    "rotate-x-inf": (ParameterError, lambda: rotate(np.array([np.inf, 0.0]), [0.0])),
    "rotate-x-nan": (ParameterError, lambda: rotate(np.array([np.nan, 0.0]), [0.3])),
    "attention_score-x-nan": (ParameterError, lambda: attention_score([1, 0], [0], [np.nan, 0], [0])),
    "rotate_with_scheme-x-inf": (
        ParameterError, lambda: rotate_with_scheme([0, 0, 0, -np.inf], (0,), SchemeConfig("rope1d", d=4))
    ),
    "attention_score_oracle-x-inf": (
        ParameterError, lambda: attention_score_oracle([np.inf, 0, 0, 0], [0, 0], np.ones(4), [0, 0], _SCHEDULE)
    ),
    "attention_score_oracle-position-nan": (
        ParameterError, lambda: attention_score_oracle(np.ones(4), [np.nan, 0], np.ones(4), [0, 0], _SCHEDULE)
    ),
    "attention_score_oracle-position-inf": (
        ParameterError, lambda: attention_score_oracle(np.ones(4), [0, 0], np.ones(4), [0, np.inf], _SCHEDULE)
    ),
    "ScoreGrid-span-overflow": (
        ParameterError, lambda: ScoreGrid(np.array([[1e308, -1e308]]), _ROPE3D, (0, 0, 0), 0)
    ),
    "DecayCurve-nan": (ParameterError, lambda: DecayCurve(np.array([np.nan]))),
    "DecayCurve-empty": (ParameterError, lambda: DecayCurve(np.zeros(0))),
    "DecayCurve-2d": (ParameterError, lambda: DecayCurve(np.zeros((2, 2)))),
    "DecayCurve-list": (ParameterError, lambda: DecayCurve([0.5])),
    "BoundaryScore-nan": (ParameterError, lambda: BoundaryScore("vrope", "video", math.nan)),
    "BoundaryScore-inf": (ParameterError, lambda: BoundaryScore("vrope", "text", -math.inf)),
    "BoundaryScore-bool": (ParameterError, lambda: BoundaryScore("vrope", "text", True)),
    "BoundaryScore-str-mean": (ParameterError, lambda: BoundaryScore("vrope", "text", "0.5")),
    "BoundaryScore-target": (ParameterError, lambda: BoundaryScore("vrope", "image", 0.5)),
    "BoundaryScore-scheme-comma": (ConfigError, lambda: BoundaryScore("vrope,x", "video", 0.5)),
    "BoundaryScore-scheme-newline": (ConfigError, lambda: BoundaryScore("vrope\nrope1d", "video", 0.5)),
    "symmetric_indices-nan": (CoordinateError, lambda: symmetric_indices(TokenCoordinate(math.nan, 0, 0))),
    "symmetric_indices-half": (CoordinateError, lambda: symmetric_indices(TokenCoordinate(0, 0.5, 0))),
    "text_position-nan": (ParameterError, lambda: text_position(math.nan, _ROPE3D)),
    "text_position-bool": (ParameterError, lambda: text_position(True, _ROPE3D)),
    "pair_positions-numpy-bool": (ParameterError, lambda: pair_positions((np.True_, 0, 0), _ROPE3D)),
    "pair_positions-bool": (ParameterError, lambda: pair_positions((0, True, 0), _ROPE3D)),
    "pair_positions-bool-array": (ParameterError, lambda: pair_positions(np.array([True, False, True]), _ROPE3D)),
}


@pytest.mark.parametrize("name", REJECTED)
def test_rejected_inputs_raise_their_ropelab_error(name):
    error, call = REJECTED[name]
    with pytest.raises(error):
        call()


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
