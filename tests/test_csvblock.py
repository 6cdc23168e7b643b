"""The block formatter every CSV writer uses, against per-row formatting."""

import math

from hypothesis import given
from hypothesis import strategies as st

from ropelab.csvblock import format_block

EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-7, 5e-7, -5e-7, 0.5e-6,
     1.0, -1.0, 2.0**53, -(2.0**53), 1.7976931348623157e308, math.inf, -math.inf, math.nan]
)
FLOATS = st.one_of(EDGE_FLOATS, st.floats(allow_nan=True, allow_infinity=True))
INTS = st.one_of(
    st.integers(-(2**53) - 3, -(2**53) + 3), st.integers(2**53 - 3, 2**53 + 3), st.integers()
)


@given(value=FLOATS)
def test_percent_float_matches_format(value):
    # decay, heatmap and boundary values go through "%.6f"; the writers they
    # replaced used format(value, ".6f")
    assert "%.6f" % value == format(value, ".6f")


@given(number=INTS)
def test_percent_int_matches_str(number):
    assert "%d" % number == str(number)


@given(rows=st.lists(st.tuples(INTS, st.sampled_from(["text", "video"]), FLOATS), max_size=20))
def test_block_matches_row_by_row(rows):
    row_format = "%d,%s,%.6f\n"
    columns = [list(column) for column in zip(*rows)] or [[], [], []]
    assert format_block(row_format, columns) == "".join(row_format % row for row in rows)
