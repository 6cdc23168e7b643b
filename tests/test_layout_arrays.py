"""Property tests: the array-backed layout against a per-token reference.

The reference builds every token one at a time from
``oracles.scheme_position_ref``, ``text_position`` and the continuation
rules documented on ``build_layout``, so it shares neither the package's
array code nor its position map.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ropelab import (
    SCHEME_IDS,
    LayoutToken,
    SchemeConfig,
    TextSegment,
    TokenCoordinate,
    VideoGrid,
    VideoSegment,
    boundary_gaps,
    boundary_score_table,
    build_layout,
    expected_self_score,
    layout_csv,
    pair_positions,
    parse_layout_csv,
    parse_layout_spec,
    text_position,
)
from ropelab import layout as layout_module

from oracles import first_line_difference, scheme_position_ref


def reference_tokens(segments, config):
    """The layout's tokens, resolved one token at a time."""
    compact = config.scheme == "rope_compact"
    tokens = []
    p = 0
    cursor = (0, 0, 0)  # rope_compact: next text token's (t, h, w)
    for index, segment in enumerate(segments):
        if isinstance(segment, TextSegment):
            for ordinal in range(segment.count):
                if compact:
                    position = tuple(v + ordinal for v in cursor)
                else:
                    position = text_position(p + ordinal, config)
                tokens.append(LayoutToken("text", index, None, ordinal, position))
            if compact:
                cursor = tuple(v + segment.count for v in cursor)
            else:
                p += segment.count
            continue
        grid = segment.grid
        width, height, frames = grid.width, grid.height, grid.frames
        if compact:
            p = max(cursor)
        for t in range(frames):
            for h in range(height):
                for w in range(width):
                    coord = TokenCoordinate(w, h, t)
                    position = scheme_position_ref(config.scheme, w, h, t, width, height, p)
                    tokens.append(LayoutToken("video", index, coord, None, position))
        if compact:
            cursor = (p + frames + 1, p + height + 1, p + width + 1)
        else:
            p += {
                "rope1d": width * height * frames,
                "rope2d": max(width, height),
                "rope3d": max(width, height, frames),
                "rope_share": frames + 1,
                "vrope": frames * (height + width - 1),
            }[config.scheme]
    return tuple(tokens)


def _boundaries(tokens, segments):
    """(video segment, first token index of the following text) per video-to-text boundary."""
    for index in range(len(segments) - 1):
        if isinstance(segments[index], VideoSegment) and isinstance(
            segments[index + 1], TextSegment
        ):
            yield index, next(i for i, tok in enumerate(tokens) if tok.segment_index == index + 1)


def reference_gaps(tokens, segments):
    gaps = []
    for index, query in _boundaries(tokens, segments):
        video = [tok.position for tok in tokens if tok.segment_index == index]
        first_text = tokens[query].position
        gaps.append(
            tuple(first_text[i] - max(pos[i] for pos in video) for i in range(len(first_text)))
        )
    return gaps


def reference_scores(tokens, segments, config):
    """Per-key loop: mean expected self-score from the boundary query to each key set."""
    found = next(_boundaries(tokens, segments), None)
    if found is None:
        return []
    _, query_index = found
    schedule = config.schedule()
    query = pair_positions(tokens[query_index].position, config)
    rows = []
    for target in ("video", "text"):
        scores = [
            expected_self_score(query - pair_positions(tok.position, config), schedule)
            for tok in tokens[:query_index]
            if tok.modality == target
        ]
        if scores:
            rows.append((config.scheme, target, math.fsum(scores) / len(scores)))
    return rows


SEGMENTS = st.lists(
    st.one_of(
        st.integers(1, 5).map(TextSegment),
        st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3)).map(
            lambda size: VideoSegment(VideoGrid(*size))
        ),
    ),
    min_size=1,
    max_size=4,
)
CONFIGS = st.builds(SchemeConfig, st.sampled_from(SCHEME_IDS), d=st.sampled_from((8, 16, 64)))


@settings(max_examples=200, deadline=None)
@given(segments=SEGMENTS, config=CONFIGS)
def test_tokens_match_reference(segments, config):
    layout = build_layout(segments, config)
    expected = reference_tokens(segments, config)
    assert len(layout.tokens) == len(expected) == len(layout.positions)
    assert layout.tokens == expected and expected == layout.tokens
    assert tuple(layout.tokens) == expected
    for i in range(-len(expected), len(expected)):
        assert layout.tokens[i] == expected[i]
    assert layout.tokens[1::2] == expected[1::2]
    assert layout.tokens[::-1] == expected[::-1]
    firsts = [
        i for i, tok in enumerate(expected)
        if i == 0 or tok.segment_index != expected[i - 1].segment_index
    ]
    lasts = [first - 1 for first in firsts[1:]] + [len(expected) - 1]
    for first, last in zip(firsts, lasts):
        assert layout.tokens[first] == expected[first] and layout.tokens[last] == expected[last]
    # step-1 slices between any two segment edges, most of them across boundaries
    edges = sorted({*firsts, *lasts})
    for lo in edges:
        for hi in edges:
            assert layout.tokens[lo : hi + 1] == expected[lo : hi + 1]
    assert layout.tokens[1:-1] == expected[1:-1]
    with pytest.raises(IndexError):
        layout.tokens[len(expected)]


@settings(max_examples=200, deadline=None)
@given(segments=SEGMENTS, config=CONFIGS)
def test_csv_round_trip(segments, config):
    layout = build_layout(segments, config)
    parsed = parse_layout_csv(layout_csv(layout))
    assert parsed == layout.tokens
    assert parsed == reference_tokens(segments, config)


@settings(max_examples=200, deadline=None)
@given(segments=SEGMENTS, config=CONFIGS)
def test_boundary_gaps_match_reference(segments, config):
    layout = build_layout(segments, config)
    expected = reference_gaps(reference_tokens(segments, config), tuple(segments))
    assert [gap.per_dim for gap in boundary_gaps(layout)] == expected


@settings(max_examples=200, deadline=None)
@given(segments=SEGMENTS, config=CONFIGS)
def test_boundary_score_table_matches_per_key_loop(segments, config):
    layout = build_layout(segments, config)
    expected = reference_scores(reference_tokens(segments, config), tuple(segments), config)
    got = boundary_score_table(layout)
    assert [(row.scheme_id, row.target) for row in got] == [row[:2] for row in expected]
    for row, (_, _, mean) in zip(got, expected):
        assert abs(row.mean_score - mean) <= 1e-12


SPEC = "text:5,video:4x3x3,text:2,video:2x2x1,text:1"


def assert_scores_match_reference(segments, config):
    layout = build_layout(segments, config)
    expected = reference_scores(reference_tokens(segments, config), tuple(segments), config)
    got = boundary_score_table(layout)
    assert [(row.scheme_id, row.target) for row in got] == [row[:2] for row in expected]
    for row, (_, _, mean) in zip(got, expected):
        assert abs(row.mean_score - mean) <= 1e-12


@pytest.mark.parametrize("scheme", SCHEME_IDS)
def test_spec_scores_match_per_key_loop(scheme):
    assert_scores_match_reference(parse_layout_spec(SPEC), SchemeConfig(scheme, d=16))


@st.composite
def scored_configs(draw):
    """Any scheme with d in {4, 8, 16, 64} (vrope needs d/2 divisible by 4) and base in [1, 1e6]."""
    scheme = draw(st.sampled_from(SCHEME_IDS))
    d = draw(st.sampled_from((8, 16, 64) if scheme == "vrope" else (4, 8, 16, 64)))
    return SchemeConfig(scheme, d=d, base=draw(st.floats(1.0, 1e6)))


@settings(max_examples=300, deadline=None)
@given(segments=SEGMENTS, config=scored_configs())
def test_closed_form_scores_match_per_key_loop(segments, config):
    assert_scores_match_reference(segments, config)


# theta_j = base**(-2j/d) = (2*pi)**(4j/d): pair d/4 turns by one whole turn, to
# within an ulp, per position step, where sin(x/2) of the unreduced angle is ~0
TWO_PI_BASE = (2 * math.pi) ** -2


@pytest.mark.parametrize(
    "spec", ["video:1000x1x1,text:1", "video:5x3x2,text:1", "text:1000,video:1x1x1,text:1"]
)
@pytest.mark.parametrize(
    "scheme, d",
    [(scheme, d) for scheme in SCHEME_IDS for d in (4, 8) if (scheme, d) != ("vrope", 4)],
)
def test_scores_at_whole_turn_steps(spec, scheme, d):
    config = SchemeConfig(scheme, d=d, base=TWO_PI_BASE)
    assert_scores_match_reference(parse_layout_spec(spec), config)


@pytest.mark.parametrize(
    "spec",
    [
        "video:1x1x1,text:1",
        "text:1,video:1x1x1,text:1",
        "text:1,video:1x1x1,text:1,video:1x1x1,text:1",
        "text:1,video:2x1x3,text:1,video:1x1x1,text:1",
    ],
)
@pytest.mark.parametrize("scheme", SCHEME_IDS)
def test_scores_of_single_token_segments(spec, scheme):
    assert_scores_match_reference(parse_layout_spec(spec), SchemeConfig(scheme, d=8))


@pytest.mark.parametrize("scheme", SCHEME_IDS)
def test_row_chunk_size_does_not_change_csv_or_tokens(scheme, monkeypatch):
    layout = build_layout(parse_layout_spec(SPEC), SchemeConfig(scheme, d=16))
    text, tokens = layout_csv(layout), tuple(layout.tokens)
    monkeypatch.setattr(layout_module, "_CHUNK_ROWS", 5)
    assert layout_csv(layout) == text
    assert tuple(layout.tokens) == tokens == reference_tokens(layout.segments, layout.scheme)


def reference_csv(tokens) -> str:
    """The layout CSV of ``tokens``, one row at a time, with no ``%`` formatting."""
    lines = ["token_index,modality,segment_index,w,h,t,dim0,dim1,dim2,dim3"]
    for index, token in enumerate(tokens):
        coord = token.coord
        cells = ["", "", ""] if coord is None else [str(coord.w), str(coord.h), str(coord.t)]
        dims = [str(v) for v in token.position] + [""] * (4 - len(token.position))
        lines.append(",".join([str(index), token.modality, str(token.segment_index), *cells, *dims]))
    return "\n".join(lines) + "\n"


# a text run and two videos longer than one 4096-row block, so both kinds of
# segment straddle a block edge at every block size tested
LONG_SPEC = "text:4100,video:3x2x2,text:2,video:64x8x9,text:1,video:4099x1x1"


@pytest.mark.parametrize("scheme", SCHEME_IDS)
def test_csv_matches_per_row_reference_at_any_block_size(scheme, monkeypatch):
    segments = parse_layout_spec(LONG_SPEC)
    config = SchemeConfig(scheme, d=16)
    expected = reference_csv(reference_tokens(segments, config))
    for rows in (1, 7, 4096):
        monkeypatch.setattr(layout_module, "_CHUNK_ROWS", rows)
        assert first_line_difference(layout_csv(build_layout(segments, config)), expected) is None


def test_arrays_are_read_only():
    layout = build_layout(parse_layout_spec(SPEC), SchemeConfig("vrope", d=8))
    assert not layout.positions.flags.writeable
    assert layout.positions.dtype == np.int64 and layout.positions.shape == (48, 4)
    for grids in (layout.firsts, layout.steps, layout.counts):
        assert not grids.flags.writeable and grids.dtype == np.int64
    segments = len(layout.segments)
    assert layout.firsts.shape == (segments, 4) and layout.steps.shape == (segments, 3, 4)
    assert layout.counts.shape == (segments, 3)


@pytest.mark.parametrize("scheme", SCHEME_IDS)
def test_positions_are_filled_only_when_read(scheme):
    layout = build_layout(parse_layout_spec(SPEC), SchemeConfig(scheme, d=8))
    assert len(layout.tokens) == 48
    boundary_score_table(layout)
    layout_csv(layout)
    boundary_gaps(layout)
    assert "positions" not in layout.__dict__
    assert layout.positions is layout.positions  # filled once, then cached
    assert "positions" in layout.__dict__


def test_layouts_compare_by_scheme_and_segments():
    segments = parse_layout_spec(SPEC)
    config = SchemeConfig("vrope", d=8)
    filled, lazy = build_layout(segments, config), build_layout(list(segments), config)
    filled.positions
    assert filled == lazy and lazy == filled
    assert filled != build_layout(segments, SchemeConfig("vrope", d=16))
    assert filled != build_layout(segments[:-1], config)
    assert filled != segments
