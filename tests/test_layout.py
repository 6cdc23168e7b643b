"""Tests for layout parsing, position resolution, boundary gaps, and the CSV format."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ropelab.layout import LAYOUT_CSV_HEADER
from ropelab import (
    LayoutParseError,
    ParameterError,
    SCHEME_IDS,
    SchemeConfig,
    TextSegment,
    VideoGrid,
    VideoSegment,
    boundary_gaps,
    build_layout,
    format_layout_spec,
    layout_csv,
    parse_layout_csv,
    parse_layout_spec,
)


def _config(scheme: str) -> SchemeConfig:
    return SchemeConfig(scheme, d=8)


class TestParseLayoutSpec:
    def test_single_text(self):
        assert parse_layout_spec("text:3") == (TextSegment(3),)

    def test_mixed(self):
        assert parse_layout_spec("text:2,video:2x2x1,text:1") == (
            TextSegment(2),
            VideoSegment(VideoGrid(2, 2, 1)),
            TextSegment(1),
        )

    def test_whitespace_insignificant(self):
        assert parse_layout_spec(" text : 2 , video : 2 x 3 x 4 ") == (
            TextSegment(2),
            VideoSegment(VideoGrid(2, 3, 4)),
        )

    @pytest.mark.parametrize(
        "spec", ["video:0x2x2", "video:2x0x2", "video:2x2x0", "text:0"]
    )
    def test_zero_sizes_rejected(self, spec):
        with pytest.raises(LayoutParseError):
            parse_layout_spec(spec)

    @pytest.mark.parametrize(
        "spec",
        [
            "", "   ", "vid:2", "text:", "video:2x2", "text:2;video:1x1x1",
            # non-ASCII digits: fullwidth, Arabic-Indic
            "text:\uff13", "video:\uff12x2x2", "text:\u0663",
        ],
    )
    def test_malformed(self, spec):
        with pytest.raises(LayoutParseError):
            parse_layout_spec(spec)

    def test_error_reports_span(self):
        with pytest.raises(LayoutParseError) as excinfo:
            parse_layout_spec("text:2,video:axbxc")
        assert excinfo.value.span == (7, 18)
        assert "video:axbxc" in str(excinfo.value)

    @settings(max_examples=100)
    @given(
        segments=st.lists(
            st.one_of(
                st.integers(1, 9).map(TextSegment),
                st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)).map(
                    lambda s: VideoSegment(VideoGrid(*s))
                ),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_round_trip(self, segments):
        assert parse_layout_spec(format_layout_spec(segments)) == tuple(segments)


class TestBuildLayout:
    @pytest.mark.parametrize("scheme", SCHEME_IDS)
    def test_pure_text_counts_up(self, scheme):
        layout = build_layout([TextSegment(3)], _config(scheme))
        groups = _config(scheme).group_count
        assert [tok.position for tok in layout.tokens] == [(m,) * groups for m in range(3)]

    def test_vrope_example(self):
        layout = build_layout(parse_layout_spec("text:2,video:2x2x1,text:1"), _config("vrope"))
        positions = [tok.position for tok in layout.tokens]
        assert positions == [
            (0, 0, 0, 0),
            (1, 1, 1, 1),
            (2, 3, 4, 3),
            (3, 4, 3, 2),
            (3, 2, 3, 4),
            (4, 3, 2, 3),
            (5, 5, 5, 5),
        ]

    def test_rope3d_example(self):
        layout = build_layout(parse_layout_spec("text:2,video:2x2x1,text:1"), _config("rope3d"))
        video = [tok.position for tok in layout.tokens if tok.modality == "video"]
        assert video[0] == (2, 2, 2)
        assert video[-1] == (2, 3, 3)
        assert layout.tokens[-1].position == (4, 4, 4)

    def test_rope_share_frames_and_continuation(self):
        layout = build_layout(parse_layout_spec("text:2,video:2x2x3,text:2"), _config("rope_share"))
        video = [tok.position for tok in layout.tokens if tok.modality == "video"]
        assert video == [(3,)] * 4 + [(4,)] * 4 + [(5,)] * 4  # p + 1 + t with p = 2
        text_after = [tok.position for tok in layout.tokens if tok.segment_index == 2]
        assert text_after == [(6,), (7,)]  # p + T + 1

    def test_rope2d_continuation(self):
        layout = build_layout(parse_layout_spec("text:1,video:4x2x3,text:1"), _config("rope2d"))
        assert layout.tokens[-1].position == (5, 5)  # p=1, resume at p + max(W, H)

    def test_rope1d_sequential(self):
        layout = build_layout(parse_layout_spec("text:2,video:3x2x2,text:1"), _config("rope1d"))
        assert [tok.position[0] for tok in layout.tokens] == list(range(15))

    def test_rope_compact_anisotropic_continuation(self):
        layout = build_layout(parse_layout_spec("text:2,video:2x2x1,text:2"), _config("rope_compact"))
        text_after = [tok.position for tok in layout.tokens if tok.segment_index == 2]
        # (p+T+1, p+H+1, p+W+1) with p = 2, then +1 per dim per token
        assert text_after == [(4, 5, 5), (5, 6, 6)]

    def test_rope_compact_second_video_monotone(self):
        layout = build_layout(
            parse_layout_spec("text:2,video:2x2x1,text:2,video:1x1x1"), _config("rope_compact")
        )
        last_video = layout.tokens[-1].position
        assert last_video == (7, 7, 7)  # max dim of last text token (5,6,6) + 1
        previous_max = max(max(tok.position) for tok in layout.tokens[:-1])
        assert min(last_video) >= previous_max

    def test_rope_compact_leading_text_is_isotropic(self):
        layout = build_layout([TextSegment(3)], _config("rope_compact"))
        assert [tok.position for tok in layout.tokens] == [(0, 0, 0), (1, 1, 1), (2, 2, 2)]

    def test_video_raster_order(self):
        layout = build_layout([VideoSegment(VideoGrid(2, 2, 2))], _config("rope1d"))
        coords = [(tok.coord.w, tok.coord.h, tok.coord.t) for tok in layout.tokens]
        assert coords == [
            (0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0),
            (0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1),
        ]

    @pytest.mark.parametrize("scheme", SCHEME_IDS)
    def test_text_positions_strictly_increase(self, scheme):
        layout = build_layout(
            parse_layout_spec("text:3,video:2x2x2,text:3"), _config(scheme)
        )
        for segment_index in (0, 2):
            dims = [tok.position for tok in layout.tokens if tok.segment_index == segment_index]
            for earlier, later in zip(dims, dims[1:]):
                assert all(a < b for a, b in zip(earlier, later))

    def test_empty_segments_rejected(self):
        with pytest.raises(ParameterError):
            build_layout([], _config("rope1d"))

    @pytest.mark.parametrize("scheme", SCHEME_IDS)
    def test_deterministic(self, scheme):
        segments = parse_layout_spec("text:2,video:3x2x2,text:2")
        assert build_layout(segments, _config(scheme)) == build_layout(segments, _config(scheme))

    @pytest.mark.parametrize("scheme", SCHEME_IDS)
    def test_element_budget_checked_where_tokens_are_filled(self, scheme):
        # 10**11 tokens: the grids resolve, the per-token arrays are refused
        layout = build_layout(parse_layout_spec("text:8,video:100000x100000x10,text:1"), _config(scheme))
        assert len(layout.tokens) == 10**11 + 9
        assert boundary_gaps(layout)
        with pytest.raises(ParameterError, match="a layout of 100000000009 tokens .* budget"):
            layout.positions
        with pytest.raises(ParameterError, match="a layout of 100000000009 tokens .* budget"):
            layout_csv(layout)

    @pytest.mark.parametrize(
        "segments",
        [
            [VideoSegment(VideoGrid(2**27, 2**27, 1))],
            # numpy sizes: int64 and int32 products that wrap, and an int64 sum that wraps
            [VideoSegment(VideoGrid(np.int64(2**32), np.int64(2**32), np.int64(1)))],
            [VideoSegment(VideoGrid(np.int64(2**31), np.int64(2**31), np.int64(4)))],
            [VideoSegment(VideoGrid(np.int32(2**16), np.int32(2**16), np.int32(2**22)))],
            [TextSegment(np.int64(2**62))] * 3,
        ],
        ids=["int", "int64_grid_2_64", "int64_grid_2_64x4", "int32_grid", "int64_text"],
    )
    def test_token_count_past_2_53_rejected(self, segments):
        # rope_share positions do not grow with W*H, so only the count bounds them
        with pytest.raises(ParameterError, match="2\\*\\*53 tokens"):
            build_layout(segments, _config("rope_share"))


class TestBoundaryGaps:
    @pytest.mark.parametrize("width,height,frames", [(1, 1, 1), (2, 2, 1), (3, 5, 4), (5, 5, 5)])
    def test_vrope_gap_is_one(self, width, height, frames):
        layout = build_layout(
            [TextSegment(2), VideoSegment(VideoGrid(width, height, frames)), TextSegment(1)],
            _config("vrope"),
        )
        (gap,) = boundary_gaps(layout)
        assert gap.per_dim == (1, 1, 1, 1)

    def test_rope3d_gap_8x8x16(self):
        layout = build_layout(
            [TextSegment(2), VideoSegment(VideoGrid(8, 8, 16)), TextSegment(1)],
            _config("rope3d"),
        )
        (gap,) = boundary_gaps(layout)
        assert gap.per_dim == (1, 9, 9)

    def test_rope1d_gap_is_one(self):
        layout = build_layout(
            [VideoSegment(VideoGrid(4, 3, 2)), TextSegment(1)], _config("rope1d")
        )
        (gap,) = boundary_gaps(layout)
        assert gap.per_dim == (1,)

    def test_rope_compact_gap_constant(self):
        for frames in (1, 4, 16):
            layout = build_layout(
                [VideoSegment(VideoGrid(2, 2, frames)), TextSegment(1)], _config("rope_compact")
            )
            (gap,) = boundary_gaps(layout)
            assert gap.per_dim == (2, 2, 2)

    def test_no_boundary_is_empty(self):
        assert boundary_gaps(build_layout([TextSegment(3)], _config("vrope"))) == ()
        assert (
            boundary_gaps(
                build_layout(
                    [TextSegment(1), VideoSegment(VideoGrid(2, 2, 1))], _config("vrope")
                )
            )
            == ()
        )

    def test_multiple_boundaries(self):
        layout = build_layout(
            parse_layout_spec("video:2x2x1,text:1,video:3x3x2,text:1"), _config("vrope")
        )
        gaps = boundary_gaps(layout)
        assert len(gaps) == 2
        assert all(gap.per_dim == (1, 1, 1, 1) for gap in gaps)
        assert gaps[0].video_segment == 0 and gaps[1].video_segment == 2


class TestLayoutCsv:
    GOLDEN = (
        "token_index,modality,segment_index,w,h,t,dim0,dim1,dim2,dim3\n"
        "0,text,0,,,,0,0,0,0\n"
        "1,text,0,,,,1,1,1,1\n"
        "2,video,1,0,0,0,2,3,4,3\n"
        "3,video,1,1,0,0,3,4,3,2\n"
        "4,video,1,0,1,0,3,2,3,4\n"
        "5,video,1,1,1,0,4,3,2,3\n"
        "6,text,2,,,,5,5,5,5\n"
    )

    def test_vrope_golden_bytes(self):
        layout = build_layout(parse_layout_spec("text:2,video:2x2x1,text:1"), _config("vrope"))
        assert layout_csv(layout) == self.GOLDEN

    def test_unused_dims_empty(self):
        layout = build_layout(parse_layout_spec("text:1,video:1x1x1"), _config("rope1d"))
        lines = layout_csv(layout).splitlines()
        assert lines[1] == "0,text,0,,,,0,,,"
        assert lines[2] == "1,video,1,0,0,0,1,,,"

    @pytest.mark.parametrize("scheme", SCHEME_IDS)
    def test_round_trip(self, scheme):
        # 65x65 frames are cut into in-frame blocks of csvblock.BLOCK_ROWS rows
        for spec in ("text:2,video:3x2x2,text:2,video:1x1x1,text:1", "text:3,video:65x65x2,text:1"):
            layout = build_layout(parse_layout_spec(spec), _config(scheme))
            assert parse_layout_csv(layout_csv(layout)) == layout.tokens

    def test_rejects_foreign_header(self):
        with pytest.raises(LayoutParseError):
            parse_layout_csv("a,b,c\n1,2,3\n")

    @pytest.mark.parametrize(
        "row,column",
        [
            ("0,text,x,,,,0,,,", "segment_index"),
            ("0,text,,,,,0,,,", "segment_index"),
            ("y,text,0,,,,0,,,", "token_index"),
            ("0,video,0,1,,0,5,,,", "h"),
            ("0,video,0,1,2,3,5.5,,,", "dim0"),
            ("0,text,0,,,,,,,", "dim0"),
            ("0,text,0,,,,0,,2,", "dim1"),
            ("7,text,0,,,,0,,,", "token_index must be 1, got 7"),
            ("1,text,0,1,2,3,0,,,", "w/h/t must be empty on a text row"),
            ("1,video,1,0,0,0,0,0,0,", "has 3 dims, row 2 has 1"),
            ("1,video,0,0,0,0,1,,,", "modality video differs from segment 0's first row, text"),
            ("1,text,2,,,,1,,,", "segment_index must be 0 or 1, got 2"),
            ("1,text,-1,,,,1,,,", "segment_index must be 0 or 1, got -1"),
            # two rows on one cell, which no grid's raster order repeats
            (
                "1,video,1,5,5,5,1,,,\n2,video,1,5,5,5,1,,,",
                "w/h/t 5,5,5 out of raster order; cell 0 of segment 1's 6x6x6 grid is 0,0,0",
            ),
            # a 2x2x1 grid missing its last cell
            (
                "1,video,1,0,0,0,1,,,\n2,video,1,1,0,0,2,,,\n3,video,1,0,1,0,3,,,\n4,text,2,,,,4,,,",
                "video segment 1 has 3 rows, its 2x2x1 grid has 4 cells",
            ),
            # cells (0,0,0) and (1,0,0) swapped
            (
                "1,video,1,1,0,0,1,,,\n2,video,1,0,0,0,2,,,",
                "w/h/t 1,0,0 out of raster order; cell 0 of segment 1's 2x1x1 grid is 0,0,0",
            ),
            ("1,video,1,-1,0,0,1,,,", "w/h/t -1,0,0 out of raster order"),
            # a 2x1x1 grid with a third row: the text goes on past every rendering
            (
                "1,video,1,0,0,0,1,,,\n2,video,1,1,0,0,2,,,\n3,video,1,1,0,0,2,,,",
                "video segment 1 has 3 rows, its 2x1x1 grid has 2 cells",
            ),
        ],
    )
    def test_bad_cell_reports_row(self, row, column):
        text = LAYOUT_CSV_HEADER + "\n0,text,0,,,,0,,,\n" + row + "\n"
        with pytest.raises(LayoutParseError, match=f"row 3: {column}"):
            parse_layout_csv(text)

    def test_first_row_must_open_segment_0(self):
        text = LAYOUT_CSV_HEADER + "\n0,text,3,,,,0,,,\n1,text,1,,,,1,,,\n"
        with pytest.raises(LayoutParseError, match="row 2: segment_index must be 0 on the first row"):
            parse_layout_csv(text)

    @pytest.mark.parametrize(
        "rows,message",
        [
            (
                "0,text,0,,,,5,,,\n1,text,0,,,,-7,,,",
                "row 2: dims 5 are no scheme's; the nearest, rope1d, has 0",
            ),
            (
                "0,video,0,0,0,0,3,99,1,\n1,video,0,1,0,0,0,0,0,",
                "row 2: dims 3,99,1 are no scheme's; the nearest, rope3d, has 0,0,0",
            ),
            (
                "0,text,0,,,,0,0,0,0\n1,video,1,0,0,0,1,1,1,1\n2,text,2,,,,3,3,3,3",
                "row 4: dims 3,3,3,3 are no scheme's; the nearest, vrope, has 2,2,2,2",
            ),
            # a dims fault on row 3 comes before the raster fault on row 4
            (
                "0,text,0,,,,0,,,\n1,video,1,0,0,0,9,,,\n2,video,1,0,1,0,2,,,\n"
                "3,video,1,1,0,0,3,,,\n4,video,1,1,1,0,4,,,",
                "row 3: dims 9 are no scheme's; the nearest, rope1d, has 1",
            ),
        ],
    )
    def test_positions_no_scheme_produces_are_rejected(self, rows, message):
        with pytest.raises(LayoutParseError, match=message):
            parse_layout_csv(LAYOUT_CSV_HEADER + "\n" + rows + "\n")

    @pytest.mark.parametrize(
        "text,message",
        [
            (GOLDEN.replace("\n", "\r\n"), "row 1: unexpected layout CSV header"),
            (GOLDEN[:-1], r"row 8: expected '6,text,2,,,,5,5,5,5\\n', got '6,text,2,,,,5,5,5,5'"),
            (GOLDEN.replace("\n2,video,", '\n2,"video",'), "row 4: unknown modality"),
            (GOLDEN.replace("\n3,video,1,1,", "\n3,video,1,01,"), "row 5: expected"),
            (GOLDEN.replace("\n0,text,0,,,,0,", "\n0,text,0,,,,-0,"), "row 2: expected"),
            (LAYOUT_CSV_HEADER + "\n", "row 2: a layout CSV needs a row after its header"),
        ],
        ids=["crlf", "no-final-lf", "quoted-cell", "leading-zero", "minus-zero", "header-only"],
    )
    def test_non_canonical_spellings_are_rejected(self, text, message):
        with pytest.raises(LayoutParseError, match=message):
            parse_layout_csv(text)

    def test_huge_grid_fails_at_its_first_block(self):
        # one row spells a 20,000,001-cell grid; rendering it whole would take about 600 MB
        text = LAYOUT_CSV_HEADER + "\n0,video,0,20000000,0,0,0,,,\n"
        tracemalloc.start()
        try:
            with pytest.raises(LayoutParseError, match="row 2: w/h/t 20000000,0,0 out of raster"):
                parse_layout_csv(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_grid_over_the_layout_budget_names_its_segment(self):
        text = LAYOUT_CSV_HEADER + f"\n0,text,0,,,,0,,,\n1,video,1,{10**30},0,0,1,,,\n"
        with pytest.raises(LayoutParseError, match="row 3: video segment 1 has 1 rows"):
            parse_layout_csv(text)

    def test_uses_lf_only(self):
        layout = build_layout([TextSegment(2)], _config("rope1d"))
        text = layout_csv(layout)
        assert "\r" not in text
        assert text.endswith("\n") and not text.endswith("\n\n")
