"""Tests for layout parsing, position resolution, boundary gaps, and the CSV format."""

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
        layout = build_layout(
            parse_layout_spec("text:2,video:3x2x2,text:2,video:1x1x1,text:1"), _config(scheme)
        )
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

    def test_uses_lf_only(self):
        layout = build_layout([TextSegment(2)], _config("rope1d"))
        text = layout_csv(layout)
        assert "\r" not in text
        assert text.endswith("\n") and not text.endswith("\n\n")
