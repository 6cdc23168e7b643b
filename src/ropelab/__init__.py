"""Rotary positional encodings for interleaved video-text sequences, with diagnostics.

Six schemes (rope1d, rope2d, rope3d, rope_share, rope_compact, vrope) share
one rotation kernel; a diagnostics layer quantifies positional attention
bias and video-text boundary discontinuity through closed-form expected
scores, boundary gaps, heatmaps, and decay curves.
"""

from .diagnostics import (
    BoundaryScore,
    DecayCurve,
    ScoreGrid,
    TrialConfig,
    boundary_csv,
    boundary_score_table,
    decay_csv,
    decay_curve,
    heatmap,
    heatmap_csv,
    monte_carlo_heatmap,
    softmax_grid,
)
from .errors import (
    ConfigError,
    CoordinateError,
    DimensionError,
    LayoutParseError,
    ParameterError,
    RopelabError,
)
from .layout import (
    BoundaryGap,
    LayoutToken,
    Segment,
    TextSegment,
    TokenLayout,
    VideoSegment,
    boundary_gaps,
    build_layout,
    format_layout_spec,
    layout_csv,
    layout_csv_blocks,
    parse_layout_csv,
    parse_layout_spec,
)
from .rotary import (
    FrequencySchedule,
    attention_score,
    attention_score_oracle,
    build_frequency_schedule,
    expected_self_score,
    rotate,
)
from .schemes import (
    SCHEME_IDS,
    PositionVector,
    SchemeConfig,
    SymmetricIndices,
    TokenCoordinate,
    VideoGrid,
    group_allocation,
    pair_positions,
    rotate_with_scheme,
    scheme_position,
    symmetric_indices,
    text_position,
    vrope_position,
)
from .selfcheck import run_selfcheck
from .svg import heatmap_svg

__version__ = "0.1.0"

__all__ = [
    "BoundaryGap",
    "BoundaryScore",
    "ConfigError",
    "CoordinateError",
    "DecayCurve",
    "DimensionError",
    "FrequencySchedule",
    "LayoutParseError",
    "LayoutToken",
    "ParameterError",
    "PositionVector",
    "RopelabError",
    "SCHEME_IDS",
    "SchemeConfig",
    "ScoreGrid",
    "Segment",
    "SymmetricIndices",
    "TextSegment",
    "TokenCoordinate",
    "TokenLayout",
    "TrialConfig",
    "VideoGrid",
    "VideoSegment",
    "attention_score",
    "attention_score_oracle",
    "boundary_csv",
    "boundary_gaps",
    "boundary_score_table",
    "build_frequency_schedule",
    "build_layout",
    "decay_csv",
    "decay_curve",
    "expected_self_score",
    "format_layout_spec",
    "group_allocation",
    "heatmap",
    "heatmap_csv",
    "heatmap_svg",
    "layout_csv",
    "layout_csv_blocks",
    "monte_carlo_heatmap",
    "pair_positions",
    "parse_layout_csv",
    "parse_layout_spec",
    "rotate",
    "rotate_with_scheme",
    "run_selfcheck",
    "scheme_position",
    "softmax_grid",
    "symmetric_indices",
    "text_position",
    "vrope_position",
]
