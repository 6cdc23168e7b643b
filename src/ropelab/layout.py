"""Interleaved text/video sequences: parsing, position resolution, boundary gaps.

A layout spec is a comma-separated list of segments, e.g.
``"text:2,video:2x2x1,text:1"`` (video sizes are WxHxT). Whitespace is
insignificant. :func:`build_layout` resolves every token's position vector
under a scheme, including each scheme's continuation rule at segment
boundaries, and :func:`boundary_gaps` measures the per-dim jump at every
video-to-text boundary.
"""

from __future__ import annotations

import csv
import io
import itertools
import re
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import LayoutParseError, ParameterError
from .rotary import check_array_budget
from .schemes import (
    PositionVector,
    SchemeConfig,
    TokenCoordinate,
    VideoGrid,
    text_position,
    text_start_after_video,
    video_positions,
)

# rows per block when converting layout arrays to Python objects or CSV text
_CHUNK_ROWS = 4096


@dataclass(frozen=True)
class TextSegment:
    """A run of ``count`` opaque text tokens."""

    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ParameterError(f"text segment needs count >= 1, got {self.count}")

    @property
    def token_count(self) -> int:
        return self.count


@dataclass(frozen=True)
class VideoSegment:
    """One video, laid out as a token grid."""

    grid: VideoGrid

    @property
    def token_count(self) -> int:
        return self.grid.token_count


Segment = TextSegment | VideoSegment


@dataclass(frozen=True)
class LayoutToken:
    """One resolved token: modality, owning segment, coordinate/ordinal, position."""

    modality: str  # "text" | "video"
    segment_index: int
    coord: TokenCoordinate | None  # video tokens only
    ordinal: int | None  # text tokens only: offset within the segment
    position: PositionVector


class LayoutTokens(Sequence):
    """Read-only per-token view of a :class:`TokenLayout`.

    Tokens are built from the layout's arrays when accessed; ``len()`` costs
    O(1). The view compares equal to a tuple, or another view, holding the
    same tokens in the same order.
    """

    __slots__ = ("_layout",)

    def __init__(self, layout: TokenLayout):
        self._layout = layout

    def __len__(self) -> int:
        return len(self._layout.positions)

    def _build(self, start: int, stop: int) -> list[LayoutToken]:
        layout = self._layout
        rows = zip(
            layout.segment_index[start:stop].tolist(),
            layout.is_video[start:stop].tolist(),
            layout.coords[start:stop].tolist(),
            layout.ordinal[start:stop].tolist(),
            layout.positions[start:stop].tolist(),
        )
        return [
            LayoutToken("video", segment, TokenCoordinate(*coord), None, tuple(position))
            if video
            else LayoutToken("text", segment, None, ordinal, tuple(position))
            for segment, video, coord, ordinal, position in rows
        ]

    def __getitem__(self, index):
        picked = range(len(self))[index]  # normalizes negatives, raises IndexError
        if isinstance(picked, int):
            return self._build(picked, picked + 1)[0]
        if picked.step == 1:
            return tuple(self._build(picked.start, picked.stop))
        return tuple(self[i] for i in picked)

    def __iter__(self):
        for start in range(0, len(self), _CHUNK_ROWS):
            yield from self._build(start, start + _CHUNK_ROWS)

    def __eq__(self, other):
        if not isinstance(other, (tuple, LayoutTokens)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"<LayoutTokens of {len(self)} tokens>"


_ARRAY_FIELDS = ("positions", "segment_index", "is_video", "coords", "ordinal")


@dataclass(frozen=True, eq=False)
class TokenLayout:
    """All tokens of a sequence in order, stored as arrays, with their scheme.

    Row ``i`` of every array describes token ``i``:

    * ``positions``: (N, G) int64, one column per channel group;
    * ``segment_index``: (N,) int64, the owning segment;
    * ``is_video``: (N,) bool, the modality;
    * ``coords``: (N, 3) int64 columns ``w, h, t`` of video tokens, -1 on text rows;
    * ``ordinal``: (N,) int64 offset of a text token within its segment, -1 on video rows.

    Video tokens appear in raster order (frame outer, then row, then
    column); text positions increase by one per token within a segment.
    The arrays are read-only; :attr:`tokens` derives per-token objects
    from them.
    """

    scheme: SchemeConfig
    segments: tuple[Segment, ...]
    positions: np.ndarray
    segment_index: np.ndarray
    is_video: np.ndarray
    coords: np.ndarray
    ordinal: np.ndarray

    @property
    def tokens(self) -> LayoutTokens:
        """Per-token view of the arrays (see :class:`LayoutTokens`)."""
        return LayoutTokens(self)

    def __eq__(self, other):
        if not isinstance(other, TokenLayout):
            return NotImplemented
        return (self.scheme, self.segments) == (other.scheme, other.segments) and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in _ARRAY_FIELDS
        )


@dataclass(frozen=True)
class BoundaryGap:
    """Per-dim jump at one video-to-text boundary.

    ``per_dim[i]`` is the first following text token's dim ``i`` minus the
    maximum of dim ``i`` over the video segment's tokens.
    """

    video_segment: int
    text_segment: int
    per_dim: tuple[int, ...]


_TEXT_RE = re.compile(r"^\s*text\s*:\s*([0-9]+)\s*$")
_VIDEO_RE = re.compile(r"^\s*video\s*:\s*([0-9]+)\s*x\s*([0-9]+)\s*x\s*([0-9]+)\s*$")


def parse_layout_spec(spec: str) -> tuple[Segment, ...]:
    """Parse a layout spec string into segments.

    Raises:
        LayoutParseError: on malformed items or zero sizes, with the
            offending character span.
    """
    if not spec.strip():
        raise LayoutParseError("empty layout spec", span=(0, len(spec)))
    segments: list[Segment] = []
    offset = 0
    for item in spec.split(","):
        span = (offset, offset + len(item))
        offset += len(item) + 1
        where = f"chars {span[0]}..{span[1]}: {item.strip()!r}"
        m = _TEXT_RE.match(item)
        if m:
            count = int(m.group(1))
            if count < 1:
                raise LayoutParseError(f"text count must be >= 1 at {where}", span=span)
            segments.append(TextSegment(count))
            continue
        m = _VIDEO_RE.match(item)
        if m:
            width, height, frames = (int(g) for g in m.groups())
            if min(width, height, frames) < 1:
                raise LayoutParseError(f"video sizes must be >= 1 at {where}", span=span)
            segments.append(VideoSegment(VideoGrid(width, height, frames)))
            continue
        raise LayoutParseError(f"unrecognized segment at {where}", span=span)
    return tuple(segments)


def format_layout_spec(segments) -> str:
    """Inverse of :func:`parse_layout_spec` for canonical segment tuples."""
    parts = []
    for seg in segments:
        if isinstance(seg, TextSegment):
            parts.append(f"text:{seg.count}")
        else:
            g = seg.grid
            parts.append(f"video:{g.width}x{g.height}x{g.frames}")
    return ",".join(parts)


def build_layout(segments, scheme: SchemeConfig) -> TokenLayout:
    """Resolve every token's position vector for the given segments and scheme.

    One vector, the next text token's position, carries the sequence from
    ``text_position(0)``: a text segment counts up from it in every dim and
    moves it past its last token; a video starts at its largest dim and
    moves it to :func:`~ropelab.schemes.text_start_after_video`.

    Each segment's rows are filled at once: text from a range, video from
    the grid's cell indices through :func:`~ropelab.schemes.video_positions`.
    """
    segments = tuple(segments)
    if not segments:
        raise ParameterError("segment list is empty")
    sizes = [segment.token_count for segment in segments]
    total = sum(sizes)
    # the widest per-token arrays are positions (G columns) and coords (3)
    check_array_budget(total * max(scheme.group_count, 3), f"a layout of {total} tokens")
    positions = np.empty((total, scheme.group_count), dtype=np.int64)
    coords = np.full((total, 3), -1, dtype=np.int64)
    ordinal = np.full(total, -1, dtype=np.int64)
    start = text_position(0, scheme)
    for segment, rows in zip(segments, _segment_slices(sizes)):
        if isinstance(segment, TextSegment):
            steps = np.arange(segment.count, dtype=np.int64)
            ordinal[rows] = steps
            positions[rows] = np.add.outer(steps, start)
            start = tuple(v + segment.count for v in start)
        else:
            grid = segment.grid
            p = max(start)
            cells = np.indices((grid.frames, grid.height, grid.width), dtype=np.int64)
            t, h, w = cells.reshape(3, -1)
            coords[rows] = np.stack((w, h, t), axis=1)
            positions[rows] = video_positions(scheme, w, h, t, grid, p)
            start = text_start_after_video(scheme, grid, p)
    segment_index = np.repeat(np.arange(len(segments), dtype=np.int64), sizes)
    is_video = np.repeat([isinstance(segment, VideoSegment) for segment in segments], sizes)
    layout = TokenLayout(scheme, segments, positions, segment_index, is_video, coords, ordinal)
    for name in _ARRAY_FIELDS:
        getattr(layout, name).setflags(write=False)
    return layout


def _segment_slices(sizes) -> list[slice]:
    """Row range of each segment, given the segments' token counts."""
    starts = [0, *itertools.accumulate(sizes)]
    return [slice(start, stop) for start, stop in zip(starts, starts[1:])]


def video_text_boundaries(segments) -> list[tuple[int, slice]]:
    """``(video segment index, its rows)`` for every video segment followed by text.

    In sequence order; the following text segment's first row is the
    slice's ``stop``.
    """
    slices = _segment_slices(segment.token_count for segment in segments)
    return [
        (index, slices[index])
        for index in range(len(segments) - 1)
        if isinstance(segments[index], VideoSegment)
        and isinstance(segments[index + 1], TextSegment)
    ]


def boundary_gaps(layout: TokenLayout) -> tuple[BoundaryGap, ...]:
    """Per-dim gaps at every video segment directly followed by a text segment.

    Returns an empty tuple when the layout has no such boundary.
    """
    return tuple(
        BoundaryGap(
            index,
            index + 1,
            tuple((layout.positions[video.stop] - layout.positions[video].max(axis=0)).tolist()),
        )
        for index, video in video_text_boundaries(layout.segments)
    )


LAYOUT_CSV_HEADER = "token_index,modality,segment_index,w,h,t,dim0,dim1,dim2,dim3"


def layout_csv(layout: TokenLayout) -> str:
    """Render a layout as CSV (UTF-8, LF). Text rows leave w/h/t empty; unused dims empty.

    Rows are formatted a block of at most ``_CHUNK_ROWS`` at a time, from
    ``tolist()`` slices of the arrays.
    """
    groups = layout.scheme.group_count
    dims = ",%d" * groups + "," * (4 - groups)
    pieces = [LAYOUT_CSV_HEADER, "\n"]
    slices = _segment_slices(segment.token_count for segment in layout.segments)
    for index, (segment, rows) in enumerate(zip(layout.segments, slices)):
        if isinstance(segment, VideoSegment):
            row_format = f"%d,video,{index},%d,%d,%d{dims}"
            columns = [layout.coords[:, 0], layout.coords[:, 1], layout.coords[:, 2]]
        else:
            row_format = f"%d,text,{index},,,{dims}"
            columns = []
        columns += [layout.positions[:, g] for g in range(groups)]
        for start in range(rows.start, rows.stop, _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, rows.stop)
            values = [range(start, stop)] + [column[start:stop].tolist() for column in columns]
            pieces.append("\n".join([row_format % row for row in zip(*values)]))
            pieces.append("\n")
    return "".join(pieces)


_CSV_INT_RE = re.compile(r"-?[0-9]+")


def _csv_int(cell: str, column: str, row_number: int) -> int:
    if not _CSV_INT_RE.fullmatch(cell):
        raise LayoutParseError(f"row {row_number}: {column} must be an integer, got {cell!r}")
    return int(cell)


def parse_layout_csv(text: str) -> tuple[LayoutToken, ...]:
    """Reconstruct the token sequence from a layout CSV produced by :func:`layout_csv`.

    Raises:
        LayoutParseError: on a foreign header, a wrong column count, an
            unknown modality, an empty or non-integer cell where a number
            belongs, a ``token_index`` other than the row's 0-based index,
            or a text row with a w/h/t cell filled. Messages name the
            1-based CSV row (the header is row 1).
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise LayoutParseError("empty layout CSV") from None
    if ",".join(header) != LAYOUT_CSV_HEADER:
        raise LayoutParseError(f"unexpected layout CSV header: {','.join(header)!r}")
    tokens: list[LayoutToken] = []
    text_ordinals: dict[int, int] = {}
    for row_number, row in enumerate(reader, start=2):
        if len(row) != 10:
            raise LayoutParseError(
                f"row {row_number}: expected 10 columns, got {len(row)}: {row!r}"
            )
        token_index, modality, segment_index, w, h, t, *dims = row
        if modality not in ("video", "text"):
            raise LayoutParseError(f"row {row_number}: unknown modality {modality!r}")
        index = _csv_int(token_index, "token_index", row_number)
        segment = _csv_int(segment_index, "segment_index", row_number)
        # dims fill dim0.. in order; a scheme's unused trailing dims are empty
        used = dims.index("") if "" in dims else len(dims)
        if any(dims[used:]):
            raise LayoutParseError(f"row {row_number}: dim{used} is empty before a filled dim")
        position = tuple(
            _csv_int(v, f"dim{i}", row_number) for i, v in enumerate(dims[: max(used, 1)])
        )
        if modality == "video":
            coord = TokenCoordinate(
                *(_csv_int(cell, name, row_number) for cell, name in ((w, "w"), (h, "h"), (t, "t")))
            )
            token = LayoutToken("video", segment, coord, None, position)
        else:
            ordinal = text_ordinals.get(segment, 0)
            text_ordinals[segment] = ordinal + 1
            token = LayoutToken("text", segment, None, ordinal, position)
        # row consistency, checked once every cell has parsed
        if index != len(tokens):
            raise LayoutParseError(
                f"row {row_number}: token_index must be {len(tokens)}, got {index}"
            )
        if modality == "text" and (w or h or t):
            raise LayoutParseError(
                f"row {row_number}: w/h/t must be empty on a text row, got {','.join((w, h, t))!r}"
            )
        tokens.append(token)
    return tuple(tokens)
