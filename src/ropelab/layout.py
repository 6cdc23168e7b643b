"""Interleaved text/video sequences: parsing, position resolution, boundary gaps.

A layout spec is a comma-separated list of segments, e.g.
``"text:2,video:2x2x1,text:1"`` (video sizes are WxHxT). Whitespace is
insignificant. :func:`build_layout` resolves each segment under a scheme,
continuation rules included, into an affine grid, from which the per-token
``positions`` are filled when first read; a token's segment, modality,
cell and offset follow from the segments.
:func:`boundary_gaps` measures the per-dim jump at every video-to-text
boundary.
"""

from __future__ import annotations

import bisect
import csv
import functools
import io
import itertools
import re
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .csvblock import format_block
from .errors import LayoutParseError, ParameterError
from .rotary import check_array_budget
from .schemes import (
    PositionVector,
    SchemeConfig,
    TokenCoordinate,
    VideoGrid,
    text_position,
    text_start_after_video,
    video_map,
)

# rows per block when converting a layout to Python objects or CSV text
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

    Tokens are built when accessed, from ``positions`` and the segment that
    holds each row, found by binary search over the segments' first rows;
    ``len()`` reads the segments and costs O(1). The view compares equal to
    a tuple, or another view, holding the same tokens in the same order.
    """

    __slots__ = ("_layout", "_starts")

    def __init__(self, layout: TokenLayout):
        self._layout = layout
        self._starts = _segment_starts(layout.segments)

    def __len__(self) -> int:
        return self._starts[-1]

    def _build(self, start: int, stop: int) -> list[LayoutToken]:
        segments, starts, tokens = self._layout.segments, self._starts, []
        index = bisect.bisect_right(starts, start) - 1
        for row, position in enumerate(self._layout.positions[start:stop].tolist(), start):
            if row == starts[index + 1]:  # segments are never empty
                index += 1
            segment, offset = segments[index], row - starts[index]
            if isinstance(segment, VideoSegment):
                coord = TokenCoordinate(*_cell(offset, segment.grid))
                tokens.append(LayoutToken("video", index, coord, None, tuple(position)))
            else:
                tokens.append(LayoutToken("text", index, None, offset, tuple(position)))
        return tokens

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


@dataclass(frozen=True, eq=False)
class TokenLayout:
    """All tokens of a sequence in order, with their segments and scheme.

    Segment ``s`` is an affine grid (see :func:`build_layout`): the token at
    raster cell ``k`` of ``counts[s]`` (S, 3) sits at ``firsts[s] + k @ steps[s]``,
    ``firsts`` (S, G) and ``steps`` (S, 3, G) all read-only int64.
    :attr:`positions` and :attr:`tokens` follow from the grids and segments.
    """

    scheme: SchemeConfig
    segments: tuple[Segment, ...]
    firsts: np.ndarray
    steps: np.ndarray
    counts: np.ndarray

    @functools.cached_property
    def positions(self) -> np.ndarray:
        """Read-only (N, G) int64 array, row ``i`` the position of token ``i``, filled once.

        Video tokens appear in raster order (frame outer, then row, then
        column); text positions increase by one per token within a segment.
        """
        slices = _segment_slices(self.segments)
        positions = np.empty((slices[-1].stop, self.scheme.group_count), dtype=np.int64)
        for first, steps, counts, rows in zip(self.firsts, self.steps, self.counts.tolist(), slices):
            cells = _grid_cells(np.arange(rows.stop - rows.start), counts)
            # in place: no (n, G) product or sum is held beside positions
            np.matmul(cells, steps, out=positions[rows])
            positions[rows] += first
        positions.setflags(write=False)
        return positions

    @functools.cached_property
    def tokens(self) -> LayoutTokens:
        """Per-token view of the layout (see :class:`LayoutTokens`), built once."""
        return LayoutTokens(self)

    def __eq__(self, other):
        if not isinstance(other, TokenLayout):
            return NotImplemented
        return (self.scheme, self.segments) == (other.scheme, other.segments)


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
    """Resolve each segment's affine grid, in O(segments), for the segments and scheme.

    One vector, the next text token's position, carries the sequence from
    ``text_position(0)``: a text segment is one axis from it, step 1 in
    every dim, and moves it past its last token; a video starts at its
    largest dim, takes the rows of the scheme's :func:`~ropelab.schemes.video_map`
    as its w, h and t steps, and moves it to
    :func:`~ropelab.schemes.text_start_after_video`.
    """
    segments = tuple(segments)
    if not segments:
        raise ParameterError("segment list is empty")
    total = _segment_starts(segments)[-1]
    # the widest per-token arrays are positions (G columns) and a segment's cells (3)
    check_array_budget(total * max(scheme.group_count, 3), f"a layout of {total} tokens")
    firsts = np.empty((len(segments), scheme.group_count), dtype=np.int64)
    steps = np.zeros((len(segments), 3, scheme.group_count), dtype=np.int64)
    counts = np.ones((len(segments), 3), dtype=np.int64)
    start = text_position(0, scheme)
    for i, segment in enumerate(segments):
        if isinstance(segment, TextSegment):
            firsts[i], steps[i, 0], counts[i, 0] = start, 1, segment.count
            start = tuple(v + segment.count for v in start)
        else:
            grid = segment.grid
            p = max(start)
            steps[i], firsts[i], _ = video_map(scheme, grid, p)
            counts[i] = grid.width, grid.height, grid.frames
            start = text_start_after_video(scheme, grid, p)
    for array in (firsts, steps, counts):
        array.setflags(write=False)
    return TokenLayout(scheme, segments, firsts, steps, counts)


def _cell(offset, grid: VideoGrid):
    """``(w, h, t)`` of the cell at raster ``offset`` (an int or an array) of a video."""
    t, in_frame = divmod(offset, grid.tokens_per_frame)
    h, w = divmod(in_frame, grid.width)
    return w, h, t


def _grid_cells(offsets: np.ndarray, counts) -> np.ndarray:
    """(n, 3) cells ``(w, h, t)`` at raster ``offsets`` of a segment's grid of ``counts``.

    A text run's counts are ``(n, 1, 1)``, so its cells are ``(k, 0, 0)``.
    """
    return np.stack(_cell(offsets, VideoGrid(*counts)), axis=1)


def _segment_starts(segments) -> list[int]:
    """First row of each segment, then the layout's token count."""
    return [0, *itertools.accumulate(segment.token_count for segment in segments)]


def _segment_slices(segments) -> list[slice]:
    """Row range of each segment."""
    return [slice(start, stop) for start, stop in itertools.pairwise(_segment_starts(segments))]


def video_text_boundaries(segments) -> list[int]:
    """Index of every video segment directly followed by a text segment, in sequence order."""
    return [
        index
        for index in range(len(segments) - 1)
        if isinstance(segments[index], VideoSegment)
        and isinstance(segments[index + 1], TextSegment)
    ]


def boundary_gaps(layout: TokenLayout) -> tuple[BoundaryGap, ...]:
    """Per-dim gaps at every video segment directly followed by a text segment.

    Returns an empty tuple when the layout has no such boundary. Each dim's
    maximum over a grid takes every axis with a positive step to its last
    cell: ``firsts[s] + sum_a (counts[s, a] - 1) * max(steps[s, a], 0)``;
    ``layout.positions`` is never filled.
    """
    reach = (layout.counts[:, :, None] - 1) * np.maximum(layout.steps, 0)
    maxima = layout.firsts + reach.sum(axis=1)
    return tuple(
        BoundaryGap(index, index + 1, tuple((layout.firsts[index + 1] - maxima[index]).tolist()))
        for index in video_text_boundaries(layout.segments)
    )


LAYOUT_CSV_HEADER = "token_index,modality,segment_index,w,h,t,dim0,dim1,dim2,dim3"


def layout_csv(layout: TokenLayout) -> str:
    """Render a layout as CSV (UTF-8, LF). Text rows leave w/h/t empty; unused dims empty.

    Rows are formatted a block of at most ``_CHUNK_ROWS`` at a time, each
    block's cells and positions computed from its segment's grid
    (``firsts[s] + cells @ steps[s]``); ``layout.positions`` is never filled.
    """
    groups = layout.scheme.group_count
    dims = ",%d" * groups + "," * (4 - groups) + "\n"
    pieces = [LAYOUT_CSV_HEADER, "\n"]
    counts = layout.counts.tolist()
    for index, (segment, rows) in enumerate(zip(layout.segments, _segment_slices(layout.segments))):
        video = isinstance(segment, VideoSegment)
        row_format = f"%d,video,{index},%d,%d,%d{dims}" if video else f"%d,text,{index},,,{dims}"
        for start in range(rows.start, rows.stop, _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, rows.stop)
            cells = _grid_cells(np.arange(start - rows.start, stop - rows.start), counts[index])
            columns = [range(start, stop)]
            if video:
                columns += cells.T.tolist()
            columns += (cells @ layout.steps[index] + layout.firsts[index]).T.tolist()
            pieces.append(format_block(row_format, columns))
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
            a text row with a w/h/t cell filled, a row whose dim count
            differs from row 2's, a ``segment_index`` other than 0 on row 2
            or other than the previous row's or one more on a later row, a
            row whose modality differs from its segment's first row, or a
            video segment whose rows do not walk its grid in raster order
            (see :func:`_check_video_rows`). Messages name the 1-based CSV
            row (the header is row 1).
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise LayoutParseError("empty layout CSV") from None
    if ",".join(header) != LAYOUT_CSV_HEADER:
        raise LayoutParseError(f"unexpected layout CSV header: {','.join(header)!r}")
    tokens: list[LayoutToken] = []
    segment_start = 0  # token index of the current segment's first row
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
        coord = None
        if modality == "video":
            coord = TokenCoordinate(
                *(_csv_int(cell, name, row_number) for cell, name in ((w, "w"), (h, "h"), (t, "t")))
            )
        # row consistency, checked once every cell has parsed
        if index != len(tokens):
            raise LayoutParseError(
                f"row {row_number}: token_index must be {len(tokens)}, got {index}"
            )
        if modality == "text" and (w or h or t):
            raise LayoutParseError(
                f"row {row_number}: w/h/t must be empty on a text row, got {','.join((w, h, t))!r}"
            )
        if tokens and len(position) != len(tokens[0].position):
            raise LayoutParseError(
                f"row {row_number}: has {len(position)} dims, row 2 has {len(tokens[0].position)}"
            )
        if not tokens:
            if segment != 0:
                raise LayoutParseError(
                    f"row {row_number}: segment_index must be 0 on the first row, got {segment}"
                )
        elif segment == tokens[-1].segment_index:
            if modality != tokens[-1].modality:
                raise LayoutParseError(
                    f"row {row_number}: modality {modality} differs from segment {segment}'s "
                    f"first row, {tokens[-1].modality}"
                )
        elif segment != tokens[-1].segment_index + 1:
            previous = tokens[-1].segment_index
            raise LayoutParseError(
                f"row {row_number}: segment_index must be {previous} or {previous + 1}, got {segment}"
            )
        else:
            _check_video_rows(tokens, segment_start)
            segment_start = len(tokens)
        ordinal = None if modality == "video" else len(tokens) - segment_start
        tokens.append(LayoutToken(modality, segment, coord, ordinal, position))
    if tokens:
        _check_video_rows(tokens, segment_start)
    return tuple(tokens)


def _check_video_rows(tokens: list[LayoutToken], first: int) -> None:
    """Raise unless the segment ``tokens[first:]``, if video, walks one grid in raster order.

    The grid is ``(max w + 1) x (max h + 1) x (max t + 1)`` over the
    segment's rows; row ``k`` must hold the grid's raster cell ``k``, and
    the rows must cover every cell. Token ``i`` is CSV row ``i + 2``.
    """
    if tokens[first].modality != "video":
        return
    cells = [(token.coord.w, token.coord.h, token.coord.t) for token in tokens[first:]]
    # a negative cell fails the row check; the floor only keeps the grid valid
    grid = VideoGrid(*(max(max(axis), 0) + 1 for axis in zip(*cells)))
    segment = tokens[first].segment_index
    size = f"{grid.width}x{grid.height}x{grid.frames}"
    for k, cell in enumerate(cells):
        expected = _cell(k, grid)
        if cell != expected:
            raise LayoutParseError(
                f"row {first + k + 2}: w/h/t {'%d,%d,%d' % cell} out of raster order; "
                f"cell {k} of segment {segment}'s {size} grid is {'%d,%d,%d' % expected}"
            )
    if len(cells) != grid.token_count:
        raise LayoutParseError(
            f"row {first + 2}: video segment {segment} has {len(cells)} rows, "
            f"its {size} grid has {grid.token_count} cells"
        )
