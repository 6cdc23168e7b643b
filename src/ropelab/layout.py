"""Interleaved text/video sequences: parsing, position resolution, boundary gaps.

A layout spec is a comma-separated list of segments, e.g.
``"text:2,video:2x2x1,text:1"`` (video sizes are WxHxT). Whitespace is
insignificant. :func:`build_layout` resolves each segment under a scheme,
continuation rules included, into an affine grid, from which the per-token
``positions`` are filled when first read; the fill, the ``tokens`` view
and :func:`layout_csv` all read one walk over the grids' blocks of rows,
which cuts every frame of a video at the same in-frame rows, if at all.
:func:`layout_csv_blocks` yields that CSV a block at a time, writing a
video's rows from row templates built once per segment and in-frame row
range, filled per frame; :func:`layout_csv` is their join.
:func:`boundary_gaps` measures the per-dim jump at every video-to-text
boundary.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import re
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .csvblock import fill_rows, format_block, row_blocks
from .errors import LayoutParseError, ParameterError
from .rotary import check_array_budget
from .schemes import (
    MAX_POSITION,
    SCHEME_IDS,
    PositionVector,
    SchemeConfig,
    TokenCoordinate,
    VideoGrid,
    text_position,
    text_start_after_video,
    video_map,
)


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

    Tokens are built when accessed, a block at a time from the layout's
    block walk, without filling ``positions``; ``len()`` and indexing a token
    cost O(segments). The view compares equal to a tuple, or another view,
    holding the same tokens in the same order.
    """

    __slots__ = ("_layout",)

    def __init__(self, layout: TokenLayout):
        self._layout = layout

    def __len__(self) -> int:
        return _segment_starts(self._layout.segments)[-1]

    def _walk(self, start: int, stop: int):
        """The tokens of rows ``[start, stop)``, in order."""
        segments = self._layout.segments
        for index, _, cells, positions in _blocks(self._layout, start, stop):
            video = isinstance(segments[index], VideoSegment)
            for cell, position in zip(cells.tolist(), positions.tolist()):
                if video:
                    yield LayoutToken("video", index, TokenCoordinate(*cell), None, tuple(position))
                else:  # a text cell is (offset, 0, 0)
                    yield LayoutToken("text", index, None, cell[0], tuple(position))

    def __getitem__(self, index):
        picked = range(len(self))[index]  # normalizes negatives, raises IndexError
        if isinstance(picked, int):
            return next(self._walk(picked, picked + 1))
        if picked.step == 1:
            return tuple(self._walk(picked.start, picked.stop))
        return tuple(self[i] for i in picked)

    def __iter__(self):
        return self._walk(0, len(self))

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
        Only one block's cells and positions are held beside the array.
        Raises ParameterError if tokens times ``max(G, 3)`` exceeds the
        element budget.
        """
        total = _check_layout_budget(self)
        positions = np.empty((total, self.scheme.group_count), dtype=np.int64)
        for _, first, _, block in _blocks(self, 0, total):
            positions[first : first + len(block)] = block
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

    Nothing per token is allocated here, so the element budget is checked
    where per-token arrays are filled (:attr:`TokenLayout.positions`,
    :func:`layout_csv`); a layout of more than 2**53 tokens raises
    ParameterError.
    """
    segments = tuple(segments)
    if not segments:
        raise ParameterError("segment list is empty")
    total = _segment_starts(segments)[-1]
    # counts, their products and token indices stay exact in int64 and float64
    if total > MAX_POSITION:
        raise ParameterError(f"a layout of {total} tokens is over the budget of 2**53 tokens")
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


def _check_layout_budget(layout: TokenLayout) -> int:
    """The layout's token count; ParameterError if its per-token arrays exceed the element budget."""
    total = _segment_starts(layout.segments)[-1]
    # the widest per-token arrays are positions (G columns) and a segment's cells (3)
    check_array_budget(total * max(layout.scheme.group_count, 3), f"a layout of {total} tokens")
    return total


def _cell(offset, grid: VideoGrid):
    """``(w, h, t)`` of the cell at raster ``offset`` (an int or an array) of a video."""
    t, in_frame = divmod(offset, grid.tokens_per_frame)
    h, w = divmod(in_frame, grid.width)
    return w, h, t


def _segment_starts(segments) -> list[int]:
    """First row of each segment, then the layout's token count."""
    return [0, *itertools.accumulate(segment.token_count for segment in segments)]


def _blocks(layout: TokenLayout, start: int, stop: int):
    """``(s, first row, cells, positions)`` of each block of rows ``[start, stop)``.

    A block is one :func:`~ropelab.csvblock.row_blocks` range of segment
    ``s``'s rows, with the grid's ``W*H``-cell frames as frames (a text run
    is one frame): whole frames, or one in-frame row range that every frame
    of the segment is cut at alike. Its (n, 3) cells ``(w, h, t)`` are
    raster cells of the grid of ``counts[s]`` (a text run's are
    ``(k, 0, 0)``) and its (n, G) positions are
    ``firsts[s] + cells @ steps[s]``; the walk keeps neither.
    """
    for index, (first, last) in enumerate(itertools.pairwise(_segment_starts(layout.segments))):
        if first >= stop:
            return
        grid = VideoGrid(*layout.counts[index].tolist())
        frame = grid.tokens_per_frame
        for rows in row_blocks(max(start, first) - first, min(stop, last) - first, frame):
            # built in a helper, so no block stays bound here while the caller uses it
            yield index, first + rows.start, *_block_arrays(layout, index, grid, rows)


def _block_arrays(layout: TokenLayout, index: int, grid: VideoGrid, rows: range):
    """(n, 3) cells and (n, G) positions of ``rows``, counted from 0, of segment ``index``."""
    cells = np.stack(_cell(np.arange(rows.start, rows.stop), grid), axis=1)
    positions = cells @ layout.steps[index]
    positions += layout.firsts[index]  # in place: no second (n, G) array
    return cells, positions


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

    The text is the join of :func:`layout_csv_blocks`, and takes its budget check.
    """
    return "".join(layout_csv_blocks(layout))


def layout_csv_blocks(layout: TokenLayout):
    """An iterator over :func:`layout_csv`'s text: its header line, then each block's rows.

    The budget is checked when this is called, before any block is made: the
    text grows with the tokens, so it takes the budget of ``positions``. Rows
    are formatted a block at a time from the layout's block walk, and only as
    the iterator is read; ``layout.positions`` is never filled. A text block
    is one ``%`` over its repeated row format; a video block is filled from
    its segment's row templates (see :class:`_VideoRows`).
    """
    _check_layout_budget(layout)
    return _csv_pieces(layout)


def _csv_pieces(layout: TokenLayout):
    """:func:`layout_csv_blocks`'s blocks without its budget check, so a reader can stop early."""
    groups = layout.scheme.group_count
    end = "," * (4 - groups) + "\n"
    dims = ",%d" * groups + end
    total = _segment_starts(layout.segments)[-1]
    yield LAYOUT_CSV_HEADER + "\n"
    video = None  # the current video segment's _VideoRows
    for index, first, cells, positions in _blocks(layout, 0, total):
        if isinstance(layout.segments[index], TextSegment):
            columns = [range(first, first + len(cells)), *positions.T.tolist()]
            del cells, positions  # only the block's lists are held while it is formatted
            yield format_block(f"%d,text,{index},,,{dims}", columns)
            continue
        if video is None or video.index != index:
            video = _VideoRows(layout, index, end)
        values = np.concatenate((cells, positions), axis=1)  # columns w, h, t, dim0..
        del cells, positions
        yield video.block(first, values)


class _VideoRows:
    """The CSV rows of one video segment, filled from row templates built once per segment.

    A video row's columns ``w, h, t, dim0..`` are each affine in the cell
    ``(w, h, t)``, with unit steps for the cell's own columns and the
    segment's ``steps`` for the dims; which of a column's w, h and t steps
    are zero decides how it is written:

    - no t-step: the same in every frame, so it is literal text in the
      template of the frame's row range, built once per segment and range;
    - only a t-step: one value per frame, written into a copy of the
      template by one ``str.replace`` of a sentinel per run of adjacent such
      columns (``t`` is always one);
    - otherwise: a ``%d`` field, filled per row, as is ``token_index``.
    """

    def __init__(self, layout: TokenLayout, index: int, end: str):
        steps = np.concatenate((np.identity(3, dtype=np.int64), layout.steps[index]), axis=1)
        kinds = np.where(steps[2] == 0, "baked", np.where(steps[:2].any(axis=0), "row", "frame"))
        fields = []
        self.index = index
        self.baked: list[int] = []  # columns written into the template
        self.runs: list[list[int]] = []  # runs of adjacent per-frame columns, one per sentinel
        self.varying: list[int] = []  # columns filled per row
        for column, kind in enumerate(kinds.tolist()):
            if kind == "baked":
                self.baked.append(column)
                fields.append("%d")  # filled when the template is built
            elif kind == "row":
                self.varying.append(column)
                fields.append("%%d")  # left as a field in the template
            elif self.runs and self.runs[-1][-1] == column - 1:
                self.runs[-1].append(column)
            else:
                fields.append(chr(len(self.runs)))  # no row text holds a control character
                self.runs.append([column])
        self.row_format = f"%%d,video,{index}," + ",".join(fields) + end
        self.frame = int(layout.counts[index, 0] * layout.counts[index, 1])
        self.templates: dict[tuple[int, int, int], str] = {}

    def block(self, first: int, values: np.ndarray) -> str:
        """The rows of one block, row ``first`` onwards, whose (n, 3 + G) columns are ``values``.

        A block is whole frames or one in-frame row range (see
        :func:`_blocks`), so its first ``rows`` rows span one frame's part
        and every later frame of the block repeats their cells.
        """
        rows = min(len(values), self.frame)
        key = (*values[0, :2].tolist(), rows)  # the range's first (w, h) and length
        template = self.templates.get(key)
        if template is None:
            template = format_block(self.row_format, values[:rows, self.baked].T.tolist())
            self.templates[key] = template
        frames = [template] * (len(values) // rows)
        for sentinel, run in enumerate(self.runs):
            # each frame's text for the run, all formatted by one %
            run_format = ",".join(["%d"] * len(run)) + "\n"
            texts = format_block(run_format, values[::rows, run].T.tolist()).split("\n")
            frames = [text.replace(chr(sentinel), value) for text, value in zip(frames, texts)]
        columns = [range(first, first + len(values)), *values[:, self.varying].T.tolist()]
        return fill_rows("".join(frames), columns)


_CSV_INT_RE = re.compile(r"-?[0-9]+")
# every cell layout_csv writes: empty, a modality, or an integer in its one spelling
_CANONICAL_CELL_RE = re.compile(r"|text|video|0|-?[1-9][0-9]*")


def _csv_int(cell: str, column: str, row_number: int) -> int:
    if not _CSV_INT_RE.fullmatch(cell):
        raise LayoutParseError(f"row {row_number}: {column} must be an integer, got {cell!r}")
    return int(cell)


def parse_layout_csv(text: str) -> LayoutTokens:
    """The ``tokens`` view of the layout whose :func:`layout_csv` is ``text``.

    The rows spell the segments (text runs, and video grids of ``(max w + 1)
    x (max h + 1) x (max t + 1)`` cells), rendered under each scheme of the
    rows' dim count in ``SCHEME_IDS`` order at ``d=8`` (positions do not depend
    on ``d``, the base or the partition) until one rendering equals ``text``.

    Raises:
        LayoutParseError: naming the CSV row (the header is row 1): cell errors
            first, in row order, then the row :func:`_difference_error` names.
            A header alone spells no layout.
    """
    # the writer quotes nothing, so a row is a line and its cells are split at commas
    header, *rows = text.split("\n")
    if rows[-1:] == [""]:
        rows.pop()  # after the final line end
    if header != LAYOUT_CSV_HEADER:
        raise LayoutParseError(f"row 1: unexpected layout CSV header: {header!r}")
    firsts: list[int] = []  # CSV row of each segment's first row
    spans: list[list[int] | None] = []  # each video segment's largest w, h, t; None for text
    for row_number, row in enumerate((line.split(",") for line in rows), start=2):
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
        for i, v in enumerate(dims[: max(used, 1)]):
            _csv_int(v, f"dim{i}", row_number)
        cell = None
        if modality == "video":
            cell = [_csv_int(v, name, row_number) for v, name in ((w, "w"), (h, "h"), (t, "t"))]
        # row consistency, checked once every cell has parsed
        if index != row_number - 2:
            raise LayoutParseError(
                f"row {row_number}: token_index must be {row_number - 2}, got {index}"
            )
        if modality == "text" and (w or h or t):
            raise LayoutParseError(
                f"row {row_number}: w/h/t must be empty on a text row, got {','.join((w, h, t))!r}"
            )
        if row_number == 2:
            dim_count = used
        elif used != dim_count:
            raise LayoutParseError(f"row {row_number}: has {used} dims, row 2 has {dim_count}")
        current = len(firsts) - 1
        if segment == current + 1:
            firsts.append(row_number)
            spans.append(cell)
        elif segment != current or not firsts:
            allowed = f"{current} or {current + 1}" if firsts else "0 on the first row"
            raise LayoutParseError(
                f"row {row_number}: segment_index must be {allowed}, got {segment}"
            )
        elif modality != (first_modality := "video" if spans[current] else "text"):
            raise LayoutParseError(
                f"row {row_number}: modality {modality} differs from segment {segment}'s "
                f"first row, {first_modality}"
            )
        elif cell:
            spans[current] = list(map(max, spans[current], cell))
    if not firsts:
        raise LayoutParseError("row 2: a layout CSV needs a row after its header")
    firsts.append(row_number + 1)
    # a negative cell differs from the rendering; the floor only keeps the grid valid
    segments = [
        VideoSegment(VideoGrid(*(max(v, 0) + 1 for v in span))) if span else TextSegment(b - a)
        for (a, b), span in zip(itertools.pairwise(firsts), spans)
    ]
    misses = []
    for scheme in SCHEME_IDS:
        config = SchemeConfig(scheme, d=8)
        if config.group_count != dim_count:
            continue
        try:
            layout = build_layout(segments, config)
        except ParameterError:
            # only a grid with more cells than the CSV has rows takes a layout over budget
            raise _row_count_error(segments, firsts) from None
        offset, row = 0, 1
        for expected in (line for piece in _csv_pieces(layout) for line in piece.splitlines(True)):
            if not text.startswith(expected, offset):
                break
            offset, row = offset + len(expected), row + 1
        else:
            if offset == len(text):
                return layout.tokens
            expected = ""  # the text goes on past the rendering
        got = text[offset : text.find("\n", offset) + 1 or len(text)]
        misses.append((row, expected, got, layout))
    raise _difference_error(*max(misses, key=lambda miss: miss[0]), firsts)


def _difference_error(
    row: int, expected: str, got: str, layout: TokenLayout, firsts: list[int]
) -> LayoutParseError:
    """The error for CSV row ``row``, the first where the text differs from ``layout_csv(layout)``.

    The row's line is ``expected`` there and ``got`` in the text, empty past an end; ``firsts``
    holds the CSV row of each segment's first row in the text, then one past the last row.
    """
    in_text = bisect.bisect_right(firsts, row) - 1 if got else len(firsts)
    starts = _segment_starts(layout.segments)
    in_rendering = bisect.bisect_right(starts, row - 2) - 1 if expected else len(starts)
    if in_text != in_rendering:  # a video segment's rows end before or after its grid's cells
        return _row_count_error(layout.segments, firsts)
    cells, want = got.rstrip("\n").split(","), expected.rstrip("\n").split(",")
    # cells spelled as the writer spells them differ in value; a respelling (01, -0) is shown whole
    if all(_CANONICAL_CELL_RE.fullmatch(cell) for cell in cells):
        if cells[3:6] != want[3:6]:
            grid = layout.segments[in_text].grid
            return LayoutParseError(
                f"row {row}: w/h/t {','.join(cells[3:6])} out of raster order; "
                f"cell {row - firsts[in_text]} of segment {in_text}'s "
                f"{grid.width}x{grid.height}x{grid.frames} grid is {','.join(want[3:6])}"
            )
        if cells[6:] != want[6:]:
            return LayoutParseError(
                f"row {row}: dims {','.join(filter(None, cells[6:]))} are no scheme's; "
                f"the nearest, {layout.scheme.scheme}, has {','.join(filter(None, want[6:]))}"
            )
    return LayoutParseError(f"row {row}: expected {expected!r}, got {got!r}")


def _row_count_error(segments, firsts: list[int]) -> LayoutParseError:
    """The error for the first video segment whose rows in the text do not fill its grid."""
    rows = [last - first for first, last in itertools.pairwise(firsts)]
    s, grid = next((s, seg.grid) for s, seg in enumerate(segments) if seg.token_count != rows[s])
    return LayoutParseError(
        f"row {firsts[s]}: video segment {s} has {rows[s]} rows, "
        f"its {grid.width}x{grid.height}x{grid.frames} grid has {grid.token_count} cells"
    )
