"""Interleaved text/video sequences: parsing, position resolution, boundary gaps.

A layout spec is a comma-separated list of segments, e.g.
``"text:2,video:2x2x1,text:1"`` (video sizes are WxHxT). Whitespace is
insignificant. :func:`build_layout` resolves each segment under a scheme,
continuation rules included, into an affine grid, from which the per-token
``positions`` are filled when first read; the fill, the ``tokens`` view
and :func:`layout_csv` all read one walk over the grids' blocks of rows,
each one array of cells and positions, which cuts every frame of a video
at the same in-frame rows, if at all. :func:`layout_csv_blocks` yields that
CSV a block at a time through one row writer for text and video, which holds
at most one frame template of ``BLOCK_ROWS`` rows beside a block;
:func:`layout_csv` is their join.
:func:`boundary_gaps` measures the per-dim jump at every video-to-text
boundary.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import re
from collections.abc import Sequence

import numpy as np

from ._frozen import Frozen
from .csvblock import fill_rows, format_block, row_blocks
from .errors import LayoutParseError, ParameterError, check_integer
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


class TextSegment(Frozen):
    """A run of ``count`` opaque text tokens; ``count`` is stored as a Python int."""

    __match_args__ = ("count",)

    def __init__(self, count: int):
        self.__dict__.update(count=check_integer(count, "text segment count", low=1))

    @property
    def token_count(self) -> int:
        return self.count


class VideoSegment(Frozen):
    """One video, laid out as a token grid."""

    __match_args__ = ("grid",)

    def __init__(self, grid: VideoGrid):
        self.__dict__.update(grid=grid)

    @property
    def token_count(self) -> int:
        return self.grid.token_count


Segment = TextSegment | VideoSegment


class LayoutToken(Frozen):
    """One resolved token: modality, owning segment, coordinate/ordinal, position.

    ``modality`` is ``"text"`` or ``"video"``; ``coord`` is set for video
    tokens only, and ``ordinal``, the offset within the segment, for text
    tokens only.
    """

    __match_args__ = ("modality", "segment_index", "coord", "ordinal", "position")

    def __init__(
        self,
        modality: str,
        segment_index: int,
        coord: TokenCoordinate | None,
        ordinal: int | None,
        position: PositionVector,
    ):
        self.__dict__.update(
            modality=modality, segment_index=segment_index, coord=coord, ordinal=ordinal, position=position
        )


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
        for index, _, values in _blocks(self._layout, start, stop):
            video = isinstance(segments[index], VideoSegment)
            for w, h, t, *position in values.tolist():
                position = tuple(position)
                if video:
                    yield LayoutToken("video", index, TokenCoordinate(w, h, t), None, position)
                else:  # a text cell is (offset, 0, 0)
                    yield LayoutToken("text", index, None, w, position)

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


class TokenLayout(Frozen):
    """All tokens of a sequence in order, with their segments and scheme.

    Segment ``s`` is an affine grid (see :func:`build_layout`): the token at
    raster cell ``k`` of ``counts[s]`` (S, 3) sits at ``firsts[s] + k @ steps[s]``,
    ``firsts`` (S, G) and ``steps`` (S, 3, G) all read-only int64.
    :attr:`positions` and :attr:`tokens` follow from the grids and segments.
    Two layouts are equal when their scheme and segments are.
    """

    __match_args__ = ("scheme", "segments", "firsts", "steps", "counts")

    def __init__(
        self,
        scheme: SchemeConfig,
        segments: tuple[Segment, ...],
        firsts: np.ndarray,
        steps: np.ndarray,
        counts: np.ndarray,
    ):
        self.__dict__.update(scheme=scheme, segments=segments, firsts=firsts, steps=steps, counts=counts)

    @functools.cached_property
    def positions(self) -> np.ndarray:
        """Read-only (N, G) int64 array, row ``i`` the position of token ``i``, filled once.

        Video tokens appear in raster order (frame outer, then row, then
        column); text positions increase by one per token within a segment.
        Only one block's array is held beside it.
        Raises ParameterError if tokens times ``max(G, 3)`` exceeds the
        element budget.
        """
        total = _check_layout_budget(self)
        positions = np.empty((total, self.scheme.group_count), dtype=np.int64)
        for _, first, values in _blocks(self, 0, total):
            positions[first : first + len(values)] = values[:, 3:]
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


class BoundaryGap(Frozen):
    """Per-dim jump at one video-to-text boundary.

    ``per_dim[i]`` is the first following text token's dim ``i`` minus the
    maximum of dim ``i`` over the video segment's tokens.
    """

    __match_args__ = ("video_segment", "text_segment", "per_dim")

    def __init__(self, video_segment: int, text_segment: int, per_dim: tuple[int, ...]):
        self.__dict__.update(video_segment=video_segment, text_segment=text_segment, per_dim=per_dim)


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


def _segment_starts(segments) -> list[int]:
    """First row of each segment, then the layout's token count."""
    return [0, *itertools.accumulate(segment.token_count for segment in segments)]


def _blocks(layout: TokenLayout, start: int, stop: int):
    """``(s, first row, values)`` of each block of rows ``[start, stop)``.

    A block is one :func:`~ropelab.csvblock.row_blocks` range of segment
    ``s``'s rows, with the grid's ``W*H``-cell frames as frames (a text run
    is one frame): whole frames, or one in-frame row range that every frame
    of the segment is cut at alike. ``values`` is one (n, 3 + G) int64
    array: the raster cells ``(w, h, t)`` of the grid of ``counts[s]`` (a
    text run's are ``(k, 0, 0)``), then the positions
    ``firsts[s] + cells @ steps[s]``, filled in place.
    """
    for index, (first, last) in enumerate(itertools.pairwise(_segment_starts(layout.segments))):
        if first >= stop:
            return
        width, height, _ = layout.counts[index].tolist()
        for rows in row_blocks(max(start, first) - first, min(stop, last) - first, width * height):
            values = np.empty((len(rows), 3 + layout.scheme.group_count), dtype=np.int64)
            values[:, 2], in_frame = np.divmod(np.arange(rows.start, rows.stop), width * height)
            values[:, 1], values[:, 0] = np.divmod(in_frame, width)
            np.matmul(values[:, :3], layout.steps[index], out=values[:, 3:])
            values[:, 3:] += layout.firsts[index]
            yield index, first + rows.start, values


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
    the iterator is read, one row writer for text and video (see
    :class:`_Rows`); ``layout.positions`` is never filled.
    """
    _check_layout_budget(layout)
    return _csv_pieces(layout)


def _csv_pieces(layout: TokenLayout):
    """:func:`layout_csv_blocks`'s blocks without its budget check, so a reader can stop early."""
    end = "," * (4 - layout.scheme.group_count) + "\n"
    total = _segment_starts(layout.segments)[-1]
    yield LAYOUT_CSV_HEADER + "\n"
    writer = None  # the current segment's _Rows
    for index, first, values in _blocks(layout, 0, total):
        if writer is None or writer.index != index:
            writer = _Rows(layout, index, end)
        yield writer.block(first, values)


class _Rows:
    """The CSV rows of one segment; a text run is one frame whose w/h/t are written empty.

    A row's columns ``w, h, t, dim0..`` are each affine in the cell
    ``(w, h, t)``, with unit steps for the cell's own columns and the
    segment's ``steps`` for the dims. A block that lies in one frame (a text
    run, a one-frame video, or an in-frame row range of a frame wider than a
    block) is written by one ``%`` over its row format, in which a column
    with no w or h step is literal text, taken from the block's first row.
    A block of whole frames of a segment of more frames is filled from one
    frame's row template instead, built on the segment's first such block
    and so at most ``BLOCK_ROWS`` rows; a column's steps decide how it is
    written there:

    - no t-step: the same in every frame, so literal text in the template;
    - only a t-step: one value per frame, written into a copy of the
      template by one ``str.replace`` of a sentinel per run of adjacent such
      columns (``t`` is always one);
    - otherwise: a ``%d`` field, filled per row, as is ``token_index``.
    """

    def __init__(self, layout: TokenLayout, index: int, end: str):
        width, height, self.frames = layout.counts[index].tolist()
        text = isinstance(layout.segments[index], TextSegment)
        steps = np.concatenate((np.identity(3, dtype=np.int64), layout.steps[index]), axis=1)
        moves = steps[:2].any(axis=0).tolist()  # a w or h step: the column varies within a frame
        columns = range(3 if text else 0, len(moves))  # a text run's w/h/t are empty
        prefix = f"%%d,{'text' if text else 'video'},{index},"
        row_fields = ",".join("%%d" if moves[column] else "%d" for column in columns)
        self.row_format = prefix + ",,," * text + row_fields + end
        self.fixed = [column for column in columns if not moves[column]]
        self.varying = [column for column in columns if moves[column]]
        self.index, self.frame = index, width * height
        self.template = None  # built on the first block of whole frames
        self.baked: list[int] = []  # columns written into the template
        self.runs: list[list[int]] = []  # runs of adjacent per-frame columns, one per sentinel
        self.per_row: list[int] = []  # the template's columns filled per row
        frame_fields = []
        for column, (move, step) in enumerate(zip(moves, steps[2].tolist())):
            if step == 0:
                self.baked.append(column)
                frame_fields.append("%d")  # filled when the template is built
            elif move:
                self.per_row.append(column)
                frame_fields.append("%%d")
            elif self.runs and self.runs[-1][-1] == column - 1:
                self.runs[-1].append(column)
            else:
                frame_fields.append(chr(len(self.runs)))  # no row text holds a control character
                self.runs.append([column])
        self.frame_format = prefix + ",".join(frame_fields) + end

    def block(self, first: int, values: np.ndarray) -> str:
        """The rows of one :func:`_blocks` block, row ``first`` onwards, from its ``values``.

        A block is whole frames or one in-frame row range.
        """
        rows = range(first, first + len(values))
        if self.frames == 1 or len(values) < self.frame:  # the block lies in one frame
            row_format = self.row_format % tuple(values[0, self.fixed].tolist())
            return format_block(row_format, [rows, *values[:, self.varying].T.tolist()])
        if self.template is None:
            baked = values[: self.frame, self.baked].T.tolist()
            self.template = format_block(self.frame_format, baked)
        frames = [self.template] * (len(values) // self.frame)
        for sentinel, run in enumerate(self.runs):
            # each frame's text for the run, all formatted by one %
            run_format = ",".join(["%d"] * len(run)) + "\n"
            texts = format_block(run_format, values[:: self.frame, run].T.tolist()).split("\n")
            frames = [text.replace(chr(sentinel), value) for text, value in zip(frames, texts)]
        return fill_rows("".join(frames), [rows, *values[:, self.per_row].T.tolist()])


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
