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
import re
from dataclasses import dataclass

from .errors import LayoutParseError, ParameterError
from .schemes import (
    PositionVector,
    SchemeConfig,
    TokenCoordinate,
    VideoGrid,
    scheme_position,
    text_position,
)


@dataclass(frozen=True)
class TextSegment:
    """A run of ``count`` opaque text tokens."""

    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ParameterError(f"text segment needs count >= 1, got {self.count}")


@dataclass(frozen=True)
class VideoSegment:
    """One video, laid out as a token grid."""

    grid: VideoGrid


Segment = TextSegment | VideoSegment


@dataclass(frozen=True)
class LayoutToken:
    """One resolved token: modality, owning segment, coordinate/ordinal, position."""

    modality: str  # "text" | "video"
    segment_index: int
    coord: TokenCoordinate | None  # video tokens only
    ordinal: int | None  # text tokens only: offset within the segment
    position: PositionVector


@dataclass(frozen=True)
class TokenLayout:
    """All tokens of a sequence in order, with the scheme that produced them.

    Video tokens appear in raster order (frame outer, then row, then
    column); text positions increase by one per token within a segment.
    """

    scheme: SchemeConfig
    segments: tuple[Segment, ...]
    tokens: tuple[LayoutToken, ...]


@dataclass(frozen=True)
class BoundaryGap:
    """Per-dim jump at one video-to-text boundary.

    ``per_dim[i]`` is the first following text token's dim ``i`` minus the
    maximum of dim ``i`` over the video segment's tokens.
    """

    video_segment: int
    text_segment: int
    per_dim: tuple[int, ...]


_TEXT_RE = re.compile(r"^\s*text\s*:\s*(\d+)\s*$")
_VIDEO_RE = re.compile(r"^\s*video\s*:\s*(\d+)\s*x\s*(\d+)\s*x\s*(\d+)\s*$")


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


def _video_continuation(scheme: str, grid: VideoGrid, p_start: int) -> int:
    width, height, frames = grid.width, grid.height, grid.frames
    if scheme == "rope1d":
        return p_start + grid.token_count
    if scheme == "rope2d":
        return p_start + max(width, height)
    if scheme == "rope3d":
        return p_start + max(width, height, frames)
    if scheme == "rope_share":
        return p_start + frames + 1
    # vrope: one past the shared per-dim maximum, keeping every gap at 1
    return p_start + frames * (height + width - 1)


def build_layout(segments, scheme: SchemeConfig) -> TokenLayout:
    """Resolve every token's position vector for the given segments and scheme.

    The first segment starts at position 0. After a segment, the next one
    continues from a scheme-specific start:

    * rope1d advances by the token count (fully sequential);
    * rope2d by ``max(W, H)``, rope3d by ``max(W, H, T)``, rope_share by
      ``T + 1``, vrope by ``T * (H + W - 1)`` after a video;
    * rope_compact continues text after a video anisotropically at
      ``(p+T+1, p+H+1, p+W+1)`` (dims t/h/w), advancing every dim by one
      per text token; a later video starts one past the largest dim seen.
    """
    segments = tuple(segments)
    if not segments:
        raise ParameterError("segment list is empty")
    tokens: list[LayoutToken] = []
    compact = scheme.scheme == "rope_compact"
    cursor: PositionVector = (0, 0, 0)  # rope_compact: next text token's dims
    p = 0
    for index, segment in enumerate(segments):
        if isinstance(segment, TextSegment):
            for ordinal in range(segment.count):
                if compact:
                    position = cursor
                    cursor = tuple(v + 1 for v in cursor)
                else:
                    position = text_position(p + ordinal, scheme)
                tokens.append(LayoutToken("text", index, None, ordinal, position))
            if not compact:
                p += segment.count
        else:
            grid = segment.grid
            if compact:
                p = max(cursor)
            for t in range(grid.frames):
                for h in range(grid.height):
                    for w in range(grid.width):
                        coord = TokenCoordinate(w, h, t)
                        position = scheme_position(scheme, coord, grid, p)
                        tokens.append(LayoutToken("video", index, coord, None, position))
            if compact:
                cursor = (p + grid.frames + 1, p + grid.height + 1, p + grid.width + 1)
            else:
                p = _video_continuation(scheme.scheme, grid, p)
    return TokenLayout(scheme=scheme, segments=segments, tokens=tuple(tokens))


def boundary_gaps(layout: TokenLayout) -> tuple[BoundaryGap, ...]:
    """Per-dim gaps at every video segment directly followed by a text segment.

    Returns an empty tuple when the layout has no such boundary.
    """
    gaps: list[BoundaryGap] = []
    for index in range(len(layout.segments) - 1):
        if not (
            isinstance(layout.segments[index], VideoSegment)
            and isinstance(layout.segments[index + 1], TextSegment)
        ):
            continue
        video_positions = [tok.position for tok in layout.tokens if tok.segment_index == index]
        first_text = next(tok for tok in layout.tokens if tok.segment_index == index + 1)
        dims = len(first_text.position)
        maxima = tuple(max(pos[i] for pos in video_positions) for i in range(dims))
        per_dim = tuple(first_text.position[i] - maxima[i] for i in range(dims))
        gaps.append(BoundaryGap(index, index + 1, per_dim))
    return tuple(gaps)


LAYOUT_CSV_HEADER = "token_index,modality,segment_index,w,h,t,dim0,dim1,dim2,dim3"


def layout_csv(layout: TokenLayout) -> str:
    """Render a layout as CSV (UTF-8, LF). Text rows leave w/h/t empty; unused dims empty."""
    lines = [LAYOUT_CSV_HEADER]
    for index, tok in enumerate(layout.tokens):
        if tok.coord is not None:
            w, h, t = str(tok.coord.w), str(tok.coord.h), str(tok.coord.t)
        else:
            w = h = t = ""
        dims = [str(v) for v in tok.position] + [""] * (4 - len(tok.position))
        lines.append(",".join([str(index), tok.modality, str(tok.segment_index), w, h, t, *dims]))
    return "\n".join(lines) + "\n"


def parse_layout_csv(text: str) -> tuple[LayoutToken, ...]:
    """Reconstruct the token sequence from a layout CSV produced by :func:`layout_csv`."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise LayoutParseError("empty layout CSV") from None
    if ",".join(header) != LAYOUT_CSV_HEADER:
        raise LayoutParseError(f"unexpected layout CSV header: {','.join(header)!r}")
    tokens: list[LayoutToken] = []
    text_ordinals: dict[int, int] = {}
    for row in reader:
        if len(row) != 10:
            raise LayoutParseError(f"expected 10 columns, got {len(row)}: {row!r}")
        _, modality, segment_index, w, h, t, *dims = row
        segment = int(segment_index)
        position = tuple(int(v) for v in dims if v != "")
        if modality == "video":
            coord = TokenCoordinate(int(w), int(h), int(t))
            tokens.append(LayoutToken("video", segment, coord, None, position))
        elif modality == "text":
            ordinal = text_ordinals.get(segment, 0)
            text_ordinals[segment] = ordinal + 1
            tokens.append(LayoutToken("text", segment, None, ordinal, position))
        else:
            raise LayoutParseError(f"unknown modality {modality!r}")
    return tuple(tokens)
