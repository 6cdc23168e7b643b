"""Blocks of rows, each CSV block formatted by a single ``%`` over a repeated row template.

The row walks and the text writers (the layout's walk, the heatmap CSV and
SVG, the decay and boundary CSVs) take their rows through :func:`row_blocks`, at most
``BLOCK_ROWS`` rows at a time; the float kernels block by elements instead
(:func:`ropelab.rotary.block_rows`). Every CSV writer (and the heatmap SVG
writer) formats a block through :func:`format_block`: the block's columns
are interleaved row-major into one flat list and ``row_format * n`` is
filled in one C-level ``%`` call. The result equals ``"".join(row_format % row for row in zip(*columns))``, since
``%`` formats each field on its own whatever text surrounds it. A writer
that builds its own block text (the layout CSV's frame template) fills it
through :func:`fill_rows`.
"""

from __future__ import annotations

# rows per block in every row walk and text writer
BLOCK_ROWS = 4096


def row_blocks(start: int, stop: int, frame: int | None = None):
    """Each block of at most ``BLOCK_ROWS`` rows in ``[start, stop)``, as a range.

    Rows are counted from 0 and fall into frames of ``frame`` rows (one
    endless frame when None). A block is either as many whole frames as fit
    in ``BLOCK_ROWS`` or, when a frame holds more rows, one of the
    ``BLOCK_ROWS``-row ranges every frame is cut into from its first row; so
    no block holds part of a frame beside rows of another, and every frame
    is cut at the same in-frame rows. Blocks are then clipped to
    ``[start, stop)``.
    """
    size = BLOCK_ROWS
    period = size if frame is None else frame * max(1, size // frame)
    while start < stop:
        offset = start % period
        end = start - offset + min((offset // size + 1) * size, period)
        yield range(start, min(end, stop))
        start = end


def format_block(row_format: str, columns) -> str:
    """``row_format`` filled once per row of ``columns``, the rows concatenated.

    ``columns`` holds one equal-length sequence (a list or a range) per
    ``%`` field of ``row_format``, in field order; ``row_format`` ends each
    row itself (with ``"\\n"``).
    """
    return fill_rows(row_format * len(columns[0]), columns)


def fill_rows(text: str, columns) -> str:
    """``text``, whose ``%`` fields run row by row through ``columns``, filled in one ``%``.

    Row ``i`` of the text holds one field per column, in column order, and
    takes ``column[i]`` of each.
    """
    width, rows = len(columns), len(columns[0])
    flat = [None] * (width * rows)
    for i, column in enumerate(columns):
        flat[i::width] = column
    return text % tuple(flat)
