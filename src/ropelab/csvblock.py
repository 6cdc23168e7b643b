"""Blocks of rows, each CSV block formatted by a single ``%`` over a repeated row template.

Every row-blocked pass walks its rows through :func:`row_blocks`, at most
``BLOCK_ROWS`` rows at a time, and every CSV writer formats a block through
:func:`format_block`: the block's columns are interleaved row-major into one
flat list and ``row_format * n`` is filled in one C-level ``%`` call. The
result equals ``"".join(row_format % row for row in zip(*columns))``, since
``%`` formats each field on its own whatever text surrounds it.
"""

from __future__ import annotations

import functools

# rows per block in every row-blocked pass
BLOCK_ROWS = 4096


def row_blocks(start: int, stop: int):
    """Each block of at most ``BLOCK_ROWS`` consecutive rows in ``[start, stop)``, as a range."""
    for first in range(start, stop, BLOCK_ROWS):
        yield range(first, min(first + BLOCK_ROWS, stop))


@functools.lru_cache(maxsize=4)
def _template(row_format: str, rows: int) -> str:
    # writers format many blocks of one length in a row; the rest are tails
    return row_format * rows


def format_block(row_format: str, columns) -> str:
    """``row_format`` filled once per row of ``columns``, the rows concatenated.

    ``columns`` holds one equal-length sequence (a list or a range) per
    ``%`` field of ``row_format``, in field order; ``row_format`` ends each
    row itself (with ``"\\n"``).
    """
    width, rows = len(columns), len(columns[0])
    flat = [None] * (width * rows)
    for i, column in enumerate(columns):
        flat[i::width] = column
    return _template(row_format, rows) % tuple(flat)
