"""One block of CSV rows, formatted by a single ``%`` over a repeated row template.

Every CSV writer formats its rows a block at a time through
:func:`format_block`: the block's columns are interleaved row-major into one
flat list and ``row_format * n`` is filled in one C-level ``%`` call. The
result equals ``"".join(row_format % row for row in zip(*columns))``, since
``%`` formats each field on its own whatever text surrounds it.
"""

from __future__ import annotations

import functools


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
