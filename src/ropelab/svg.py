"""Deterministic SVG rendering of score grids.

One rectangle per cell, linear grayscale between the grid's minimum and
maximum, coordinates annotated inside each cell. Output is a pure function
of the grid values, so identical inputs give byte-identical files.
:func:`heatmap_svg_blocks` yields the text a block of cells at a time, so a
writer holds one block's text, not the file's.
"""

from __future__ import annotations

import numpy as np

from .csvblock import format_block, row_blocks
from .diagnostics import ScoreGrid, _scanline

CELL = 48
FONT = 10

# one cell: its rectangle (x, y, gray three times, value) and its label (x, y, fill, w, h)
_CELL_FORMAT = (
    f'<rect x="%d" y="%d" width="{CELL}" height="{CELL}" fill="#%02x%02x%02x">'
    "<title>%.6f</title></rect>\n"
    '<text x="%d" y="%d" text-anchor="middle" font-family="monospace" '
    f'font-size="{FONT}" fill="%s">%d,%d</text>\n'
)

# a label's fill, indexed by whether its cell's gray is at least 128
_LABEL_FILLS = np.array(["#ffffff", "#000000"], dtype=object)


def heatmap_svg(grid: ScoreGrid, cells: range | None = None) -> str:
    """The SVG text of ``grid``, or the part of it that holds ``cells``.

    ``cells`` is a step-1 range of cells inside ``[0, W*H]`` in scanline
    order (``h`` outer, ``w`` inner), else CoordinateError. Its part holds
    the header when it starts at cell 0 and the closing tag when it stops
    at the last cell, so the parts of consecutive ranges join into the
    text; without ``cells`` the text is the join of
    :func:`heatmap_svg_blocks`. A cell's gray is
    ``round(255 * (value - min) / (max - min))``, half to even, or 128 when
    every value is the same.
    """
    if cells is None:
        return "".join(heatmap_svg_blocks(grid))
    w, h, block = _scanline(grid, cells)
    values = grid.values
    width, height = values.shape
    vmin, vmax = grid.value_range
    span = vmax - vmin
    head = "" if cells.start else (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width * CELL}" '
        f'height="{height * CELL}" viewBox="0 0 {width * CELL} {height * CELL}">\n'
    )
    norm = np.full_like(block, 0.5) if span == 0.0 else (block - vmin) / span
    gray = np.rint(norm * 255).astype(np.int64)
    x, y = (w * CELL).tolist(), (h * CELL).tolist()
    label_x = (w * CELL + CELL // 2).tolist()
    label_y = (h * CELL + CELL // 2 + FONT // 2).tolist()
    label_fill = _LABEL_FILLS[(gray >= 128).astype(np.intp)].tolist()
    gray = gray.tolist()
    columns = [x, y, gray, gray, gray, block.tolist()]
    columns += [label_x, label_y, label_fill, w.tolist(), h.tolist()]
    tail = "</svg>\n" if cells.stop == values.size else ""
    return head + format_block(_CELL_FORMAT, columns) + tail


def heatmap_svg_blocks(grid: ScoreGrid):
    """The SVG text of ``grid`` a block of cells at a time, as an iterator.

    Each block is ``heatmap_svg(grid, cells)`` for the next range of
    :func:`~ropelab.csvblock.row_blocks` over the cells in scanline order,
    formatted by one :func:`~ropelab.csvblock.format_block`.
    """
    return (heatmap_svg(grid, cells) for cells in row_blocks(0, grid.values.size))
