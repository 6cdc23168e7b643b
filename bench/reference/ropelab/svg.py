"""Deterministic SVG rendering of score grids.

One rectangle per cell, linear grayscale between the grid's minimum and
maximum, coordinates annotated inside each cell. Output is a pure function
of the grid values, so identical inputs give byte-identical files.
"""

from __future__ import annotations

from .diagnostics import ScoreGrid

CELL = 48
FONT = 10


def heatmap_svg(grid: ScoreGrid) -> str:
    values = grid.values
    width, height = values.shape
    vmin, vmax = float(values.min()), float(values.max())
    span = vmax - vmin
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width * CELL}" '
        f'height="{height * CELL}" viewBox="0 0 {width * CELL} {height * CELL}">',
    ]
    for h in range(height):
        for w in range(width):
            value = float(values[w, h])
            norm = 0.5 if span == 0.0 else (value - vmin) / span
            gray = round(norm * 255)
            fill = f"#{gray:02x}{gray:02x}{gray:02x}"
            label_fill = "#000000" if gray >= 128 else "#ffffff"
            x, y = w * CELL, h * CELL
            lines.append(
                f'<rect x="{x}" y="{y}" width="{CELL}" height="{CELL}" fill="{fill}">'
                f"<title>{value:.6f}</title></rect>"
            )
            lines.append(
                f'<text x="{x + CELL // 2}" y="{y + CELL // 2 + FONT // 2}" '
                f'text-anchor="middle" font-family="monospace" font-size="{FONT}" '
                f'fill="{label_fill}">{w},{h}</text>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
