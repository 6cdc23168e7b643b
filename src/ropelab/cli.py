"""Command-line surface: layout dumps, diagnostics, and the invariant suite.

Exit codes: 0 success, 1 selfcheck failure, 2 bad flags or parse errors,
3 I/O failures. All outputs are byte-identical across runs for identical
flags (Monte-Carlo included, via --seed).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import re
import sys

from .diagnostics import (
    TrialConfig,
    boundary_csv,
    boundary_score_table,
    decay_csv,
    decay_curve,
    heatmap,
    heatmap_csv_blocks,
    monte_carlo_heatmap,
    softmax_grid,
)
from .errors import RopelabError
from .layout import TextSegment, VideoSegment, build_layout, layout_csv_blocks, parse_layout_spec
from .rotary import build_frequency_schedule
from .schemes import SCHEME_IDS, SchemeConfig, VideoGrid, text_start_after_video
from .selfcheck import run_selfcheck
from .svg import heatmap_svg_blocks

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

# text run placed before the video by the `boundary` subcommand
BOUNDARY_PROMPT_TOKENS = 8


def _video_arg(value: str) -> VideoGrid:
    m = re.fullmatch(r"([0-9]+)x([0-9]+)x([0-9]+)", value.strip())
    if not m:
        raise argparse.ArgumentTypeError(f"expected WxHxT, got {value!r}")
    width, height, frames = (int(g) for g in m.groups())
    if min(width, height, frames) < 1:
        raise argparse.ArgumentTypeError(f"video sizes must be >= 1, got {value!r}")
    return VideoGrid(width, height, frames)


def _partition_arg(value: str) -> tuple[int, ...]:
    """Colon-separated ASCII integers; ``SchemeConfig`` decides how many a scheme takes."""
    if not re.fullmatch(r"[0-9]+(:[0-9]+)*", value.strip()):
        raise argparse.ArgumentTypeError(f"expected colon-separated pair counts, got {value!r}")
    return tuple(int(size) for size in value.strip().split(":"))


def _int_arg(value: str) -> int:
    """A non-negative integer written in ASCII digits (``int()`` also takes others)."""
    if not re.fullmatch(r"[0-9]+", value.strip()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value!r}")
    return int(value)


# a decimal float in ASCII digits; the words inf/nan parse so the base check rejects them
_FLOAT_RE = re.compile(r"[+-]?(([0-9]+\.?[0-9]*|\.[0-9]+)(e[+-]?[0-9]+)?|inf(inity)?|nan)", re.I)


def _float_arg(value: str) -> float:
    """A float written in ASCII (``float()`` also takes other digits and ``_``)."""
    if not _FLOAT_RE.fullmatch(value.strip()):
        raise argparse.ArgumentTypeError(f"expected a decimal number, got {value!r}")
    return float(value)


def _positive_arg(value: str) -> int:
    number = _int_arg(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value!r}")
    return number


def _add_numeric_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--d", type=_int_arg, default=64, help="head dimension (even, default 64)")
    parser.add_argument(
        "--base", type=_float_arg, default=10000.0, help="frequency base (default 10000)"
    )


def _add_partition_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--partition", type=_partition_arg, help="channel pairs per position dim, e.g. 8:12:12"
    )


def _add_out_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default="-", help="output path; '-' or omitted writes stdout")


@contextlib.contextmanager
def _output(path: str):
    """The open output of ``--out``-style ``path``: stdout for ``-``, else the file."""
    if path != "-":
        with open(path, "w", encoding="utf-8", newline="") as handle:
            yield handle
        return
    try:
        yield sys.stdout
        sys.stdout.flush()  # here, so a closed pipe raises while it can still be handled
    except BrokenPipeError:
        # the reader has gone: what stdout still buffers goes to devnull at
        # exit, instead of failing a second time in the interpreter's shutdown
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise


def _write(output, text: str) -> None:
    output.write(text)


def _write_blocks(path: str, blocks) -> None:
    """Write each text of ``blocks`` to the output of ``path`` in turn, never their join."""
    with _output(path) as output:
        for block in blocks:
            _write(output, block)


def _scheme_config(args, scheme: str | None = None) -> SchemeConfig:
    scheme = scheme if scheme is not None else args.scheme
    # SchemeConfig decides which schemes take a partition
    return SchemeConfig(scheme, d=args.d, base=args.base, partition=args.partition)


def _cmd_positions(args) -> int:
    config = _scheme_config(args)
    segments = parse_layout_spec(args.layout)
    # the budget is checked here, before --out is opened
    _write_blocks(args.out, layout_csv_blocks(build_layout(segments, config)))
    return EXIT_OK


def _heatmap_query(config: SchemeConfig, grid: VideoGrid, query_gap: int):
    """Last token of ``video, text:query_gap``, without building that layout."""
    return tuple(v + query_gap - 1 for v in text_start_after_video(config, grid, 0))


def _cmd_heatmap(args) -> int:
    config = _scheme_config(args)
    query = _heatmap_query(config, args.video, args.query_gap)
    if args.mc:
        trial_config = TrialConfig(seed=args.seed, trials=args.trials)
        grid = monte_carlo_heatmap(config, args.video, args.frame, query, trial_config)
    else:
        grid = heatmap(config, args.video, args.frame, query)
    if args.softmax:
        grid = softmax_grid(grid)
    if args.svg:  # written first, so a failed SVG leaves the CSV unwritten
        _write_blocks(args.svg, heatmap_svg_blocks(grid))
    _write_blocks(args.out, heatmap_csv_blocks(grid))
    return EXIT_OK


def _cmd_decay(args) -> int:
    schedule = build_frequency_schedule(args.base, args.d)
    _write_blocks(args.out, [decay_csv(decay_curve(schedule, args.max_delta))])
    return EXIT_OK


def _cmd_boundary(args) -> int:
    schemes = SCHEME_IDS if args.scheme == "all" else (args.scheme,)
    rows = []
    for scheme in schemes:
        config = _scheme_config(args, scheme)
        layout = build_layout(
            [TextSegment(BOUNDARY_PROMPT_TOKENS), VideoSegment(args.video), TextSegment(1)],
            config,
        )
        rows.extend(boundary_score_table(layout))
    _write_blocks(args.out, [boundary_csv(rows)])
    return EXIT_OK


def _cmd_selfcheck(args) -> int:
    with _output("-") as output:
        return EXIT_CHECK_FAILED if run_selfcheck(stream=output) else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ropelab",
        description="Positional-encoding layouts and attention-score diagnostics "
        "for interleaved video-text sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    positions = sub.add_parser("positions", help="resolve a layout spec to a position CSV")
    positions.add_argument("--scheme", choices=SCHEME_IDS, required=True)
    positions.add_argument(
        "--layout", required=True, help='layout spec, e.g. "text:2,video:2x2x1,text:1"'
    )
    _add_partition_flag(positions)
    _add_numeric_flags(positions)
    _add_out_flag(positions)
    positions.set_defaults(func=_cmd_positions)

    heat = sub.add_parser("heatmap", help="expected-score heatmap over one frame")
    heat.add_argument("--scheme", choices=SCHEME_IDS, required=True)
    heat.add_argument("--video", type=_video_arg, required=True, help="grid as WxHxT")
    heat.add_argument("--frame", type=_int_arg, default=0, help="frame index (default 0)")
    heat.add_argument(
        "--query-gap",
        type=_positive_arg,
        default=1,
        help="query = first post-video text position plus gap-1 (default 1)",
    )
    _add_partition_flag(heat)
    heat.add_argument("--svg", help="also render the grid to this SVG path")
    heat.add_argument("--mc", action="store_true", help="Monte-Carlo estimate instead of closed form")
    heat.add_argument("--seed", type=_int_arg, default=0, help="Monte-Carlo master seed (default 0)")
    heat.add_argument("--trials", type=_positive_arg, default=10000, help="Monte-Carlo trials")
    heat.add_argument(
        "--softmax", action="store_true", help="softmax over the frame (visualization only)"
    )
    _add_numeric_flags(heat)
    _add_out_flag(heat)
    heat.set_defaults(func=_cmd_heatmap)

    decay = sub.add_parser("decay", help="expected self-score vs position offset")
    decay.add_argument("--max-delta", type=_positive_arg, required=True)
    _add_numeric_flags(decay)
    _add_out_flag(decay)
    decay.set_defaults(func=_cmd_decay)

    boundary = sub.add_parser("boundary", help="video-text boundary score table")
    boundary.add_argument("--scheme", choices=SCHEME_IDS + ("all",), required=True)
    boundary.add_argument("--video", type=_video_arg, required=True, help="grid as WxHxT")
    _add_partition_flag(boundary)  # with --scheme all, every scheme gets it
    _add_numeric_flags(boundary)
    _add_out_flag(boundary)
    boundary.set_defaults(func=_cmd_boundary)

    selfcheck = sub.add_parser("selfcheck", help="run the invariant suite")
    selfcheck.set_defaults(func=_cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RopelabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def run() -> None:
    """The program's entry point: ``sys.exit(main())`` with the import-time heap frozen.

    ``gc.freeze`` moves every object alive after import out of the collector's
    view. In a CLI process they live until exit anyway, so no collection, the
    interpreter's shutdown ones included, walks them again. Objects made during
    :func:`main` are collected as before. :func:`main` itself freezes nothing:
    tests and library users call it in-process, and an importer's heap is not
    a library's to freeze.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
