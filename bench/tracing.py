"""In-memory spans around the ropelab functions the CLI calls, kept out of the program.

:func:`instrument` swaps each traced function for a wrapper in every ropelab
module that imported it, and wraps each entry of ``selfcheck.CHECKS``; it
restores the originals on exit. A span records its job id, name, parent
span, start, end, work counts and whether it raised. The harness opens one
``cli.main`` span per job, so every layer span nests under its job.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from dataclasses import dataclass, field

MODULES = ("cli", "layout", "diagnostics", "svg", "rotary", "selfcheck")


@dataclass
class Span:
    job: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)
    error: bool = False

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; one span stack, since the CLI is single-threaded."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.job = 0

    @contextlib.contextmanager
    def span(self, name: str):
        record = Span(self.job, name, self._stack[-1] if self._stack else None, 0.0)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record.start = time.perf_counter()
        try:
            yield record
        except BaseException:
            record.error = True
            raise
        finally:
            record.end = time.perf_counter()
            self._stack.pop()


def _boundary_keys(layout) -> int:
    """Keys boundary_score_table scores: every token before the first video-to-text boundary."""
    from ropelab import TextSegment, VideoSegment

    keys = 0
    for segment, following in zip(layout.segments, layout.segments[1:]):
        keys += segment.count if isinstance(segment, TextSegment) else segment.grid.token_count
        if isinstance(segment, VideoSegment) and isinstance(following, TextSegment):
            return keys
    return 0


def _mc_counts(args, result):
    trials = args["trial_config"].trials
    return {"trials": trials, "rotations": trials * (result.values.size + 1)}


def _boundary_counts(args, result):
    keys = _boundary_keys(args["layout"])
    return {"keys": keys, "cos_evals": keys * args["layout"].scheme.pairs}


def _text_bytes(args, result):
    # every ropelab CSV and SVG is ASCII, so characters are bytes
    return {"bytes": len(result)}


# (defining module, function, span name, count names, counts from bound arguments and result)
TRACED = (
    ("cli", "_write", "cli.write", ("bytes",), lambda args, result: {"bytes": len(args["text"])}),
    ("layout", "parse_layout_spec", "layout.parse_layout_spec", (), None),
    ("layout", "build_layout", "layout.build_layout", ("tokens",),
     lambda args, result: {"tokens": len(result.tokens)}),
    ("layout", "layout_csv", "layout.layout_csv", ("bytes",), _text_bytes),
    ("diagnostics", "boundary_score_table", "diagnostics.boundary_score_table",
     ("keys", "cos_evals"), _boundary_counts),
    ("diagnostics", "monte_carlo_heatmap", "diagnostics.monte_carlo_heatmap",
     ("trials", "rotations"), _mc_counts),
    ("diagnostics", "heatmap", "diagnostics.heatmap", ("cells",),
     lambda args, result: {"cells": result.values.size}),
    ("diagnostics", "decay_curve", "diagnostics.decay_curve", ("points",),
     lambda args, result: {"points": len(result.points)}),
    ("diagnostics", "heatmap_csv", "diagnostics.csv", ("bytes",), _text_bytes),
    ("diagnostics", "decay_csv", "diagnostics.csv", ("bytes",), _text_bytes),
    ("diagnostics", "boundary_csv", "diagnostics.csv", ("bytes",), _text_bytes),
    ("svg", "heatmap_svg", "svg.heatmap_svg", ("bytes",), _text_bytes),
    ("rotary", "build_frequency_schedule", "rotary.build_frequency_schedule", (), None),
)


def layer_metrics(check_names) -> dict[str, str]:
    """Every per-layer metric :func:`summarize` reports, with its unit."""
    units = {"cli.main.busy_s": "s", "cli.main.calls": "count"}
    for _, _, name, count_names, _ in TRACED:
        units[f"{name}.busy_s"] = "s"
        units[f"{name}.calls"] = "count"
        units.update({f"{name}.{key}": key if key == "bytes" else "count" for key in count_names})
    units.update({f"selfcheck.{check_name}.busy_s": "s" for check_name in check_names})
    units["selfcheck.failed"] = "count"
    for module in MODULES:
        units[f"{module}.self_s"] = "s"
        units[f"{module}.errors"] = "count"
    units["trace.coverage"] = "ratio"
    units["trace.unaccounted_s"] = "s"
    return units


def _wrap(tracer: Tracer, name: str, fn, counter):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as record:
            result = fn(*args, **kwargs)
        if counter is not None:
            bound = signature.bind(*args, **kwargs).arguments
            record.counts = counter(bound, result)
        return result

    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Trace the ropelab layer functions for the duration of the block."""
    modules = [importlib.import_module("ropelab")]
    modules += [importlib.import_module(f"ropelab.{m}") for m in MODULES + ("schemes",)]
    saved = []
    try:
        for owner, attr, name, _, counter in TRACED:
            original = getattr(importlib.import_module(f"ropelab.{owner}"), attr)
            wrapper = _wrap(tracer, name, original, counter)
            for module in modules:
                if getattr(module, attr, None) is original:
                    saved.append((module, attr, original))
                    setattr(module, attr, wrapper)
        selfcheck = importlib.import_module("ropelab.selfcheck")
        saved.append((selfcheck, "CHECKS", selfcheck.CHECKS))
        selfcheck.CHECKS = tuple(
            (check_name, _wrap(tracer, f"selfcheck.{check_name}", check, None))
            for check_name, check in selfcheck.CHECKS
        )
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _self_time(spans: list[Span]) -> list[float]:
    self_time = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None:
            self_time[span.parent] -= span.duration
    return self_time


def summarize(spans: list[Span], check_names) -> dict[str, float]:
    """Per-layer stats of one traced iteration: calls, busy_s, counts, self_s, errors.

    ``busy_s`` sums the spans' durations; ``<module>.self_s`` sums the part
    of each of the module's spans that no child span covers.
    ``trace.coverage`` is the lowest share of a job's ``cli.main`` span that
    its direct child spans cover.
    """
    stats: dict[str, float] = {
        key: 0.0 if unit == "s" else 0 for key, unit in layer_metrics(check_names).items()
    }

    def add(key: str, value: float) -> None:
        stats[key] += value

    covered = [0.0] * len(spans)
    for span, self_s in zip(spans, _self_time(spans)):
        if span.module != "selfcheck":
            add(f"{span.name}.calls", 1)
        add(f"{span.name}.busy_s", span.duration)
        for key, value in span.counts.items():
            add(f"{span.name}.{key}", value)
        add(f"{span.module}.self_s", self_s)
        add(f"{span.module}.errors", int(span.error))
        if span.error and span.module == "selfcheck":
            add("selfcheck.failed", 1)
        if span.parent is not None and spans[span.parent].name == "cli.main":
            covered[span.parent] += span.duration
    jobs = [i for i, span in enumerate(spans) if span.name == "cli.main"]
    stats["trace.coverage"] = min(covered[i] / spans[i].duration for i in jobs) if jobs else 0.0
    return stats
