"""Attention-score diagnostics: heatmaps, decay curves, boundary score tables.

The default metric is the closed-form expected self-score
``(2/d) * sum_j cos(delta_j * theta_j)`` -- the exact expectation of the
rotated dot product of a random vector with itself across a position
offset, normalized to 1 at zero offset. A Monte-Carlo variant estimates
the same quantity through the actual rotation path; trial ``r`` draws from
a substream derived from ``(seed, r)`` (numpy PCG64 via
``SeedSequence([seed, r])``), so results are bit-identical regardless of
evaluation order or parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, CoordinateError, DimensionError, ParameterError
from .layout import TokenLayout, video_text_boundaries
from .rotary import FrequencySchedule, check_head_params, expected_self_score
from .schemes import (
    PositionVector,
    SchemeConfig,
    VideoGrid,
    group_allocation,
    pair_positions,
    video_positions,
)

# key rows per block in boundary_score_table
BOUNDARY_KEY_CHUNK = 8192


@dataclass(frozen=True)
class ScoreGrid:
    """Expected scores from one query to every cell of one frame; ``values[w, h]``."""

    values: np.ndarray
    scheme: SchemeConfig
    query: PositionVector
    frame: int


@dataclass(frozen=True)
class DecayCurve:
    """Expected self-score as a function of a uniform per-pair offset."""

    points: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class TrialConfig:
    """Monte-Carlo settings: master seed, trial count, head dimension, base."""

    seed: int
    trials: int
    d: int = 64
    base: float = 10000.0

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ParameterError(f"seed must fit in 64 unsigned bits, got {self.seed}")
        if self.trials < 1:
            raise ParameterError(f"trials must be >= 1, got {self.trials}")
        check_head_params(self.d, self.base)


@dataclass(frozen=True)
class BoundaryScore:
    """Mean expected self-score from the boundary text query to one key set."""

    scheme_id: str
    target: str  # "video" | "text"
    mean_score: float


def _resolve_schedule(config: SchemeConfig, schedule: FrequencySchedule | None) -> FrequencySchedule:
    if schedule is None:
        return config.schedule()
    if schedule.d != config.d:
        raise DimensionError(f"schedule d={schedule.d} does not match scheme d={config.d}")
    return schedule


def _frame_pair_positions(
    config: SchemeConfig, grid: VideoGrid, frame: int
) -> np.ndarray:
    """Per-pair positions of every cell of one frame, shape (W, H, pairs)."""
    if not 0 <= frame < grid.frames:
        raise CoordinateError(f"frame index {frame} outside [0, {grid.frames - 1}]")
    w = np.arange(grid.width)[:, None]
    h = np.arange(grid.height)[None, :]
    cells = video_positions(config, w, h, frame, grid, 0)
    return cells[:, :, group_allocation(config)]


def heatmap(
    config: SchemeConfig,
    grid: VideoGrid,
    frame: int,
    query: PositionVector,
    schedule: FrequencySchedule | None = None,
) -> ScoreGrid:
    """Closed-form expected self-score from ``query`` to every cell of ``frame``.

    Cell positions are taken with the video starting at position 0; pass an
    absolute query vector (scores depend only on the differences).
    """
    schedule = _resolve_schedule(config, schedule)
    q = pair_positions(query, config)
    cells = _frame_pair_positions(config, grid, frame)
    values = np.cos((q - cells) * schedule.theta).mean(axis=2)
    return ScoreGrid(values=values, scheme=config, query=tuple(query), frame=frame)


def monte_carlo_heatmap(
    config: SchemeConfig,
    grid: VideoGrid,
    frame: int,
    query: PositionVector,
    trial_config: TrialConfig,
) -> ScoreGrid:
    """Monte-Carlo estimate of :func:`heatmap` through the rotation path.

    Each trial draws one random vector from its ``(seed, trial)`` substream,
    rotates it at the query position and at every cell position, and
    averages the dot products scaled by ``1/d``.
    """
    if trial_config.d != config.d or trial_config.base != config.base:
        raise ConfigError(
            f"trial config (d={trial_config.d}, base={trial_config.base}) does not match "
            f"scheme (d={config.d}, base={config.base})"
        )
    schedule = config.schedule()
    d = config.d
    q_angles = pair_positions(query, config) * schedule.theta
    k_angles = _frame_pair_positions(config, grid, frame) * schedule.theta
    q_cos, q_sin = np.cos(q_angles), np.sin(q_angles)
    k_cos, k_sin = np.cos(k_angles), np.sin(k_angles)
    acc = np.zeros((grid.width, grid.height), dtype=np.float64)
    for trial in range(trial_config.trials):
        rng = np.random.default_rng(np.random.SeedSequence([trial_config.seed, trial]))
        x = rng.standard_normal(d)
        even, odd = x[0::2], x[1::2]
        rq_even = even * q_cos - odd * q_sin
        rq_odd = even * q_sin + odd * q_cos
        rk_even = even * k_cos - odd * k_sin
        rk_odd = even * k_sin + odd * k_cos
        acc += (rq_even * rk_even + rq_odd * rk_odd).sum(axis=2) / d
    return ScoreGrid(
        values=acc / trial_config.trials, scheme=config, query=tuple(query), frame=frame
    )


def softmax_grid(grid: ScoreGrid) -> ScoreGrid:
    """Softmax over all cells of the frame; a visualization aid, not the metric."""
    shifted = np.exp(grid.values - grid.values.max())
    return ScoreGrid(
        values=shifted / shifted.sum(), scheme=grid.scheme, query=grid.query, frame=grid.frame
    )


def decay_curve(schedule: FrequencySchedule, max_delta: int) -> DecayCurve:
    """Expected self-score at uniform per-pair offsets 0..``max_delta``."""
    if max_delta < 1:
        raise ParameterError(f"max_delta must be >= 1, got {max_delta}")
    deltas = np.arange(max_delta + 1, dtype=np.float64)
    values = np.cos(np.outer(deltas, schedule.theta)).mean(axis=1)
    return DecayCurve(points=tuple((int(d), float(v)) for d, v in zip(deltas, values)))


def boundary_score_table(
    layout: TokenLayout, schedule: FrequencySchedule | None = None
) -> tuple[BoundaryScore, ...]:
    """Mean expected self-scores from the boundary text token to video and text keys.

    The query is the first text token after the first video-to-text segment
    boundary; key sets are all video tokens and all text tokens preceding
    the query. Returns an empty tuple when the layout has no such boundary.

    Keys are scored ``BOUNDARY_KEY_CHUNK`` rows at a time, so memory stays
    bounded by the chunk, not by the key count times ``d/2``.
    """
    config = layout.scheme
    schedule = _resolve_schedule(config, schedule)
    boundaries = video_text_boundaries(layout.segments)
    if not boundaries:
        return ()
    query_index = boundaries[0][1].stop
    alloc = group_allocation(config)
    query = layout.positions[query_index, alloc].astype(np.float64)
    scores = np.empty(query_index, dtype=np.float64)
    for start in range(0, query_index, BOUNDARY_KEY_CHUNK):
        keys = layout.positions[start : min(start + BOUNDARY_KEY_CHUNK, query_index)][:, alloc]
        scores[start : start + len(keys)] = np.cos((query - keys) * schedule.theta).mean(axis=1)
    is_video = layout.is_video[:query_index]
    rows: list[BoundaryScore] = []
    for target, mask in (("video", is_video), ("text", ~is_video)):
        selected = scores[mask]
        if selected.size:
            rows.append(BoundaryScore(config.scheme, target, float(selected.mean())))
    return tuple(rows)


def heatmap_csv(grid: ScoreGrid) -> str:
    """Heatmap as ``w,h,value`` CSV rows in scanline order, 6-decimal values."""
    lines = ["w,h,value"]
    width, height = grid.values.shape
    for h in range(height):
        for w in range(width):
            lines.append(f"{w},{h},{grid.values[w, h]:.6f}")
    return "\n".join(lines) + "\n"


def decay_csv(curve: DecayCurve) -> str:
    """Decay curve as ``delta,value`` CSV rows, 6-decimal values."""
    lines = ["delta,value"]
    for delta, value in curve.points:
        lines.append(f"{delta},{value:.6f}")
    return "\n".join(lines) + "\n"


def boundary_csv(rows) -> str:
    """Boundary score rows as ``scheme,target,mean_score`` CSV, 6-decimal values."""
    lines = ["scheme,target,mean_score"]
    for row in rows:
        lines.append(f"{row.scheme_id},{row.target},{row.mean_score:.6f}")
    return "\n".join(lines) + "\n"


# re-exported for callers composing their own diagnostics
__all__ = [
    "ScoreGrid",
    "DecayCurve",
    "TrialConfig",
    "BoundaryScore",
    "heatmap",
    "monte_carlo_heatmap",
    "softmax_grid",
    "decay_curve",
    "boundary_score_table",
    "heatmap_csv",
    "decay_csv",
    "boundary_csv",
    "expected_self_score",
]
