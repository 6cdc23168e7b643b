"""Per-token position vectors and channel-group allocation for six schemes.

Supported scheme ids:

* ``rope1d``       -- raster-flattened scalar positions, one channel group.
* ``rope2d``       -- spatial (w, h) positions, two groups, frames repeat.
* ``rope3d``       -- (t, h, w) positions over three contiguous groups.
* ``rope_share``   -- one shared scalar id per frame.
* ``rope_compact`` -- rope3d for video, anisotropic text continuation.
* ``vrope``        -- four symmetric diagonal indices, center-aligned per
  frame and advanced by ``H + W - 1`` per frame step, groups interleaved
  ``j mod 4``.

Every scheme rule lives here: group count, ``d/2`` and partition rules,
channel allocation, video position map and text continuation.

Coordinates are 0-based throughout. Text tokens take the same scalar
position in every group, so rotating a text token under any scheme matches
plain 1-D rotary encoding at that position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, CoordinateError, DimensionError, ParameterError
from .rotary import (
    FrequencySchedule,
    _as_vector,
    build_frequency_schedule,
    check_head_params,
    rotate,
)


class _SchemeRule(NamedTuple):
    groups: int  # channel groups, i.e. dims of a position vector
    pairs_divisor: int  # d/2 must be a multiple of this
    takes_partition: bool  # contiguous channel blocks sized by a partition


_RULES: dict[str, _SchemeRule] = {
    "rope1d": _SchemeRule(1, 1, False),
    "rope2d": _SchemeRule(2, 2, True),
    "rope3d": _SchemeRule(3, 1, True),
    "rope_share": _SchemeRule(1, 1, False),
    "rope_compact": _SchemeRule(3, 1, True),
    "vrope": _SchemeRule(4, 4, False),
}

SCHEME_IDS: tuple[str, ...] = tuple(_RULES)

# A position vector: one integer coordinate per channel group.
PositionVector = tuple[int, ...]


@dataclass(frozen=True)
class VideoGrid:
    """Token grid of one video: ``width x height`` cells over ``frames`` frames."""

    width: int
    height: int
    frames: int

    def __post_init__(self):
        for name, value in (("width", self.width), ("height", self.height), ("frames", self.frames)):
            if value < 1:
                raise ParameterError(f"grid {name} must be >= 1, got {value}")

    @property
    def tokens_per_frame(self) -> int:
        return self.width * self.height

    @property
    def token_count(self) -> int:
        return self.width * self.height * self.frames


@dataclass(frozen=True)
class TokenCoordinate:
    """0-based cell coordinate of a video token: column ``w``, row ``h``, frame ``t``."""

    w: int
    h: int
    t: int


class SymmetricIndices(NamedTuple):
    """The four diagonal arrangements ``(w+h, w-h, -w-h, -w+h)`` of a cell.

    Always satisfies ``u1 + u3 == 0`` and ``u2 + u4 == 0``.
    """

    u1: int
    u2: int
    u3: int
    u4: int


@dataclass(frozen=True)
class SchemeConfig:
    """A scheme id plus head dimension, base, and optional channel partition.

    ``partition`` gives the number of channel pairs per group for rope2d
    (two sizes, order w/h) and rope3d/rope_compact (three sizes, order
    t/h/w); it must sum to ``d/2``. vrope's interleaved allocation is fixed
    and takes no partition.
    """

    scheme: str
    d: int = 64
    base: float = 10000.0
    partition: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.scheme not in SCHEME_IDS:
            raise ConfigError(f"unknown scheme {self.scheme!r}; expected one of {SCHEME_IDS}")
        check_head_params(self.d, self.base)
        rule = _RULES[self.scheme]
        if self.pairs % rule.pairs_divisor != 0:
            raise ConfigError(
                f"{self.scheme} needs d/2 divisible by {rule.pairs_divisor}, got d={self.d}"
            )
        if self.partition is not None:
            object.__setattr__(self, "partition", tuple(int(s) for s in self.partition))
            if not rule.takes_partition:
                raise ConfigError(f"{self.scheme} does not take a partition")
            if len(self.partition) != rule.groups:
                raise ConfigError(
                    f"{self.scheme} partition needs {rule.groups} sizes, got {len(self.partition)}"
                )
            if any(s < 1 for s in self.partition):
                raise ConfigError(f"partition sizes must be >= 1, got {self.partition}")
            if sum(self.partition) != self.pairs:
                raise ConfigError(
                    f"partition {self.partition} sums to {sum(self.partition)}, "
                    f"expected d/2 = {self.pairs}"
                )

    @property
    def pairs(self) -> int:
        return self.d // 2

    @property
    def group_count(self) -> int:
        return _RULES[self.scheme].groups

    def schedule(self) -> FrequencySchedule:
        return build_frequency_schedule(self.base, self.d)


def _check_coordinate(coord: TokenCoordinate, grid: VideoGrid) -> None:
    if not (0 <= coord.w < grid.width and 0 <= coord.h < grid.height and 0 <= coord.t < grid.frames):
        raise CoordinateError(
            f"coordinate (w={coord.w}, h={coord.h}, t={coord.t}) outside "
            f"{grid.width}x{grid.height}x{grid.frames} grid"
        )


def symmetric_indices(coord: TokenCoordinate) -> SymmetricIndices:
    """Four diagonal position indices of a cell, one per arrangement direction."""
    w, h = coord.w, coord.h
    return SymmetricIndices(w + h, w - h, -w - h, -w + h)


def center_align(u: SymmetricIndices, grid: VideoGrid, p_start: int) -> PositionVector:
    """Shift the four diagonal indices so the frame center sits at ``p_start``-aligned isotropy.

    After the shift, the center cell of an odd-sized frame has all four
    values equal, matching how text positions look to the rotary kernel.
    """
    height, width = grid.height, grid.width
    return (
        u.u1 + p_start,
        u.u2 + height - 1 + p_start,
        u.u3 + height + width - 2 + p_start,
        u.u4 + width - 1 + p_start,
    )


def temporal_offset(v: PositionVector, t: int, grid: VideoGrid) -> PositionVector:
    """Advance a frame-0 position vector to frame ``t`` by ``t * (H + W - 1)`` per dim."""
    if not 0 <= t < grid.frames:
        raise CoordinateError(f"frame index {t} outside [0, {grid.frames - 1}]")
    step = t * (grid.height + grid.width - 1)
    return tuple(x + step for x in v)


def vrope_position(coord: TokenCoordinate, grid: VideoGrid, p_start: int) -> PositionVector:
    """Center-aligned, temporally advanced 4-dim position of a video token."""
    _check_coordinate(coord, grid)
    return temporal_offset(center_align(symmetric_indices(coord), grid, p_start), coord.t, grid)


def scheme_position(
    config: SchemeConfig, coord: TokenCoordinate, grid: VideoGrid, p_start: int
) -> PositionVector:
    """Position vector of a video token under the configured scheme."""
    _check_coordinate(coord, grid)
    w, h, t = coord.w, coord.h, coord.t
    if config.scheme == "rope1d":
        return (p_start + t * grid.tokens_per_frame + h * grid.width + w,)
    if config.scheme == "rope2d":
        return (p_start + w, p_start + h)
    if config.scheme in ("rope3d", "rope_compact"):
        return (p_start + t, p_start + h, p_start + w)
    if config.scheme == "rope_share":
        return (p_start + 1 + t,)
    return vrope_position(coord, grid, p_start)


def video_positions(config: SchemeConfig, w, h, t, grid: VideoGrid, p_start: int) -> np.ndarray:
    """Array form of :func:`scheme_position` over broadcastable cell coordinates.

    ``w``, ``h`` and ``t`` are integer arrays (or scalars) that must lie
    inside ``grid``; they are not range-checked here. Returns int64
    positions of shape ``broadcast(w, h, t).shape + (group_count,)``.
    """
    w, h, t = np.broadcast_arrays(*(np.asarray(a, dtype=np.int64) for a in (w, h, t)))
    width, height = grid.width, grid.height
    if config.scheme == "rope1d":
        dims = (t * grid.tokens_per_frame + h * width + w,)
    elif config.scheme == "rope2d":
        dims = (w, h)
    elif config.scheme in ("rope3d", "rope_compact"):
        dims = (t, h, w)
    elif config.scheme == "rope_share":
        dims = (t + 1,)
    else:
        # vrope: symmetric indices, center-aligned, advanced H + W - 1 per frame
        step = t * (height + width - 1)
        dims = (
            w + h + step,
            w - h + (height - 1) + step,
            -w - h + (height + width - 2) + step,
            -w + h + (width - 1) + step,
        )
    return np.stack(dims, axis=-1) + p_start


def group_allocation(config: SchemeConfig) -> np.ndarray:
    """Map each channel-pair index ``j`` to the group (dim index) it encodes.

    Schemes that take a partition assign contiguous runs of pairs, by
    default equal runs with the remainder to the leading group. The others
    interleave ``j mod G``, so each of vrope's groups spans the whole
    frequency range.
    """
    pairs, groups = config.pairs, config.group_count
    if _RULES[config.scheme].takes_partition:
        sizes = config.partition
        if sizes is None:
            sizes = [pairs // groups] * groups
            sizes[0] += pairs % groups
        alloc = np.repeat(np.arange(groups, dtype=np.intp), sizes)
    else:
        alloc = np.arange(pairs, dtype=np.intp) % groups
    alloc.setflags(write=False)
    return alloc


def text_position(m: int, config: SchemeConfig) -> PositionVector:
    """Isotropic position of a text token: every group reads the scalar ``m``."""
    return (m,) * config.group_count


def text_start_after_video(config: SchemeConfig, grid: VideoGrid, p_start: int) -> PositionVector:
    """Position of the first text token after a video whose positions start at ``p_start``.

    rope_compact continues anisotropically at ``(p+T+1, p+H+1, p+W+1)``
    (dims t/h/w). Every other scheme continues isotropically at
    ``p_start`` plus a step: rope1d's is the token count (fully
    sequential), and vrope's puts every dim one past its video maximum.
    """
    width, height, frames = grid.width, grid.height, grid.frames
    if config.scheme == "rope_compact":
        return (p_start + frames + 1, p_start + height + 1, p_start + width + 1)
    step = {
        "rope1d": grid.token_count,
        "rope2d": max(width, height),
        "rope3d": max(width, height, frames),
        "rope_share": frames + 1,
        "vrope": frames * (height + width - 1),
    }[config.scheme]
    return text_position(p_start + step, config)


def pair_positions(position, config: SchemeConfig) -> np.ndarray:
    """Expand a position vector to one value per channel pair via the allocation."""
    position = np.asarray(position, dtype=np.float64)
    if position.ndim != 1 or position.size != config.group_count:
        raise DimensionError(
            f"{config.scheme} position needs {config.group_count} dims, "
            f"got shape {position.shape}"
        )
    return position[group_allocation(config)]


def rotate_with_scheme(x, position, config: SchemeConfig) -> np.ndarray:
    """Rotate an embedding vector at a (possibly multi-dim) position under a scheme."""
    schedule = config.schedule()
    return rotate(_as_vector(x, "x"), pair_positions(position, config) * schedule.theta)
