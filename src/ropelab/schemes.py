"""Per-token position vectors and channel-group allocation for six schemes.

Every scheme rule lives in ``_RULES``: group count, ``d/2`` and partition
rules, channel allocation, and the video position map, affine in the cell
``(w, h, t)``, from which the text continuation after a video follows.

* ``rope1d``       -- raster index ``w + W*h + W*H*t``, one channel group.
* ``rope2d``       -- spatial ``(w, h)``, two groups, frames repeat.
* ``rope3d``       -- ``(t, h, w)`` over three contiguous groups.
* ``rope_share``   -- ``t + 1``, one shared scalar id per frame.
* ``rope_compact`` -- rope3d for video, anisotropic text continuation.
* ``vrope``        -- four symmetric diagonal indices, center-aligned per
  frame and advanced by ``H + W - 1`` per frame, groups interleaved ``j mod 4``.

Coordinates are 0-based. Text tokens take the same scalar position in every
group (rope_compact's text after a video aside), so rotating a text token
matches plain 1-D rotary encoding at that position.
"""

from __future__ import annotations

from collections.abc import Callable
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


class _SchemeRule(NamedTuple):
    groups: int  # channel groups, i.e. dims of a position vector
    pairs_divisor: int  # d/2 must be a multiple of this
    takes_partition: bool  # contiguous channel blocks sized by a partition
    # video map: dim i of cell (w, h, t) is rows(grid)[i] . (w, h, t) + offsets(grid)[i] + p_start
    rows: Callable[[VideoGrid], tuple[tuple[int, int, int], ...]]
    offsets: Callable[[VideoGrid], tuple[int, ...]]
    per_dim_continuation: bool = False  # text resumes at each dim's max + 2, not past the largest


_THW = ((0, 0, 1), (0, 1, 0), (1, 0, 0))  # dims t, h, w
_DIAGONALS = ((1, 1), (1, -1), (-1, -1), (-1, 1))  # vrope: w+h, w-h, -w-h, -w+h

_RULES: dict[str, _SchemeRule] = {
    "rope1d": _SchemeRule(1, 1, False, lambda g: ((1, g.width, g.tokens_per_frame),), lambda g: (0,)),
    "rope2d": _SchemeRule(2, 2, True, lambda g: ((1, 0, 0), (0, 1, 0)), lambda g: (0, 0)),
    "rope3d": _SchemeRule(3, 1, True, lambda g: _THW, lambda g: (0, 0, 0)),
    "rope_share": _SchemeRule(1, 1, False, lambda g: ((0, 0, 1),), lambda g: (1,)),
    "rope_compact": _SchemeRule(3, 1, True, lambda g: _THW, lambda g: (0, 0, 0), True),
    "vrope": _SchemeRule(
        4, 4, False,
        lambda g: tuple((a, b, g.height + g.width - 1) for a, b in _DIAGONALS),
        lambda g: (0, g.height - 1, g.height + g.width - 2, g.width - 1),
    ),
}

SCHEME_IDS: tuple[str, ...] = tuple(_RULES)

MAX_POSITION = 2**53  # pair_positions casts to float64, exact for integers up to here


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
    """Four diagonal position indices of a cell: vrope's ``_DIAGONALS`` over ``(w, h)``."""
    return SymmetricIndices(*(a * coord.w + b * coord.h for a, b in _DIAGONALS))


def vrope_position(coord: TokenCoordinate, grid: VideoGrid, p_start: int) -> PositionVector:
    """vrope's 4-dim position of a video token: :func:`scheme_position` under vrope.

    The symmetric diagonals, center-aligned per frame and advanced by
    ``H + W - 1`` per frame; the map's rows and offsets live in ``_RULES``.
    """
    return scheme_position(SchemeConfig("vrope"), coord, grid, p_start)


def video_map(
    config: SchemeConfig, grid: VideoGrid, p_start: int
) -> tuple[np.ndarray, np.ndarray, PositionVector]:
    """The scheme's video positions over ``grid`` as one affine map.

    Returns int64 ``matrix`` (3, G) and ``offsets`` (G,), ``p_start`` included, so
    cells ``(..., 3)`` of ``(w, h, t)`` map to ``cells @ matrix + offsets``; and each
    dim's largest value, as Python ints. Raises ParameterError past ``MAX_POSITION``.
    """
    rule = _RULES[config.scheme]
    rows, sizes = rule.rows(grid), (grid.width, grid.height, grid.frames)
    offsets = [p_start + offset for offset in rule.offsets(grid)]
    maxima = tuple(
        o + sum(max(c, 0) * (n - 1) for c, n in zip(row, sizes)) for row, o in zip(rows, offsets)
    )
    if max(maxima) > MAX_POSITION:
        raise ParameterError(f"{config.scheme} positions reach {max(maxima)}, over the budget 2**53")
    return np.array(rows, dtype=np.int64).T, np.array(offsets, dtype=np.int64), maxima


def scheme_position(
    config: SchemeConfig, coord: TokenCoordinate, grid: VideoGrid, p_start: int
) -> PositionVector:
    """Position vector of a video token under the configured scheme."""
    _check_coordinate(coord, grid)
    return tuple(video_positions(config, coord.w, coord.h, coord.t, grid, p_start).tolist())


def video_positions(config: SchemeConfig, w, h, t, grid: VideoGrid, p_start: int) -> np.ndarray:
    """Array form of :func:`scheme_position` over broadcastable cell coordinates.

    ``w``, ``h`` and ``t`` are integer arrays (or scalars) that must lie
    inside ``grid``; they are not range-checked here. Returns int64
    positions of shape ``broadcast(w, h, t).shape + (group_count,)``.
    """
    matrix, offsets, _ = video_map(config, grid, p_start)
    return np.stack(np.broadcast_arrays(w, h, t), axis=-1, dtype=np.int64) @ matrix + offsets


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

    rope_compact continues at each dim's video maximum plus 2, i.e.
    ``(p+T+1, p+H+1, p+W+1)`` (dims t/h/w). Every other scheme continues
    isotropically, one past the video's largest position in any dim.
    """
    maxima = video_map(config, grid, p_start)[2]
    if _RULES[config.scheme].per_dim_continuation:
        return tuple(m + 2 for m in maxima)
    return text_position(max(maxima) + 1, config)


def pair_positions(position, config: SchemeConfig) -> np.ndarray:
    """Expand a position vector to one value per channel pair via the allocation.

    Raises ParameterError if a dim is not finite or lies past ``MAX_POSITION``
    either side of 0, checked before the float64 cast, which would round it.
    """
    position = np.asarray(position)
    if position.ndim != 1 or position.size != config.group_count:
        raise DimensionError(
            f"{config.scheme} position needs {config.group_count} dims, "
            f"got shape {position.shape}"
        )
    for value in position.tolist():
        if not abs(value) <= MAX_POSITION:
            raise ParameterError(f"{config.scheme} position {value} is outside [-2**53, 2**53]")
    return position.astype(np.float64)[group_allocation(config)]


def rotate_with_scheme(x, position, config: SchemeConfig) -> np.ndarray:
    """Rotate an embedding vector at a (possibly multi-dim) position under a scheme."""
    schedule = config.schedule()
    return rotate(_as_vector(x, "x"), pair_positions(position, config) * schedule.theta)
