"""Attention-score diagnostics: heatmaps, decay curves, boundary score tables.

The default metric is the closed-form expected self-score
``(2/d) * sum_j cos(delta_j * theta_j)`` -- the exact expectation of the
rotated dot product of a random vector with itself across a position
offset, normalized to 1 at zero offset. Each diagnostic reads ``d``, the
base and the partition from its :class:`~ropelab.schemes.SchemeConfig` (the
boundary table from ``layout.scheme``) alone. A Monte-Carlo variant
estimates the same quantity through the actual rotation path, with only
the seed and trial count in its :class:`TrialConfig`; trial ``r`` draws
``standard_normal(d)`` from numpy's PCG64 seeded by
``SeedSequence([seed, r])``, so each trial's vector does not depend on
evaluation order or parallelism. The seeding runs in bulk, for a draw of
trials at once (:func:`_trial_normals`), and gives exactly the vectors of
``default_rng(SeedSequence([seed, r]))``; a test holds it to numpy's own
seeding. The trial loop has two levels. A draw holds the normals of a
whole number of key blocks, at most ``MC_CHUNK_ELEMENTS`` = 2**16 values
(1024 trials at d=64), because each draw has a fixed cost whatever its
size. A key block of those trials is rotated and summed, with at most
``MC_CHUNK_ELEMENTS`` rotated keys (one trial's, where those are more).
The query's and the frame's rotation factors are computed once per call,
and every block is rotated into the same output and scratch buffers,
allocated once per call; the bits are those of :func:`~ropelab.rotary.rotate`.
The output is fixed for a given version, seed and trial count; a version that
changes the key blocks or the summation order may differ in the last
bits, which can flip a 6th decimal. How trials are grouped into draws
does not change the sums.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from .csvblock import format_block
from .errors import CoordinateError, ParameterError
from .layout import TokenLayout, VideoSegment, video_text_boundaries
from .rotary import (
    FrequencySchedule,
    check_array_budget,
    expected_self_score,
    rotate_into,
    rotation_factors,
    rotation_scratch,
)
from .schemes import (
    PositionVector,
    SchemeConfig,
    VideoGrid,
    group_allocation,
    pair_positions,
    video_positions,
)

# delta rows per block in decay_curve and decay_csv
DECAY_CHUNK_ROWS = 8192
# cells per block in heatmap_csv
HEATMAP_CHUNK_ROWS = 8192
# rotated-key elements per key block of Monte-Carlo trials, and normals per
# draw (512 KiB of float64 each)
MC_CHUNK_ELEMENTS = 2**16

_MASK32 = 2**32 - 1
_MASK128 = 2**128 - 1
# numpy's SeedSequence (numpy/random/bit_generator.pyx): hashmix and mix
# constants of its 4-word uint32 pool and of generate_state
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_WORDS = 4
# PCG64's 128-bit LCG multiplier, PCG_DEFAULT_MULTIPLIER_128
# (numpy/random/src/pcg64/pcg64.h), used by pcg_setseq_128_srandom_r
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@dataclass(frozen=True, eq=False)
class ScoreGrid:
    """Expected scores from one query to every cell of one frame; ``values[w, h]``.

    Two grids are equal when their values are, element by element, and
    their scheme, query and frame are.
    """

    values: np.ndarray
    scheme: SchemeConfig
    query: PositionVector
    frame: int

    def __eq__(self, other):
        if not isinstance(other, ScoreGrid):
            return NotImplemented
        same = (self.scheme, self.query, self.frame) == (other.scheme, other.query, other.frame)
        return same and np.array_equal(self.values, other.values)


@dataclass(frozen=True, eq=False)
class DecayCurve:
    """Expected self-score as a function of a uniform per-pair offset.

    ``values[delta]`` is the score at offset ``delta`` (read-only float64);
    two curves are equal when their values are, element by element.
    """

    values: np.ndarray

    @functools.cached_property
    def points(self) -> tuple[tuple[int, float], ...]:
        """``(delta, value)`` for every offset, in order, built on first read."""
        return tuple(enumerate(self.values.tolist()))

    def __eq__(self, other):
        if not isinstance(other, DecayCurve):
            return NotImplemented
        return np.array_equal(self.values, other.values)


@dataclass(frozen=True)
class TrialConfig:
    """Monte-Carlo settings: master seed and trial count (``d`` and base are the scheme's)."""

    seed: int
    trials: int

    def __post_init__(self):
        for name in ("seed", "trials"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ParameterError(f"{name} must be an integer, got {value!r}")
        if not 0 <= self.seed < 2**64:
            raise ParameterError(f"seed must fit in 64 unsigned bits, got {self.seed}")
        # trial indices r < trials must fit the 64 unsigned bits _trial_normals hashes
        if not 1 <= self.trials <= 2**64:
            raise ParameterError(f"trials must be in [1, 2**64], got {self.trials}")


@dataclass(frozen=True)
class BoundaryScore:
    """Mean expected self-score from the boundary text query to one key set."""

    scheme_id: str
    target: str  # "video" | "text"
    mean_score: float


def _frame_pair_positions(
    config: SchemeConfig, grid: VideoGrid, frame: int
) -> np.ndarray:
    """Per-pair positions of every cell of one frame, shape (W, H, pairs)."""
    if not 0 <= frame < grid.frames:
        raise CoordinateError(f"frame index {frame} outside [0, {grid.frames - 1}]")
    check_array_budget(grid.tokens_per_frame * config.pairs, f"a {grid.width}x{grid.height} frame")
    w = np.arange(grid.width)[:, None]
    h = np.arange(grid.height)[None, :]
    cells = video_positions(config, w, h, frame, grid, 0)
    return cells[:, :, group_allocation(config)]


def heatmap(config: SchemeConfig, grid: VideoGrid, frame: int, query: PositionVector) -> ScoreGrid:
    """Closed-form expected self-score from ``query`` to every cell of ``frame``.

    Cell positions are taken with the video starting at position 0; pass an
    absolute query vector (scores depend only on the differences).
    """
    q = pair_positions(query, config)
    cells = _frame_pair_positions(config, grid, frame)
    values = expected_self_score(q - cells, config.schedule())
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
    rotates it at the query's and every cell's offset from the frame's cell
    ``(0, 0)``, and averages the dot products scaled by ``1/d``. The head
    dimension ``d``, the base and the partition are ``config``'s;
    ``trial_config`` gives only the seed and the trial count. The
    rotation is :func:`~ropelab.rotary.rotate`'s kernel,
    :func:`~ropelab.rotary.rotate_into`, with the query's and the frame's
    factors computed once per call, so every value is bit for bit what
    ``rotate`` gives. Trials are rotated and summed in key blocks of
    ``chunk = max(1, MC_CHUNK_ELEMENTS // (W*H*d))`` trials, and their normals
    are drawn ``chunk * max(1, MC_CHUNK_ELEMENTS // (chunk*d))`` trials at a
    time, a whole number of blocks. With ``MC_CHUNK_ELEMENTS`` = 2**16, an
    8x8 frame at ``d=64`` has 16-trial blocks and 1024-trial draws, so 10k
    trials take 10 draws; neither a draw nor a block's rotated keys holds
    more than 2**16 values (512 KiB), or one trial's keys where those are
    more. Every block's rotated keys go into one buffer of a block, and the
    rotation's second product into a scratch of half a block (split as
    :func:`~ropelab.rotary.rotate_into` splits it), both allocated once per
    call. Memory stays bounded by the block, not by the trial count, and
    the sums are those of the blocks alone.

    Raises:
        ParameterError: if one trial's rotated keys (``W*H*d`` values)
            exceed the array budget.
    """
    schedule = config.schedule()
    d = config.d
    keys = _frame_pair_positions(config, grid, frame)
    # rotate by offsets from the frame's cell (0, 0), subtracted while the
    # positions are still exact integers: scores depend only on differences,
    # and the angles stay as small as the frame, however far into the video
    origin = keys[0, 0]
    q_angles = (pair_positions(query, config) - origin) * schedule.theta
    k_angles = (keys - origin) * schedule.theta
    cells = grid.tokens_per_frame
    # one trial's rotated keys, and each of the frame's two factor arrays, hold W*H*d values
    check_array_budget(cells * d, f"Monte-Carlo keys over a {grid.width}x{grid.height} frame")
    chunk = max(1, MC_CHUNK_ELEMENTS // (cells * d))
    # a draw is a whole number of key blocks; each _trial_normals call has a fixed cost
    draw = chunk * max(1, MC_CHUNK_ELEMENTS // (chunk * d))
    # the query's and the frame's pair factors, once per call
    q_cos, q_sin = rotation_factors(q_angles)
    k_cos, k_sin = rotation_factors(k_angles)
    # every block is rotated into these, allocated once per call
    rq_block = np.empty((chunk, d), dtype=np.float64)
    rk_block = np.empty((chunk, grid.width, grid.height, d), dtype=np.float64)
    scratch = rotation_scratch(rk_block.shape)
    acc = np.zeros((grid.width, grid.height), dtype=np.float64)
    seed, trials = trial_config.seed, trial_config.trials
    # one generator for every draw: its state is set per trial, so its own seed is never drawn
    generator = np.random.Generator(np.random.PCG64(0))
    for first in range(0, trials, draw):
        normals = _trial_normals(generator, seed, first, min(first + draw, trials), d)
        for start in range(0, len(normals), chunk):
            x = normals[start : start + chunk]
            n = len(x)
            rq = rotate_into(x, q_cos, q_sin, rq_block[:n], scratch)
            rk = rotate_into(x[:, None, None, :], k_cos, k_sin, rk_block[:n], scratch)
            acc += np.einsum("nwhd,nd->wh", rk, rq) / d
    return ScoreGrid(
        values=acc / trials, scheme=config, query=tuple(query), frame=frame
    )


def _trial_normals(
    generator: np.random.Generator, seed: int, start: int, stop: int, d: int
) -> np.ndarray:
    """Row ``r - start`` is ``default_rng(SeedSequence([seed, r])).standard_normal(d)``.

    For every trial ``r`` in ``[start, stop)`` at once, this computes
    numpy's ``SeedSequence`` pool from the entropy words ``[seed, r]`` and
    its ``generate_state(4, uint64)`` in vectorized uint32 arithmetic.
    PCG64's seeding (``pcg_setseq_128_srandom_r``) then runs per trial in
    Python ints, and ``generator``, which must be backed by a ``PCG64``,
    takes each trial's state in turn and draws into its row; its prior
    state does not matter. ``seed`` and ``r`` are below 2**64, so the words
    never outnumber the pool. numpy hashes a pool word the input lacks as
    a zero word, so ``r``'s high word can be passed for every trial: a
    trial below 2**32, one word in numpy's entropy, gets the same pool.
    """
    trials = np.arange(start, stop, dtype=np.uint64)
    n = len(trials)
    # numpy splits an int into 32-bit words, low first; 0 is one word
    seed_words = [seed & _MASK32] + ([seed >> 32] if seed >> 32 else [])
    words = [np.full(n, word, dtype=np.uint32) for word in seed_words]
    words += [(trials & _MASK32).astype(np.uint32), (trials >> 32).astype(np.uint32)]
    words += [np.zeros(n, dtype=np.uint32)] * (_POOL_WORDS - len(words))
    # uint32 arrays wrap like numpy's C code; the hash constants stay Python ints
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    pool = [hashmix(word) for word in words]
    for i_src in range(_POOL_WORDS):
        for i_dst in range(_POOL_WORDS):
            if i_src != i_dst:
                mixed = _MIX_MULT_L * pool[i_dst] - _MIX_MULT_R * hashmix(pool[i_src])
                pool[i_dst] = mixed ^ (mixed >> 16)
    hash_const = _INIT_B
    state_words = []
    for i in range(2 * _POOL_WORDS):
        value = pool[i % _POOL_WORDS] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        state_words.append((value ^ (value >> 16)).astype(np.uint64))
    # generate_state(4, uint64) pairs the words little-endian: seed high, low, inc high, low
    seed_hi, seed_lo, inc_hi, inc_lo = (
        (state_words[2 * k] | state_words[2 * k + 1] << 32).tolist() for k in range(4)
    )
    bit_generator = generator.bit_generator
    out = np.empty((n, d), dtype=np.float64)
    for row, s_hi, s_lo, i_hi, i_lo in zip(out, seed_hi, seed_lo, inc_hi, inc_lo):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        # from state 0: step, add the seed, step
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        generator.standard_normal(out=row)
    return out


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
    check_array_budget((max_delta + 1) * schedule.pairs, f"a decay curve to {max_delta}")
    values = np.empty(max_delta + 1, dtype=np.float64)
    # DECAY_CHUNK_ROWS offsets at a time; each row's score does not depend on the block
    for start in range(0, max_delta + 1, DECAY_CHUNK_ROWS):
        deltas = np.arange(start, min(start + DECAY_CHUNK_ROWS, max_delta + 1), dtype=np.float64)
        values[start : start + len(deltas)] = expected_self_score(
            np.broadcast_to(deltas[:, None], (len(deltas), schedule.pairs)), schedule
        )
    values.setflags(write=False)
    return DecayCurve(values)


def boundary_score_table(layout: TokenLayout) -> tuple[BoundaryScore, ...]:
    """Mean expected self-scores from the boundary text token to video and text keys.

    The query is the first text token after the first video-to-text segment
    boundary; key sets are all video tokens and all text tokens preceding
    the query. Returns an empty tuple when the layout has no such boundary.
    The schedule is that of ``layout.scheme``.

    Every segment is an affine grid (see :class:`~ropelab.layout.TokenLayout`):
    its keys sit at ``p0 + sum_a k_a * s_a``, ``0 <= k_a < n_a``, with ``p0``
    its ``firsts`` row, ``s_a`` its ``steps`` and ``n_a`` its ``counts``. So
    a segment's ``sum cos((q - p) * theta_j)`` is
    ``Re[exp(i (q - p0) theta_j) * prod_a D(s_a theta_j, n_a)]`` with
    ``D(x, n) = sum_{k<n} exp(-i k x) = exp(-i (n-1) x/2) sin(n x/2) / sin(x/2)``,
    taken at ``x`` reduced into [-pi, pi] (the limit ``n`` at 0), and the
    table costs O(segments * d/2), not O(keys * d/2); it never fills
    ``layout.positions``.
    """
    config = layout.scheme
    boundaries = video_text_boundaries(layout.segments)
    if not boundaries:
        return ()
    query = boundaries[0] + 1  # the text segment after the first video-to-text boundary
    counts = layout.counts[:query]
    keys = counts.prod(axis=1)
    alloc, theta = group_allocation(config), config.schedule().theta
    # q - p0 stays in integers until it meets theta
    angle = (layout.firsts[query] - layout.firsts[:query])[:, alloc] * theta
    x = layout.steps[:query, :, alloc] * theta  # (segments, 3 axes, pairs)
    half = (x - 2 * np.pi * np.round(x / (2 * np.pi))) / 2  # x reduced into [-pi, pi]
    n = counts[:, :, None].astype(np.float64)
    sin_half = np.sin(half)
    # sin(n x/2) / sin(x/2), or its limit n where x is 0
    ratio = np.divide(
        np.sin(n * half), sin_half, out=np.broadcast_to(n, half.shape).copy(), where=sin_half != 0
    )
    # Re[exp(i angle) prod_a D] per segment and pair; the mean over pairs is the kernel's (2/d) sum
    sums = np.mean(np.cos(angle - ((n - 1) * half).sum(axis=1)) * ratio.prod(axis=1), axis=-1)
    is_video = np.array([isinstance(segment, VideoSegment) for segment in layout.segments[:query]])
    rows: list[BoundaryScore] = []
    for target, mask in (("video", is_video), ("text", ~is_video)):
        if mask.any():
            mean = float(sums[mask].sum() / keys[mask].sum())
            rows.append(BoundaryScore(config.scheme, target, mean))
    return tuple(rows)


def heatmap_csv(grid: ScoreGrid) -> str:
    """Heatmap as ``w,h,value`` CSV rows in scanline order, 6-decimal values.

    Rows are formatted ``HEATMAP_CHUNK_ROWS`` at a time.
    """
    width = grid.values.shape[0]
    values = grid.values.T.ravel()  # scanline order: h outer, w inner
    pieces = ["w,h,value\n"]
    for start in range(0, len(values), HEATMAP_CHUNK_ROWS):
        stop = min(start + HEATMAP_CHUNK_ROWS, len(values))
        h, w = np.divmod(np.arange(start, stop), width)
        columns = [w.tolist(), h.tolist(), values[start:stop].tolist()]
        pieces.append(format_block("%d,%d,%.6f\n", columns))
    return "".join(pieces)


def decay_csv(curve: DecayCurve) -> str:
    """Decay curve as ``delta,value`` CSV rows, 6-decimal values.

    Rows are formatted ``DECAY_CHUNK_ROWS`` at a time from ``curve.values``,
    so no more than one block's Python objects exist beside the text.
    """
    values = curve.values
    pieces = ["delta,value\n"]
    for start in range(0, len(values), DECAY_CHUNK_ROWS):
        stop = min(start + DECAY_CHUNK_ROWS, len(values))
        pieces.append(format_block("%d,%.6f\n", [range(start, stop), values[start:stop].tolist()]))
    return "".join(pieces)


def boundary_csv(rows) -> str:
    """Boundary score rows as ``scheme,target,mean_score`` CSV, 6-decimal values."""
    rows = list(rows)
    columns = [[row.scheme_id for row in rows], [row.target for row in rows]]
    columns.append([row.mean_score for row in rows])
    return "scheme,target,mean_score\n" + format_block("%s,%s,%.6f\n", columns)


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
]
