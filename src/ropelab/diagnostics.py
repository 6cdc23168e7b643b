"""Attention-score diagnostics: heatmaps, decay curves, boundary score tables.

The default metric is the closed-form expected self-score
``(2/d) * sum_j cos(delta_j * theta_j)`` -- the exact expectation of the
rotated dot product of a random vector with itself across a position
offset, normalized to 1 at zero offset. Each diagnostic reads ``d``, the
base and the partition from its :class:`~ropelab.schemes.SchemeConfig` (the
boundary table from ``layout.scheme``) alone. A heatmap reads its frame as
three per-pair int64 vectors ``(first, a, b)``, cell ``(w, h)`` sitting at
``first + w*a + h*b``, from :func:`_frame`, which first checks the frame
index and the frame against the array budget: the closed form subtracts a
block of those positions from the query, and the Monte-Carlo heatmap rotates
at ``q - first`` and ``w*a + h*b``. Every float kernel here is blocked in
elements, about ``rotary.BLOCK_ELEMENTS`` values a block
(:func:`~ropelab.rotary.block_rows`): the closed-form heatmap's columns,
the decay curve's offsets and the Monte-Carlo key blocks, so memory follows
the block, not the frame or the curve. A Monte-Carlo variant
estimates the same quantity through the actual rotation path, with only
the seed and trial count in its :class:`TrialConfig`; trial ``r`` draws
``standard_normal(d)`` from numpy's PCG64 seeded by
``SeedSequence([seed, r])``, so each trial's vector does not depend on
evaluation order or parallelism. The ``SeedSequence`` hash runs in bulk,
for a draw of trials at once (:func:`_trial_words`), and numpy seeds each
trial's PCG64 from its hashed words (:func:`_trial_normals`), so the
vectors are exactly those of ``default_rng(SeedSequence([seed, r]))``; a
test holds it to numpy's own seeding. The trial loop has two levels. A
draw hashes the words of a whole number of key blocks, at most
``rotary.BLOCK_ELEMENTS`` = 2**16 normals' worth (1024 trials at d=64),
because each hash has a fixed cost whatever its size. A key block of
those trials is drawn, rotated and summed, with at most
``BLOCK_ELEMENTS`` rotated keys (one trial's, where those are more).
The query's and the frame's rotation factors are computed once per call,
and every block is drawn into one normals buffer and rotated into the
same output and scratch buffers, all allocated once per call;
the bits are those of :func:`~ropelab.rotary.rotate`.
The output is fixed for a given version, seed and trial count; a version that
changes the key blocks or the summation order may differ in the last
bits, which can flip a 6th decimal. How trials are grouped into draws
does not change the sums.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np

from ._frozen import Frozen
from .csvblock import format_block, row_blocks
from .errors import ConfigError, CoordinateError, ParameterError, check_integer
from .layout import TokenLayout, VideoSegment, video_text_boundaries
from .rotary import (
    FrequencySchedule,
    block_rows,
    check_array_budget,
    expected_self_score,
    rotate_into,
    rotation_factors,
)
from .schemes import (
    SCHEME_IDS,
    PositionVector,
    SchemeConfig,
    VideoGrid,
    group_allocation,
    pair_positions,
    video_map,
    video_positions,
)

_MASK32 = 2**32 - 1
# numpy's SeedSequence (numpy/random/bit_generator.pyx): hashmix and mix
# constants of its 4-word uint32 pool and of generate_state
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_WORDS = 4


def _value_range(values: np.ndarray, ndim: int, what: str) -> tuple[float, float]:
    """``(min, max)`` of ``values`` as floats; ParameterError unless a valid value array.

    ``values`` must be an ``ndim``-D float64 array of at least one value,
    every value finite, whose ``max - min`` is finite. The span is taken in
    Python floats, which overflow to ``inf`` without a warning; a NaN or an
    infinite value gives a NaN or infinite span too.
    """
    if not (isinstance(values, np.ndarray) and values.dtype == np.float64 and values.ndim == ndim):
        raise ParameterError(f"{what} must be a {ndim}-D float64 array, got {values!r}")
    if not values.size:
        raise ParameterError(f"{what} must hold at least one value, got {values!r}")
    low, high = float(values.min()), float(values.max())
    if not math.isfinite(high - low):
        raise ParameterError(f"{what} must be finite with a finite max - min, got {values!r}")
    return low, high


class ScoreGrid(Frozen):
    """Expected scores from one query to every cell of one frame; ``values[w, h]``.

    ``values`` is a 2-D float64 array of at least one cell, every value
    finite and ``max - min`` finite, else ParameterError. ``value_range`` is
    ``(min, max)`` of ``values`` as floats. Two grids are equal when their
    values are, element by element, and their scheme, query and frame are.
    """

    __match_args__ = ("values", "scheme", "query", "frame")

    def __init__(self, values: np.ndarray, scheme: SchemeConfig, query: PositionVector, frame: int):
        value_range = _value_range(values, 2, "score grid values")
        self.__dict__.update(values=values, scheme=scheme, query=query, frame=frame)
        self.__dict__.update(value_range=value_range)

    def __eq__(self, other):
        if not isinstance(other, ScoreGrid):
            return NotImplemented
        same = (self.scheme, self.query, self.frame) == (other.scheme, other.query, other.frame)
        return same and np.array_equal(self.values, other.values)


class DecayCurve(Frozen):
    """Expected self-score as a function of a uniform per-pair offset.

    ``values[delta]`` is the score at offset ``delta``: a 1-D float64 array
    (read-only from :func:`decay_curve`) of at least one value, checked as
    :class:`ScoreGrid`'s are, else ParameterError. Two curves are equal when
    their values are, element by element.
    """

    __match_args__ = ("values",)

    def __init__(self, values: np.ndarray):
        _value_range(values, 1, "decay curve values")
        self.__dict__.update(values=values)

    @functools.cached_property
    def points(self) -> tuple[tuple[int, float], ...]:
        """``(delta, value)`` for every offset, in order, built on first read."""
        return tuple(enumerate(self.values.tolist()))

    def __eq__(self, other):
        if not isinstance(other, DecayCurve):
            return NotImplemented
        return np.array_equal(self.values, other.values)


class TrialConfig(Frozen):
    """Monte-Carlo settings: master seed and trial count (``d`` and base are the scheme's).

    Both are stored as Python ints.
    """

    __match_args__ = ("seed", "trials")

    def __init__(self, seed: int, trials: int):
        seed, trials = check_integer(seed, "seed"), check_integer(trials, "trials")
        if not 0 <= seed < 2**64:
            raise ParameterError(f"seed must fit in 64 unsigned bits, got {seed}")
        # trial indices r < trials must fit the 64 unsigned bits _trial_words hashes
        if not 1 <= trials <= 2**64:
            raise ParameterError(f"trials must be in [1, 2**64], got {trials}")
        self.__dict__.update(seed=seed, trials=trials)


class BoundaryScore(Frozen):
    """Mean expected self-score from the boundary text query to one key set.

    ``scheme_id`` is one of ``SCHEME_IDS``, else ConfigError; ``target`` is
    ``"video"`` or ``"text"`` and ``mean_score`` a finite real number,
    stored as a float, else ParameterError.
    """

    __match_args__ = ("scheme_id", "target", "mean_score")

    def __init__(self, scheme_id: str, target: str, mean_score: float):
        if scheme_id not in SCHEME_IDS:
            raise ConfigError(f"unknown scheme {scheme_id!r}; expected one of {SCHEME_IDS}")
        if target not in ("video", "text"):
            raise ParameterError(f"boundary target must be 'video' or 'text', got {target!r}")
        if isinstance(mean_score, bool) or not isinstance(mean_score, numbers.Real):
            raise ParameterError(f"mean score must be a real number, got {mean_score!r}")
        if not math.isfinite(mean_score):
            raise ParameterError(f"mean score must be finite, got {mean_score}")
        self.__dict__.update(scheme_id=scheme_id, target=target, mean_score=float(mean_score))


def _frame(config: SchemeConfig, grid: VideoGrid, frame: int, per_cell: int) -> tuple:
    """``frame`` as an int, then its per-pair int64 ``first, a, b``.

    Cell ``(w, h)`` sits at ``first + w*a + h*b``; ``first`` is cell
    ``(0, 0)``, the video starting at 0. Raises CoordinateError unless
    ``frame`` is an integer inside ``grid``, and ParameterError, before
    anything is computed, if ``W*H*per_cell`` exceeds the array budget.
    """
    frame = check_integer(frame, "frame index", CoordinateError)
    if not 0 <= frame < grid.frames:
        raise CoordinateError(f"frame index {frame} outside [0, {grid.frames - 1}]")
    check_array_budget(grid.tokens_per_frame * per_cell, f"a {grid.width}x{grid.height} frame")
    alloc = group_allocation(config)
    a, b = video_map(config, grid, 0)[0][:2, alloc]  # the map's w and h rows
    return frame, video_positions(config, 0, 0, frame, grid, 0)[alloc], a, b


def heatmap(config: SchemeConfig, grid: VideoGrid, frame: int, query: PositionVector) -> ScoreGrid:
    """Closed-form expected self-score from ``query`` to every cell of ``frame``.

    Cell positions are taken with the video starting at position 0; pass an
    absolute query vector (scores depend only on the differences). The
    frame is scored ``block_rows(H*d/2)`` columns at a time, each cell's exact
    position ``first + h*b + w*a`` (:func:`_frame`) subtracted from the
    query once, so besides the ``W*H`` values one block's positions and angles,
    about ``rotary.BLOCK_ELEMENTS`` values each, are held at once.
    """
    q = pair_positions(query, config)[:, None, None]
    frame, first, a, b = _frame(config, grid, frame, config.pairs)
    schedule = config.schedule()
    # blocks are (pairs, w, h), scored as their transpose: each cell's mean adds its pairs in one order
    column = first[:, None] + b[:, None] * np.arange(grid.height)  # the cells (0, h)
    values = np.empty((grid.width, grid.height), dtype=np.float64)
    step = block_rows(grid.height * config.pairs)
    for start in range(0, grid.width, step):
        w = np.arange(start, min(start + step, grid.width))[:, None]
        cells = column[:, None, :] + a[:, None, None] * w
        values[start : start + step] = expected_self_score((q - cells).transpose(1, 2, 0), schedule)
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
    ``rotate`` gives. Trials are drawn, rotated and summed in key blocks of
    ``chunk = block_rows(W*H*d)`` trials, and their seed words are hashed
    ``chunk * block_rows(chunk*d)`` trials at a time, a whole number of
    blocks (:func:`~ropelab.rotary.block_rows`). With
    ``rotary.BLOCK_ELEMENTS`` = 2**16, an
    8x8 frame at ``d=64`` has 16-trial blocks and 1024-trial draws, so 10k
    trials take 10 draws; a block's rotated keys hold no more than 2**16
    values (512 KiB), or one trial's keys where those are more. Every
    block's normals go into one buffer of a block, its rotated keys into
    another, and the rotation's second product into a scratch of a block,
    all allocated once per call. Memory stays bounded by the block, not by
    the trial count, and the sums are those of the blocks alone.

    Raises:
        ParameterError: if one trial's rotated keys (``W*H*d`` values)
            exceed the array budget, before any angle is computed.
    """
    schedule = config.schedule()
    d = config.d
    frame, first, a, b = _frame(config, grid, frame, d)
    # offsets from the frame's cell (0, 0), exact integers until they meet theta:
    # the angles stay as small as the frame, however far into the video
    q_angles = (pair_positions(query, config) - first) * schedule.theta
    w, h = np.arange(grid.width)[:, None, None], np.arange(grid.height)[:, None]
    k_angles = (w * a + h * b) * schedule.theta
    chunk = block_rows(grid.tokens_per_frame * d)
    # a draw is a whole number of key blocks; each _trial_words call has a fixed cost
    draw = chunk * block_rows(chunk * d)
    # the query's and the frame's pair factors, once per call
    q_cos, q_sin = rotation_factors(q_angles)
    k_cos, k_sin = rotation_factors(k_angles)
    # every block is drawn and rotated into these, allocated once per call
    normals = np.empty((chunk, d), dtype=np.float64)
    rq_block = np.empty((chunk, d), dtype=np.float64)
    rk_block = np.empty((chunk, grid.width, grid.height, d), dtype=np.float64)
    scratch = np.empty(rk_block.size)
    acc = np.zeros((grid.width, grid.height), dtype=np.float64)
    seed, trials = trial_config.seed, trial_config.trials
    for draw_start in range(0, trials, draw):
        words = _trial_words(seed, draw_start, min(draw_start + draw, trials))
        for start in range(0, len(words), chunk):
            block = words[start : start + chunk]
            n = len(block)
            x = _trial_normals(block, normals[:n])
            rq = rotate_into(x, q_cos, q_sin, rq_block[:n], scratch)
            rk = rotate_into(x[:, None, None, :], k_cos, k_sin, rk_block[:n], scratch)
            acc += np.einsum("nwhd,nd->wh", rk, rq) / d
    return ScoreGrid(
        values=acc / trials, scheme=config, query=tuple(query), frame=frame
    )


@functools.cache
def _given_state() -> type:
    """An ``ISeedSequence`` class that returns given words; its import loads numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class GivenState(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return GivenState


def _trial_words(seed: int, start: int, stop: int) -> np.ndarray:
    """Row ``r - start`` is ``SeedSequence([seed, r]).generate_state(4, np.uint64)``.

    For every trial ``r`` in ``[start, stop)`` at once, this computes
    numpy's ``SeedSequence`` pool from the entropy words ``[seed, r]`` and
    its ``generate_state(4, uint64)`` in vectorized uint32 arithmetic, one
    row of four words per trial, for :func:`_trial_normals`. ``seed`` and
    ``r`` are below 2**64, so the words never outnumber the pool. numpy
    hashes a pool word the input lacks as a zero word, so ``r``'s high word
    can be passed for every trial: a trial below 2**32, one word in numpy's
    entropy, gets the same pool.
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
    return np.stack(state_words[0::2], axis=1) | np.stack(state_words[1::2], axis=1) << 32


def _trial_normals(words: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Draw row ``i`` of ``out`` from a ``PCG64`` seeded by row ``i`` of ``words``, and return ``out``.

    ``words`` is a block of :func:`_trial_words` rows and ``out`` a float64
    array of as many rows, so row ``i`` is that trial's
    ``default_rng(SeedSequence([seed, r])).standard_normal(d)``, ``d``
    being ``out``'s row length.
    """
    given_state = _given_state()
    for row, trial_words in zip(out, words):
        np.random.Generator(np.random.PCG64(given_state(trial_words))).standard_normal(out=row)
    return out


def softmax_grid(grid: ScoreGrid) -> ScoreGrid:
    """Softmax over all cells of the frame; a visualization aid, not the metric."""
    shifted = np.exp(grid.values - grid.values.max())
    return ScoreGrid(
        values=shifted / shifted.sum(), scheme=grid.scheme, query=grid.query, frame=grid.frame
    )


def decay_curve(schedule: FrequencySchedule, max_delta: int) -> DecayCurve:
    """Expected self-score at uniform per-pair offsets 0..``max_delta``."""
    max_delta = check_integer(max_delta, "max_delta", low=1)
    check_array_budget((max_delta + 1) * schedule.pairs, f"a decay curve to {max_delta}")
    values = np.empty(max_delta + 1, dtype=np.float64)
    # block_rows(d/2) offsets at a time; each row's score does not depend on the block
    step = block_rows(schedule.pairs)
    for start in range(0, max_delta + 1, step):
        deltas = np.arange(start, min(start + step, max_delta + 1), dtype=np.float64)
        values[start : start + step] = expected_self_score(
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


def _scanline(grid: ScoreGrid, cells: range) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns ``w``, rows ``h`` and values of the scanline cells ``cells`` (``h`` outer, ``w`` inner).

    Raises CoordinateError unless ``cells`` is a step-1 range inside ``[0, W*H]``.
    """
    size = grid.values.size
    if not (isinstance(cells, range) and cells.step == 1 and 0 <= cells.start <= cells.stop <= size):
        raise CoordinateError(f"cells must be a step-1 range inside [0, {size}], got {cells!r}")
    h, w = np.divmod(np.arange(cells.start, cells.stop), grid.values.shape[0])
    return w, h, grid.values[w, h]


def heatmap_csv(grid: ScoreGrid, cells: range | None = None) -> str:
    """Heatmap as ``w,h,value`` CSV rows in scanline order, 6-decimal values, or ``cells``' part.

    ``cells`` is a step-1 range of cells inside ``[0, W*H]`` in scanline order
    (``h`` outer, ``w`` inner), formatted by one
    :func:`~ropelab.csvblock.format_block`, else CoordinateError; its part
    holds the header when it starts at cell 0, so the parts of consecutive
    ranges join into the CSV. Without ``cells`` the CSV is the join of
    :func:`heatmap_csv_blocks`.
    """
    if cells is None:
        return "".join(heatmap_csv_blocks(grid))
    w, h, values = _scanline(grid, cells)
    rows = format_block("%d,%d,%.6f\n", [w.tolist(), h.tolist(), values.tolist()])
    return ("w,h,value\n" if cells.start == 0 else "") + rows


def heatmap_csv_blocks(grid: ScoreGrid):
    """The heatmap CSV of ``grid`` a block of cells at a time, as an iterator.

    Each block is ``heatmap_csv(grid, cells)`` for the next range of
    :func:`~ropelab.csvblock.row_blocks` over the cells in scanline order.
    """
    return (heatmap_csv(grid, cells) for cells in row_blocks(0, grid.values.size))


def decay_csv(curve: DecayCurve) -> str:
    """Decay curve as ``delta,value`` CSV rows, 6-decimal values.

    The text is the join of :func:`decay_csv_blocks`.
    """
    return "".join(decay_csv_blocks(curve))


def decay_csv_blocks(curve: DecayCurve):
    """An iterator over :func:`decay_csv`'s text: its header line, then each block's rows.

    Rows are formatted a block of :func:`~ropelab.csvblock.row_blocks` at a
    time from ``curve.values``, and only as the iterator is read, so no more
    than one block's Python objects and text exist at once.
    """
    values = curve.values
    yield "delta,value\n"
    for rows in row_blocks(0, len(values)):
        yield format_block("%d,%.6f\n", [rows, values[rows.start : rows.stop].tolist()])


def boundary_csv(rows) -> str:
    """Boundary score rows as ``scheme,target,mean_score`` CSV, 6-decimal values.

    The text is the join of :func:`boundary_csv_blocks`.
    """
    return "".join(boundary_csv_blocks(rows))


def boundary_csv_blocks(rows):
    """An iterator over :func:`boundary_csv`'s text: its header line, then each block's rows.

    ``rows`` is read once, when the iterator is first read; then each block of
    :func:`~ropelab.csvblock.row_blocks` is formatted by one ``format_block``.
    """
    rows = list(rows)
    yield "scheme,target,mean_score\n"
    for block in row_blocks(0, len(rows)):
        part = rows[block.start : block.stop]
        columns = [[row.scheme_id for row in part], [row.target for row in part]]
        columns.append([row.mean_score for row in part])
        yield format_block("%s,%s,%.6f\n", columns)


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
    "heatmap_csv_blocks",
    "decay_csv",
    "decay_csv_blocks",
    "boundary_csv",
    "boundary_csv_blocks",
]
