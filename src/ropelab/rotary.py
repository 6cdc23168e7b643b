"""Rotary math kernel: frequency schedules, pair rotations, attention scores.

Embedding vectors are float arrays of even length ``d`` in the last axis,
read as ``d/2`` adjacent pairs ``(x[2j], x[2j+1])``. Pair ``j`` rotates in
its own plane by an angle the caller supplies (typically
``position * theta[j]``). ``rotate`` takes leading batch axes; the scores
built on it take single 1-D vectors.

A rotation runs in two steps. :func:`rotation_factors` turns the angles
into pair factors once: ``cos`` in both channels of each pair, and ``sin``
signed ``-``/``+``. :func:`rotate_into` is the one kernel,
``out = x*cos2; out += swap(x)*sin2``, where ``swap`` exchanges each
pair's two channels, so a caller rotating many vectors at the same angles
(the Monte-Carlo heatmap) computes the factors once and reuses its output
buffers. The second product is formed in one piece, in a scratch buffer
of the output's size. The bits equal the pair formula's: IEEE negation is
exact, so ``a*c + b*(-s)`` is ``a*c - b*s``, and addition commutes.
All math is double precision; every function but :func:`rotate_into`,
which writes into the buffers it is given, is pure.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from ._frozen import Frozen
from .errors import DimensionError, ParameterError, check_integer

# Most elements one array may hold when user input sets its size: 2**26
# float64 values are 512 MiB. Larger requests raise ParameterError before
# anything is allocated, instead of failing (or swapping) inside numpy.
MAX_ARRAY_ELEMENTS = 2**26

# values per block of every blocked float kernel (512 KiB of float64): :func:`rotate`'s
# result blocks, the Monte-Carlo heatmap's key blocks and normal draws, and the
# closed-form heatmap's and the decay curve's score blocks
BLOCK_ELEMENTS = 2**16


class FrequencySchedule(Frozen):
    """Per-channel-pair rotation frequencies for a head of dimension ``d``.

    ``theta[j] = base ** (-2j/d)`` for ``j = 0 .. d/2 - 1``; ``theta[0]`` is
    exactly 1 and the sequence is strictly decreasing for ``base > 1``.
    Two schedules are equal when their ``base`` and ``d`` are; ``theta``
    follows from them. :func:`build_frequency_schedule` validates and builds one.
    """

    __match_args__ = ("base", "d", "theta")

    def __init__(self, base: float, d: int, theta: np.ndarray):
        self.__dict__.update(base=base, d=d, theta=theta)

    def _key(self) -> tuple:
        return self.base, self.d

    @property
    def pairs(self) -> int:
        return self.d // 2


def check_array_budget(elements: int, what: str) -> None:
    """Raise ParameterError if an array of ``elements`` would exceed ``MAX_ARRAY_ELEMENTS``."""
    if elements > MAX_ARRAY_ELEMENTS:
        raise ParameterError(
            f"{what} needs {elements} array elements, over the budget of {MAX_ARRAY_ELEMENTS}"
        )


def block_rows(row_elements: int) -> int:
    """Rows of ``row_elements`` values each in one block: ``BLOCK_ELEMENTS // row_elements``, at least 1."""
    return max(1, BLOCK_ELEMENTS // row_elements)


def check_head_params(d: int, base: float) -> int:
    """Validate a head dimension and frequency base; return ``d`` as a Python int.

    Raises:
        DimensionError: if ``d`` is not an integer, is odd or is smaller than 2.
        ParameterError: if ``base`` is a bool or not a real number, not finite or not
            strictly positive, if the largest frequency ``base ** (-(d-2)/d)``
            times ``2**54`` is not finite (a tiny base), or if ``d/2`` exceeds
            the array budget. Positions lie within 2**53 either side of 0, so every
            angle ``delta * theta`` of an admitted base is finite.
    """
    d = check_integer(d, "head dimension", DimensionError)
    if d < 2 or d % 2 != 0:
        raise DimensionError(f"head dimension must be an even integer >= 2, got {d}")
    check_array_budget(d // 2, f"head dimension d={d}")
    if isinstance(base, bool) or not isinstance(base, numbers.Real):
        raise ParameterError(f"base must be a real number, got {base!r}")
    if not (math.isfinite(base) and base > 0):
        raise ParameterError(f"base must be finite and > 0, got {base}")
    try:
        # the largest theta times the largest position delta, 2**54; a float
        # power and ldexp raise on overflow, where numpy would return inf
        math.ldexp(float(base) ** (-(d - 2) / d), 54)
    except OverflowError:
        raise ParameterError(
            f"base {base} too small for d={d}: base**(-(d-2)/d) * 2**54 overflows"
        ) from None
    return d


def build_frequency_schedule(base: float, d: int) -> FrequencySchedule:
    """Build the rotation-frequency schedule for head dimension ``d``.

    Raises:
        DimensionError: if ``d`` is odd or smaller than 2.
        ParameterError: if ``base`` is rejected by :func:`check_head_params`.
    """
    d = check_head_params(d, base)
    j = np.arange(d // 2, dtype=np.float64)
    theta = float(base) ** (-2.0 * j / d)
    theta.setflags(write=False)
    return FrequencySchedule(base=float(base), d=d, theta=theta)


def _as_vector(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise DimensionError(f"{name} must be 1-D, got shape {x.shape}")
    return x


def rotate(x, angles) -> np.ndarray:
    """Rotate each adjacent pair of ``x`` by the matching angle.

    Pair ``(a, b)`` becomes ``(a cos(phi) - b sin(phi), a sin(phi) + b cos(phi))``.
    Preserves the Euclidean norm of every pair.

    ``x`` has shape ``(..., d)`` and ``angles`` shape ``(..., d/2)``; their
    leading axes broadcast, so one call rotates a batch of vectors, or one
    vector at many angle sets. 1-D inputs give a 1-D result.

    A thin wrapper: it checks the shapes, then applies :func:`rotate_into`
    with the :func:`rotation_factors` of ``angles``, a block of the result's
    first leading axis longer than 1 at a time: each block holds about
    ``BLOCK_ELEMENTS`` values (one row where a row holds more), and its
    factors and the one scratch, shared by every block, are a block's size.
    Every value is bit for bit the pair formula's, signed zeros
    included: the kernel's ``a*cos + b*(-sin)`` is ``a*cos - b*sin`` in IEEE
    arithmetic, and ``b*cos + a*sin`` is ``a*sin + b*cos``; blocking changes
    no value, since every operation is elementwise.

    Raises ParameterError, before anything is allocated, if an angle or an
    entry of ``x`` is NaN or infinite, or if the broadcast result has more
    than the element budget's values.
    """
    x = np.asarray(x, dtype=np.float64)
    angles = np.asarray(angles, dtype=np.float64)
    if x.ndim == 0 or angles.ndim == 0:
        raise DimensionError(
            f"x and angles must have at least 1 axis, got shapes {x.shape} and {angles.shape}"
        )
    d = x.shape[-1]
    if d % 2 != 0:
        raise DimensionError(f"vector length must be even, got {d}")
    if angles.shape[-1] != d // 2:
        raise DimensionError(
            f"expected {d // 2} angles for a length-{d} vector, got {angles.shape[-1]}"
        )
    if not np.isfinite(angles).all():
        raise ParameterError("rotation angles must be finite, got a NaN or infinite angle")
    if not np.isfinite(x).all():
        raise ParameterError("vector entries must be finite, got a NaN or infinite entry")
    try:
        lead = np.broadcast_shapes(x.shape[:-1], angles.shape[:-1])
    except ValueError:
        raise DimensionError(
            f"leading axes of x {x.shape} and angles {angles.shape} do not broadcast"
        ) from None
    # the result; the factors, each shaped like angles with d values per pair, fit within it
    check_array_budget(math.prod(lead) * d, f"a rotation to shape {lead + (d,)}")
    out = np.empty(lead + (d,), dtype=np.float64)
    axis = next((a for a, n in enumerate(lead) if n > 1), None)
    if axis is None:  # one vector, or a batch of one
        return rotate_into(x, *rotation_factors(angles), out)
    step = block_rows(math.prod(out.shape[axis + 1 :]))
    scratch = np.empty(out[_index(axis, slice(0, step))].size)
    for start in range(0, lead[axis], step):
        rows = slice(start, start + step)
        factors = rotation_factors(_part(angles, out.ndim, axis, rows))
        rotate_into(_part(x, out.ndim, axis, rows), *factors, out[_index(axis, rows)], scratch)
    return out


def rotation_factors(angles) -> tuple[np.ndarray, np.ndarray]:
    """Pair factors ``(cos2, sin2)`` of ``angles`` (shape ``(..., d/2)``) for :func:`rotate_into`.

    Both have shape ``(..., d)``: ``cos2`` holds ``cos(phi)`` in both channels
    of each pair, ``sin2`` holds ``-sin(phi)`` in the first and ``sin(phi)``
    in the second.
    """
    cos, sin = np.cos(angles), np.sin(angles)
    cos2 = np.repeat(cos, 2, axis=-1)
    sin2 = np.empty_like(cos2)
    np.negative(sin, out=sin2[..., 0::2])
    sin2[..., 1::2] = sin
    return cos2, sin2


def _index(axis: int, rows: slice) -> tuple[slice, ...]:
    """The index of ``rows`` of ``axis``, all of every axis before it."""
    return (slice(None),) * axis + (rows,)


def _part(a: np.ndarray, ndim: int, axis: int, rows: slice) -> np.ndarray:
    """The part of ``a`` that fills ``rows`` of ``axis`` of an ``ndim``-axis broadcast result.

    ``a`` itself where it does not vary along that axis.
    """
    axis -= ndim - a.ndim
    if axis < 0 or a.shape[axis] == 1:
        return a
    return a[_index(axis, rows)]


def rotate_into(x, cos2, sin2, out, scratch=None) -> np.ndarray:
    """Rotate ``x`` by the factors of :func:`rotation_factors` into ``out``, and return it.

    Computes ``out = x * cos2; out += swap(x) * sin2``, where ``swap``
    exchanges the two channels of each pair. ``x``, ``cos2`` and ``sin2``
    broadcast to ``out``'s shape. The second product is formed in one
    piece in the first ``out.size`` values of ``scratch`` (a flat float64
    buffer, allocated here when None), so one scratch serves every output
    that it holds. Nothing is checked; :func:`rotate` is the validating
    entry point.
    """
    # a broadcast copy, then products in place: numpy multiplies a
    # broadcast operand row by row, which costs more than copying it
    np.copyto(out, x)
    out *= cos2
    # swapped before broadcasting, so the copy is x's size, not out's
    swapped = x.reshape(x.shape[:-1] + (x.shape[-1] // 2, 2))[..., ::-1].reshape(x.shape)
    if scratch is None:
        scratch = np.empty(out.size)
    product = scratch[: out.size].reshape(out.shape)
    np.copyto(product, swapped)
    product *= sin2
    out += product
    return out


def attention_score(q, q_angles, k, k_angles) -> float:
    """Unnormalized dot-product score between a rotated query and key.

    Depends only on the per-pair angle differences: shifting both angle
    vectors by a common offset leaves the score unchanged. Raises
    ParameterError for a NaN or infinite angle or vector entry, as
    :func:`rotate` does.
    """
    rq = rotate(_as_vector(q, "q"), _as_vector(q_angles, "q_angles"))
    rk = rotate(_as_vector(k, "k"), _as_vector(k_angles, "k_angles"))
    if rq.size != rk.size:
        raise DimensionError(f"q and k lengths differ: {rq.size} vs {rk.size}")
    return float(np.dot(rq, rk))


def attention_score_oracle(q, q_positions, k, k_positions, schedule: FrequencySchedule) -> float:
    """Brute-force reference for :func:`attention_score` via complex arithmetic.

    Treats pair ``j`` as the complex number ``x[2j] + i x[2j+1]`` and sums
    ``Re[q_j * conj(k_j) * exp(i * (q_pos[j] - k_pos[j]) * theta[j])]``.
    Kept independent of the rotation path so the two can check each other.
    Raises ParameterError for a NaN or infinite vector entry, position or
    angle ``(q_pos[j] - k_pos[j]) * theta[j]``.
    """
    q = _as_vector(q, "q")
    k = _as_vector(k, "k")
    if q.size != schedule.d or k.size != schedule.d:
        raise DimensionError(
            f"q/k lengths ({q.size}, {k.size}) do not match schedule d={schedule.d}"
        )
    if not (np.isfinite(q).all() and np.isfinite(k).all()):
        raise ParameterError("vector entries must be finite, got a NaN or infinite entry")
    q_positions = _as_vector(q_positions, "q_positions")
    k_positions = _as_vector(k_positions, "k_positions")
    if q_positions.size != schedule.pairs or k_positions.size != schedule.pairs:
        raise DimensionError(
            f"expected {schedule.pairs} per-pair positions, got "
            f"{q_positions.size} and {k_positions.size}"
        )
    # a NaN or infinite position, or a difference that overflows, gives a non-finite angle
    with np.errstate(invalid="ignore", over="ignore"):
        angles = (q_positions - k_positions) * schedule.theta
    if not np.isfinite(angles).all():
        raise ParameterError("(q_pos - k_pos) * theta must be finite, got a NaN or infinite angle")
    qc = q[0::2] + 1j * q[1::2]
    kc = k[0::2] + 1j * k[1::2]
    phase = np.exp(1j * angles)
    return float(np.sum((qc * np.conj(kc) * phase).real))


def expected_self_score(delta, schedule: FrequencySchedule) -> float | np.ndarray:
    """Expected attention score of a vector against itself at position offset ``delta``.

    For ``x`` with independent zero-mean unit-variance entries,
    ``E[attention_score(x, x)] / d`` equals ``(2/d) * sum_j cos(delta[j] * theta[j])``,
    which this returns. Normalized so an all-zero ``delta`` gives exactly 1.

    ``delta`` has shape ``(..., d/2)``, one offset per channel pair in the
    last axis; the result has the leading shape, or is a ``float`` for 1-D.
    Raises ParameterError if an angle ``delta[j] * theta[j]`` is NaN or infinite.
    """
    delta = np.asarray(delta, dtype=np.float64)
    if delta.ndim == 0 or delta.shape[-1] != schedule.pairs:
        raise DimensionError(
            f"expected {schedule.pairs} per-pair deltas in the last axis, got shape {delta.shape}"
        )
    # cosine in place in this function's own product buffer, never in the caller's delta;
    # a NaN or infinite angle gives a NaN mean, so only the means are checked
    with np.errstate(invalid="ignore", over="ignore"):
        angles = delta * schedule.theta
        scores = np.cos(angles, out=angles).mean(axis=-1)
    if not np.isfinite(scores).all():
        raise ParameterError("delta * theta must be finite, got a NaN or infinite angle")
    return float(scores) if delta.ndim == 1 else scores
