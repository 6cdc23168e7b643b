"""Rotary math kernel: frequency schedules, pair rotations, attention scores.

Embedding vectors are plain 1-D float arrays of even length ``d``, read as
``d/2`` adjacent pairs ``(x[2j], x[2j+1])``. Pair ``j`` rotates in its own
plane by an angle the caller supplies (typically ``position * theta[j]``).
All math is double precision; every function is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError


@dataclass(frozen=True)
class FrequencySchedule:
    """Per-channel-pair rotation frequencies for a head of dimension ``d``.

    ``theta[j] = base ** (-2j/d)`` for ``j = 0 .. d/2 - 1``; ``theta[0]`` is
    exactly 1 and the sequence is strictly decreasing for ``base > 1``.
    """

    base: float
    d: int
    theta: np.ndarray

    @property
    def pairs(self) -> int:
        return self.d // 2


def check_head_params(d: int, base: float) -> None:
    """Validate a head dimension and frequency base.

    Raises:
        DimensionError: if ``d`` is odd or smaller than 2.
        ParameterError: if ``base`` is not finite or not strictly positive.
    """
    if d < 2 or d % 2 != 0:
        raise DimensionError(f"head dimension must be an even integer >= 2, got {d}")
    if not (math.isfinite(base) and base > 0):
        raise ParameterError(f"base must be finite and > 0, got {base}")


def build_frequency_schedule(base: float, d: int) -> FrequencySchedule:
    """Build the rotation-frequency schedule for head dimension ``d``.

    Raises:
        DimensionError: if ``d`` is odd or smaller than 2.
        ParameterError: if ``base`` is not finite or not strictly positive.
    """
    check_head_params(d, base)
    j = np.arange(d // 2, dtype=np.float64)
    theta = float(base) ** (-2.0 * j / d)
    theta.setflags(write=False)
    return FrequencySchedule(base=float(base), d=int(d), theta=theta)


def _as_vector(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise DimensionError(f"{name} must be 1-D, got shape {x.shape}")
    return x


def rotate(x, angles) -> np.ndarray:
    """Rotate each adjacent pair of ``x`` by the matching angle.

    Pair ``(a, b)`` becomes ``(a cos(phi) - b sin(phi), a sin(phi) + b cos(phi))``.
    Preserves the Euclidean norm of every pair.
    """
    x = _as_vector(x, "x")
    angles = _as_vector(angles, "angles")
    if x.size % 2 != 0:
        raise DimensionError(f"vector length must be even, got {x.size}")
    if angles.size != x.size // 2:
        raise DimensionError(
            f"expected {x.size // 2} angles for a length-{x.size} vector, got {angles.size}"
        )
    cos, sin = np.cos(angles), np.sin(angles)
    even, odd = x[0::2], x[1::2]
    out = np.empty_like(x)
    out[0::2] = even * cos - odd * sin
    out[1::2] = even * sin + odd * cos
    return out


def attention_score(q, q_angles, k, k_angles) -> float:
    """Unnormalized dot-product score between a rotated query and key.

    Depends only on the per-pair angle differences: shifting both angle
    vectors by a common offset leaves the score unchanged.
    """
    rq = rotate(q, q_angles)
    rk = rotate(k, k_angles)
    if rq.size != rk.size:
        raise DimensionError(f"q and k lengths differ: {rq.size} vs {rk.size}")
    return float(np.dot(rq, rk))


def attention_score_oracle(q, q_positions, k, k_positions, schedule: FrequencySchedule) -> float:
    """Brute-force reference for :func:`attention_score` via complex arithmetic.

    Treats pair ``j`` as the complex number ``x[2j] + i x[2j+1]`` and sums
    ``Re[q_j * conj(k_j) * exp(i * (q_pos[j] - k_pos[j]) * theta[j])]``.
    Kept independent of the rotation path so the two can check each other.
    """
    q = _as_vector(q, "q")
    k = _as_vector(k, "k")
    if q.size != schedule.d or k.size != schedule.d:
        raise DimensionError(
            f"q/k lengths ({q.size}, {k.size}) do not match schedule d={schedule.d}"
        )
    q_positions = _as_vector(q_positions, "q_positions")
    k_positions = _as_vector(k_positions, "k_positions")
    if q_positions.size != schedule.pairs or k_positions.size != schedule.pairs:
        raise DimensionError(
            f"expected {schedule.pairs} per-pair positions, got "
            f"{q_positions.size} and {k_positions.size}"
        )
    qc = q[0::2] + 1j * q[1::2]
    kc = k[0::2] + 1j * k[1::2]
    phase = np.exp(1j * (q_positions - k_positions) * schedule.theta)
    return float(np.sum((qc * np.conj(kc) * phase).real))


def expected_self_score(delta, schedule: FrequencySchedule) -> float:
    """Expected attention score of a vector against itself at position offset ``delta``.

    For ``x`` with independent zero-mean unit-variance entries,
    ``E[attention_score(x, x)] / d`` equals ``(2/d) * sum_j cos(delta[j] * theta[j])``,
    which this returns. Normalized so an all-zero ``delta`` gives exactly 1.
    """
    delta = _as_vector(delta, "delta")
    if delta.size != schedule.pairs:
        raise DimensionError(
            f"expected {schedule.pairs} per-pair deltas, got {delta.size}"
        )
    return float(np.mean(np.cos(delta * schedule.theta)))
