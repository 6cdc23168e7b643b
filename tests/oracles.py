"""Independent reference implementations used to derive and check expected values.

Everything here is written directly from the defining formulas in plain
Python/cmath (numpy only where a reference must draw the package's random
substreams), deliberately not sharing code with the package, so tests can
cross-check the two paths against each other.
"""

import cmath
import itertools

import numpy as np


def theta_ref(j: int, d: int, base: float) -> float:
    return base ** (-2.0 * j / d)


def rotate_ref(x, angles):
    """Pairwise rotation via complex multiplication."""
    out = []
    for j, angle in enumerate(angles):
        z = complex(x[2 * j], x[2 * j + 1]) * cmath.exp(1j * angle)
        out.extend([z.real, z.imag])
    return out


def score_ref(q, q_positions, k, k_positions, d, base):
    """Attention score via per-pair complex products."""
    total = 0.0
    for j in range(d // 2):
        qc = complex(q[2 * j], q[2 * j + 1])
        kc = complex(k[2 * j], k[2 * j + 1])
        delta = q_positions[j] - k_positions[j]
        total += (qc * kc.conjugate() * cmath.exp(1j * delta * theta_ref(j, d, base))).real
    return total


def expected_score_ref(q_dims, k_dims, alloc, d, base):
    """Closed-form expected self-score via complex exponentials."""
    total = 0.0
    for j in range(d // 2):
        delta = q_dims[alloc[j]] - k_dims[alloc[j]]
        total += cmath.exp(1j * delta * theta_ref(j, d, base)).real
    return (2.0 / d) * total


def vrope_alloc_ref(d):
    return [j % 4 for j in range(d // 2)]


def rope3d_alloc_ref(d):
    pairs = d // 2
    third = pairs // 3
    sizes = (pairs - 2 * third, third, third)
    alloc = []
    for dim, size in enumerate(sizes):
        alloc.extend([dim] * size)
    return alloc


def vrope_position_ref(w, h, t, width, height, p_start):
    """Symmetric indices, center alignment, temporal offset, composed by hand."""
    u = (w + h, w - h, -w - h, -w + h)
    v = (
        u[0] + p_start,
        u[1] + height - 1 + p_start,
        u[2] + height + width - 2 + p_start,
        u[3] + width - 1 + p_start,
    )
    step = t * (height + width - 1)
    return tuple(vi + step for vi in v)


def scheme_position_ref(scheme, w, h, t, width, height, p_start):
    """Position vector of video cell ``(w, h, t)``, one formula per scheme."""
    if scheme == "rope1d":
        return (p_start + t * width * height + h * width + w,)
    if scheme == "rope2d":
        return (p_start + w, p_start + h)
    if scheme in ("rope3d", "rope_compact"):
        return (p_start + t, p_start + h, p_start + w)
    if scheme == "rope_share":
        return (p_start + 1 + t,)
    if scheme == "vrope":
        return vrope_position_ref(w, h, t, width, height, p_start)
    raise ValueError(f"no reference for scheme {scheme!r}")


def monte_carlo_heatmap_ref(q_angles, k_angles, seed, trials, d):
    """Monte-Carlo heatmap one trial at a time, the pair rotation written out.

    Trial ``r`` draws ``x`` from ``SeedSequence([seed, r])``, rotates it by
    ``q_angles`` (d/2,) and by every cell's ``k_angles`` (W, H, d/2), and adds
    the dot products over ``d``; the result is the mean over trials.
    """
    q_cos, q_sin = np.cos(q_angles), np.sin(q_angles)
    k_cos, k_sin = np.cos(k_angles), np.sin(k_angles)
    acc = np.zeros(k_angles.shape[:2])
    for trial in range(trials):
        x = np.random.default_rng(np.random.SeedSequence([seed, trial])).standard_normal(d)
        even, odd = x[0::2], x[1::2]
        rq_even = even * q_cos - odd * q_sin
        rq_odd = even * q_sin + odd * q_cos
        rk_even = even * k_cos - odd * k_sin
        rk_odd = even * k_sin + odd * k_cos
        acc += (rq_even * rk_even + rq_odd * rk_odd).sum(axis=2) / d
    return acc / trials


def first_line_difference(got: str, expected: str):
    """``None`` if the texts are equal, else the first differing line as
    ``(line number, got line, expected line)``, 1-based, with ``None`` past
    a text's end. Assert on this rather than on ``got == expected``: pytest's
    diff of two long texts can take minutes.
    """
    pairs = itertools.zip_longest(got.splitlines(keepends=True), expected.splitlines(keepends=True))
    return next(((n, *pair) for n, pair in enumerate(pairs, 1) if pair[0] != pair[1]), None)
