"""Executable invariant suite behind the ``selfcheck`` CLI subcommand.

Each check is a named zero-argument callable that raises on violation.
The suite covers the kernel identities, the structural properties of the
position schemes, layout continuation rules, and diagnostic determinism.
"""

from __future__ import annotations

import sys

import numpy as np

from .diagnostics import (
    TrialConfig,
    boundary_score_table,
    decay_curve,
    heatmap,
    monte_carlo_heatmap,
)
from .layout import (
    TextSegment,
    VideoSegment,
    boundary_gaps,
    build_layout,
    layout_csv,
    parse_layout_csv,
    parse_layout_spec,
)
from .rotary import attention_score, attention_score_oracle, build_frequency_schedule, rotate
from .schemes import (
    SCHEME_IDS,
    SchemeConfig,
    TokenCoordinate,
    VideoGrid,
    rotate_with_scheme,
    symmetric_indices,
    video_positions,
)


def check_frequency_schedule() -> None:
    schedule = build_frequency_schedule(10000.0, 64)
    assert schedule.theta[0] == 1.0
    assert np.all(np.diff(schedule.theta) < 0)
    assert np.all((schedule.theta > 0) & (schedule.theta <= 1))
    exact = build_frequency_schedule(4.0, 8)
    assert np.allclose(exact.theta, [1.0, 4 ** -0.25, 0.5, 4 ** -0.75], atol=0, rtol=1e-15)


def check_rotation_norm_preservation() -> None:
    rng = np.random.default_rng(101)
    for _ in range(200):
        d = int(rng.choice([2, 8, 64]))
        x = rng.standard_normal(d)
        angles = rng.uniform(-50, 50, d // 2)
        assert abs(np.linalg.norm(rotate(x, angles)) - np.linalg.norm(x)) < 1e-9


def check_shift_invariance() -> None:
    rng = np.random.default_rng(102)
    schedule = build_frequency_schedule(10000.0, 64)
    for _ in range(200):
        q, k = rng.standard_normal((2, 64))
        m, n = rng.uniform(0, 1000, 2)
        c = rng.uniform(-500, 500)
        base_score = attention_score(q, m * schedule.theta, k, n * schedule.theta)
        shifted = attention_score(q, (m + c) * schedule.theta, k, (n + c) * schedule.theta)
        assert abs(base_score - shifted) < 1e-9


def check_oracle_equivalence() -> None:
    rng = np.random.default_rng(103)
    for d in (2, 8, 64):
        schedule = build_frequency_schedule(10000.0, d)
        for _ in range(100):
            q, k = rng.standard_normal((2, d))
            qp = rng.uniform(0, 100, d // 2)
            kp = rng.uniform(0, 100, d // 2)
            direct = attention_score(q, qp * schedule.theta, k, kp * schedule.theta)
            oracle = attention_score_oracle(q, qp, k, kp, schedule)
            assert abs(direct - oracle) < 1e-10


def check_text_compatibility() -> None:
    rng = np.random.default_rng(104)
    for d in (8, 64):
        plain = SchemeConfig("rope1d", d=d)
        for scheme in ("rope3d", "vrope"):
            config = SchemeConfig(scheme, d=d)
            for _ in range(100):
                x = rng.standard_normal(d)
                m = int(rng.integers(0, 10000))
                expected = rotate_with_scheme(x, (m,), plain)
                got = rotate_with_scheme(x, (m,) * config.group_count, config)
                assert np.max(np.abs(expected - got)) < 1e-9


def check_symmetric_antisymmetry() -> None:
    for w in range(16):
        for h in range(16):
            u = symmetric_indices(TokenCoordinate(w, h, 0))
            assert u.u1 + u.u3 == 0 and u.u2 + u.u4 == 0


def check_symmetric_degeneration() -> None:
    for w in range(64):
        assert symmetric_indices(TokenCoordinate(w, 0, 0)) == (w, w, -w, -w)
    for h in range(64):
        assert symmetric_indices(TokenCoordinate(0, h, 0)) == (h, -h, -h, h)


def _all_small_grids():
    for width in range(1, 6):
        for height in range(1, 6):
            for frames in range(1, 6):
                yield VideoGrid(width, height, frames)


def check_vrope_structure() -> None:
    config = SchemeConfig("vrope", d=8)
    for grid in _all_small_grids():
        width, height = grid.width, grid.height
        step = height + width - 1
        t, h, w = np.indices((grid.frames, height, width))
        for p_start in (0, 7):
            v = video_positions(config, w, h, t, grid, p_start)  # (T, H, W, 4)
            lo = p_start + t[..., None] * step
            assert np.all(v.sum(axis=-1) == 4 * p_start + 2 * (height + width - 2) + 4 * t * step)
            assert np.all((lo <= v) & (v <= lo + height + width - 2))
            # the cell mirrored through the frame center swaps the diagonal pairs
            assert np.array_equal(v[:, ::-1, ::-1], v[..., [2, 3, 0, 1]])
            if width % 2 == 1 and height % 2 == 1:
                center = v[:, (height - 1) // 2, (width - 1) // 2]
                expected = p_start + (width + height - 2) // 2 + np.arange(grid.frames) * step
                assert np.all(center == expected[:, None])


def check_vrope_boundary_gap() -> None:
    config = SchemeConfig("vrope", d=8)
    for grid in _all_small_grids():
        layout = build_layout(
            [TextSegment(2), VideoSegment(grid), TextSegment(1)], config
        )
        (gap,) = boundary_gaps(layout)
        assert gap.per_dim == (1, 1, 1, 1)


def check_rope3d_gap_growth() -> None:
    config = SchemeConfig("rope3d", d=8)
    previous = None
    for frames in range(9, 65):
        grid = VideoGrid(8, 8, frames)
        layout = build_layout([VideoSegment(grid), TextSegment(1)], config)
        (gap,) = boundary_gaps(layout)
        assert gap.per_dim == (1, frames - 8 + 1, frames - 8 + 1)
        if previous is not None:
            assert gap.per_dim[1] > previous[1] and gap.per_dim[2] > previous[2]
        previous = gap.per_dim


def check_rope1d_bijection() -> None:
    config = SchemeConfig("rope1d", d=8)
    segments = [TextSegment(3), VideoSegment(VideoGrid(3, 2, 2)), TextSegment(2)]
    layout = build_layout(segments, config)
    positions = [tok.position[0] for tok in layout.tokens]
    assert positions == list(range(len(layout.tokens)))


def check_no_cross_modal_collision() -> None:
    pre = 3
    for scheme in ("rope1d", "rope_share", "vrope"):
        config = SchemeConfig(scheme, d=8)
        layout = build_layout(
            [TextSegment(pre), VideoSegment(VideoGrid(3, 2, 4)), TextSegment(1)], config
        )
        first_text_after = layout.tokens[-1].position
        for tok in layout.tokens:
            if tok.modality != "video":
                continue
            assert all(v >= pre for v in tok.position)
            assert all(v < w for v, w in zip(tok.position, first_text_after))


def check_decay_normalization() -> None:
    schedule = build_frequency_schedule(10000.0, 64)
    curve = decay_curve(schedule, 512)
    assert curve.values[0] == 1.0
    assert (curve.values[1:] < 1.0).all()


def check_rope_share_frame_constancy() -> None:
    config = SchemeConfig("rope_share", d=8)
    grid = VideoGrid(4, 3, 2)
    layout = build_layout([VideoSegment(grid), TextSegment(1)], config)
    for t in range(grid.frames):
        frame_positions = {
            tok.position for tok in layout.tokens if tok.coord is not None and tok.coord.t == t
        }
        assert len(frame_positions) == 1
        score = heatmap(config, grid, t, layout.tokens[-1].position)
        assert np.all(score.values == score.values[0, 0])


def check_rope3d_corner_bias() -> None:
    config = SchemeConfig("rope3d", d=64)
    grid = VideoGrid(8, 8, 16)
    layout = build_layout([VideoSegment(grid), TextSegment(1)], config)
    score = heatmap(config, grid, grid.frames - 1, layout.tokens[-1].position)
    assert score.values[7, 7] >= score.values[0, 0]
    assert np.all(score.values >= -1.0) and np.all(score.values <= 1.0)


def check_monte_carlo_agreement() -> None:
    config = SchemeConfig("vrope", d=64)
    grid = VideoGrid(4, 4, 2)
    layout = build_layout([VideoSegment(grid), TextSegment(1)], config)
    query = layout.tokens[-1].position
    exact = heatmap(config, grid, grid.frames - 1, query)
    trial_config = TrialConfig(seed=20240701, trials=10000)
    sampled = monte_carlo_heatmap(config, grid, grid.frames - 1, query, trial_config)
    assert np.max(np.abs(sampled.values - exact.values)) < 0.02
    again = monte_carlo_heatmap(config, grid, grid.frames - 1, query, trial_config)
    assert np.array_equal(sampled.values, again.values)


def check_layout_csv_round_trip() -> None:
    segments = parse_layout_spec("text:2,video:3x2x2,text:2,video:1x1x1,text:1")
    for scheme in SCHEME_IDS:
        layout = build_layout(segments, SchemeConfig(scheme, d=8))
        assert parse_layout_csv(layout_csv(layout)) == layout.tokens


def check_boundary_table_isotropy() -> None:
    # single-token video: every scalar-continuation scheme reduces to a gap-1 pair
    grid = VideoGrid(1, 1, 1)
    values = set()
    for scheme in ("rope1d", "vrope"):
        config = SchemeConfig(scheme, d=8)
        layout = build_layout([TextSegment(1), VideoSegment(grid), TextSegment(1)], config)
        rows = {row.target: row.mean_score for row in boundary_score_table(layout)}
        values.add(round(rows["video"], 15))
    assert len(values) == 1


CHECKS: tuple[tuple[str, object], ...] = (
    ("frequency_schedule", check_frequency_schedule),
    ("rotation_norm_preservation", check_rotation_norm_preservation),
    ("shift_invariance", check_shift_invariance),
    ("oracle_equivalence", check_oracle_equivalence),
    ("text_compatibility", check_text_compatibility),
    ("symmetric_antisymmetry", check_symmetric_antisymmetry),
    ("symmetric_degeneration", check_symmetric_degeneration),
    ("vrope_structure", check_vrope_structure),
    ("vrope_boundary_gap", check_vrope_boundary_gap),
    ("rope3d_gap_growth", check_rope3d_gap_growth),
    ("rope1d_bijection", check_rope1d_bijection),
    ("no_cross_modal_collision", check_no_cross_modal_collision),
    ("decay_normalization", check_decay_normalization),
    ("rope_share_frame_constancy", check_rope_share_frame_constancy),
    ("rope3d_corner_bias", check_rope3d_corner_bias),
    ("monte_carlo_agreement", check_monte_carlo_agreement),
    ("layout_csv_round_trip", check_layout_csv_round_trip),
    ("boundary_table_isotropy", check_boundary_table_isotropy),
)


def run_selfcheck(stream=None) -> int:
    """Run every invariant check; print one line per check. 0 if all pass, else 1.

    The checks are ``assert`` statements, which ``python -O`` strips. Under
    it no check runs: one FAIL line names the cause, and the result is 1.
    """
    stream = stream if stream is not None else sys.stdout
    if sys.flags.optimize:
        print(
            f"FAIL selfcheck: python -O (sys.flags.optimize={sys.flags.optimize}) strips the "
            "assert statements the checks are made of; run without -O or PYTHONOPTIMIZE",
            file=stream,
        )
        return 1
    failures = 0
    for name, check in CHECKS:
        try:
            check()
        except Exception as exc:  # noqa: BLE001 - any failure means a red check
            failures += 1
            print(f"FAIL {name}: {exc.__class__.__name__}: {exc}", file=stream)
        else:
            print(f"ok   {name}", file=stream)
    return 1 if failures else 0
