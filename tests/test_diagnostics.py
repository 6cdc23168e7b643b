"""Tests for heatmaps, decay curves, boundary score tables, and their CSV forms.

Expected numbers were derived with the pure-python complex oracle in
oracles.py before the implementation existed, then frozen here.
"""

import math
import tracemalloc

import numpy as np
import pytest

from ropelab import (
    CoordinateError,
    DimensionError,
    ParameterError,
    SCHEME_IDS,
    SchemeConfig,
    ScoreGrid,
    TextSegment,
    TokenCoordinate,
    TrialConfig,
    VideoGrid,
    VideoSegment,
    boundary_csv,
    boundary_csv_blocks,
    boundary_score_table,
    build_frequency_schedule,
    build_layout,
    decay_csv,
    decay_csv_blocks,
    decay_curve,
    expected_self_score,
    heatmap,
    heatmap_csv,
    heatmap_csv_blocks,
    heatmap_svg,
    monte_carlo_heatmap,
    pair_positions,
    scheme_position,
    softmax_grid,
)
from ropelab import csvblock, diagnostics, rotary
from ropelab.schemes import group_allocation, text_start_after_video, video_positions

from oracles import (
    expected_score_ref,
    first_line_difference,
    monte_carlo_heatmap_ref,
    vrope_alloc_ref,
    vrope_position_ref,
)

# vrope heatmap, W=H=3, T=1, d=8, base=10000, query=(5,5,5,5); values[w][h]
VROPE_3X3 = [
    [0.8097360437522181, 0.5668038449516294, 0.47178489975973914],
    [0.5815537409137186, 0.4912223815693808, 0.6260280660293468],
    [0.5011373006131523, 0.640777961991436, 0.8735961388480218],
]


class TestHeatmap:
    def test_vrope_3x3_frozen_grid(self):
        config = SchemeConfig("vrope", d=8)
        grid = heatmap(config, VideoGrid(3, 3, 1), 0, (5, 5, 5, 5))
        assert np.max(np.abs(grid.values - np.array(VROPE_3X3))) < 1e-12

    def test_center_and_corner_values(self):
        config = SchemeConfig("vrope", d=8)
        grid = heatmap(config, VideoGrid(3, 3, 1), 0, (5, 5, 5, 5))
        assert abs(grid.values[1, 1] - 0.49122) < 5e-6
        # corner deltas are (5, 3, 1, 3) against theta (1, 0.1, 0.01, 0.001)
        corner = 0.25 * (math.cos(5) + math.cos(0.3) + math.cos(0.01) + math.cos(0.003))
        assert abs(grid.values[0, 0] - corner) < 1e-12

    def test_matches_reference_oracle_everywhere(self):
        config = SchemeConfig("vrope", d=8)
        grid = heatmap(config, VideoGrid(3, 3, 1), 0, (5, 5, 5, 5))
        for w in range(3):
            for h in range(3):
                expected = expected_score_ref(
                    (5, 5, 5, 5),
                    vrope_position_ref(w, h, 0, 3, 3, 0),
                    vrope_alloc_ref(8),
                    8,
                    10000.0,
                )
                assert abs(grid.values[w, h] - expected) < 1e-12

    def test_rope_share_constant_per_frame(self):
        config = SchemeConfig("rope_share", d=8)
        grid = heatmap(config, VideoGrid(4, 3, 2), 1, (9,))
        assert np.all(grid.values == grid.values[0, 0])

    def test_values_within_unit_range(self):
        for scheme in SCHEME_IDS:
            config = SchemeConfig(scheme, d=8)
            query = (11,) * config.group_count
            grid = heatmap(config, VideoGrid(4, 4, 3), 2, query)
            assert np.all(grid.values >= -1.0) and np.all(grid.values <= 1.0)

    def test_rope3d_bottom_right_scores_higher(self):
        config = SchemeConfig("rope3d", d=64)
        video = VideoGrid(8, 8, 16)
        layout = build_layout([VideoSegment(video), TextSegment(1)], config)
        grid = heatmap(config, video, 15, layout.tokens[-1].position)
        assert grid.values[7, 7] > grid.values[0, 0]

    def test_query_group_mismatch(self):
        config = SchemeConfig("vrope", d=8)
        with pytest.raises(DimensionError):
            heatmap(config, VideoGrid(2, 2, 1), 0, (5, 5))

    def test_frame_out_of_range(self):
        config = SchemeConfig("vrope", d=8)
        with pytest.raises(CoordinateError):
            heatmap(config, VideoGrid(2, 2, 1), 1, (5, 5, 5, 5))

    @pytest.mark.parametrize("frame", [1.0, 0.5, np.float64(1.0), "1", None])
    def test_frame_must_be_an_integer(self, frame):
        config = SchemeConfig("vrope", d=8)
        video = VideoGrid(2, 2, 2)
        query = (5, 5, 5, 5)
        with pytest.raises(CoordinateError, match="integer"):
            heatmap(config, video, frame, query)
        assert heatmap(config, video, np.int64(1), query) == heatmap(config, video, 1, query)

    def test_frame_is_stored_as_a_python_int(self):
        config, video, query = SchemeConfig("vrope", d=8), VideoGrid(2, 2, 2), (5, 5, 5, 5)
        assert type(heatmap(config, video, np.int64(1), query).frame) is int
        trial_config = TrialConfig(seed=3, trials=2)
        assert type(monte_carlo_heatmap(config, video, np.int64(1), query, trial_config).frame) is int

    def test_frame_past_int64_where_positions_ignore_t(self):
        # rope2d's positions ignore t, so frame 2**64 scores as frame 0 does
        config = SchemeConfig("rope2d", d=8)
        long_video, short_video = VideoGrid(2, 2, 2**64 + 1), VideoGrid(2, 2, 1)
        query = text_start_after_video(config, long_video, 0)
        assert query == text_start_after_video(config, short_video, 0)
        far = heatmap(config, long_video, 2**64, query)
        assert np.array_equal(far.values, heatmap(config, short_video, 0, query).values)

    @pytest.mark.parametrize("scheme", SCHEME_IDS)
    @pytest.mark.parametrize("elements", [1, 4 * 5 * 12, rotary.BLOCK_ELEMENTS])
    def test_blocked_equals_whole_frame(self, scheme, elements, monkeypatch):
        # blocks of one column, of 4 of the 9 columns (5 cells of 12 pairs each), of all 9
        config = SchemeConfig(scheme, d=24)
        video = VideoGrid(9, 5, 3)
        query = (17,) * config.group_count
        w, h = np.arange(9)[:, None], np.arange(5)[None, :]
        cells = video_positions(config, w, h, 2, video, 0)[:, :, group_allocation(config)]
        expected = expected_self_score(pair_positions(query, config) - cells, config.schedule())
        monkeypatch.setattr(rotary, "BLOCK_ELEMENTS", elements)
        assert np.array_equal(heatmap(config, video, 2, query).values, expected)

    def test_peak_memory_is_the_values_and_one_block(self):
        config = SchemeConfig("vrope", d=64)
        video = VideoGrid(256, 256, 1)
        heatmap(config, VideoGrid(2, 2, 1), 0, (9,) * 4)  # imports and caches
        tracemalloc.start()
        try:
            grid = heatmap(config, video, 0, (300,) * 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.values.nbytes == 2**19
        # whole (W, H, d/2) positions, offsets and angles take the peak to about 50 MB
        assert peak < 8 * 2**20

    def test_frame_over_array_budget(self):
        config = SchemeConfig("vrope", d=8)
        with pytest.raises(ParameterError, match="budget"):
            heatmap(config, VideoGrid(10**6, 10**6, 1), 0, (5, 5, 5, 5))

    def test_grids_compare_by_value(self):
        config = SchemeConfig("vrope", d=8)
        video = VideoGrid(3, 2, 2)
        query = (5, 5, 5, 5)
        grid = heatmap(config, video, 0, query)
        assert grid == heatmap(config, video, 0, query)
        assert grid != heatmap(config, video, 1, query)
        assert grid != heatmap(config, video, 0, (6, 6, 6, 6))
        assert grid != heatmap(SchemeConfig("vrope", d=8, base=500.0), video, 0, query)
        assert grid != softmax_grid(grid)

    @pytest.mark.parametrize("query", [(2**53 + 1,), (-(2**53) - 1,), (10**20,), (float("nan"),)])
    def test_query_past_position_cap(self, query):
        config = SchemeConfig("rope1d", d=8)
        with pytest.raises(ParameterError, match="2\\*\\*53"):
            heatmap(config, VideoGrid(2, 2, 1), 0, query)
        with pytest.raises(ParameterError, match="2\\*\\*53"):
            monte_carlo_heatmap(config, VideoGrid(2, 2, 1), 0, query, TrialConfig(0, 1))


class TestDecayCurve:
    def test_d2_is_cosine(self):
        schedule = build_frequency_schedule(10000.0, 2)
        curve = decay_curve(schedule, 16)
        for delta, value in curve.points:
            assert abs(value - math.cos(delta)) < 1e-12

    def test_starts_at_exactly_one(self):
        for d in (2, 8, 64):
            curve = decay_curve(build_frequency_schedule(10000.0, d), 4)
            assert curve.points[0] == (0, 1.0)

    def test_d64_frozen_values(self):
        curve = decay_curve(build_frequency_schedule(10000.0, 64), 256)
        values = dict(curve.points)
        assert abs(values[1] - 0.9661509894255944) < 1e-12
        assert abs(values[256] - 0.3536833797226593) < 1e-12
        assert values[1] > values[256]

    def test_deltas_strictly_increasing(self):
        curve = decay_curve(build_frequency_schedule(10000.0, 8), 32)
        deltas = [delta for delta, _ in curve.points]
        assert deltas == list(range(33))

    def test_max_delta_validation(self):
        schedule = build_frequency_schedule(10000.0, 8)
        with pytest.raises(ParameterError):
            decay_curve(schedule, 0)

    @pytest.mark.parametrize("max_delta", [2.5, 2.0, np.float64(2.0), "2", None])
    def test_max_delta_must_be_an_integer(self, max_delta):
        schedule = build_frequency_schedule(10000.0, 8)
        with pytest.raises(ParameterError, match="integer"):
            decay_curve(schedule, max_delta)
        # a numpy integer is taken as a Python int, so max_delta + 1 cannot wrap in uint8
        assert decay_curve(schedule, np.uint8(255)) == decay_curve(schedule, 255)

    def test_max_delta_over_array_budget(self):
        schedule = build_frequency_schedule(10000.0, 8)
        with pytest.raises(ParameterError, match="budget"):
            decay_curve(schedule, 10**12)

    @pytest.mark.parametrize("d", [2, 64])
    def test_chunk_size_does_not_change_values(self, d, monkeypatch):
        schedule = build_frequency_schedule(10000.0, d)
        whole = decay_curve(schedule, 1000)
        for rows in (1, 7, 1000, 1001):
            monkeypatch.setattr(rotary, "BLOCK_ELEMENTS", rows * schedule.pairs)
            assert decay_curve(schedule, 1000) == whole

    def test_peak_memory_is_the_values_and_one_block(self):
        schedule = build_frequency_schedule(10000.0, 8192)
        decay_curve(schedule, 2)  # imports and caches
        tracemalloc.start()
        try:
            curve = decay_curve(schedule, 8000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert curve.values.nbytes == 8001 * 8
        # blocks of 4096 offsets of d/2 = 4096 angles each take the peak to about 128 MiB
        assert peak < 4 * 2**20

    def test_values_are_read_only_and_points_follow_them(self):
        curve = decay_curve(build_frequency_schedule(10000.0, 8), 32)
        assert curve.values.dtype == np.float64 and not curve.values.flags.writeable
        assert "points" not in curve.__dict__
        assert curve.points == tuple(enumerate(curve.values.tolist()))
        assert curve.points is curve.points  # built once, then cached
        assert curve != decay_curve(build_frequency_schedule(10000.0, 8), 31)
        assert curve != decay_curve(build_frequency_schedule(100.0, 8), 32)


class TestBoundaryScoreTable:
    def _table(self, scheme: str, video: VideoGrid, d: int = 64, pre: int = 8):
        config = SchemeConfig(scheme, d=d)
        layout = build_layout([TextSegment(pre), VideoSegment(video), TextSegment(1)], config)
        return {row.target: row.mean_score for row in boundary_score_table(layout)}

    def test_single_token_video_matches_rope1d(self):
        video = VideoGrid(1, 1, 1)
        vrope = self._table("vrope", video, d=8)
        rope1d = self._table("rope1d", video, d=8)
        assert abs(vrope["video"] - rope1d["video"]) < 1e-15
        # both reduce to a scalar gap of 1
        assert abs(vrope["video"] - 0.8838139928907182) < 1e-12

    def test_frozen_means_8x8x64(self):
        video = VideoGrid(8, 8, 64)
        vrope = self._table("vrope", video)
        rope3d = self._table("rope3d", video)
        assert abs(vrope["video"] - 0.28238208771410206) < 1e-9
        assert abs(vrope["text"] - 0.0035237425729473647) < 1e-9
        assert abs(rope3d["video"] - 0.5121359638032702) < 1e-9
        assert abs(rope3d["text"] - 0.41964485333122264) < 1e-9

    def test_means_invariant_to_prompt_length(self):
        video = VideoGrid(4, 4, 8)
        assert (
            self._table("vrope", video, pre=1)["video"]
            == pytest.approx(self._table("vrope", video, pre=16)["video"], abs=1e-12)
        )

    @pytest.mark.parametrize("scheme", SCHEME_IDS)
    def test_adjacent_text_scores_like_plain_distance_one(self, scheme):
        # isotropy: between text tokens every channel pair sees the scalar delta
        config = SchemeConfig(scheme, d=8)
        schedule = config.schedule()
        m_pairs = pair_positions((7,) * config.group_count, config)
        n_pairs = pair_positions((8,) * config.group_count, config)
        score = float(np.mean(np.cos((n_pairs - m_pairs) * schedule.theta)))
        assert abs(score - expected_self_score(np.ones(4), schedule)) < 1e-15

    def test_no_boundary_gives_empty_table(self):
        config = SchemeConfig("vrope", d=8)
        assert boundary_score_table(build_layout([TextSegment(3)], config)) == ()
        layout = build_layout([TextSegment(1), VideoSegment(VideoGrid(2, 2, 1))], config)
        assert boundary_score_table(layout) == ()

    def test_no_leading_text_omits_text_row(self):
        config = SchemeConfig("vrope", d=8)
        layout = build_layout([VideoSegment(VideoGrid(2, 2, 1)), TextSegment(1)], config)
        rows = boundary_score_table(layout)
        assert [row.target for row in rows] == ["video"]

    def test_row_metadata(self):
        video = VideoGrid(2, 2, 2)
        config = SchemeConfig("rope_share", d=8)
        layout = build_layout([TextSegment(2), VideoSegment(video), TextSegment(1)], config)
        rows = boundary_score_table(layout)
        assert [(row.scheme_id, row.target) for row in rows] == [
            ("rope_share", "video"),
            ("rope_share", "text"),
        ]


def _mc_blocks(cells: int, d: int) -> tuple[int, int]:
    """Trials per key block and per draw of monte_carlo_heatmap over ``cells`` cells."""
    chunk = max(1, rotary.BLOCK_ELEMENTS // (cells * d))
    return chunk, chunk * max(1, rotary.BLOCK_ELEMENTS // (chunk * d))


class TestMonteCarloHeatmap:
    def test_agrees_with_closed_form(self):
        config = SchemeConfig("vrope", d=64)
        video = VideoGrid(4, 4, 2)
        layout = build_layout([VideoSegment(video), TextSegment(1)], config)
        query = layout.tokens[-1].position
        exact = heatmap(config, video, 1, query)
        sampled = monte_carlo_heatmap(
            config, video, 1, query, TrialConfig(seed=7, trials=10000)
        )
        assert np.max(np.abs(sampled.values - exact.values)) < 0.02

    def test_zero_delta_cell_converges_to_one(self):
        config = SchemeConfig("rope1d", d=64)
        video = VideoGrid(2, 2, 1)
        sampled = monte_carlo_heatmap(
            config, video, 0, (3,), TrialConfig(seed=21, trials=10000)
        )
        # cell (1, 1) sits at raster position 3, exactly the query position
        assert abs(sampled.values[1, 1] - 1.0) < 0.02
        exact = heatmap(config, video, 0, (3,))
        assert exact.values[1, 1] == 1.0

    def test_bit_reproducible(self):
        config = SchemeConfig("rope3d", d=8)
        video = VideoGrid(3, 2, 2)
        trial_config = TrialConfig(seed=99, trials=64)
        first = monte_carlo_heatmap(config, video, 0, (4, 4, 4), trial_config)
        second = monte_carlo_heatmap(config, video, 0, (4, 4, 4), trial_config)
        assert np.array_equal(first.values, second.values)

    def test_single_trial_deterministic(self):
        config = SchemeConfig("rope1d", d=8)
        video = VideoGrid(2, 2, 1)
        trial_config = TrialConfig(seed=5, trials=1)
        first = monte_carlo_heatmap(config, video, 0, (7,), trial_config)
        second = monte_carlo_heatmap(config, video, 0, (7,), trial_config)
        assert np.array_equal(first.values, second.values)

    @pytest.mark.parametrize("frame", [0.5, 1.0, np.float64(1.0), "1", None])
    def test_frame_must_be_an_integer(self, frame):
        config = SchemeConfig("rope3d", d=8)
        video = VideoGrid(3, 2, 2)
        trial_config = TrialConfig(seed=3, trials=8)
        with pytest.raises(CoordinateError, match="integer"):
            monte_carlo_heatmap(config, video, frame, (4, 4, 4), trial_config)
        sampled = monte_carlo_heatmap(config, video, np.int32(1), (4, 4, 4), trial_config)
        assert sampled == monte_carlo_heatmap(config, video, 1, (4, 4, 4), trial_config)

    def test_trial_config_validation(self):
        with pytest.raises(ParameterError):
            TrialConfig(seed=0, trials=0)
        with pytest.raises(ParameterError):
            TrialConfig(seed=-1, trials=1)
        # trial indices must fit in 64 unsigned bits: 2**64 trials is the most
        assert TrialConfig(seed=0, trials=2**64).trials == 2**64
        with pytest.raises(ParameterError, match="trials"):
            TrialConfig(seed=0, trials=2**64 + 1)
        for seed, trials in ((1.5, 3), (1.0, 3), ("1", 3), (0, 2.5), (0, 3.0), (0, None)):
            with pytest.raises(ParameterError, match="integer"):
                TrialConfig(seed=seed, trials=trials)
        assert TrialConfig(seed=np.uint64(2**64 - 1), trials=np.int64(3)).trials == 3

    @pytest.mark.parametrize("offset", [None, -1, 0, 1, "past_draw"])
    @pytest.mark.parametrize("scheme", SCHEME_IDS)
    def test_matches_per_trial_reference(self, scheme, offset):
        # 8x8 frame, d=64: one block holds rotary.BLOCK_ELEMENTS // 4096 trials;
        # "past_draw" spans two draws and ends 5 trials into a block
        config = SchemeConfig(scheme, d=64)
        video = VideoGrid(8, 8, 2)
        chunk, draw = _mc_blocks(video.tokens_per_frame, 64)
        if offset is None:
            trials = 1
        elif offset == "past_draw":
            trials = draw + chunk + 5
        else:
            trials = chunk + offset
        query = build_layout([VideoSegment(video), TextSegment(1)], config).tokens[-1].position
        got = monte_carlo_heatmap(config, video, 1, query, TrialConfig(seed=3, trials=trials))
        schedule = config.schedule()
        k_angles = np.array([
            [pair_positions(scheme_position(config, TokenCoordinate(w, h, 1), video, 0), config)
             for h in range(8)]
            for w in range(8)
        ]) * schedule.theta
        q_angles = pair_positions(query, config) * schedule.theta
        expected = monte_carlo_heatmap_ref(q_angles, k_angles, 3, trials, 64)
        assert np.max(np.abs(got.values - expected)) <= 1e-12

    # one draw of 2 blocks and 5 trials, or two draws, the second ending 5 trials into a block
    @pytest.mark.parametrize(
        "seed,draws",
        [
            pytest.param(7, 1, id="7"),
            pytest.param(2**32, 1, id="4294967296"),
            pytest.param(2**64 - 1, 1, id="18446744073709551615"),
            pytest.param(7, 2, id="7-two_draws"),
            pytest.param(2**64 - 1, 2, id="18446744073709551615-two_draws"),
        ],
    )
    def test_bit_identical_to_per_trial_generators(self, seed, draws):
        # the same blocks, rotate calls and einsum, with one default_rng per trial
        config = SchemeConfig("vrope", d=64)
        video = VideoGrid(8, 8, 2)
        chunk, draw = _mc_blocks(video.tokens_per_frame, 64)
        trials = 2 * chunk + 5 if draws == 1 else draw + chunk + 5
        query = build_layout([VideoSegment(video), TextSegment(1)], config).tokens[-1].position
        got = monte_carlo_heatmap(config, video, 1, query, TrialConfig(seed=seed, trials=trials))
        schedule = config.schedule()
        w, h = np.arange(8)[:, None], np.arange(8)[None, :]
        keys = video_positions(config, w, h, 1, video, 0)[:, :, group_allocation(config)]
        q_angles = (pair_positions(query, config) - keys[0, 0]) * schedule.theta
        k_angles = (keys - keys[0, 0]) * schedule.theta
        acc = np.zeros((8, 8))
        for start in range(0, trials, chunk):
            x = np.stack([
                np.random.default_rng(np.random.SeedSequence([seed, r])).standard_normal(64)
                for r in range(start, min(start + chunk, trials))
            ])
            rq = rotary.rotate(x, q_angles)
            rk = rotary.rotate(x[:, None, None, :], k_angles)
            acc += np.einsum("nwhd,nd->wh", rk, rq) / 64
        assert np.array_equal(got.values, acc / trials)

    @pytest.mark.parametrize("scheme", SCHEME_IDS)
    def test_mc_chunk_size_does_not_change_values(self, scheme, monkeypatch):
        config = SchemeConfig(scheme, d=16)
        video = VideoGrid(3, 2, 2)
        trial_config = TrialConfig(seed=11, trials=50)
        whole = monte_carlo_heatmap(config, video, 1, (9,) * config.group_count, trial_config)
        for elements in (1, 7 * 6 * 16):
            monkeypatch.setattr(rotary, "BLOCK_ELEMENTS", elements)
            chunked = monte_carlo_heatmap(
                config, video, 1, (9,) * config.group_count, trial_config
            )
            assert np.max(np.abs(chunked.values - whole.values)) <= 1e-12

    # the shipped blocks; a draw of one block; one trial's keys (8*8*64) over the block
    @pytest.mark.parametrize("elements,width,d", [(None, 8, 64), (2**8, 1, 2), (2**10, 8, 64)])
    def test_working_set_bounded_by_block(self, elements, width, d, monkeypatch):
        if elements is not None:
            monkeypatch.setattr(rotary, "BLOCK_ELEMENTS", elements)
        limit = max(rotary.BLOCK_ELEMENTS, width * width * d)
        shapes = {"rotate": [], "words": [], "normals": []}

        def recorded(name, func):
            def wrapper(*args):
                out = func(*args)
                shapes[name].append(out.shape)
                return out

            return wrapper

        # the loop rotates through rotary.rotate's kernel, not through rotate itself
        monkeypatch.setattr(diagnostics, "rotate_into", recorded("rotate", rotary.rotate_into))
        for name in ("words", "normals"):
            func = getattr(diagnostics, f"_trial_{name}")
            monkeypatch.setattr(diagnostics, f"_trial_{name}", recorded(name, func))
        chunk, draw = _mc_blocks(width * width, d)
        trials = 2 * draw + chunk + 5
        config = SchemeConfig("rope1d", d=d)
        monte_carlo_heatmap(
            config, VideoGrid(width, width, 1), 0, (3,), TrialConfig(seed=1, trials=trials)
        )
        sizes = {name: [math.prod(shape) for shape in shapes[name]] for name in shapes}
        assert max(sizes["rotate"]) <= limit and max(sizes["normals"]) <= limit
        # one _trial_words call per draw; every trial hashed once
        rows = [shape[0] for shape in shapes["words"]]
        assert rows == [min(draw, trials - first) for first in range(0, trials, draw)]
        # one _trial_normals call per block of at most chunk trials, in every draw
        blocks = [min(chunk, n - start) for n in rows for start in range(0, n, chunk)]
        assert shapes["normals"] == [(n, d) for n in blocks]
        # every trial drawn once, its query and keys rotated once
        assert sum(sizes["normals"]) == trials * d
        assert sum(sizes["rotate"]) == trials * d * (1 + width * width)

    # 16-trial blocks; 1024-value blocks of 16 trials at 2x2, d=16; one-trial blocks of 8x8 cells
    @pytest.mark.parametrize("elements,width,d", [(None, 8, 64), (2**10, 2, 16), (2**10, 8, 64)])
    def test_blocks_reuse_one_output_and_one_block_scratch(self, elements, width, d, monkeypatch):
        if elements is not None:
            monkeypatch.setattr(rotary, "BLOCK_ELEMENTS", elements)
        calls = []

        def recorded(x, cos2, sin2, out, scratch):
            calls.append((out, scratch))
            return rotary.rotate_into(x, cos2, sin2, out, scratch)

        monkeypatch.setattr(diagnostics, "rotate_into", recorded)
        chunk, draw = _mc_blocks(width * width, d)
        trials = draw + chunk + 5  # two draws, the last block short
        config = SchemeConfig("rope1d", d=d)
        monte_carlo_heatmap(
            config, VideoGrid(width, width, 1), 0, (3,), TrialConfig(seed=1, trials=trials)
        )
        # per block, the query's rotation then the keys'
        queries, keys = calls[0::2], calls[1::2]
        assert len(queries) == len(keys) == draw // chunk + -(-(chunk + 5) // chunk)
        assert all(out.shape[1:] == (width, width, d) for out, _ in keys)
        scratch = keys[0][1]
        assert scratch.size == chunk * width * width * d
        for rotated in (queries, keys):
            assert all(np.shares_memory(out, rotated[0][0]) for out, _ in rotated)
        assert all(s is scratch for _, s in calls)

    def test_working_set_is_one_draw_and_one_block(self, monkeypatch):
        config = SchemeConfig("vrope", d=64)
        video = VideoGrid(8, 8, 1)
        monte_carlo_heatmap(config, video, 0, (9,) * 4, TrialConfig(seed=1, trials=1))  # imports
        blocks, trial_normals = [], diagnostics._trial_normals

        def recorded(*args):
            blocks.append(trial_normals(*args))
            return blocks[-1]

        monkeypatch.setattr(diagnostics, "_trial_normals", recorded)
        tracemalloc.start()
        try:
            monte_carlo_heatmap(config, video, 0, (9,) * 4, TrialConfig(seed=1, trials=3000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 188 blocks of 16 trials, all drawn into one buffer; a buffer of a
        # whole 1024-trial draw peaks at 1.56 MiB, a new array per draw at 2.0 MiB
        assert len(blocks) == -(-3000 // 16)
        assert all(np.shares_memory(normals, blocks[0]) for normals in blocks)
        assert peak < 1.45 * 2**20

    def test_far_frame_matches_near_frame(self):
        # the same last frame 2e15 positions into the video: rotating by offsets
        # from the frame's cell (0, 0) keeps the angles as small as at 1000 frames
        config = SchemeConfig("rope1d", d=8)
        trial_config = TrialConfig(seed=1, trials=4000)
        values = []
        for frames in (1000, 2 * 10**15):
            video = VideoGrid(2, 2, frames)
            query = text_start_after_video(config, video, 0)
            values.append(
                monte_carlo_heatmap(config, video, frames - 1, query, trial_config).values
            )
        assert np.max(np.abs(values[1] - values[0])) <= 1e-12

    def test_key_batch_over_array_budget(self, monkeypatch):
        # the 4x4 frame's angles (4*4*4 = 64 values) fit; one trial's keys (4*4*8 = 128) do not
        monkeypatch.setattr(rotary, "MAX_ARRAY_ELEMENTS", 100)
        config = SchemeConfig("vrope", d=8)
        video = VideoGrid(4, 4, 1)
        heatmap(config, video, 0, (5, 5, 5, 5))
        with pytest.raises(ParameterError, match="budget"):
            monte_carlo_heatmap(
                config, video, 0, (5, 5, 5, 5), TrialConfig(seed=0, trials=1)
            )

    def test_over_budget_frame_is_refused_before_allocating(self, monkeypatch):
        # W*H*d/2 fits the budget, so the closed form scores the frame; one trial's W*H*d keys do not
        monkeypatch.setattr(rotary, "MAX_ARRAY_ELEMENTS", 64 * 64 * 32)
        config = SchemeConfig("vrope", d=64)
        video = VideoGrid(64, 64, 1)
        heatmap(config, video, 0, (5, 5, 5, 5))
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match="budget"):
                monte_carlo_heatmap(config, video, 0, (5, 5, 5, 5), TrialConfig(seed=0, trials=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the frame's angles alone would be 1 MiB
        assert peak < 0.25 * 2**20


class TestTrialNormals:
    @pytest.mark.parametrize("start,stop", [(0, 1), (0, 257), (9990, 10000), (2**32 - 2, 2**32 + 2)])
    @pytest.mark.parametrize("seed", [0, 1, 20240701, 2**32 - 1, 2**32, 2**64 - 1])
    def test_matches_numpy_seeding(self, seed, start, stop):
        for d in (2, 8, 64):
            expected = np.stack([
                np.random.default_rng(np.random.SeedSequence([seed, r])).standard_normal(d)
                for r in range(start, stop)
            ])
            words = diagnostics._trial_words(seed, start, stop)
            normals = diagnostics._trial_normals(words, np.empty((stop - start, d)))
            assert np.array_equal(normals, expected)


class TestSoftmaxGrid:
    def test_sums_to_one_and_preserves_order(self):
        config = SchemeConfig("vrope", d=8)
        grid = heatmap(config, VideoGrid(3, 3, 1), 0, (5, 5, 5, 5))
        soft = softmax_grid(grid)
        assert abs(soft.values.sum() - 1.0) < 1e-12
        assert np.all(soft.values > 0)
        assert (np.argsort(soft.values, axis=None) == np.argsort(grid.values, axis=None)).all()


class TestScoreGridValues:
    @pytest.mark.parametrize(
        "values",
        [
            np.full((1, 1), np.nan),  # heatmap_svg cast the NaN to a gray, with a RuntimeWarning
            np.array([[0.5, np.inf]]),
            np.zeros(3),  # heatmap_svg raised a raw IndexError
            np.zeros((0, 2)),
            np.zeros((2, 2), dtype=np.float32),
            [[0.5]],
        ],
    )
    def test_values_must_be_a_finite_2d_float64_array(self, values):
        with pytest.raises(ParameterError, match="score grid values"):
            ScoreGrid(values, SchemeConfig("vrope", d=8), (0, 0, 0, 0), 0)


class TestCsvFormats:
    def test_heatmap_csv(self):
        config = SchemeConfig("rope_share", d=8)
        grid = heatmap(config, VideoGrid(2, 2, 1), 0, (3,))
        text = heatmap_csv(grid)
        lines = text.splitlines()
        assert lines[0] == "w,h,value"
        assert len(lines) == 5
        assert lines[1].startswith("0,0,") and lines[2].startswith("1,0,")
        value = lines[1].split(",")[2]
        assert len(value.split(".")[1]) == 6

    @pytest.mark.parametrize("rows", [1, 7, 8192])
    def test_heatmap_csv_matches_per_row_reference(self, rows, monkeypatch):
        config = SchemeConfig("rope3d", d=8)
        grid = heatmap(config, VideoGrid(5, 3, 1), 0, (4, 4, 4))
        expected = "w,h,value\n" + "".join(
            f"{w},{h},{grid.values[w, h]:.6f}\n" for h in range(3) for w in range(5)
        )
        monkeypatch.setattr(csvblock, "BLOCK_ROWS", rows)
        assert heatmap_csv(grid) == expected
        # a block per BLOCK_ROWS cells, the first with the header
        blocks = list(heatmap_csv_blocks(grid))
        assert "".join(blocks) == expected and len(blocks) == -(-15 // rows)

    @pytest.mark.parametrize("writer", [heatmap_csv, heatmap_svg])
    def test_cells_must_be_a_step_one_range_inside_the_grid(self, writer):
        grid = heatmap(SchemeConfig("rope_share", d=8), VideoGrid(2, 2, 1), 0, (3,))
        # negative coordinates were written, the step was ignored, and a range
        # past the grid raised a raw IndexError
        for cells in (range(-3, 2), range(0, 4, 2), range(0, 100)):
            with pytest.raises(CoordinateError, match="step-1 range"):
                writer(grid, cells)
        assert writer(grid, range(0, 1)) + writer(grid, range(1, 1)) + writer(grid, range(1, 4)) == writer(grid)

    @pytest.mark.parametrize("rows", [1, 7, 1001])
    def test_decay_csv_block_size_does_not_change_bytes(self, rows, monkeypatch):
        curve = decay_curve(build_frequency_schedule(10000.0, 64), 1000)
        lines = [f"{delta},{value:.6f}\n" for delta, value in curve.points]
        monkeypatch.setattr(csvblock, "BLOCK_ROWS", rows)
        assert first_line_difference(decay_csv(curve), "delta,value\n" + "".join(lines)) is None

    @pytest.mark.parametrize("rows", [1, 7, 4096])
    def test_decay_csv_is_the_join_of_its_blocks(self, rows, monkeypatch):
        curve = decay_curve(build_frequency_schedule(10000.0, 64), 5000)
        lines = [f"{delta},{value:.6f}\n" for delta, value in curve.points]
        expected = "delta,value\n" + "".join(lines)
        monkeypatch.setattr(csvblock, "BLOCK_ROWS", rows)
        # the header, then a block per BLOCK_ROWS offsets
        blocks = list(decay_csv_blocks(curve))
        assert decay_csv(curve) == "".join(blocks) == expected
        assert len(blocks) == 1 + -(-5001 // rows)

    @pytest.mark.parametrize("rows", [1, 7, 4096])
    def test_boundary_csv_is_the_join_of_its_blocks(self, rows, monkeypatch):
        segments = [TextSegment(8), VideoSegment(VideoGrid(3, 2, 4)), TextSegment(1)]
        table = [
            row
            for scheme in SCHEME_IDS
            for row in boundary_score_table(build_layout(segments, SchemeConfig(scheme, d=8)))
        ]
        assert len(table) == 2 * len(SCHEME_IDS)
        expected = "scheme,target,mean_score\n" + "".join(
            f"{row.scheme_id},{row.target},{row.mean_score:.6f}\n" for row in table
        )
        monkeypatch.setattr(csvblock, "BLOCK_ROWS", rows)
        blocks = list(boundary_csv_blocks(table))
        assert boundary_csv(table) == boundary_csv(iter(table)) == "".join(blocks) == expected
        assert len(blocks) == 1 + -(-len(table) // rows)
        assert "".join(boundary_csv_blocks(())) == "scheme,target,mean_score\n"

    def test_decay_csv_frozen(self):
        curve = decay_curve(build_frequency_schedule(10000.0, 2), 3)
        assert decay_csv(curve) == (
            "delta,value\n0,1.000000\n1,0.540302\n2,-0.416147\n3,-0.989992\n"
        )

    def test_boundary_csv(self):
        config = SchemeConfig("vrope", d=8)
        layout = build_layout(
            [TextSegment(1), VideoSegment(VideoGrid(2, 2, 1)), TextSegment(1)], config
        )
        text = boundary_csv(boundary_score_table(layout))
        lines = text.splitlines()
        assert lines[0] == "scheme,target,mean_score"
        assert lines[1].startswith("vrope,video,")
        assert lines[2].startswith("vrope,text,")
        assert all("\r" not in line for line in lines)
