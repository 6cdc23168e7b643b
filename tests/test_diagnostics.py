"""Tests for heatmaps, decay curves, boundary score tables, and their CSV forms.

Expected numbers were derived with the pure-python complex oracle in
oracles.py before the implementation existed, then frozen here.
"""

import math

import numpy as np
import pytest

from ropelab import (
    CoordinateError,
    DimensionError,
    ParameterError,
    SCHEME_IDS,
    SchemeConfig,
    TextSegment,
    TokenCoordinate,
    TrialConfig,
    VideoGrid,
    VideoSegment,
    boundary_csv,
    boundary_score_table,
    build_frequency_schedule,
    build_layout,
    decay_csv,
    decay_curve,
    expected_self_score,
    heatmap,
    heatmap_csv,
    monte_carlo_heatmap,
    pair_positions,
    scheme_position,
    softmax_grid,
)
from ropelab import diagnostics, rotary
from ropelab.schemes import text_start_after_video

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

    def test_max_delta_over_array_budget(self):
        schedule = build_frequency_schedule(10000.0, 8)
        with pytest.raises(ParameterError, match="budget"):
            decay_curve(schedule, 10**12)

    @pytest.mark.parametrize("d", [2, 64])
    def test_chunk_size_does_not_change_values(self, d, monkeypatch):
        schedule = build_frequency_schedule(10000.0, d)
        whole = decay_curve(schedule, 1000)
        for rows in (1, 7, 1000, 1001):
            monkeypatch.setattr(diagnostics, "DECAY_CHUNK_ROWS", rows)
            assert decay_curve(schedule, 1000) == whole

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
    chunk = max(1, diagnostics.MC_CHUNK_ELEMENTS // (cells * d))
    return chunk, chunk * max(1, diagnostics.MC_CHUNK_ELEMENTS // (chunk * d))


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
        # 8x8 frame, d=64: one block holds MC_CHUNK_ELEMENTS // 4096 trials;
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
        keys = diagnostics._frame_pair_positions(config, video, 1)
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
            monkeypatch.setattr(diagnostics, "MC_CHUNK_ELEMENTS", elements)
            chunked = monte_carlo_heatmap(
                config, video, 1, (9,) * config.group_count, trial_config
            )
            assert np.max(np.abs(chunked.values - whole.values)) <= 1e-12

    # the shipped blocks; a draw of one block; one trial's keys (8*8*64) over the block
    @pytest.mark.parametrize("elements,width,d", [(None, 8, 64), (2**8, 1, 2), (2**10, 8, 64)])
    def test_working_set_bounded_by_block(self, elements, width, d, monkeypatch):
        if elements is not None:
            monkeypatch.setattr(diagnostics, "MC_CHUNK_ELEMENTS", elements)
        limit = max(diagnostics.MC_CHUNK_ELEMENTS, width * width * d)
        sizes = {"rotate": [], "draw": []}

        def recorded(name, func):
            def wrapper(*args):
                out = func(*args)
                sizes[name].append(out.size)
                return out

            return wrapper

        # the loop rotates through rotary.rotate's kernel, not through rotate itself
        monkeypatch.setattr(diagnostics, "rotate_into", recorded("rotate", rotary.rotate_into))
        monkeypatch.setattr(
            diagnostics, "_trial_normals", recorded("draw", diagnostics._trial_normals)
        )
        chunk, draw = _mc_blocks(width * width, d)
        trials = 2 * draw + chunk + 5
        config = SchemeConfig("rope1d", d=d)
        monte_carlo_heatmap(
            config, VideoGrid(width, width, 1), 0, (3,), TrialConfig(seed=1, trials=trials)
        )
        assert max(sizes["rotate"]) <= limit and max(sizes["draw"]) <= limit
        # one _trial_normals call per draw; every trial drawn once, its query and keys rotated once
        assert len(sizes["draw"]) == -(-trials // draw) and sum(sizes["draw"]) == trials * d
        assert sum(sizes["rotate"]) == trials * d * (1 + width * width)

    # 16-trial blocks; 1024-value blocks of 16 trials at 2x2, d=16; one-trial blocks of 8x8 cells
    @pytest.mark.parametrize("elements,width,d", [(None, 8, 64), (2**10, 2, 16), (2**10, 8, 64)])
    def test_blocks_reuse_one_output_and_half_block_scratch(self, elements, width, d, monkeypatch):
        if elements is not None:
            monkeypatch.setattr(diagnostics, "MC_CHUNK_ELEMENTS", elements)
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
        block = chunk * width * width * d
        scratch = keys[0][1]
        assert 2 * scratch.size <= block
        for rotated in (queries, keys):
            assert all(np.shares_memory(out, rotated[0][0]) for out, _ in rotated)
        assert all(s is scratch for _, s in calls)

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


class TestTrialNormals:
    @pytest.mark.parametrize("start,stop", [(0, 1), (0, 257), (9990, 10000), (2**32 - 2, 2**32 + 2)])
    @pytest.mark.parametrize("seed", [0, 1, 20240701, 2**32 - 1, 2**32, 2**64 - 1])
    def test_matches_numpy_seeding(self, seed, start, stop):
        # one generator for every call, as monte_carlo_heatmap passes it; its state carries over
        generator = np.random.default_rng(seed)
        for d in (2, 8, 64):
            expected = np.stack([
                np.random.default_rng(np.random.SeedSequence([seed, r])).standard_normal(d)
                for r in range(start, stop)
            ])
            normals = diagnostics._trial_normals(generator, seed, start, stop, d)
            assert np.array_equal(normals, expected)


class TestSoftmaxGrid:
    def test_sums_to_one_and_preserves_order(self):
        config = SchemeConfig("vrope", d=8)
        grid = heatmap(config, VideoGrid(3, 3, 1), 0, (5, 5, 5, 5))
        soft = softmax_grid(grid)
        assert abs(soft.values.sum() - 1.0) < 1e-12
        assert np.all(soft.values > 0)
        assert (np.argsort(soft.values, axis=None) == np.argsort(grid.values, axis=None)).all()


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
        monkeypatch.setattr(diagnostics, "HEATMAP_CHUNK_ROWS", rows)
        assert heatmap_csv(grid) == expected

    @pytest.mark.parametrize("rows", [1, 7, 1001])
    def test_decay_csv_block_size_does_not_change_bytes(self, rows, monkeypatch):
        curve = decay_curve(build_frequency_schedule(10000.0, 64), 1000)
        lines = [f"{delta},{value:.6f}\n" for delta, value in curve.points]
        monkeypatch.setattr(diagnostics, "DECAY_CHUNK_ROWS", rows)
        assert first_line_difference(decay_csv(curve), "delta,value\n" + "".join(lines)) is None

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
