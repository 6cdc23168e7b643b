"""Tests for position schemes: symmetric indices, alignment, allocation, text identity."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ropelab import (
    SCHEME_IDS,
    ConfigError,
    CoordinateError,
    DimensionError,
    ParameterError,
    SchemeConfig,
    TextSegment,
    TokenCoordinate,
    TrialConfig,
    VideoGrid,
    build_frequency_schedule,
    decay_curve,
    group_allocation,
    heatmap,
    pair_positions,
    rotate_with_scheme,
    scheme_position,
    symmetric_indices,
    text_position,
    vrope_position,
)

from ropelab.schemes import MAX_POSITION, text_start_after_video, video_map, video_positions

from oracles import scheme_position_ref, vrope_position_ref


class TestSymmetricIndices:
    @pytest.mark.parametrize(
        "w,h,expected",
        [
            (0, 0, (0, 0, 0, 0)),
            (2, 1, (3, 1, -3, -1)),
            (1, 2, (3, -1, -3, 1)),
        ],
    )
    def test_examples(self, w, h, expected):
        assert symmetric_indices(TokenCoordinate(w, h, 0)) == expected

    @given(w=st.integers(0, 1000), h=st.integers(0, 1000))
    def test_antisymmetry(self, w, h):
        u = symmetric_indices(TokenCoordinate(w, h, 0))
        assert u.u1 + u.u3 == 0
        assert u.u2 + u.u4 == 0

    def test_degeneration_single_row(self):
        for w in range(64):
            assert symmetric_indices(TokenCoordinate(w, 0, 0)) == (w, w, -w, -w)

    def test_degeneration_single_column(self):
        for h in range(64):
            assert symmetric_indices(TokenCoordinate(0, h, 0)) == (h, -h, -h, h)


class TestVropePosition:
    # (w, h, t), grid size, p_start, expected: the center is isotropic, the
    # corners span the frame's range, and each frame advances every dim by H + W - 1
    @pytest.mark.parametrize(
        "cell,size,p_start,expected",
        [
            ((1, 1, 0), (3, 3, 1), 0, (2, 2, 2, 2)),
            ((0, 0, 0), (3, 3, 1), 0, (0, 2, 4, 2)),
            ((2, 2, 0), (3, 3, 1), 10, (14, 12, 10, 12)),
            ((0, 0, 0), (3, 3, 2), 0, (0, 2, 4, 2)),
            ((0, 0, 1), (3, 3, 2), 0, (5, 7, 9, 7)),
            ((0, 0, 2), (3, 3, 3), 0, (10, 12, 14, 12)),
        ],
        ids=[
            "center_is_isotropic",
            "corner",
            "with_offset",
            "frame_zero",
            "one_frame_step",
            "two_frame_steps",
        ],
    )
    def test_expected_vectors(self, cell, size, p_start, expected):
        assert vrope_position(TokenCoordinate(*cell), VideoGrid(*size), p_start) == expected

    def test_small_grid_with_offset(self):
        grid = VideoGrid(2, 2, 1)
        assert vrope_position(TokenCoordinate(1, 0, 0), grid, 2) == (3, 4, 3, 2)

    def test_center_of_second_frame(self):
        grid = VideoGrid(3, 3, 2)
        assert vrope_position(TokenCoordinate(1, 1, 1), grid, 0) == (7, 7, 7, 7)

    def test_outside_grid(self):
        grid = VideoGrid(2, 2, 1)
        with pytest.raises(CoordinateError):
            vrope_position(TokenCoordinate(2, 0, 0), grid, 0)

    @pytest.mark.parametrize("t", [2, -1])
    def test_frame_out_of_range(self, t):
        with pytest.raises(CoordinateError):
            vrope_position(TokenCoordinate(0, 0, t), VideoGrid(3, 3, 2), 0)

    @settings(max_examples=200)
    @given(
        width=st.integers(1, 12),
        height=st.integers(1, 12),
        frames=st.integers(1, 12),
        p_start=st.integers(0, 50),
        data=st.data(),
    )
    def test_matches_reference_and_bounds(self, width, height, frames, p_start, data):
        grid = VideoGrid(width, height, frames)
        w = data.draw(st.integers(0, width - 1))
        h = data.draw(st.integers(0, height - 1))
        t = data.draw(st.integers(0, frames - 1))
        v = vrope_position(TokenCoordinate(w, h, t), grid, p_start)
        assert v == vrope_position_ref(w, h, t, width, height, p_start)
        lo = p_start + t * (height + width - 1)
        assert all(lo <= x <= lo + height + width - 2 for x in v)


class TestSchemePosition:
    def test_rope1d_raster(self):
        grid = VideoGrid(2, 2, 1)
        config = SchemeConfig("rope1d", d=8)
        assert scheme_position(config, TokenCoordinate(1, 0, 0), grid, 4) == (5,)

    def test_rope1d_frame_stride(self):
        grid = VideoGrid(3, 2, 2)
        config = SchemeConfig("rope1d", d=8)
        assert scheme_position(config, TokenCoordinate(0, 0, 1), grid, 0) == (6,)
        assert scheme_position(config, TokenCoordinate(2, 1, 1), grid, 0) == (11,)

    def test_rope3d_order_t_h_w(self):
        grid = VideoGrid(3, 3, 1)
        config = SchemeConfig("rope3d", d=8)
        assert scheme_position(config, TokenCoordinate(1, 2, 0), grid, 4) == (4, 6, 5)

    def test_rope2d_ignores_frame(self):
        grid = VideoGrid(3, 3, 4)
        config = SchemeConfig("rope2d", d=8)
        for t in range(4):
            assert scheme_position(config, TokenCoordinate(2, 1, t), grid, 5) == (7, 6)

    def test_rope_share_one_id_per_frame(self):
        grid = VideoGrid(8, 8, 5)
        config = SchemeConfig("rope_share", d=8)
        ids = {
            scheme_position(config, TokenCoordinate(w, h, 3), grid, 10)
            for w in range(8)
            for h in range(8)
        }
        assert ids == {(14,)}  # p + 1 + t

    def test_rope_compact_video_matches_rope3d(self):
        grid = VideoGrid(4, 3, 2)
        compact = SchemeConfig("rope_compact", d=12)
        rope3d = SchemeConfig("rope3d", d=12)
        for t in range(2):
            for h in range(3):
                for w in range(4):
                    coord = TokenCoordinate(w, h, t)
                    assert scheme_position(compact, coord, grid, 6) == scheme_position(
                        rope3d, coord, grid, 6
                    )

    def test_invalid_coordinate(self):
        grid = VideoGrid(2, 2, 2)
        for scheme in ("rope1d", "rope2d", "rope3d", "rope_share", "rope_compact", "vrope"):
            config = SchemeConfig(scheme, d=8)
            with pytest.raises(CoordinateError):
                scheme_position(config, TokenCoordinate(0, 2, 0), grid, 0)


GRIDS = st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 5)).map(
    lambda size: VideoGrid(*size)
)


class TestVideoMap:
    """The affine map against one independent formula per scheme."""

    @settings(max_examples=300, deadline=None)
    @given(scheme=st.sampled_from(SCHEME_IDS), grid=GRIDS, p_start=st.integers(0, 50))
    @example(scheme="vrope", grid=VideoGrid(1, 1, 1), p_start=0)
    @example(scheme="rope1d", grid=VideoGrid(6, 2, 5), p_start=50)
    @example(scheme="rope_compact", grid=VideoGrid(1, 6, 3), p_start=7)
    def test_matches_reference(self, scheme, grid, p_start):
        config = SchemeConfig(scheme, d=8)
        width, height, frames = grid.width, grid.height, grid.frames
        t, h, w = np.indices((frames, height, width))
        cells = video_positions(config, w, h, t, grid, p_start)
        assert cells.dtype == np.int64
        assert cells.shape == (frames, height, width, config.group_count)
        for tt in range(frames):
            # the broadcast call the heatmap makes: (W, 1) columns, (1, H) rows, one frame
            frame = video_positions(
                config, np.arange(width)[:, None], np.arange(height)[None, :], tt, grid, p_start
            )
            assert frame.shape == (width, height, config.group_count)
            for hh in range(height):
                for ww in range(width):
                    expected = scheme_position_ref(scheme, ww, hh, tt, width, height, p_start)
                    coord = TokenCoordinate(ww, hh, tt)
                    assert tuple(cells[tt, hh, ww].tolist()) == expected
                    assert tuple(frame[ww, hh].tolist()) == expected
                    assert scheme_position(config, coord, grid, p_start) == expected
                    if scheme == "vrope":
                        assert vrope_position(coord, grid, p_start) == expected

    @pytest.mark.parametrize("scheme", SCHEME_IDS)
    def test_continuation_follows_the_maxima(self, scheme):
        config = SchemeConfig(scheme, d=8)
        grid, p_start = VideoGrid(4, 3, 5), 9
        t, h, w = np.indices((5, 3, 4))
        maxima = video_positions(config, w, h, t, grid, p_start).reshape(-1, config.group_count)
        maxima = maxima.max(axis=0).tolist()
        assert video_map(config, grid, p_start)[2] == tuple(maxima)
        if scheme == "rope_compact":
            expected = tuple(m + 2 for m in maxima)
        else:
            expected = text_position(max(maxima) + 1, config)
        assert text_start_after_video(config, grid, p_start) == expected

    def test_largest_position_may_reach_the_bound(self):
        config = SchemeConfig("rope_share", d=8)
        grid = VideoGrid(1, 1, MAX_POSITION)  # positions 1 .. 2**53
        assert video_positions(config, 0, 0, MAX_POSITION - 1, grid, 0).tolist() == [MAX_POSITION]
        with pytest.raises(ParameterError, match="budget"):
            video_positions(config, 0, 0, 0, grid, 1)
        with pytest.raises(ParameterError, match="budget"):
            text_start_after_video(config, grid, 1)

    @pytest.mark.parametrize("scheme", SCHEME_IDS)
    def test_smallest_position_may_reach_the_bound(self, scheme):
        # no position lies below p_start; one past int64 raised numpy's OverflowError
        config, grid = SchemeConfig(scheme, d=8), VideoGrid(2, 2, 1)
        assert video_positions(config, 0, 1, 0, grid, -MAX_POSITION).min() >= -MAX_POSITION
        for p_start in (-MAX_POSITION - 1, -(2**64)):
            with pytest.raises(ParameterError, match="p_start must be >="):
                video_positions(config, 0, 0, 0, grid, p_start)

    @pytest.mark.parametrize("scheme", SCHEME_IDS)
    def test_oversized_grid_raises_instead_of_wrapping(self, scheme):
        config = SchemeConfig(scheme, d=8)
        grid = VideoGrid(2**60, 2**60, 2**62)
        with pytest.raises(ParameterError, match="budget"):
            video_positions(config, 0, 0, 0, grid, 0)
        with pytest.raises(ParameterError, match="budget"):
            scheme_position(config, TokenCoordinate(0, 0, 0), grid, 0)


class TestSchemeConfig:
    def test_vrope_requires_divisible_pairs(self):
        SchemeConfig("vrope", d=8)
        with pytest.raises(ConfigError):
            SchemeConfig("vrope", d=6)
        with pytest.raises(ConfigError):
            SchemeConfig("vrope", d=12)

    def test_rope2d_requires_even_pairs(self):
        SchemeConfig("rope2d", d=8)
        with pytest.raises(ConfigError):
            SchemeConfig("rope2d", d=6)

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError):
            SchemeConfig("rope5d", d=8)

    def test_dimension_and_base_validation(self):
        with pytest.raises(DimensionError):
            SchemeConfig("rope1d", d=7)
        with pytest.raises(ParameterError):
            SchemeConfig("rope1d", d=8, base=0.0)

    @pytest.mark.parametrize("base", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_base_rejected(self, base):
        with pytest.raises(ParameterError):
            SchemeConfig("rope1d", d=8, base=base)

    def test_partition_sum_must_match(self):
        SchemeConfig("rope3d", d=16, partition=(4, 2, 2))
        with pytest.raises(ConfigError):
            SchemeConfig("rope3d", d=16, partition=(4, 2, 3))
        with pytest.raises(ConfigError):
            SchemeConfig("rope3d", d=16, partition=(6, 2))

    def test_partition_rejected_for_fixed_schemes(self):
        for scheme in ("rope1d", "rope_share", "vrope"):
            with pytest.raises(ConfigError):
                SchemeConfig(scheme, d=8, partition=(2, 2))


class TestGroupAllocation:
    def test_vrope_interleaved(self):
        assert group_allocation(SchemeConfig("vrope", d=8)).tolist() == [0, 1, 2, 3]
        assert group_allocation(SchemeConfig("vrope", d=16)).tolist() == [0, 1, 2, 3] * 2

    def test_vrope_pair_five_reads_second_dim(self):
        assert group_allocation(SchemeConfig("vrope", d=16))[5] == 1

    def test_rope3d_equal_thirds(self):
        alloc = group_allocation(SchemeConfig("rope3d", d=12))
        assert alloc.tolist() == [0, 0, 1, 1, 2, 2]

    def test_rope3d_remainder_to_t(self):
        alloc = group_allocation(SchemeConfig("rope3d", d=16))
        assert alloc.tolist() == [0, 0, 0, 0, 1, 1, 2, 2]

    def test_rope3d_explicit_partition(self):
        alloc = group_allocation(SchemeConfig("rope3d", d=16, partition=(2, 3, 3)))
        assert alloc.tolist() == [0, 0, 1, 1, 1, 2, 2, 2]

    def test_rope2d_halves(self):
        alloc = group_allocation(SchemeConfig("rope2d", d=8))
        assert alloc.tolist() == [0, 0, 1, 1]

    def test_single_group_schemes(self):
        for scheme in ("rope1d", "rope_share"):
            assert group_allocation(SchemeConfig(scheme, d=8)).tolist() == [0, 0, 0, 0]


class TestTextPosition:
    def test_isotropic(self):
        assert text_position(7, SchemeConfig("vrope", d=8)) == (7, 7, 7, 7)
        assert text_position(0, SchemeConfig("rope3d", d=8)) == (0, 0, 0)
        assert text_position(3, SchemeConfig("rope1d", d=8)) == (3,)

    @pytest.mark.parametrize("scheme", ["rope2d", "rope3d", "rope_share", "rope_compact", "vrope"])
    @pytest.mark.parametrize("d", [8, 64])
    def test_text_rotation_matches_plain_rope(self, scheme, d):
        rng = np.random.default_rng(d)
        config = SchemeConfig(scheme, d=d)
        plain = SchemeConfig("rope1d", d=d)
        for _ in range(50):
            x = rng.standard_normal(d)
            m = int(rng.integers(0, 5000))
            expected = rotate_with_scheme(x, (m,), plain)
            got = rotate_with_scheme(x, text_position(m, config), config)
            assert np.max(np.abs(got - expected)) < 1e-9

    def test_rotate_with_scheme_takes_one_vector(self):
        config = SchemeConfig("vrope", d=8)
        with pytest.raises(DimensionError):
            rotate_with_scheme(np.ones((2, 8)), (1, 2, 3, 4), config)

    def test_pair_positions_shape_validation(self):
        config = SchemeConfig("vrope", d=8)
        with pytest.raises(DimensionError):
            pair_positions((1, 2, 3), config)
        assert pair_positions((5, 6, 7, 8), config).tolist() == [5.0, 6.0, 7.0, 8.0]

    def test_pair_positions_cap(self):
        config = SchemeConfig("rope3d", d=8)
        # d/2 = 4 pairs over dims t, t, h, w
        expected = [float(MAX_POSITION)] * 2 + [float(-MAX_POSITION), 0.0]
        assert pair_positions((MAX_POSITION, -MAX_POSITION, 0), config).tolist() == expected
        for value in (MAX_POSITION + 1, -MAX_POSITION - 1, 10**30, float("inf"), float("nan")):
            with pytest.raises(ParameterError, match="2\\*\\*53"):
                pair_positions((0, value, 0), config)


class TestVideoGrid:
    def test_rejects_zero_sizes(self):
        with pytest.raises(ParameterError):
            VideoGrid(0, 2, 2)
        with pytest.raises(ParameterError):
            VideoGrid(2, 2, 0)

    def test_token_counts(self):
        grid = VideoGrid(3, 2, 4)
        assert grid.tokens_per_frame == 6
        assert grid.token_count == 24


@pytest.mark.parametrize(
    "make,good,bad,error",
    [
        pytest.param(lambda v: VideoGrid(v, 2, 1), np.int64(2), 2.5, ParameterError, id="width"),
        pytest.param(lambda v: VideoGrid(2, 2, v), np.int32(1), "1", ParameterError, id="frames"),
        pytest.param(TextSegment, np.int64(2), 2.5, ParameterError, id="text-count"),
        pytest.param(
            lambda v: SchemeConfig("rope1d", d=v), np.int64(64), "64", DimensionError, id="d"
        ),
        pytest.param(
            lambda v: SchemeConfig("rope1d", d=v), np.int64(8), 8.0, DimensionError, id="d-float"
        ),
        pytest.param(
            lambda v: SchemeConfig("rope1d", base=v), np.float32(5), "1e4", ParameterError,
            id="base",
        ),
        # 16.5 and 15.5 would truncate to 16 and 15, which sum to 31, not 32
        pytest.param(
            lambda v: SchemeConfig("rope2d", partition=v), (np.int64(16), 16), (16.5, 15.5),
            ConfigError, id="partition-float",
        ),
        pytest.param(
            lambda v: SchemeConfig("rope2d", partition=v), (np.int8(16), 16), ("16", "16"),
            ConfigError, id="partition-str",
        ),
        # a bool is not an integer anywhere, though Python counts it as an Integral
        pytest.param(lambda v: VideoGrid(v, 2, 1), np.int64(2), True, ParameterError, id="width-bool"),
        pytest.param(lambda v: VideoGrid(2, 2, v), np.int32(1), True, ParameterError, id="frames-bool"),
        pytest.param(TextSegment, np.int64(2), True, ParameterError, id="text-count-bool"),
        pytest.param(
            lambda v: SchemeConfig("rope3d", d=12, partition=v), (np.int64(1), 1, 4), (True, True, 4),
            ConfigError, id="partition-bool",
        ),
        pytest.param(
            lambda v: SchemeConfig("rope1d", base=v), np.float64(2.0), True, ParameterError,
            id="base-bool",
        ),
        pytest.param(lambda v: TrialConfig(v, 1), np.uint64(3), True, ParameterError, id="seed-bool"),
        pytest.param(lambda v: TrialConfig(0, v), np.int64(1), True, ParameterError, id="trials-bool"),
        pytest.param(
            lambda v: decay_curve(build_frequency_schedule(10000.0, 8), v), np.int64(1), True,
            ParameterError, id="max-delta-bool",
        ),
        pytest.param(
            lambda v: heatmap(SchemeConfig("vrope", d=8), VideoGrid(2, 2, 2), v, (0, 0, 0, 0)),
            np.int64(1), True, CoordinateError, id="frame-bool",
        ),
        # p_start was truncated to 0, and a float coordinate raised numpy's TypeError
        pytest.param(
            lambda v: vrope_position(TokenCoordinate(0, 0, 0), VideoGrid(2, 2, 1), v), np.int64(3),
            0.5, ParameterError, id="p-start",
        ),
        pytest.param(
            lambda v: scheme_position(SchemeConfig("rope3d"), TokenCoordinate(v, 0, 0), VideoGrid(2, 2, 1), 0),
            np.int64(1), 0.5, CoordinateError, id="coordinate",
        ),
    ],
)
def test_sizes_must_be_integers_and_base_real(make, good, bad, error):
    make(good)  # numpy integers and floats are accepted
    with pytest.raises(error, match="must be an integer|must be a real number|must be integers"):
        make(bad)
