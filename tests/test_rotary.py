"""Tests for the rotary kernel: schedules, rotations, scores, and the oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ropelab import rotary
from ropelab import (
    DimensionError,
    ParameterError,
    attention_score,
    attention_score_oracle,
    build_frequency_schedule,
    expected_self_score,
    rotate,
)

from oracles import rotate_ref, score_ref


# finite floats with both zeros, subnormals and magnitudes up to 1e300, where no sum overflows
_EDGE_FLOATS = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-308, 1e300, -1e300]),
)


def _pair_formula(x, angles):
    """Each pair ``(a, b)`` to ``(a cos - b sin, a sin + b cos)``, one channel at a time."""
    cos, sin = np.cos(angles), np.sin(angles)
    even, odd = x[..., 0::2], x[..., 1::2]
    out = np.empty(np.broadcast_shapes(x.shape[:-1], angles.shape[:-1]) + (x.shape[-1],))
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out


class TestFrequencySchedule:
    def test_base_10000_d4(self):
        schedule = build_frequency_schedule(10000.0, 4)
        assert schedule.theta.tolist() == [1.0, 0.01]

    def test_base_4_d8_exact_powers(self):
        schedule = build_frequency_schedule(4.0, 8)
        assert np.allclose(schedule.theta, [1.0, 4**-0.25, 0.5, 4**-0.75], rtol=1e-15, atol=0)
        assert abs(schedule.theta[1] - 0.70711) < 5e-6
        assert abs(schedule.theta[3] - 0.35355) < 5e-6

    def test_schedules_compare_by_base_and_d(self):
        schedule = build_frequency_schedule(10000.0, 8)
        assert schedule == build_frequency_schedule(10000, 8)
        assert hash(schedule) == hash(build_frequency_schedule(10000.0, 8))
        assert schedule != build_frequency_schedule(10000.0, 16)
        assert schedule != build_frequency_schedule(500.0, 8)

    @pytest.mark.parametrize("d", [3, 1, 0, -2, 7])
    def test_invalid_dimension(self, d):
        with pytest.raises(DimensionError):
            build_frequency_schedule(10000.0, d)

    @pytest.mark.parametrize("base", [0.0, -1.0, -10000.0, math.nan, math.inf, -math.inf])
    def test_invalid_base(self, base):
        with pytest.raises(ParameterError):
            build_frequency_schedule(base, 8)

    @given(base=st.floats(min_value=1.0001, max_value=1e6), d=st.integers(1, 64).map(lambda n: 2 * n))
    def test_theta_strictly_decreasing_for_base_above_one(self, base, d):
        schedule = build_frequency_schedule(base, d)
        assert schedule.theta[0] == 1.0
        assert np.all(np.diff(schedule.theta) < 0)
        assert np.all((schedule.theta > 0) & (schedule.theta <= 1))

    def test_base_below_one_allowed(self):
        schedule = build_frequency_schedule(0.5, 4)
        assert schedule.theta[0] == 1.0
        assert schedule.theta[1] > 1.0

    @pytest.mark.parametrize("base,d", [(1e-320, 64), (5e-324, 64), (1e-318, 128)])
    def test_base_whose_largest_theta_overflows(self, base, d):
        with pytest.raises(ParameterError, match="too small"):
            build_frequency_schedule(base, d)

    @given(base=st.floats(min_value=5e-324, max_value=1.0), d=st.integers(1, 64).map(lambda n: 2 * n))
    def test_accepted_base_gives_finite_theta(self, base, d):
        try:
            schedule = build_frequency_schedule(base, d)
        except ParameterError:
            # rejected only when the largest theta times 2**54 is past float64's maximum, e**709.78
            assert -math.log(base) * (d - 2) / d + 54 * math.log(2) > 709
            return
        assert np.all(np.isfinite(schedule.theta))


class TestRotate:
    def test_quarter_turn(self):
        out = rotate([1.0, 0.0], [math.pi / 2])
        assert np.allclose(out, [0.0, 1.0], atol=1e-15)

    def test_identity(self):
        assert rotate([1.0, 2.0], [0.0]).tolist() == [1.0, 2.0]

    def test_eighth_turn(self):
        out = rotate([1.0, 1.0], [math.pi / 4])
        assert abs(out[0]) < 1e-15
        assert abs(out[1] - math.sqrt(2)) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            rotate([1.0, 2.0, 3.0, 4.0], [0.1])
        with pytest.raises(DimensionError):
            rotate([1.0, 2.0, 3.0], [0.1])

    @settings(max_examples=150)
    @given(
        pairs=st.integers(1, 32),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_norm_preserved(self, pairs, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(2 * pairs)
        angles = rng.uniform(-100, 100, pairs)
        assert abs(np.linalg.norm(rotate(x, angles)) - np.linalg.norm(x)) < 1e-9

    def test_matches_complex_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.standard_normal(16)
            angles = rng.uniform(-20, 20, 8)
            assert np.allclose(rotate(x, angles), rotate_ref(x, angles), atol=1e-12)

    def test_one_dim_matches_pair_formula_bit_for_bit(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            x = rng.standard_normal(16)
            angles = rng.uniform(-20, 20, 8)
            cos, sin = np.cos(angles), np.sin(angles)
            expected = np.empty(16)
            expected[0::2] = x[0::2] * cos - x[1::2] * sin
            expected[1::2] = x[0::2] * sin + x[1::2] * cos
            assert np.array_equal(rotate(x, angles), expected)

    # 1-D; a Monte-Carlo key block, (n, 1, 1, d) against (W, H, d/2); one vector per angle set
    @pytest.mark.parametrize(
        "x_shape,angles_shape",
        [((8,), (4,)), ((3, 1, 1, 8), (2, 3, 4)), ((4, 1, 8), (6, 4))],
        ids=["1d", "key_block", "outer"],
    )
    @settings(max_examples=150)
    @given(data=st.data())
    def test_matches_separable_pair_formula_bit_for_bit(self, x_shape, angles_shape, data):
        x = data.draw(arrays(np.float64, x_shape, elements=_EDGE_FLOATS))
        angles = data.draw(arrays(np.float64, angles_shape, elements=_EDGE_FLOATS))
        got, expected = rotate(x, angles), _pair_formula(x, angles)
        assert np.array_equal(got, expected) and np.array_equal(np.signbit(got), np.signbit(expected))

    @settings(max_examples=150)
    @given(data=st.data())
    def test_matches_separable_pair_formula_at_inf_and_nan(self, data):
        elements = st.one_of(_EDGE_FLOATS, st.sampled_from([math.inf, -math.inf, math.nan]))
        x = data.draw(arrays(np.float64, (3, 1, 1, 8), elements=elements))
        angles = data.draw(arrays(np.float64, (2, 3, 4), elements=elements))
        # inf * 0, inf - inf and cos(inf) are NaN, which numpy flags as invalid
        with np.errstate(invalid="ignore"):
            got, expected = rotate(x, angles), _pair_formula(x, angles)
        assert np.array_equal(got, expected, equal_nan=True)
        numbers = ~np.isnan(expected)
        assert np.array_equal(np.signbit(got[numbers]), np.signbit(expected[numbers]))

    def test_kernel_writes_into_given_buffers(self):
        rng = np.random.default_rng(37)
        x = rng.standard_normal((5, 1, 8))
        angles = rng.uniform(-20, 20, (3, 4))
        cos2, sin2 = rotary.rotation_factors(angles)
        out = np.empty((5, 3, 8))
        scratch = rotary.rotation_scratch(out.shape)
        assert scratch.size == 3 * 3 * 8  # the first 3 of the 5 rows
        assert rotary.rotate_into(x, cos2, sin2, out, scratch) is out
        assert np.array_equal(out, _pair_formula(x, angles))
        # a shorter output reuses the same scratch
        assert np.array_equal(
            rotary.rotate_into(x[:2], cos2, sin2, out[:2], scratch), _pair_formula(x[:2], angles)
        )

    def test_batched_equals_per_row_calls(self):
        rng = np.random.default_rng(29)
        x = rng.standard_normal((3, 5, 16))
        angles = rng.uniform(-20, 20, (3, 5, 8))
        out = rotate(x, angles)
        assert out.shape == (3, 5, 16)
        for i in range(3):
            for j in range(5):
                assert np.array_equal(out[i, j], rotate(x[i, j], angles[i, j]))

    def test_leading_axes_broadcast(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((4, 1, 8))
        angles = rng.uniform(-20, 20, (6, 4))
        out = rotate(x, angles)
        assert out.shape == (4, 6, 8)
        for n in range(4):
            for c in range(6):
                assert np.array_equal(out[n, c], rotate(x[n, 0], angles[c]))

    @pytest.mark.parametrize(
        "x_shape,angles_shape",
        [((3, 8), (3, 3)), ((2, 3, 8), (4, 4)), ((), (1,)), ((2,), ()), ((3, 8), (2, 4)), ((3, 7), (3, 3))],
    )
    def test_batched_shape_errors(self, x_shape, angles_shape):
        with pytest.raises(DimensionError):
            rotate(np.ones(x_shape), np.zeros(angles_shape))

    def test_input_left_unchanged(self):
        x = np.arange(8.0).reshape(2, 4)
        angles = np.ones((2, 2))
        rotate(x, angles)
        assert x.tolist() == [[0.0, 1.0, 2.0, 3.0], [4.0, 5.0, 6.0, 7.0]]
        assert angles.tolist() == [[1.0, 1.0], [1.0, 1.0]]


class TestAttentionScore:
    def test_d2_relative_distance(self):
        schedule = build_frequency_schedule(10000.0, 2)
        score = attention_score([1.0, 0.0], 3 * schedule.theta, [1.0, 0.0], 1 * schedule.theta)
        assert abs(score - math.cos(2.0)) < 1e-12
        assert abs(score - (-0.4161468365471424)) < 1e-12

    def test_orthogonal_vectors_equal_rotation(self):
        schedule = build_frequency_schedule(10000.0, 2)
        angles = 5 * schedule.theta
        assert abs(attention_score([1.0, 0.0], angles, [0.0, 1.0], angles)) < 1e-15

    def test_depends_only_on_relative_positions(self):
        rng = np.random.default_rng(11)
        schedule = build_frequency_schedule(10000.0, 16)
        q, k = rng.standard_normal((2, 16))
        near = attention_score(q, 5 * schedule.theta, k, 3 * schedule.theta)
        far = attention_score(q, 102 * schedule.theta, k, 100 * schedule.theta)
        assert abs(near - far) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            attention_score([1.0, 0.0], [0.5], [1.0, 0.0, 0.0, 0.0], [0.5, 0.5])

    @pytest.mark.parametrize("batched", [0, 1, 2, 3])
    def test_batched_inputs_rejected(self, batched):
        # a (1, ...) batch would otherwise rotate and score without complaint
        args = [[1.0, 0.0], [0.5], [1.0, 0.0], [0.5]]
        args[batched] = [args[batched]]
        with pytest.raises(DimensionError):
            attention_score(*args)


class TestOracle:
    @pytest.mark.parametrize("d", [2, 8, 64])
    def test_equivalence_random(self, d):
        rng = np.random.default_rng(d)
        schedule = build_frequency_schedule(10000.0, d)
        for _ in range(400):
            q, k = rng.standard_normal((2, d))
            qp = rng.uniform(0, 200, d // 2)
            kp = rng.uniform(0, 200, d // 2)
            direct = attention_score(q, qp * schedule.theta, k, kp * schedule.theta)
            assert abs(direct - attention_score_oracle(q, qp, k, kp, schedule)) < 1e-10

    def test_zero_delta_is_plain_dot(self):
        rng = np.random.default_rng(13)
        schedule = build_frequency_schedule(10000.0, 8)
        q, k = rng.standard_normal((2, 8))
        positions = rng.uniform(0, 50, 4)
        oracle = attention_score_oracle(q, positions, k, positions, schedule)
        assert abs(oracle - float(np.dot(q, k))) < 1e-12

    def test_d2_direct_value(self):
        schedule = build_frequency_schedule(10000.0, 2)
        oracle = attention_score_oracle([1.0, 0.0], [2.0], [1.0, 0.0], [0.0], schedule)
        assert abs(oracle - math.cos(2.0)) < 1e-15

    def test_matches_pure_python_reference(self):
        rng = np.random.default_rng(17)
        schedule = build_frequency_schedule(10000.0, 16)
        for _ in range(50):
            q, k = rng.standard_normal((2, 16))
            qp = rng.uniform(0, 100, 8)
            kp = rng.uniform(0, 100, 8)
            ours = attention_score_oracle(q, qp, k, kp, schedule)
            assert abs(ours - score_ref(q, qp, k, kp, 16, 10000.0)) < 1e-10

    def test_position_count_mismatch(self):
        schedule = build_frequency_schedule(10000.0, 8)
        with pytest.raises(DimensionError):
            attention_score_oracle(np.ones(8), [1.0, 2.0], np.ones(8), [1.0, 2.0], schedule)


class TestExpectedSelfScore:
    def test_zero_delta_exactly_one(self):
        for d in (2, 6, 8, 64):
            schedule = build_frequency_schedule(10000.0, d)
            assert expected_self_score(np.zeros(d // 2), schedule) == 1.0

    def test_d2_single_pair(self):
        schedule = build_frequency_schedule(10000.0, 2)
        assert abs(expected_self_score([2.0], schedule) - math.cos(2.0)) < 1e-15

    def test_d4_closed_form(self):
        schedule = build_frequency_schedule(10000.0, 4)
        value = expected_self_score([2.0, 2.0], schedule)
        assert abs(value - 0.2918265850597177) < 1e-12
        assert abs(value - 0.29183) < 5e-6

    def test_below_one_off_grid(self):
        schedule = build_frequency_schedule(10000.0, 8)
        for delta in ([1.0, 0.0, 0.0, 0.0], [3.0, 3.0, 3.0, 3.0], [0.5, 2.0, 7.0, 100.0]):
            assert expected_self_score(delta, schedule) < 1.0

    def test_periodic_delta_back_to_one(self):
        schedule = build_frequency_schedule(10000.0, 2)
        assert abs(expected_self_score([2 * math.pi], schedule) - 1.0) < 1e-12

    def test_length_mismatch(self):
        schedule = build_frequency_schedule(10000.0, 8)
        with pytest.raises(DimensionError):
            expected_self_score([1.0, 2.0], schedule)

    def test_batched_matches_per_row_calls(self):
        schedule = build_frequency_schedule(10000.0, 16)
        delta = np.random.default_rng(5).uniform(-50, 50, (3, 4, 8))
        original = delta.copy()
        batched = expected_self_score(delta, schedule)
        assert batched.shape == (3, 4)
        assert np.array_equal(delta, original)
        for i in range(3):
            for j in range(4):
                assert abs(batched[i, j] - expected_self_score(delta[i, j], schedule)) < 1e-15

    @pytest.mark.parametrize("shape", [(4, 3), (2, 5), (4, 4, 1)])
    def test_batched_trailing_dim_must_be_pairs(self, shape):
        schedule = build_frequency_schedule(10000.0, 8)
        with pytest.raises(DimensionError):
            expected_self_score(np.zeros(shape), schedule)

    def test_one_dim_returns_float(self):
        schedule = build_frequency_schedule(10000.0, 8)
        assert type(expected_self_score([1.0, 2.0, 3.0, 4.0], schedule)) is float

    def test_matches_monte_carlo_mean(self):
        rng = np.random.default_rng(23)
        d = 16
        schedule = build_frequency_schedule(10000.0, d)
        delta = rng.uniform(0, 20, d // 2)
        expected = expected_self_score(delta, schedule)
        total = 0.0
        for _ in range(10000):
            x = rng.standard_normal(d)
            total += attention_score(x, delta * schedule.theta, x, np.zeros(d // 2)) / d
        assert abs(total / 10000 - expected) < 0.02
