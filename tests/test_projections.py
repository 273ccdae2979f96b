import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lrap import BoxBounds, project_box


def test_nonnegative_clamp():
    out = project_box(np.array([[1.0, -2.0], [0.0, 3.0]]))
    np.testing.assert_array_equal(out, [[1.0, 0.0], [0.0, 3.0]])


def test_unit_interval_clamp():
    out = project_box(np.array([[-0.5, 0.5, 1.5]]), BoxBounds(0.0, 1.0))
    np.testing.assert_array_equal(out, [[0.0, 0.5, 1.0]])


def test_distance_equals_negative_part_norm(rng):
    x = rng.standard_normal((30, 20))
    projected = project_box(x)
    neg_norm = np.linalg.norm(np.minimum(x, 0.0))
    assert abs(np.linalg.norm(x - projected) - neg_norm) < 1e-14


def test_idempotent(rng):
    x = rng.standard_normal((15, 12))
    bounds = BoxBounds(-0.2, 0.7)
    once = project_box(x, bounds)
    np.testing.assert_array_equal(project_box(once, bounds), once)


def test_nonexpansive(rng):
    bounds = BoxBounds(0.0, 1.0)
    for _ in range(20):
        x = rng.standard_normal((10, 8))
        y = rng.standard_normal((10, 8))
        lhs = np.linalg.norm(project_box(x, bounds) - project_box(y, bounds))
        assert lhs <= np.linalg.norm(x - y) + 1e-14


def test_projection_is_closest_feasible_point(rng):
    bounds = BoxBounds(0.0, 1.0)
    x = 3.0 * rng.standard_normal((12, 9))
    best = np.linalg.norm(x - project_box(x, bounds))
    for _ in range(50):
        z = rng.random((12, 9))  # arbitrary feasible matrix
        assert np.linalg.norm(x - z) >= best


def test_exact_zero_entries_untouched():
    x = np.array([[0.0, -0.0], [1.0, -1.0]])
    out = project_box(x)
    assert out[0, 0] == 0.0 and out[0, 1] == 0.0
    assert out[1, 1] == 0.0


def test_invalid_bounds():
    with pytest.raises(ValueError, match="lo < hi"):
        BoxBounds(1.0, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        BoxBounds(math.nan, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    bounds=st.sampled_from([
        BoxBounds(0.0, math.inf), BoxBounds(-0.0, math.inf), BoxBounds(0.0, 1.0),
        BoxBounds(-1.0, -0.0), BoxBounds(-0.0, 0.5), BoxBounds(-math.inf, 0.0),
        BoxBounds(-math.inf, math.inf),
    ]),
    x=hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, max_side=40),
        elements=st.one_of(
            st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, -5e-324]),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
    ),
)
def test_bitwise_equal_to_numpy_clip(bounds, x):
    out = project_box(x, bounds)
    expected = np.clip(x, bounds.lo, bounds.hi)
    assert out.tobytes() == expected.tobytes()
    assert not np.shares_memory(out, x)
