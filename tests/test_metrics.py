import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lrap import (
    BoxBounds,
    IterationRecord,
    iteration_record,
    normalized_spectrum,
    project_box,
    relative_errors,
    violation_stats,
)
from lrap.linalg import svd_truncated
from lrap.metrics import NOISE_THRESHOLD
from lrap.problems import gen_uniform


class TestRelativeErrors:
    def test_exact_match(self, rng):
        a = rng.standard_normal((6, 6))
        assert relative_errors(a, a) == (0.0, 0.0)

    def test_zero_approximation_of_identity(self):
        assert relative_errors(np.eye(2), np.zeros((2, 2))) == (1.0, 1.0)

    def test_uniform_truncation_levels(self):
        a = gen_uniform(256, 256, 71)
        rel_fro, rel_cheb = relative_errors(a, svd_truncated(a, 64).reconstruct())
        assert abs(rel_fro - 0.307) <= 0.05 * 0.307
        assert abs(rel_cheb - 0.718) <= 0.20 * 0.718

    def test_shape_and_zero_target_errors(self):
        with pytest.raises(ValueError, match="shape"):
            relative_errors(np.eye(2), np.eye(3))
        with pytest.raises(ValueError, match="zero"):
            relative_errors(np.zeros((2, 2)), np.eye(2))


class TestViolationStats:
    def test_single_negative_entry(self):
        stats = violation_stats(np.array([[-1.0, 2.0], [3.0, 4.0]]))
        assert stats.neg_frobenius == 1.0
        assert stats.neg_chebyshev == 1.0
        assert stats.neg_density == 0.25
        assert stats.over_frobenius == 0.0

    def test_threshold_masks_noise(self):
        stats = violation_stats(np.array([[-1e-16, 1.0]]))
        assert stats.neg_density == 0.0 and stats.neg_frobenius == 0.0
        stats = violation_stats(np.array([[-1e-14, 1.0]]))
        assert stats.neg_density == 0.5

    def test_both_sides_of_unit_box(self):
        stats = violation_stats(np.array([[-0.5, 1.5]]), BoxBounds(0.0, 1.0))
        assert abs(stats.neg_frobenius - 0.5) < 1e-15
        assert abs(stats.over_frobenius - 0.5) < 1e-15
        assert stats.neg_density == 0.5 and stats.over_density == 0.5

    def test_zero_threshold_matches_negative_part_norm(self, rng):
        x = rng.standard_normal((25, 17))
        stats = violation_stats(x, threshold=0.0)
        assert stats.neg_frobenius == np.linalg.norm(x - np.maximum(x, 0.0))

    def test_projected_matrix_is_violation_free(self, rng):
        bounds = BoxBounds(0.0, 1.0)
        x = 2.0 * rng.standard_normal((20, 20))
        stats = violation_stats(project_box(x, bounds), bounds)
        assert stats == (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


class TestNormalizedSpectrum:
    def test_diagonal(self):
        np.testing.assert_allclose(
            normalized_spectrum(np.diag([4.0, 2.0, 1.0])), [1.0, 0.5, 0.25]
        )

    def test_rank_one_tail_vanishes(self, rng):
        a = np.outer(rng.standard_normal(10), rng.standard_normal(8))
        spectrum = normalized_spectrum(a)
        assert spectrum[0] == 1.0
        assert (spectrum[1:] < 1e-12).all()

    def test_invariances(self, rng):
        a = rng.standard_normal((12, 9))
        base = normalized_spectrum(a)
        np.testing.assert_allclose(normalized_spectrum(a.T), base, atol=1e-12)
        np.testing.assert_allclose(normalized_spectrum(-3.7 * a), base, atol=1e-12)
        assert (np.diff(base) <= 0).all()
        assert base[0] == 1.0 and (base > 0).all()

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="zero matrix"):
            normalized_spectrum(np.zeros((3, 3)))


# --------------------------------------------------------------------------
# The record against two references, bit for bit.
# --------------------------------------------------------------------------

BOXES = (BoxBounds(0.0, math.inf), BoxBounds(0.0, 1.0))


def record_with_where(iteration, target, approx, bounds, threshold=NOISE_THRESHOLD):
    """The record as relative_errors and violation_stats first computed it:
    |.| temporaries and np.where over the violation masks."""
    norm_fro = np.linalg.norm(target)
    norm_cheb = np.abs(target).max()
    diff = target - approx
    thr = abs(threshold)
    neg = np.where(approx < bounds.lo - thr, bounds.lo - approx, 0.0)
    over = np.where(approx > bounds.hi + thr, approx - bounds.hi, 0.0)
    return IterationRecord(
        iteration,
        float(np.linalg.norm(diff) / norm_fro),
        float(np.abs(diff).max() / norm_cheb),
        float(np.linalg.norm(neg)),
        float(neg.max()),
        np.count_nonzero(neg) / approx.size,
        float(np.linalg.norm(over)),
        float(over.max()),
        np.count_nonzero(over) / approx.size,
    )


def record_by_indexing(iteration, target, approx, bounds, threshold=NOISE_THRESHOLD):
    """Independent reference: violations gathered by boolean indexing and
    scattered into zeros, maxima taken by Python over the entries."""
    thr = abs(threshold)
    fields = []
    for mask, magnitude in (
        (approx < bounds.lo - thr, lambda v: bounds.lo - v),
        (approx > bounds.hi + thr, lambda v: v - bounds.hi),
    ):
        residual = np.zeros_like(approx)
        residual[mask] = magnitude(approx[mask])
        fields += [
            float(np.linalg.norm(residual)),
            max((float(v) for v in residual[mask]), default=0.0),
            float(mask.sum() / mask.size),
        ]
    diff = target - approx
    return IterationRecord(
        iteration,
        float(np.linalg.norm(diff) / np.linalg.norm(target)),
        max(abs(float(v)) for v in diff.flat) / max(abs(float(v)) for v in target.flat),
        *fields,
    )


def bits(record):
    """Field values as hex strings, so +0.0 and -0.0 differ."""
    return tuple(float(v).hex() for v in record.__dict__.values())


def near_bounds(box):
    """Entries on, just inside and just past each finite bound and its
    noise threshold, signed zeros, and ordinary values."""
    edges = [0.0, -0.0, 1.0, -1.0, 2.5]
    for bound in (box.lo, box.hi):
        if math.isfinite(bound):
            for step in (0.5, 1.0, 1.5, 2.0, 1e3):
                edges += [bound - step * NOISE_THRESHOLD, bound + step * NOISE_THRESHOLD]
    return st.one_of(
        st.sampled_from(edges),
        st.floats(-2.0, 3.0, allow_nan=False, allow_infinity=False),
    )


@st.composite
def record_case(draw):
    box = draw(st.sampled_from(BOXES))
    shape = draw(st.tuples(st.integers(1, 9), st.integers(1, 9)))
    approx = draw(hnp.arrays(np.float64, shape, elements=near_bounds(box)))
    if draw(st.booleans()):
        approx = project_box(approx, box)  # fully admissible
    target = draw(hnp.arrays(np.float64, shape, elements=st.floats(-4.0, 4.0, width=32)))
    if not target.any():
        target[0, 0] = 1.0
    return box, target, approx


class TestIterationRecordBitwise:
    @settings(max_examples=300, deadline=None)
    @given(record_case(), st.sampled_from([NOISE_THRESHOLD, 0.0]))
    def test_matches_both_references(self, case, threshold):
        box, target, approx = case
        expected = bits(record_with_where(3, target, approx, box, threshold))
        assert bits(record_by_indexing(3, target, approx, box, threshold)) == expected
        assert bits(iteration_record(3, target, approx, box, threshold)) == expected
        if (project_box(approx, box) == approx).all():
            record = iteration_record(3, target, approx, box, threshold)
            assert {record.neg_chebyshev.hex(), record.over_chebyshev.hex()} == {"0x0.0p+0"}

    @pytest.mark.parametrize("shape", [(7, 3), (3, 7), (5, 5)])
    def test_all_negative_zero_difference_gives_positive_zero(self, shape):
        target = np.full(shape, -0.0)
        target[0, 0] = 1.0
        approx = np.zeros(shape)
        approx[0, 0] = 1.0
        record = iteration_record(1, target, approx)
        assert bits(record) == bits(record_with_where(1, target, approx, BOXES[0]))
        assert record.rel_chebyshev.hex() == "0x0.0p+0"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_iterate_raises(self, bad):
        target = np.ones((4, 6))
        approx = np.full((4, 6), 0.5)
        approx[2, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            iteration_record(1, target, approx)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_finite_iterate_overflowing_the_norm_is_recorded(self):
        target = np.ones((3, 3))
        approx = np.full((3, 3), 1e200)
        record = iteration_record(1, target, approx)
        assert record.rel_frobenius == math.inf
        assert bits(record) == bits(record_with_where(1, target, approx, BOXES[0]))
