"""The clamp pass of the engines against the dense references it replaces.

``clamp_iterate`` forms the clamped iterate X = Pi_box(Y) of low-rank
factors block by block and gathers the iteration's record on the way.
Most cases give it factors that stand for an arbitrary iterate Y exactly
(Y against an identity), so its record must match ``iteration_record`` on
Y and its products those of ``project_box(Y)``.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import lrap.methods
from lrap import (
    BoxBounds,
    LowRankFactors,
    MethodSpec,
    SketchSpec,
    iteration_record,
    project_box,
    svd_truncated,
)
from lrap.methods import ENGINES, ClampedIterate, clamp_iterate
from lrap.metrics import NOISE_THRESHOLD, target_norms

BOXES = (BoxBounds(0.0, math.inf), BoxBounds(0.0, 1.0))
FIELDS = ("neg_frobenius", "neg_chebyshev", "neg_density", "over_frobenius", "over_chebyshev", "over_density")


def exact_factors(y, with_sigma):
    """Factors whose product is ``y`` entry for entry: ``y`` against an identity."""
    m, n = y.shape
    if m >= n:
        u, v = y, np.eye(n)
    else:
        u, v = np.eye(m), y.T
    return LowRankFactors(u=u, v=v, sigma=np.ones(u.shape[1]) if with_sigma else None)


def near_bounds(box):
    """Entries on, just inside and just past each finite bound and its noise
    threshold, and ordinary values."""
    edges = [0.0, -0.0, 1.0, -1.0, 2.5]
    for bound in (box.lo, box.hi):
        if math.isfinite(bound):
            for step in (0.5, 1.0, 1.5, 2.0, 1e3):
                edges += [bound - step * NOISE_THRESHOLD, bound + step * NOISE_THRESHOLD]
    return st.one_of(st.sampled_from(edges), st.floats(-2.0, 3.0, allow_nan=False))


def violating(box):
    """Entries past a bound by more than the noise threshold."""
    below = st.floats(2 * NOISE_THRESHOLD, 3.0).map(lambda d: box.lo - d)
    if math.isinf(box.hi):
        return below
    return st.one_of(below, st.floats(2 * NOISE_THRESHOLD, 3.0).map(lambda d: box.hi + d))


@st.composite
def shapes(draw):
    kind = draw(st.sampled_from(["tall", "wide", "row", "column"]))
    a = draw(st.integers(2, 12))
    b = draw(st.integers(1, a - 1))
    return {"tall": (a, b), "wide": (b, a), "row": (1, a), "column": (a, 1)}[kind]


@st.composite
def clamp_case(draw):
    box = draw(st.sampled_from(BOXES))
    shape = draw(shapes())
    kind = draw(st.sampled_from(["mixed", "admissible", "violated"]))
    y = draw(hnp.arrays(np.float64, shape, elements=violating(box) if kind == "violated" else near_bounds(box)))
    if kind == "admissible":
        y = project_box(y, box)
    target = draw(hnp.arrays(np.float64, shape, elements=st.floats(-4.0, 4.0, width=32)))
    if not target.any():
        target[0, 0] = 1.0
    return box, y, target


def assert_matches_record(x, reference):
    rel_fro, rel_cheb = x.errors
    assert math.isclose(rel_fro, reference.rel_frobenius, rel_tol=1e-13)
    assert rel_cheb.hex() == reference.rel_chebyshev.hex()
    for field, value in zip(FIELDS, x.violations):
        want = getattr(reference, field)
        if field.endswith("frobenius"):
            assert math.isclose(value, want, rel_tol=1e-13), field
        else:
            assert float(value).hex() == float(want).hex(), field


def assert_products_match(x, dense_x, y, rng):
    m, n = y.shape
    b = rng.standard_normal((n, 3))
    a = rng.standard_normal((2, m))
    scale = 1e-12 * max(np.linalg.norm(y), np.linalg.norm(dense_x), 1.0)
    assert np.linalg.norm(x @ b - dense_x @ b) <= scale * np.linalg.norm(b)
    assert np.linalg.norm(a @ x - a @ dense_x) <= scale * np.linalg.norm(a)


@settings(max_examples=300, deadline=None)
@given(clamp_case(), st.booleans(), st.integers(1, 40))
def test_pass_matches_dense_references(case, with_sigma, block):
    box, y, target = case
    with mock.patch.object(lrap.methods, "_BLOCK_ENTRIES", block):
        x = clamp_iterate(exact_factors(y, with_sigma), box, target, target_norms(target))
        alone = clamp_iterate(exact_factors(y, with_sigma), box)
        dense_x = x.toarray()
    assert x.shape == y.shape
    assert_matches_record(x, iteration_record(3, target, y, box))
    assert alone.errors is None and alone.violations == x.violations
    assert np.array_equal(dense_x, project_box(y, box))
    assert_products_match(x, project_box(y, box), y, np.random.default_rng(block))


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(BOXES),
    shapes(),
    st.integers(1, 4),
    st.booleans(),
    st.integers(1, 40),
    st.integers(0, 2**32 - 1),
)
def test_products_of_general_factors(box, shape, rank, with_sigma, block, seed):
    """Products of X for factors that are not exact: within 1e-12 of Pi_box(Y)'s."""
    rng = np.random.default_rng(seed)
    m, n = shape
    rank = min(rank, m, n)
    sigma = np.sort(rng.random(rank))[::-1] + 0.5 if with_sigma else None
    factors = LowRankFactors(u=rng.standard_normal((m, rank)), v=rng.standard_normal((n, rank)), sigma=sigma)
    y = factors.reconstruct()
    with mock.patch.object(lrap.methods, "_BLOCK_ENTRIES", block):
        x = clamp_iterate(factors, box)
        dense_x = x.toarray()
    assert np.array_equal(dense_x, project_box(dense_x, box))
    assert np.abs(dense_x - project_box(y, box)).max() <= 1e-14 * max(np.abs(y).max(), 1.0)
    assert_products_match(x, project_box(y, box), y, rng)


@st.composite
def oriented_shapes(draw):
    kind = draw(st.sampled_from(["tall", "wide", "square"]))
    a = draw(st.integers(2, 12))
    b = draw(st.integers(1, a - 1))
    return {"tall": (a, b), "wide": (b, a), "square": (a, a)}[kind]


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(BOXES),
    oriented_shapes(),
    st.integers(1, 4),
    st.booleans(),
    st.integers(1, 40),
    st.integers(0, 2**32 - 1),
)
def test_transpose_is_the_clamped_transpose(box, shape, rank, with_sigma, block, seed):
    """X.T is X^T entry for entry, and its products are those of Pi_box(Y)^T."""
    rng = np.random.default_rng(seed)
    m, n = shape
    rank = min(rank, m, n)
    sigma = np.sort(rng.random(rank))[::-1] + 0.5 if with_sigma else None
    factors = LowRankFactors(u=rng.standard_normal((m, rank)), v=rng.standard_normal((n, rank)), sigma=sigma)
    y = factors.reconstruct()
    with mock.patch.object(lrap.methods, "_BLOCK_ENTRIES", block):
        x = clamp_iterate(factors, box, np.ones(shape))
        xt = x.T
        assert xt.shape == x.shape[::-1]
        assert np.array_equal(xt.toarray(), x.toarray().T)
    assert xt.errors == x.errors and xt.violations == x.violations
    b = rng.standard_normal((m, 3))
    scale = 1e-12 * max(np.linalg.norm(y), 1.0) * np.linalg.norm(b)
    assert np.linalg.norm(xt @ b - (b.T @ x).T) <= scale
    assert np.linalg.norm(xt @ b - project_box(y, box).T @ b) <= scale


def test_default_blocks_match_dense_references():
    """Several blocks of the default size, both box sides violated."""
    rng = np.random.default_rng(4)
    y = rng.uniform(-0.5, 1.5, (300, 200))
    target = rng.random((300, 200))
    box = BOXES[1]
    assert len(lrap.methods._row_blocks(*y.shape)) > 1
    x = clamp_iterate(exact_factors(y, True), box, target, target_norms(target))
    assert_matches_record(x, iteration_record(1, target, y, box))
    assert np.array_equal(x.toarray(), project_box(y, box))
    assert_products_match(x, project_box(y, box), y, rng)


@pytest.mark.parametrize("shape", [(7, 3), (3, 7), (5, 5)])
def test_all_negative_zero_difference_gives_positive_zero(shape):
    y = np.zeros(shape)
    y[0, 0] = 1.0
    target = np.full(shape, -0.0)
    target[0, 0] = 1.0
    x = clamp_iterate(exact_factors(y, False), BOXES[0], target)
    assert x.errors[1].hex() == "0x0.0p+0"
    assert {v.hex() for v in (x.violations.neg_chebyshev, x.violations.over_chebyshev)} == {"0x0.0p+0"}


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("with_target", [False, True])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_iterate_raises(bad, with_target):
    factors = exact_factors(np.full((6, 4), 0.5), True)
    factors.u[4, 1] = bad  # written after the factors were validated
    target = np.ones((6, 4)) if with_target else None
    with pytest.raises(ValueError, match="non-finite"):
        clamp_iterate(factors, BOXES[1], target)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_finite_iterate_overflowing_the_norm_is_recorded():
    y = np.full((3, 3), 1e200)
    x = clamp_iterate(exact_factors(y, True), BOXES[0], np.ones((3, 3)))
    assert x.errors[0] == math.inf
    assert_matches_record(x, iteration_record(1, np.ones((3, 3)), y, BOXES[0]))


SKETCH = SketchSpec(kind="sparse", density=0.4, seed=2)
SPECS = [
    MethodSpec(method="svd", r=3),
    MethodSpec(method="tangent", r=3),
    MethodSpec(method="hmt", r=3, k=5, p=1, sketch=SKETCH),
    MethodSpec(method="tropp", r=3, k=5, l=7, sketch=SKETCH),
    MethodSpec(method="gn", r=3, l=7, sketch=SKETCH),
]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.method)
def test_engines_project_the_operator_as_the_dense_iterate(spec):
    """Each engine gives the same factors from X kept as Y + C and from X itself."""
    rng = np.random.default_rng(8)
    factors = svd_truncated(rng.standard_normal((40, 30)), 3)
    x = clamp_iterate(factors, spec.box)
    assert isinstance(x, ClampedIterate) and x._correction.nnz > 0
    project = ENGINES[spec.method].project
    got = project(x, factors, spec, 5).reconstruct()
    want = project(x.toarray(), factors, spec, 5).reconstruct()
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

