import math

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from lrap import (
    SketchSpec,
    SparseSignMatrix,
    apply_sketch_left,
    apply_sketch_right,
    gen_test_matrix,
    sub_seed,
)


def box_muller_pair(u1: float, u2: float) -> tuple[float, float]:
    """Scalar Box-Muller: two standard normals from u1 in (0, 1], u2 in [0, 1)."""
    radius = math.sqrt(-2.0 * math.log(u1))
    return radius * math.cos(2.0 * math.pi * u2), radius * math.sin(2.0 * math.pi * u2)


class TestBoxMullerPair:
    def test_log_one_gives_zero(self):
        assert box_muller_pair(1.0, 0.37) == (0.0, 0.0)

    def test_cos_sin_axis(self):
        y1, y2 = box_muller_pair(math.exp(-2.0), 0.0)
        assert abs(y1 - 2.0) < 1e-12
        assert y2 == 0.0

    @pytest.mark.parametrize("seed, rows, cols", [(2024, 300, 301), (3, 5, 7)])
    def test_reference_for_the_gaussian_draw(self, seed, rows, cols):
        # gen_test_matrix applies the same transform to the same uniforms,
        # vectorized; an odd entry count drops the last sine.  NumPy's log and
        # cos may differ from math's by an ulp, so the match is not bitwise.
        rng = np.random.default_rng(np.random.SeedSequence(seed % 2**64))
        pairs = (rows * cols + 1) // 2
        u1 = 1.0 - rng.random(pairs)
        u2 = rng.random(pairs)
        expected = np.array([box_muller_pair(a, b) for a, b in zip(u1, u2)]).ravel()
        drawn = gen_test_matrix(SketchSpec("gaussian", seed=seed), rows, cols)
        assert drawn.shape == (rows, cols)
        np.testing.assert_allclose(drawn.ravel(), expected[: rows * cols], rtol=1e-15, atol=1e-15)

    def test_moments_over_one_million_samples(self):
        # 1e6 samples: CLT gives sigma(mean) = 1e-3, so 4e-3 is > 3 sigma.
        samples = gen_test_matrix(SketchSpec(kind="gaussian", seed=1234), 1000, 1000)
        assert abs(samples.mean()) < 4e-3
        assert abs(samples.var() - 1.0) < 1e-2


class TestGenTestMatrix:
    def test_deterministic_per_spec(self):
        spec = SketchSpec(kind="gaussian", seed=99)
        a = gen_test_matrix(spec, 17, 13)
        b = gen_test_matrix(spec, 17, 13)
        assert np.array_equal(a, b)
        sp = SketchSpec(kind="sparse", density=0.3, seed=99)
        sa = gen_test_matrix(sp, 17, 13)
        sb = gen_test_matrix(sp, 17, 13)
        assert np.array_equal(sa.densify(), sb.densify())

    def test_rademacher_entries_are_signs(self):
        mat = gen_test_matrix(SketchSpec(kind="rademacher", seed=3), 64, 64)
        assert set(np.unique(mat)) == {-1.0, 1.0}

    def test_rademacher_moments(self):
        mat = gen_test_matrix(SketchSpec(kind="rademacher", seed=4), 1000, 1000)
        assert abs(mat.mean()) < 4e-3
        assert abs(mat.var() - 1.0) < 1e-2

    def test_sparse_full_density_degenerates_to_dense_signs(self):
        sparse = gen_test_matrix(SketchSpec(kind="sparse", density=1.0, seed=5), 8, 8)
        assert isinstance(sparse, SparseSignMatrix)
        assert sparse.nnz == 64
        dense = sparse.densify()
        assert set(np.unique(dense)) == {-1.0, 1.0}

    def test_sparse_density_fraction(self):
        sparse = gen_test_matrix(SketchSpec(kind="sparse", density=0.2, seed=6), 1000, 1000)
        fraction = sparse.nnz / 1e6
        assert abs(fraction - 0.2) < 0.004

    def test_sparse_variance_matches_density(self):
        sparse = gen_test_matrix(SketchSpec(kind="sparse", density=0.2, seed=7), 1000, 1000)
        dense = sparse.densify()
        assert abs(dense.mean()) < 4e-3
        assert abs(dense.var() - 0.2) < 1e-2

    def test_no_duplicate_positions(self):
        # Each selected position holds one sign; a repeated position would
        # have left fewer nonzeros than sign draws.
        spec = SketchSpec(kind="sparse", density=0.5, seed=8)
        sparse = gen_test_matrix(spec, 40, 30)
        _, _, values = draw_sparse_by_2d_nonzero(spec, 40, 30)
        assert sparse.nnz == values.size
        assert set(np.unique(sparse.array)) <= {-1.0, 0.0, 1.0}

    def test_stored_array_is_read_only_and_densify_copies_it(self):
        sparse = gen_test_matrix(SketchSpec(kind="sparse", density=0.3, seed=13), 12, 9)
        assert sparse.array.shape == sparse.shape == (12, 9)
        with pytest.raises(ValueError, match="read-only"):
            sparse.array[0, 0] = 2.0
        dense = sparse.densify()
        assert dense.flags.writeable and not np.shares_memory(dense, sparse.array)
        assert np.array_equal(dense, sparse.array)
        dense[0, 0] = 2.0
        assert sparse.array[0, 0] != 2.0
        assert sparse.nnz == np.count_nonzero(sparse.densify())

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="density"):
            SketchSpec(kind="sparse", density=0.0)
        with pytest.raises(ValueError, match="kind"):
            SketchSpec(kind="uniform")
        for kind in ("gaussian", "rademacher"):
            with pytest.raises(ValueError, match=f"{kind} sketch takes no density"):
                SketchSpec(kind=kind, density=0.5)
        with pytest.raises(ValueError, match="positive"):
            gen_test_matrix(SketchSpec(kind="gaussian"), 0, 4)


class TestApplySketch:
    def test_right_identity(self, rng):
        x = rng.standard_normal((9, 6))
        np.testing.assert_allclose(apply_sketch_right(x, np.eye(6)), x)

    def test_right_single_entry(self, rng):
        x = rng.standard_normal((5, 4))
        entries = np.zeros((4, 3))
        entries[0, 0] = 1.0
        psi = SparseSignMatrix(entries)
        out = apply_sketch_right(x, psi)
        np.testing.assert_allclose(out[:, 0], x[:, 0])
        np.testing.assert_allclose(out[:, 1:], 0.0)

    def test_right_matches_densified(self, rng):
        x = rng.standard_normal((64, 32))
        psi = gen_test_matrix(SketchSpec(kind="sparse", density=0.3, seed=11), 32, 8)
        sparse_path = apply_sketch_right(x, psi)
        dense_path = x @ psi.densify()
        assert np.linalg.norm(sparse_path - dense_path) < 1e-12

    def test_left_identity(self, rng):
        x = rng.standard_normal((6, 9))
        np.testing.assert_allclose(apply_sketch_left(np.eye(6), x), x)

    def test_left_single_entry(self, rng):
        x = rng.standard_normal((4, 5))
        entries = np.zeros((3, 4))
        entries[0, 0] = -1.0
        phi = SparseSignMatrix(entries)
        out = apply_sketch_left(phi, x)
        np.testing.assert_allclose(out[0], -x[0])
        np.testing.assert_allclose(out[1:], 0.0)

    def test_left_matches_densified(self, rng):
        x = rng.standard_normal((32, 64))
        phi = gen_test_matrix(SketchSpec(kind="sparse", density=0.3, seed=12), 8, 32)
        sparse_path = apply_sketch_left(phi, x)
        dense_path = phi.densify() @ x
        assert np.linalg.norm(sparse_path - dense_path) < 1e-12

    def test_dimension_mismatch(self, rng):
        x = rng.standard_normal((5, 4))
        with pytest.raises(ValueError, match="multiply"):
            apply_sketch_right(x, np.eye(5))
        with pytest.raises(ValueError, match="multiply"):
            apply_sketch_left(np.eye(3), x)


def to_csr(sketch: SparseSignMatrix) -> scipy.sparse.csr_array:
    return scipy.sparse.csr_array(sketch.densify())


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 40),
    inner=st.integers(1, 40),
    cols=st.integers(1, 12),
    density=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**32),
)
def test_sparse_apply_is_the_dense_product(rows, inner, cols, density, seed):
    # Both sides multiply by densify(); SciPy's CSR product is the reference.
    x = np.random.default_rng(seed).standard_normal((rows, inner))
    spec = SketchSpec(kind="sparse", density=density, seed=seed)
    psi = gen_test_matrix(spec, inner, cols)
    phi = gen_test_matrix(spec, cols, rows)
    cases = (
        (apply_sketch_right, (x, psi), x @ psi.densify(), x @ to_csr(psi)),
        (apply_sketch_left, (phi, x), phi.densify() @ x, to_csr(phi) @ x),
    )
    for apply, args, dense, reference in cases:
        out = apply(*args)
        assert np.array_equal(out, dense)
        assert np.array_equal(apply(*args, check_finite=False), out)
        assert np.linalg.norm(out - reference) <= 1e-13 * np.linalg.norm(reference)


def draw_sparse_by_2d_nonzero(spec: SketchSpec, rows: int, cols: int):
    """Reference sparse draw: ``np.nonzero`` of the 2-D mask, on the stream
    that ``gen_test_matrix`` seeds from ``spec.seed``."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed % 2**64))
    mask = rng.random((rows, cols)) < spec.density
    row_index, col_index = np.nonzero(mask)
    values = np.where(rng.random(row_index.size) < 0.5, 1.0, -1.0)
    return row_index.astype(np.int64), col_index.astype(np.int64), values


@st.composite
def sketch_shapes(draw):
    small = draw(st.integers(1, 30))
    large = draw(st.integers(small, 90))
    orientation = draw(st.sampled_from(["tall", "wide", "row", "column"]))
    return {
        "tall": (large, small),
        "wide": (small, large),
        "row": (1, large),
        "column": (large, 1),
    }[orientation]


@settings(max_examples=80, deadline=None)
@given(
    shape=sketch_shapes(),
    density=st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
    seed=st.integers(-(2**63), 2**64),
)
def test_sparse_draw_is_bitwise_the_2d_nonzero_draw(shape, density, seed):
    spec = SketchSpec(kind="sparse", density=density, seed=seed)
    sketch = gen_test_matrix(spec, *shape)
    row_index, col_index, values = draw_sparse_by_2d_nonzero(spec, *shape)
    expected = np.zeros(shape)
    expected[row_index, col_index] = values
    assert sketch.array.dtype == expected.dtype
    # Bitwise: a -0.0 or a stray NaN would pass an equality check.
    assert sketch.array.tobytes() == expected.tobytes()
    assert sketch.nnz == values.size


def test_sub_seed_distinct_paths():
    seeds = {sub_seed(7, i, role) for i in range(50) for role in (0, 1)}
    assert len(seeds) == 100
    assert sub_seed(7, 3, 0) == sub_seed(7, 3, 0)
    # negative master seeds are accepted
    assert sub_seed(-7, 1) == sub_seed(-7, 1)
