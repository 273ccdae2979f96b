import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrap import (
    SketchSpec,
    SparseSignMatrix,
    apply_sketch_left,
    apply_sketch_right,
    gen_test_matrix,
    sample_gaussian_pair,
    sub_seed,
)


class TestBoxMullerPair:
    def test_log_one_gives_zero(self):
        assert sample_gaussian_pair(1.0, 0.37) == (0.0, 0.0)

    def test_cos_sin_axis(self):
        y1, y2 = sample_gaussian_pair(math.exp(-2.0), 0.0)
        assert abs(y1 - 2.0) < 1e-12
        assert y2 == 0.0

    def test_rejects_zero_u1(self):
        with pytest.raises(ValueError, match="u1"):
            sample_gaussian_pair(0.0, 0.5)
        with pytest.raises(ValueError, match="u2"):
            sample_gaussian_pair(0.5, 1.0)

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
        sparse = gen_test_matrix(SketchSpec(kind="sparse", density=0.5, seed=8), 40, 30)
        flat = sparse.row_index * 30 + sparse.col_index
        assert np.unique(flat).size == flat.size
        assert set(np.unique(sparse.values)) <= {-1.0, 1.0}

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="density"):
            SketchSpec(kind="sparse", density=0.0)
        with pytest.raises(ValueError, match="kind"):
            SketchSpec(kind="uniform")
        with pytest.raises(ValueError, match="positive"):
            gen_test_matrix(SketchSpec(kind="gaussian"), 0, 4)


class TestApplySketch:
    def test_right_identity(self, rng):
        x = rng.standard_normal((9, 6))
        np.testing.assert_allclose(apply_sketch_right(x, np.eye(6)), x)

    def test_right_single_entry(self, rng):
        x = rng.standard_normal((5, 4))
        psi = SparseSignMatrix(
            rows=4,
            cols=3,
            row_index=np.array([0]),
            col_index=np.array([0]),
            values=np.array([1.0]),
        )
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
        phi = SparseSignMatrix(
            rows=3,
            cols=4,
            row_index=np.array([0]),
            col_index=np.array([0]),
            values=np.array([-1.0]),
        )
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


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 40),
    inner=st.integers(1, 40),
    cols=st.integers(1, 12),
    density=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**32),
)
def test_sparse_right_apply_is_the_dense_product(rows, inner, cols, density, seed):
    x = np.random.default_rng(seed).standard_normal((rows, inner))
    psi = gen_test_matrix(SketchSpec(kind="sparse", density=density, seed=seed), inner, cols)
    out = apply_sketch_right(x, psi)
    assert np.array_equal(out, x @ psi.densify())
    assert np.array_equal(apply_sketch_right(x, psi, check_finite=False), out)
    reference = x @ psi.to_csr()
    assert np.linalg.norm(out - reference) <= 1e-13 * np.linalg.norm(reference)


def test_sub_seed_distinct_paths():
    seeds = {sub_seed(7, i, role) for i in range(50) for role in (0, 1)}
    assert len(seeds) == 100
    assert sub_seed(7, 3, 0) == sub_seed(7, 3, 0)
    # negative master seeds are accepted
    assert sub_seed(-7, 1) == sub_seed(-7, 1)
