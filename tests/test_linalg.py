import numpy as np
import pytest
import scipy.linalg

from lrap import LowRankFactors, qr_thin, svd_truncated
from lrap.problems import gen_uniform


class TestQrThin:
    def test_identity(self):
        q, r = qr_thin(np.eye(4))
        np.testing.assert_allclose(q, np.eye(4), atol=1e-14)
        np.testing.assert_allclose(r, np.eye(4), atol=1e-14)

    def test_pythagorean_column(self):
        q, r = qr_thin(np.array([[3.0], [4.0]]))
        np.testing.assert_allclose(q, [[0.6], [0.8]], atol=1e-14)
        np.testing.assert_allclose(r, [[5.0]], atol=1e-14)

    def test_orthonormal_and_reconstructs(self, rng):
        a = rng.standard_normal((100, 20))
        q, r = qr_thin(a)
        assert q.shape == (100, 20) and r.shape == (20, 20)
        assert np.linalg.norm(q.T @ q - np.eye(20)) < 1e-12
        assert np.linalg.norm(q @ r - a) / np.linalg.norm(a) < 1e-12
        assert np.allclose(r, np.triu(r))
        assert (np.diag(r) >= 0).all()

    def test_deterministic(self, rng):
        a = rng.standard_normal((30, 7))
        q1, r1 = qr_thin(a)
        q2, r2 = qr_thin(a)
        assert np.array_equal(q1, q2) and np.array_equal(r1, r2)

    def test_rank_deficient_input_does_not_crash(self):
        a = np.zeros((6, 3))
        a[:, 0] = 1.0
        q, r = qr_thin(a)
        assert np.isfinite(q).all() and np.isfinite(r).all()
        assert np.linalg.norm(q @ r - a) < 1e-12

    def test_wide_input_rejected(self):
        with pytest.raises(ValueError, match="rows >= cols"):
            qr_thin(np.ones((2, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            qr_thin(np.array([[np.nan], [1.0]]))


class TestSvdTruncated:
    def test_diagonal(self):
        f = svd_truncated(np.diag([3.0, 2.0, 1.0]), 2)
        np.testing.assert_allclose(f.sigma, [3.0, 2.0], atol=1e-14)
        err = np.linalg.norm(np.diag([3.0, 2.0, 1.0]) - f.reconstruct())
        assert abs(err - 1.0) < 1e-12

    def test_rank_one_exact(self, rng):
        u0 = rng.standard_normal(15)
        v0 = rng.standard_normal(9)
        a = np.outer(u0, v0)
        f = svd_truncated(a, 1)
        assert np.linalg.norm(a - f.reconstruct()) / np.linalg.norm(a) < 1e-12
        assert abs(f.sigma[0] - np.linalg.norm(u0) * np.linalg.norm(v0)) < 1e-10

    def test_uniform_256_rank_64_error_level(self):
        # Relative Frobenius error of the best rank-64 approximation of a
        # 256x256 uniform matrix concentrates near 0.307.
        a = gen_uniform(256, 256, 2024)
        f = svd_truncated(a, 64)
        rel = np.linalg.norm(a - f.reconstruct()) / np.linalg.norm(a)
        assert abs(rel - 0.307) <= 0.05 * 0.307

    def test_error_matches_tail_of_singular_values(self, rng):
        # Independent oracle: singular values from the QR-iteration LAPACK
        # driver, not the divide-and-conquer one backing svd_truncated.
        a = rng.standard_normal((40, 25))
        r = 7
        f = svd_truncated(a, r)
        err2 = np.linalg.norm(a - f.reconstruct()) ** 2
        tail2 = np.sum(scipy.linalg.svd(a, compute_uv=False, lapack_driver="gesvd")[r:] ** 2)
        assert abs(err2 - tail2) / tail2 < 1e-8

    def test_factors_orthonormal_and_ordered(self, rng):
        a = rng.standard_normal((30, 30))
        f = svd_truncated(a, 10)
        assert np.linalg.norm(f.u.T @ f.u - np.eye(10)) < 1e-10
        assert np.linalg.norm(f.v.T @ f.v - np.eye(10)) < 1e-10
        assert (np.diff(f.sigma) <= 0).all() and (f.sigma >= 0).all()

    def test_optimality_against_perturbations(self, rng):
        # No random rank-r perturbation of the truncated SVD may beat it.
        a = rng.random((24, 18))
        r = 5
        f = svd_truncated(a, r)
        best = np.linalg.norm(a - f.reconstruct())
        for _ in range(25):
            u = f.u + 0.05 * rng.standard_normal(f.u.shape)
            v = f.v + 0.05 * rng.standard_normal(f.v.shape)
            s = f.sigma * (1 + 0.05 * rng.standard_normal(r))
            rival = (u * s) @ v.T
            assert np.linalg.norm(a - rival) >= best

    def test_exact_rank_input_reproduced(self, rng):
        left = rng.standard_normal((30, 4))
        right = rng.standard_normal((20, 4))
        a = left @ right.T
        f = svd_truncated(a, 6)
        assert np.linalg.norm(a - f.reconstruct()) / np.linalg.norm(a) < 1e-10

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            svd_truncated(np.eye(3), 4)
        with pytest.raises(ValueError, match="out of range"):
            svd_truncated(np.eye(3), 0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            svd_truncated(np.array([[1.0, np.inf], [0.0, 1.0]]), 1)


class TestLowRankFactors:
    def test_reconstruct_with_and_without_sigma(self, rng):
        u = rng.standard_normal((6, 2))
        v = rng.standard_normal((5, 2))
        pair = LowRankFactors(u=u, v=v)
        np.testing.assert_allclose(pair.reconstruct(), u @ v.T)
        triple = LowRankFactors(u=u, v=v, sigma=np.array([2.0, 1.0]))
        np.testing.assert_allclose(triple.reconstruct(), (u * [2.0, 1.0]) @ v.T)

    def test_invalid_sigma_rejected(self):
        u = np.ones((4, 2))
        v = np.ones((3, 2))
        with pytest.raises(ValueError, match="nonincreasing"):
            LowRankFactors(u=u, v=v, sigma=np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="nonincreasing"):
            LowRankFactors(u=u, v=v, sigma=np.array([1.0, -0.5]))

    def test_mismatched_widths_rejected(self):
        with pytest.raises(ValueError, match="widths differ"):
            LowRankFactors(u=np.ones((4, 2)), v=np.ones((3, 3)))

    def test_fat_factor_rejected(self):
        with pytest.raises(ValueError, match="tall"):
            LowRankFactors(u=np.ones((2, 4)), v=np.ones((4, 4)))
