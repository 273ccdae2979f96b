import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import lrap.linalg
from lrap import LowRankFactors, MethodSpec, initialize, qr_thin, svd_truncated
from lrap.linalg import as_matrix, lanczos_path
from lrap.problems import gen_uniform
from conftest import lapack_truncation, nonnegative_rank_r


def test_as_matrix_rejects_a_vector():
    with pytest.raises(ValueError, match=r"x must be 2-D, got shape \(3,\)"):
        as_matrix(np.ones(3), "x")


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

    def test_no_columns(self):
        q, r = qr_thin(np.zeros((5, 0)))
        assert q.shape == (5, 0) and r.shape == (0, 0)

    def test_wide_input_rejected(self):
        with pytest.raises(ValueError, match="rows >= cols"):
            qr_thin(np.ones((2, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            qr_thin(np.array([[np.nan], [1.0]]))


# The engines' panel widths (hmt, tropp, gn, tangent and Lanczos panels on the
# bench workloads) and the widths around qr_thin's block size.
QR_WIDTHS = (1, 2, 5, 10, 15, 16, 17, 33, 50, 60, 64, 65, 70)


@st.composite
def qr_inputs(draw):
    """A tall or square matrix, full-rank or not, scaled by 2**e for e in [-500, 500]."""
    n = draw(st.sampled_from(QR_WIDTHS))
    m = n + draw(st.sampled_from((0, 1, 9, 45, 190)))
    kind = draw(st.sampled_from(("full", "duplicated", "rank1", "zero")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((m, n))
    if kind == "duplicated":
        a[:, rng.integers(0, n, n // 2)] = a[:, rng.integers(0, n, n // 2)]
    elif kind == "rank1":
        a = np.outer(rng.standard_normal(m), rng.standard_normal(n))
    elif kind == "zero":
        a = np.zeros((m, n))
    full_rank = kind == "full" or (kind in ("duplicated", "rank1") and n == 1)
    return np.ldexp(a, draw(st.integers(-500, 500))), full_rank


class TestQrThinProperties:
    @settings(max_examples=80, deadline=None)
    @given(qr_inputs())
    def test_contract(self, case):
        a, full_rank = case
        m, n = a.shape
        q, r = qr_thin(a)
        assert q.shape == (m, n) and r.shape == (n, n)
        assert np.abs(q.T @ q - np.eye(n)).max() <= 1e-13
        scale = np.abs(a).max()
        assert np.abs(q @ r - a).max() <= 1e-13 * scale
        assert np.array_equal(r, np.triu(r)) and (np.diag(r) >= 0).all()
        q_again, r_again = qr_thin(a)
        assert np.array_equal(q, q_again) and np.array_equal(r, r_again)
        if full_rank:
            # A full-column-rank R is unique once its diagonal is positive.
            reference = np.linalg.qr(a)[1]
            reference *= np.sign(np.diag(reference))[:, None]
            assert np.linalg.norm(r - reference) <= 1e-12 * np.linalg.norm(reference)

    def test_takes_the_blocked_lapack_pair(self, monkeypatch):
        calls = []

        def spy(name):
            original = getattr(lrap.linalg, name)
            return lambda *args, **kwargs: calls.append(name) or original(*args, **kwargs)

        def refused(*args, **kwargs):
            raise AssertionError("qr_thin reached np.linalg.qr")

        monkeypatch.setattr(lrap.linalg, "dgeqrt", spy("dgeqrt"))
        monkeypatch.setattr(lrap.linalg, "dgemqrt", spy("dgemqrt"))
        monkeypatch.setattr(np.linalg, "qr", refused)
        for shape in ((256, 64), (7, 7), (30, 1)):
            qr_thin(np.random.default_rng(0).standard_normal(shape))
        assert calls == ["dgeqrt", "dgemqrt"] * 3


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


@st.composite
def svd_inputs(draw):
    """A matrix in one orientation, possibly rank-deficient, and a target rank."""
    orientation = draw(st.sampled_from(["wide", "tall", "square", "row", "column", "deficient"]))
    small = draw(st.integers(2, 30))
    large = draw(st.integers(small + 1, 60))
    m, n = {
        "wide": (small, large),
        "tall": (large, small),
        "square": (small, small),
        "row": (1, large),
        "column": (large, 1),
        "deficient": (small, large),
    }[orientation]
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    if orientation == "deficient":
        inner = draw(st.integers(1, m - 1))
        a = rng.standard_normal((m, inner)) @ rng.standard_normal((inner, n))
    else:
        a = rng.standard_normal((m, n))
    return a, draw(st.integers(1, min(m, n)))


@settings(max_examples=80, deadline=None)
@given(case=svd_inputs())
def test_svd_truncated_in_every_orientation(case):
    a, r = case
    m, n = a.shape
    f = svd_truncated(a, r)
    assert f.u.shape == (m, r) and f.v.shape == (n, r)
    sigma = np.linalg.svd(a, compute_uv=False)
    assert np.abs(f.sigma - sigma[:r]).max() <= 1e-13 * sigma[0]
    # Eckart-Young: the error of the best rank-r approximation is the tail.
    err = np.linalg.norm(a - f.reconstruct())
    assert abs(err - np.sqrt(np.sum(sigma[r:] ** 2))) <= 1e-13 * sigma[0] * np.sqrt(m * n)
    assert np.abs(f.u.T @ f.u - np.eye(r)).max() <= 1e-13 * max(m, n)
    assert np.abs(f.v.T @ f.v - np.eye(r)).max() <= 1e-13 * max(m, n)
    # The factors own their memory, so they pin none of LAPACK's output.
    assert f.u.base is None and f.v.base is None
    if lanczos_path(a.shape, r):
        # 5 r < min(m, n): the exact projection's Lanczos start, bit for bit.
        want = initialize(a, MethodSpec(method="svd", r=r))
    elif m >= n:
        # Square and tall inputs take the direct factorization, unchanged.
        want = lapack_truncation(a, r)
    else:
        return
    assert np.array_equal(f.u, want.u)
    assert np.array_equal(f.v, want.v)
    assert np.array_equal(f.sigma, want.sigma)


LANCZOS_SHAPES = {"tall": (90, 40), "wide": (40, 90), "square": (60, 60)}


def count_lanczos(monkeypatch):
    """Record every ``eigsh`` call; the Lanczos kernel looks it up at call time."""
    calls, eigsh = [], scipy.sparse.linalg.eigsh
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", lambda *a, **k: calls.append(a) or eigsh(*a, **k))
    return calls


class TestSvdTruncatedStart:
    """Where 5 r < min(m, n), ``svd_truncated`` runs the exact projection's
    Lanczos kernel; a badly scaled input, or one on which ARPACK fails, takes
    the full LAPACK SVD that every other rank takes."""

    @pytest.mark.parametrize("r", [1, 5, 7])
    @pytest.mark.parametrize("shape", LANCZOS_SHAPES.values(), ids=LANCZOS_SHAPES.keys())
    def test_equals_the_svd_engines_start(self, shape, r):
        a = np.random.default_rng(sum(shape) + r).uniform(-0.3, 1.3, shape)
        got, want = svd_truncated(a, r), initialize(a, MethodSpec(method="svd", r=r))
        for name in ("u", "v", "sigma"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    @pytest.mark.parametrize("kind", ["uniform", "normal", "rank1", "rank2"])
    @pytest.mark.parametrize("shape", LANCZOS_SHAPES.values(), ids=LANCZOS_SHAPES.keys())
    def test_agrees_with_lapack(self, shape, kind, monkeypatch):
        rng = np.random.default_rng(sum(shape))
        a = {
            "uniform": lambda: rng.random(shape),
            "normal": lambda: rng.standard_normal(shape),
            "rank1": lambda: nonnegative_rank_r(*shape, 1, seed=1),
            "rank2": lambda: nonnegative_rank_r(*shape, 2, seed=2),
        }[kind]()
        calls = count_lanczos(monkeypatch)
        got, want = svd_truncated(a, 6), lapack_truncation(a, 6)
        assert len(calls) == 1
        assert np.abs(got.sigma - want.sigma).max() <= 1e-13 * want.sigma[0]
        assert np.linalg.norm(got.u.T @ got.u - np.eye(6)) <= 1e-13
        assert np.linalg.norm(got.v.T @ got.v - np.eye(6)) <= 1e-13
        dense = want.reconstruct()
        assert np.linalg.norm(got.reconstruct() - dense) <= 1e-12 * np.linalg.norm(dense)

    @pytest.mark.parametrize(
        "scale",
        [0.0, 2.0**-600, 2.0**-48, 2.0**300],
        ids=["zero", "underflowing", "tiny", "huge"],
    )
    def test_badly_scaled_input_takes_lapack(self, scale, monkeypatch):
        # ARPACK would fail on the first two ("starting vector is zero") and
        # stop early on the third, whose Gram is far below eps**(2/3); the
        # fourth lies past the range, toward a Gram that overflows.
        a = scale * np.random.default_rng(3).random(LANCZOS_SHAPES["tall"])
        calls = count_lanczos(monkeypatch)
        got, want = svd_truncated(a, 5), lapack_truncation(a, 5)
        assert calls == []
        for name in ("u", "v", "sigma"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    @pytest.mark.parametrize("shape", LANCZOS_SHAPES.values(), ids=LANCZOS_SHAPES.keys())
    def test_arpack_failure_falls_back_to_lapack(self, shape, monkeypatch):
        def fail(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", fail)
        a = np.random.default_rng(4).random(shape)
        got = svd_truncated(a, 5)
        if shape[0] < shape[1]:  # a wide input is factored through its transpose
            transposed = lapack_truncation(a.T, 5)
            want = LowRankFactors(u=transposed.v, v=transposed.u, sigma=transposed.sigma)
        else:
            want = lapack_truncation(a, 5)
        for name in ("u", "v", "sigma"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


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
        with pytest.raises(ValueError, match="vector of length 2"):
            LowRankFactors(u=u, v=v, sigma=np.array([3.0, 2.0, 1.0]))
        with pytest.raises(ValueError, match="sigma contains non-finite"):
            LowRankFactors(u=u, v=v, sigma=np.array([np.inf, 1.0]))

    def test_mismatched_widths_rejected(self):
        with pytest.raises(ValueError, match="widths differ"):
            LowRankFactors(u=np.ones((4, 2)), v=np.ones((3, 3)))

    def test_fat_factor_rejected(self):
        with pytest.raises(ValueError, match="tall"):
            LowRankFactors(u=np.ones((2, 4)), v=np.ones((4, 4)))
