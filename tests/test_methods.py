import math

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

import lrap.methods
from lrap import (
    BoxBounds,
    ExperimentConfig,
    IterateState,
    LowRankFactors,
    MethodSpec,
    SketchCollapseError,
    SketchSpec,
    SmoluchowskiSpec,
    UniformProblem,
    ap_gn_step,
    ap_hmt_step,
    ap_svd_step,
    ap_tangent_step,
    ap_tropp_step,
    initialize,
    project_box,
    qr_thin,
    run_experiment,
    run_method,
    smoluchowski_solution,
    svd_truncated,
    tangent_space_apply,
)
from lrap.linalg import lanczos_path, lanczos_truncated
from lrap.methods import _PHI, _PSI, ClampedIterate, _iteration_sketch, clamp_iterate
from lrap.sketching import SparseSignMatrix, gen_test_matrix
from lrap.problems import gen_uniform
from conftest import lapack_truncation, nonnegative_rank_r

SPARSE = SketchSpec(kind="sparse", density=0.2, seed=5)
GAUSS = SketchSpec(kind="gaussian", seed=5)
RAD = SketchSpec(kind="rademacher", seed=5)


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(a)


class TestMethodSpecValidation:
    def test_sketch_size_constraints(self):
        with pytest.raises(ValueError, match="k >= r"):
            MethodSpec(method="hmt", r=8, k=7, sketch=GAUSS)
        with pytest.raises(ValueError, match="l >= k"):
            MethodSpec(method="tropp", r=4, k=8, l=7, sketch=GAUSS)
        with pytest.raises(ValueError, match="l >= r"):
            MethodSpec(method="gn", r=8, l=7, sketch=GAUSS)

    @pytest.mark.parametrize(
        "method, fields, refused",
        [
            ("svd", dict(k=6), "k"), ("svd", dict(l=8), "l"), ("svd", dict(p=1), "p"),
            ("tangent", dict(k=6), "k"), ("tangent", dict(l=8), "l"), ("tangent", dict(p=1), "p"),
            ("hmt", dict(k=6, l=8, sketch=GAUSS), "l"),
            ("tropp", dict(k=6, l=8, p=1, sketch=GAUSS), "p"),
            ("gn", dict(k=6, l=8, sketch=GAUSS), "k"),
            ("gn", dict(l=8, p=1, sketch=GAUSS), "p"),
        ],
    )
    def test_parameter_the_engine_lacks_is_refused(self, method, fields, refused):
        with pytest.raises(ValueError, match=f"^{method} takes no {refused}$"):
            MethodSpec(method=method, r=4, **fields)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(method="svd", r=0), "target rank must be >= 1, got 0"),
            (dict(method="svd", r=2, s=-1), "iteration count must be >= 0, got -1"),
            (dict(method="hmt", r=2, k=4, p=-1, sketch=GAUSS), "power iteration count must be >= 0"),
        ],
    )
    def test_count_out_of_range(self, fields, message):
        with pytest.raises(ValueError, match=message):
            MethodSpec(**fields)

    def test_randomized_methods_need_a_sketch(self):
        with pytest.raises(ValueError, match="sketch"):
            MethodSpec(method="hmt", r=4, k=6)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            MethodSpec(method="qr", r=4)

    def test_step_spec_mismatch(self):
        state = IterateState(svd_truncated(np.eye(6), 2))
        with pytest.raises(ValueError, match="implements"):
            ap_svd_step(state, MethodSpec(method="tangent", r=2))


class TestFixedPoints:
    """A nonnegative matrix of exact rank <= r is a fixed point of every step."""

    def test_svd_step(self):
        y = nonnegative_rank_r(40, 30, 2, seed=1)
        state = IterateState(svd_truncated(y, 2))
        out = ap_svd_step(state, MethodSpec(method="svd", r=2))
        assert rel_err(y, out.factors.reconstruct()) < 1e-10
        assert out.iteration == 1

    def test_tangent_step(self):
        y = nonnegative_rank_r(35, 25, 3, seed=2)
        state = IterateState(svd_truncated(y, 3))
        out = ap_tangent_step(state, MethodSpec(method="tangent", r=3))
        assert rel_err(y, out.factors.reconstruct()) < 1e-10

    @pytest.mark.parametrize("sketch", [GAUSS, RAD, SPARSE])
    def test_hmt_step(self, sketch):
        y = nonnegative_rank_r(48, 36, 4, seed=3)
        state = IterateState(svd_truncated(y, 4))
        spec = MethodSpec(method="hmt", r=4, k=4, p=0, sketch=sketch)
        out = ap_hmt_step(state, spec, iteration_seed=1)
        assert rel_err(y, out.factors.reconstruct()) < 1e-8

    @pytest.mark.parametrize("sketch", [GAUSS, RAD, SPARSE])
    def test_tropp_step(self, sketch):
        y = nonnegative_rank_r(48, 36, 4, seed=4)
        state = IterateState(svd_truncated(y, 4))
        spec = MethodSpec(method="tropp", r=4, k=4, l=8, sketch=sketch)
        out = ap_tropp_step(state, spec, iteration_seed=1)
        assert rel_err(y, out.factors.reconstruct()) < 1e-8

    @pytest.mark.parametrize("sketch", [GAUSS, RAD, SPARSE])
    def test_gn_step(self, sketch):
        y = nonnegative_rank_r(48, 36, 4, seed=5)
        state = IterateState(svd_truncated(y, 4))
        spec = MethodSpec(method="gn", r=4, l=8, sketch=sketch)
        out = ap_gn_step(state, spec, iteration_seed=1)
        assert out.factors.sigma is None
        assert out.factors.rank == 4
        assert rel_err(y, out.factors.reconstruct()) < 1e-8


class TestSvdStepDetails:
    def test_single_negative_entry_removed(self):
        # Rank-2 nonnegative matrix with one zeroed coordinate turned into a
        # small negative entry; clamping restores the rank-2 matrix exactly.
        eps = 1e-3
        rng = np.random.default_rng(8)
        u = rng.random(20)
        v = rng.random(15)
        u[4] = 0.0
        y = np.outer(u, v)
        y[4, 7] = -eps
        state = IterateState(svd_truncated(y, 4))
        out = ap_svd_step(state, MethodSpec(method="svd", r=4))
        dense = out.factors.reconstruct()
        assert dense.min() > -1e-12
        assert np.linalg.norm(dense - y) <= eps + 1e-12

    def test_factors_are_an_svd(self):
        a = gen_uniform(30, 30, 3)
        out = ap_svd_step(IterateState(svd_truncated(a, 5)), MethodSpec(method="svd", r=5))
        f = out.factors
        assert np.linalg.norm(f.u.T @ f.u - np.eye(5)) < 1e-12
        assert (np.diff(f.sigma) <= 0).all()


class TestTangentSpace:
    def test_projection_rank_at_most_2r(self, rng):
        r = 5
        y = nonnegative_rank_r(40, 32, r, seed=9)
        f = svd_truncated(y, r)
        x = rng.standard_normal((40, 32))
        projected = tangent_space_apply(x, f.u, f.v)
        s = np.linalg.svd(projected, compute_uv=False)
        assert s[2 * r] / s[0] < 1e-10

    def test_projection_fixes_base_point(self):
        r = 4
        y = nonnegative_rank_r(30, 26, r, seed=10)
        f = svd_truncated(y, r)
        assert rel_err(y, tangent_space_apply(y, f.u, f.v)) < 1e-10

    def test_sigma_less_step_matches_svd_form_step(self, rng):
        # The same base point as an SVD and as a sigma-less pair mixed by an
        # invertible matrix: both span one tangent space.
        r = 4
        base = svd_truncated(gen_uniform(30, 24, 11), r)
        mix = rng.standard_normal((r, r)) + 3.0 * np.eye(r)
        pair = LowRankFactors(u=(base.u * base.sigma) @ mix, v=base.v @ np.linalg.inv(mix).T)
        assert rel_err(base.reconstruct(), pair.reconstruct()) < 1e-13
        spec = MethodSpec(method="tangent", r=r, s=3)
        svd_form = ap_tangent_step(IterateState(base), spec).factors.reconstruct()
        sigma_less = ap_tangent_step(IterateState(pair), spec).factors.reconstruct()
        assert rel_err(svd_form, sigma_less) < 1e-12
        target = gen_uniform(30, 24, 12)
        _, trace = run_method(base, spec, target=target)
        _, pair_trace = run_method(pair, spec, target=target)
        for one, two in zip(trace, pair_trace):
            assert one.rel_frobenius == pytest.approx(two.rel_frobenius, rel=1e-10)

    def test_base_point_of_rank_below_r(self):
        # A rank-1 base point under r = 4, as a pair and as an SVD: its
        # tangent space, and the step's factors, have rank 2.
        pair = LowRankFactors(u=np.ones((6, 1)), v=np.ones((5, 1)))
        spec = MethodSpec(method="tangent", r=4)
        for base in (pair, svd_truncated(pair.reconstruct(), 1)):
            assert ap_tangent_step(IterateState(base), spec).factors.rank == 2

    def test_rank_one_target_is_reproduced(self, rng):
        # The rank-1 target's start has sigma_2..5 at rounding, so X v - u
        # u^T X v is rounding noise, whose QR is not orthogonal to u.
        target = np.outer(rng.random(60), rng.random(50))
        spec = MethodSpec(method="tangent", r=5, s=3)
        _, trace = run_method(initialize(target, spec), spec, target=target)
        assert trace[-1].rel_frobenius <= 1e-12

    def test_joined_qr_only_where_the_qr_of_g_alone_fails(self, rng, monkeypatch):
        # On a target of rank exactly r the iterate becomes feasible, so
        # X v - u u^T X v falls to rounding noise too, but the top r stay
        # on u and v and the QR of g alone serves; at rank 1 under r = 5
        # the noise enters the top r and takes the QR of [u g].
        joined, complement = [], lrap.methods._complement
        monkeypatch.setattr(lrap.methods, "_complement", lambda b, g: joined.append(g.shape) or complement(b, g))
        spec = MethodSpec(method="tangent", r=5, s=20)
        exact = nonnegative_rank_r(60, 50, 5, seed=3)
        _, trace = run_method(initialize(exact, spec), spec, target=exact)
        assert trace[-1].rel_frobenius <= 1e-12 and joined == []
        rank_one = np.outer(rng.random(60), rng.random(50))
        ap_tangent_step(IterateState(initialize(rank_one, spec)), spec)
        assert joined == [(60, 5), (50, 5)]

    def test_coagulation_target_of_numerical_rank_below_r(self):
        # The coagulation spectrum falls below 1e-12 sigma_1 before index 40.
        target = smoluchowski_solution(SmoluchowskiSpec(nodes=256))
        spec = MethodSpec(method="tangent", r=40, s=20)
        _, trace = run_method(initialize(target, spec), spec, target=target)
        assert trace[-1].rel_frobenius <= 1e-12

    def test_one_ritz_step_per_step_below_numerical_rank_r(self, monkeypatch):
        # There the QR of g alone has diagonal entries at rounding of
        # rounding, so every step takes the joined QR without a first try.
        target = smoluchowski_solution(SmoluchowskiSpec(nodes=256))
        spec = MethodSpec(method="tangent", r=40, s=20)
        start = initialize(target, spec)
        ritz, joined = [], []
        tangent_ritz, complement = lrap.methods._tangent_ritz, lrap.methods._complement
        monkeypatch.setattr(lrap.methods, "_tangent_ritz", lambda *a: ritz.append(1) or tangent_ritz(*a))
        monkeypatch.setattr(lrap.methods, "_complement", lambda b, g: joined.append(1) or complement(b, g))
        _, trace = run_method(start, spec, target=target)
        assert len(ritz) == 20 and len(joined) == 40
        assert trace[-1].rel_frobenius <= 1e-12

    def test_iterate_stays_rank_r(self):
        a = gen_uniform(40, 40, 12)
        spec = MethodSpec(method="tangent", r=6, s=10)
        final, _ = run_method(initialize(a, spec), spec, target=a)
        s = np.linalg.svd(final.reconstruct(), compute_uv=False)
        assert s[6] / s[0] < 1e-10


class TestRandomizedDetails:
    def test_hmt_power_iterations_help_on_average(self):
        errs = {}
        for p in (0, 1):
            finals = []
            for t in range(3):
                a = gen_uniform(256, 256, 100 + t)
                spec = MethodSpec(
                    method="hmt", r=64, k=70, p=p, s=40,
                    sketch=SketchSpec(kind="gaussian", seed=200 + t),
                )
                _, trace = run_method(initialize(a, spec), spec, target=a)
                finals.append(trace[-1].rel_frobenius)
            errs[p] = np.mean(finals)
        assert errs[1] <= errs[0]

    def test_steps_are_deterministic_given_seed(self):
        a = gen_uniform(30, 24, 6)
        state = IterateState(svd_truncated(a, 4))
        spec = MethodSpec(method="tropp", r=4, k=6, l=9, sketch=SPARSE)
        one = ap_tropp_step(state, spec, iteration_seed=3)
        two = ap_tropp_step(state, spec, iteration_seed=3)
        assert np.array_equal(one.factors.reconstruct(), two.factors.reconstruct())
        three = ap_tropp_step(state, spec, iteration_seed=4)
        assert not np.array_equal(one.factors.reconstruct(), three.factors.reconstruct())

    def test_single_run_matches_manual_step(self):
        a = gen_uniform(24, 20, 9)
        spec = MethodSpec(method="hmt", r=3, k=5, s=1, sketch=SPARSE)
        y0 = initialize(a, spec)
        final, trace = run_method(y0, spec, target=a)
        manual = ap_hmt_step(IterateState(y0), spec, iteration_seed=1)
        assert np.array_equal(final.reconstruct(), manual.factors.reconstruct())
        assert len(trace) == 1

    def test_collapse_retried_then_fatal_on_zero_iterate(self, monkeypatch):
        zero = LowRankFactors(u=np.zeros((10, 2)), v=np.zeros((8, 2)))
        spec = MethodSpec(method="gn", r=2, l=4, s=1, sketch=SPARSE)
        draws = []
        original = lrap.methods.gen_test_matrix
        monkeypatch.setattr(
            lrap.methods, "gen_test_matrix", lambda *a: draws.append(a) or original(*a)
        )
        with pytest.raises(SketchCollapseError):
            run_method(zero, spec, target=np.ones((10, 8)))
        # Two draws per attempt: the first attempt and its one retry.
        assert len(draws) == 4
        draws.clear()
        with pytest.raises(SketchCollapseError):
            ap_gn_step(IterateState(zero), spec, iteration_seed=1)
        assert len(draws) == 4
        # The first projection goes through the same retry.
        draws.clear()
        with pytest.raises(SketchCollapseError) as info:
            initialize(np.zeros((10, 8)), spec)
        assert len(draws) == 4
        assert isinstance(info.value, np.linalg.LinAlgError)
        assert "singular" in str(info.value.__cause__)
        # tropp's co-range factor: on this stream both sparse draws of phi
        # leave a zero column against the basis of the zero sketch.
        draws.clear()
        tropp = MethodSpec(method="tropp", r=2, k=2, l=4, sketch=SPARSE)
        with pytest.raises(SketchCollapseError):
            ap_tropp_step(IterateState(zero), tropp, iteration_seed=8)
        assert len(draws) == 4
        # hmt uses only orthonormal bases of its sketches, so nothing collapses.
        draws.clear()
        hmt = MethodSpec(method="hmt", r=2, k=4, p=1, sketch=SPARSE)
        state = ap_hmt_step(IterateState(zero), hmt, iteration_seed=1)
        assert len(draws) == 1
        assert np.array_equal(state.factors.sigma, np.zeros(2))

    @pytest.mark.parametrize(
        "method, step, shape, owner, name, error",
        [
            # 5 r >= min(m, n): the dense path's Gram truncation of X, and
            # the eigendecomposition of the Gram of tangent's Ritz core.
            pytest.param(
                "svd", ap_svd_step, (12, 10), lrap.methods, "_gram_truncated",
                np.linalg.LinAlgError("SVD did not converge"), id="svd-ap_svd_step",
            ),
            pytest.param(
                "tangent", ap_tangent_step, (12, 10), np.linalg, "eigh",
                np.linalg.LinAlgError("Eigenvalues did not converge"), id="tangent-ap_tangent_step",
            ),
            # 5 r < min(m, n): the exact projection runs ARPACK, whose
            # failures are RuntimeErrors, re-raised as LinAlgError.
            pytest.param(
                "svd", ap_svd_step, (30, 20), scipy.sparse.linalg, "eigsh",
                scipy.sparse.linalg.ArpackNoConvergence("no convergence", None, None),
                id="svd-krylov-no-convergence",
            ),
            pytest.param(
                "svd", ap_svd_step, (30, 20), scipy.sparse.linalg, "eigsh",
                scipy.sparse.linalg.ArpackError(-9), id="svd-krylov-arpack-error",
            ),
            # 5 r >= min(m, n): the dense path's eigendecomposition of the Gram.
            pytest.param(
                "svd", ap_svd_step, (12, 10), np.linalg, "eigh",
                np.linalg.LinAlgError("Eigenvalues did not converge"), id="svd-dense-eigh",
            ),
        ],
    )
    def test_unsketched_linalg_error_propagates_unretried(
        self, monkeypatch, method, step, shape, owner, name, error
    ):
        calls = []

        def fail(*args, **kwargs):
            calls.append(args)
            raise error

        state = IterateState(svd_truncated(gen_uniform(*shape, 3), 2))
        # These failures come from svd's cold-route kernels, which the price
        # would skip for the warm route on these small SVD-started steps.
        cold_routes(monkeypatch)
        monkeypatch.setattr(owner, name, fail)
        with pytest.raises(np.linalg.LinAlgError) as info:
            step(state, MethodSpec(method=method, r=2))
        assert type(info.value) is np.linalg.LinAlgError
        assert str(info.value) == str(error)
        assert len(calls) == 1


BOXES = (BoxBounds(0.0, np.inf), BoxBounds(0.0, 1.0))
KRYLOV_SHAPES = {"tall": (90, 40), "wide": (40, 90), "square": (60, 60)}


def exact_projection(x, r, factors=None):
    return lrap.methods.ENGINES["svd"].project(x, factors, MethodSpec(method="svd", r=r), 0)


def cold_routes(monkeypatch):
    """Make svd's exact projection take its cold route, Lanczos or dense by
    ``lanczos_path``, wherever the price would pick the warm one."""
    monkeypatch.setattr(
        lrap.methods, "_cheapest", lambda shape, r, *_: "lanczos" if lanczos_path(shape, r) else "dense"
    )


def clamped(shape, r, box, seed):
    """A clamped iterate with entries outside ``box`` on every side it bounds."""
    rng = np.random.default_rng(seed)
    x = clamp_iterate(svd_truncated(rng.uniform(-0.3, 1.3, shape), r), box)
    assert x._correction.nnz > 0
    return x


def svd_started(shape, r, box, seed, steps=0, scale=1.0):
    """The factors and clamped iterate of ``steps`` svd steps from the rank-r
    truncation of a uniform target scaled by ``scale``, as ``svd`` starts."""
    state = IterateState(svd_truncated(scale * np.random.default_rng(seed).uniform(0.0, 1.0, shape), r))
    for _ in range(steps):
        state = ap_svd_step(state, MethodSpec(method="svd", r=r, box=box))
    x = clamp_iterate(state.factors, box)
    assert x._correction.nnz > 0
    return state.factors, x


DENSE_SHAPES = {"tall": (60, 40), "wide": (40, 60)}


def record_gram_truncations(monkeypatch):
    """Record the shapes of the ``np.linalg.eigh`` arguments, those that the
    Gram truncation ``_gram_truncated`` takes, and those of its LAPACK
    fallback ``svd_truncated``."""
    grams, cores, lapack = [], [], []
    eigh, gram, truncate = np.linalg.eigh, lrap.methods._gram_truncated, lrap.methods.svd_truncated
    monkeypatch.setattr(np.linalg, "eigh", lambda a: grams.append(a.shape) or eigh(a))
    monkeypatch.setattr(lrap.methods, "_gram_truncated", lambda a, r: cores.append(a.shape) or gram(a, r))
    monkeypatch.setattr(
        lrap.methods, "svd_truncated", lambda a, r: lapack.append(np.shape(a)) or truncate(a, r)
    )
    return grams, cores, lapack


def record_exact_projection_calls(monkeypatch):
    """Record the exact projection's ``eigsh`` calls and its Gram truncations
    (:func:`record_gram_truncations`)."""
    lanczos, eigsh = [], scipy.sparse.linalg.eigsh
    monkeypatch.setattr(
        scipy.sparse.linalg, "eigsh", lambda *a, **k: lanczos.append(a) or eigsh(*a, **k)
    )
    return (lanczos, *record_gram_truncations(monkeypatch))


def spy_lanczos(monkeypatch, default=False):
    """Record the ``ncv`` and the Gram products of each ``eigsh`` call; with
    ``default``, ``eigsh`` gets SciPy's default ``ncv`` in place of the rule's."""
    calls, eigsh = [], scipy.sparse.linalg.eigsh

    def spy(operator, **kwargs):
        call = {"ncv": kwargs.get("ncv"), "products": 0}
        calls.append(call)
        if default:
            kwargs["ncv"] = None

        def gram(b):
            call["products"] += 1 if b.ndim == 1 else b.shape[1]
            return operator @ b

        counted = scipy.sparse.linalg.LinearOperator(operator.shape, matvec=gram, matmat=gram, dtype=np.float64)
        return eigsh(counted, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spy)
    return calls


def assert_same_truncation(got, want):
    r = want.rank
    assert np.abs(got.sigma - want.sigma).max() <= 1e-13 * want.sigma[0]
    dense = want.reconstruct()
    assert np.linalg.norm(got.reconstruct() - dense) <= 1e-12 * np.linalg.norm(dense)
    for factor in (got.u, got.v):
        assert np.linalg.norm(factor.T @ factor - np.eye(r)) <= 1e-13
    assert (np.diff(got.sigma) <= 0).all()


class TestExactProjectionPaths:
    """``svd``'s cold route runs Lanczos (ARPACK) on the products of X where
    5 r < min(m, n), and one dense eigendecomposition of the shorter side's
    Gram elsewhere, or a full LAPACK SVD of X where sigma_r / sigma_1 <= 1e-3.
    Tests that start from a previous iterate force it (:func:`cold_routes`)."""

    @pytest.mark.parametrize("box", BOXES, ids=["nonnegative", "unit"])
    @pytest.mark.parametrize("shape", KRYLOV_SHAPES.values(), ids=KRYLOV_SHAPES.keys())
    def test_operator_dense_and_lapack_agree(self, shape, box):
        x = clamped(shape, 10, box, seed=sum(shape))
        want = lapack_truncation(x.toarray(), 5)
        assert_same_truncation(exact_projection(x, 5), want)
        assert_same_truncation(exact_projection(x.toarray(), 5), want)

    @pytest.mark.parametrize("box", BOXES, ids=["nonnegative", "unit"])
    @pytest.mark.parametrize("shape", KRYLOV_SHAPES.values(), ids=KRYLOV_SHAPES.keys())
    def test_exact_rank_input_is_reproduced(self, shape, box):
        y = nonnegative_rank_r(*shape, 6, seed=sum(shape))
        y /= y.max()
        x = clamp_iterate(svd_truncated(y, 6), box)
        for source in (x, y):
            got = exact_projection(source, 6)
            assert rel_err(y, got.reconstruct()) < 1e-12
            assert_same_truncation(got, lapack_truncation(y, 6))

    def test_repeated_calls_are_bitwise_equal(self):
        x = clamped((80, 70), 12, BOXES[1], seed=3)
        one, two = exact_projection(x, 6), exact_projection(x, 6)
        for name in ("u", "v", "sigma"):
            assert np.array_equal(getattr(one, name), getattr(two, name))

    def test_restarted_lanczos_is_reproducible(self):
        # A rank-one target exhausts its Krylov space at once, so ARPACK
        # restarts from fresh random vectors, drawn from the seeded generator.
        y = np.zeros((60, 50))
        y[0, 0] = 1.0
        first = initialize(y, MethodSpec(method="svd", r=5))
        for _ in range(2):
            again = initialize(y, MethodSpec(method="svd", r=5))
            for name in ("u", "v", "sigma"):
                assert np.array_equal(getattr(again, name), getattr(first, name))

    def test_dense_at_the_boundary_of_the_rule(self, monkeypatch):
        lanczos, grams, cores, lapack = record_exact_projection_calls(monkeypatch)
        x = clamped((50, 40), 16, BOXES[0], seed=4)
        want = svd_truncated(x.toarray(), 8)
        # 5 r == min(m, n): the dense path, one Gram truncation of the dense
        # 50 x 40 X through one eigendecomposition of its 40 x 40 Gram.
        got = exact_projection(x, 8)
        assert_same_truncation(got, want)
        assert (lanczos, grams, cores, lapack) == ([], [(40, 40)], [(50, 40)], [])
        again = exact_projection(x, 8)
        for name in ("u", "v", "sigma"):
            assert np.array_equal(getattr(again, name), getattr(got, name))
        # One rank less: the Krylov path.
        grams.clear()
        assert_same_truncation(exact_projection(x, 7), lapack_truncation(x.toarray(), 7))
        assert len(lanczos) == 1 and grams == []

    @pytest.mark.parametrize("shape", DENSE_SHAPES.values(), ids=DENSE_SHAPES.keys())
    def test_dense_path_eigendecomposes_the_shorter_sides_gram(self, shape, monkeypatch):
        lanczos, grams, cores, lapack = record_exact_projection_calls(monkeypatch)
        x = clamped(shape, 16, BOXES[1], seed=7)
        want = svd_truncated(x.toarray(), 8)
        assert_same_truncation(exact_projection(x, 8), want)
        assert (lanczos, grams, cores, lapack) == ([], [(40, 40)], [shape], [])

    @pytest.mark.parametrize("case", ["steep", "rank2"])
    def test_ill_conditioned_input_takes_the_full_svd(self, case, monkeypatch):
        if case == "steep":
            # sigma_30 / sigma_1 = 1e-7: the Gram's 30th eigenvalue sits near
            # its rounding, and its eigenvectors would miss the truncation.
            rng = np.random.default_rng(8)
            u, v = (qr_thin(rng.standard_normal((100, 100)))[0] for _ in range(2))
            x, r = (u * 10.0 ** (-7.0 * np.arange(100) / 29)) @ v.T, 30
        else:
            x, r = nonnegative_rank_r(40, 40, 2, seed=9), 8
        lanczos, grams, cores, lapack = record_exact_projection_calls(monkeypatch)
        got = exact_projection(x, r)
        assert (lanczos, grams, cores, lapack) == ([], [x.shape], [x.shape], [x.shape])
        assert_same_truncation(got, svd_truncated(x, r))

    def test_wide_input_runs_lanczos_on_the_shorter_side(self, monkeypatch):
        shapes = []
        original = scipy.sparse.linalg.eigsh
        monkeypatch.setattr(
            scipy.sparse.linalg, "eigsh",
            lambda operator, **k: shapes.append(operator.shape) or original(operator, **k),
        )
        x = clamped(KRYLOV_SHAPES["wide"], 10, BOXES[1], seed=5)
        assert_same_truncation(exact_projection(x, 5), lapack_truncation(x.toarray(), 5))
        assert shapes == [(40, 40)]

    @pytest.mark.parametrize("shape", KRYLOV_SHAPES.values(), ids=KRYLOV_SHAPES.keys())
    def test_lanczos_takes_one_transpose_and_no_left_product(self, shape, monkeypatch):
        counts = {"T": 0, "__rmatmul__": 0}
        transpose, rmatmul = ClampedIterate.T.fget, ClampedIterate.__rmatmul__

        def counted_transpose(x):
            counts["T"] += 1
            return transpose(x)

        def counted_rmatmul(x, a):
            counts["__rmatmul__"] += 1
            return rmatmul(x, a)

        monkeypatch.setattr(ClampedIterate, "T", property(counted_transpose))
        monkeypatch.setattr(ClampedIterate, "__rmatmul__", counted_rmatmul)
        x = clamped(shape, 10, BOXES[1], seed=6)
        got = exact_projection(x, 5)
        assert counts == {"T": 1, "__rmatmul__": 0}
        assert_same_truncation(got, lapack_truncation(x.toarray(), 5))

    @pytest.mark.parametrize("box", BOXES, ids=["nonnegative", "unit"])
    @pytest.mark.parametrize("shape", KRYLOV_SHAPES.values(), ids=KRYLOV_SHAPES.keys())
    def test_narrow_basis_gives_the_default_truncation(self, shape, box, monkeypatch):
        factors, x = svd_started(shape, 5, box, seed=sum(shape))
        cold_routes(monkeypatch)
        with monkeypatch.context() as patch:
            forced = spy_lanczos(patch, default=True)
            want = exact_projection(x, 5, factors)
        calls = spy_lanczos(monkeypatch)
        got, again = exact_projection(x, 5, factors), exact_projection(x, 5, factors)
        # The rule asks for r + 5 Lanczos vectors; the forced call got SciPy's 20.
        assert [call["ncv"] for call in forced + calls] == [10] * 3
        assert_same_truncation(got, want)
        assert_same_truncation(got, lapack_truncation(x.toarray(), 5))
        for name in ("u", "v", "sigma"):
            assert np.array_equal(getattr(again, name), getattr(got, name))

    def test_lanczos_width_follows_the_weyl_guard(self, monkeypatch):
        spec = MethodSpec(method="svd", r=5)
        # The starts are built first: svd_truncated runs Lanczos of its own.
        factors, _ = svd_started(KRYLOV_SHAPES["tall"], 5, BOXES[0], seed=130)
        wide, _ = svd_started((250, 260), 48, BOXES[0], seed=0)
        coagulation = svd_truncated(smoluchowski_solution(SmoluchowskiSpec(nodes=256)), 40)
        taller, _ = svd_started(KRYLOV_SHAPES["tall"], 6, BOXES[0], seed=130)
        cold_routes(monkeypatch)
        calls = spy_lanczos(monkeypatch)
        # SVD-started iterates, ||C||_F <= sigma_r / 4: r + max(5, r // 8) vectors.
        ap_svd_step(IterateState(factors), spec)
        ap_svd_step(IterateState(wide), MethodSpec(method="svd", r=48))
        assert [call["ncv"] for call in calls] == [10, 54]
        calls.clear()
        # SciPy's default: an iterate clamped from random orthonormal factors,
        # far from rank r ...
        rng = np.random.default_rng(2)
        u, v = (qr_thin(rng.standard_normal((rows, 5)))[0] for rows in (90, 40))
        far = LowRankFactors(u, v, np.linspace(2.0, 1.0, 5))
        assert 4 * np.linalg.norm(clamp_iterate(far)._correction.data) > far.sigma[-1]
        ap_svd_step(IterateState(far), spec)
        # ... a start of numerical rank below r, whose sigma_r is rounding ...
        ap_svd_step(IterateState(coagulation), MethodSpec(method="svd", r=40))
        # ... a start of rank r + 1, whose sigma_{r+1} Weyl does not bound ...
        ap_svd_step(IterateState(taller), spec)
        # ... the dense target of the start, and sigma-less factors.
        initialize(rng.uniform(0.0, 1.0, (90, 40)), spec)
        ap_svd_step(IterateState(LowRankFactors(factors.u * factors.sigma, factors.v)), spec)
        assert [call["ncv"] for call in calls] == [None] * 5

    def test_schur_bound_admits_what_the_frobenius_bound_refuses(self, monkeypatch):
        # A start whose correction is spread thin: ||C||_F > sigma_r / 4 but
        # sqrt(||C||_1 ||C||_inf) <= sigma_r / 4, so Weyl still bounds the gap.
        factors = svd_truncated(np.random.default_rng(55).uniform(-0.3, 1.0, KRYLOV_SHAPES["tall"]), 5)
        x = clamp_iterate(factors)
        c = x._correction.toarray()
        schur = np.sqrt(np.linalg.norm(c, 1) * np.linalg.norm(c, np.inf))
        assert np.linalg.norm(c) > factors.sigma[-1] / 4 >= schur
        cold_routes(monkeypatch)
        with monkeypatch.context() as patch:
            forced = spy_lanczos(patch, default=True)
            want = exact_projection(x, 5, factors)
        calls = spy_lanczos(monkeypatch)
        got = exact_projection(x, 5, factors)
        assert [call["ncv"] for call in forced + calls] == [10, 10]
        assert_same_truncation(got, want)
        assert_same_truncation(got, lapack_truncation(x.toarray(), 5))

    def test_svd_iterations_make_at_most_r_plus_10_gram_products(self, monkeypatch):
        # SciPy's default basis of 2 r + 1 = 21 vectors takes 22 products.
        target = smoluchowski_solution(SmoluchowskiSpec(nodes=256))
        start = svd_truncated(target, 10)
        calls = spy_lanczos(monkeypatch)
        run_method(start, MethodSpec(method="svd", r=10, s=3), target)
        assert len(calls) == 3
        assert all(call["products"] <= 20 for call in calls), calls

    def test_traces_do_not_depend_on_the_worker_count(self, tmp_path):
        # r = 4 runs Lanczos, r = 10 (5 r == 50) the dense path.
        for r in (4, 10):
            outputs = []
            for workers in (1, 2):
                out = tmp_path / f"rank{r}-workers{workers}"
                run_experiment(
                    ExperimentConfig(
                        problem=UniformProblem(rows=60, cols=50, seed=2),
                        method=MethodSpec(method="svd", r=r, s=4),
                        trials=3,
                        master_seed=7,
                        output_dir=str(out),
                        workers=workers,
                    )
                )
                outputs.append(out)
            for name in ("trial_0.csv", "trial_1.csv", "trial_2.csv", "mean.csv", "summary.json"):
                assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()


@st.composite
def sparse_matrices(draw):
    """A canonical CSR matrix: empty, one entry, or random, of any shape,
    one row and one column included, with entries over 2**-30 to 2**30."""
    shape = draw(st.tuples(st.integers(1, 30), st.integers(1, 30)))
    shape = draw(st.sampled_from([shape, (1, shape[1]), (shape[0], 1)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    values = rng.standard_normal(shape) * 2.0 ** rng.integers(-30, 31, shape)
    kind = draw(st.sampled_from(["empty", "one", "random"]))
    if kind == "empty":
        values[:] = 0.0
    elif kind == "one":
        values[np.arange(values.size).reshape(shape) != rng.integers(values.size)] = 0.0
    else:
        values[rng.random(shape) >= draw(st.floats(0.0, 1.0))] = 0.0
    return scipy.sparse.csr_array(values)


@settings(max_examples=200, deadline=None)
@given(c=sparse_matrices())
def test_norm_bound_lies_between_the_two_norm_and_the_frobenius_norm(c):
    dense = c.toarray()
    bound = lrap.methods._norm_bound(c)
    # ||C||_2 = ||C||_F for one row or column, and the three are rounded
    # sums of the same squares taken in different orders, an ulp or two apart.
    rounding = 4 * np.finfo(float).eps
    assert np.linalg.norm(dense, 2) * (1 - rounding) <= bound <= np.linalg.norm(dense) * (1 + rounding)


WARM_SHAPES = {"tall": (60, 40), "wide": (40, 60), "square": (40, 40)}


def certified_steps(x, factors):
    """The warm path's step count, from dense norms of the correction."""
    c = x._correction.toarray()
    bound = min(np.linalg.norm(c), np.sqrt(np.linalg.norm(c, 1) * np.linalg.norm(c, np.inf)))
    rho = bound / (factors.sigma[-1] - bound)
    eps = np.finfo(float).eps
    return max(1, math.ceil(math.log(eps / rho) / (2 * math.log(rho))))


def cold_projection(x, r):
    return lrap.methods._gram_truncated(x.toarray(), r)


def assert_same_trace(got, want):
    """Traces that agree to rounding: the errors within 1e-12 relative and the
    densities equal.  The violation magnitudes fall a thousandfold over a run
    while their rounding does not, so they agree to 1e-12 of their first value."""
    assert [a.iteration for a in got] == [b.iteration for b in want]
    for a, b in zip(got, want):
        assert a.neg_density == b.neg_density and a.over_density == b.over_density
        for name in ("rel_frobenius", "rel_chebyshev"):
            assert abs(getattr(a, name) - getattr(b, name)) <= 1e-12 * getattr(b, name)
    for name in ("neg_frobenius", "neg_chebyshev", "over_frobenius", "over_chebyshev"):
        scale = getattr(want[0], name)
        assert all(abs(getattr(a, name) - getattr(b, name)) <= 1e-12 * scale for a, b in zip(got, want))


def spy_routes(monkeypatch):
    """Record the route that each exact projection's price picks, with its step count."""
    routes, cheapest = [], lrap.methods._cheapest

    def spy(shape, r, nnz, steps, width):
        routes.append((cheapest(shape, r, nnz, steps, width), steps))
        return routes[-1][0]

    monkeypatch.setattr(lrap.methods, "_cheapest", spy)
    return routes


class TestWarmExactProjection:
    """``svd`` carries the previous iterate's basis to X's top r by the
    certified number of subspace steps and one Ritz step where the factors
    and the correction admit it and the price of those steps is below that
    of the cold route, Lanczos or the dense Gram truncation."""

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.sampled_from(list(WARM_SHAPES.values())),
        hi=st.sampled_from([np.inf, 1.0]),
        steps=st.integers(1, 3),
        exponent=st.integers(-200, 200),
        seed=st.integers(0, 2**16),
    )
    def test_agrees_with_the_cold_path(self, shape, hi, steps, exponent, seed):
        scale = 2.0**exponent
        factors, x = svd_started(shape, 8, BoxBounds(0.0, scale * hi), seed, steps, scale)
        certified = lrap.methods._certificate(x, factors, 8)[1]
        assume(certified is not None)
        warm = lrap.methods._warm_truncated(x, factors, 8, certified)
        assert_same_truncation(warm, cold_projection(x, 8))

    @pytest.mark.parametrize("shape", WARM_SHAPES.values(), ids=WARM_SHAPES.keys())
    def test_takes_the_certified_steps_and_one_small_gram(self, shape, monkeypatch):
        factors, x = svd_started(shape, 8, BOXES[0], seed=3, steps=1)
        steps = certified_steps(x, factors)
        assert 1 < steps == lrap.methods._certificate(x, factors, 8)[1]
        # The price picks the dense route at these shapes; the warm one is forced.
        monkeypatch.setattr(lrap.methods, "_cheapest", lambda *a: "warm")
        qrs, qr = [], lrap.methods.qr_thin
        monkeypatch.setattr(lrap.methods, "qr_thin", lambda a: qrs.append(a.shape) or qr(a))
        grams, cores, lapack = record_gram_truncations(monkeypatch)
        got = exact_projection(x, 8, factors)
        assert qrs == [(min(shape), 8)] * steps
        assert (grams, cores, lapack) == ([(8, 8)], [(max(shape), 8)], [])
        assert_same_truncation(got, lapack_truncation(x.toarray(), 8))

    @pytest.mark.parametrize(
        "case", ["sigma-less", "rank", "not orthonormal", "gram floor", "price", "far", "no factors"]
    )
    def test_each_guard_gives_the_cold_path(self, case, monkeypatch):
        r = 8
        factors, x = svd_started(WARM_SHAPES["tall"], r, BOXES[0], seed=3, steps=1)
        assert lrap.methods._certificate(x, factors, r)[1] is not None
        # Warm wherever a step count is certified, so that each guard alone decides.
        cheapest = lrap.methods._cheapest
        monkeypatch.setattr(
            lrap.methods, "_cheapest", lambda shape, r, nnz, steps, width: "warm" if steps else "dense"
        )
        if case == "sigma-less":
            factors = LowRankFactors(factors.u * factors.sigma, factors.v)
        elif case == "rank":
            r += 1
        elif case == "not orthonormal":
            u = factors.u + 1e-6 * np.random.default_rng(4).standard_normal(factors.u.shape)
            factors = LowRankFactors(u, factors.v, factors.sigma)
            x = clamp_iterate(factors)
        elif case == "gram floor":
            # A positive Y, so C = 0, with sigma_r / sigma_1 at the floor.
            rng = np.random.default_rng(5)
            u, v = (qr_thin(np.hstack([np.ones((k, 1)), rng.standard_normal((k, r - 1))]))[0] for k in (60, 40))
            sigma = np.concatenate([[1.0], np.geomspace(1e-2, 2e-3, r - 2), [1e-3]])
            above = LowRankFactors(u, v, np.append(sigma[:-1], 1.01e-3))
            assert lrap.methods._certificate(clamp_iterate(above), above, r)[1] == 1
            factors = LowRankFactors(u, v, sigma)
            x = clamp_iterate(factors)
            assert x._correction.nnz == 0
        elif case == "price":
            # At 60 x 40 an eigh of the 40 x 40 Gram costs less than the certified steps.
            monkeypatch.setattr(lrap.methods, "_cheapest", cheapest)
            width, steps = lrap.methods._certificate(x, factors, r)
            assert cheapest(x.shape, r, x._correction.nnz, steps, width) == "dense"
        elif case == "far":
            rng = np.random.default_rng(2)
            u, v = (qr_thin(rng.standard_normal((rows, r)))[0] for rows in (60, 40))
            factors = LowRankFactors(u, v, np.linspace(2.0, 1.0, r))
            x = clamp_iterate(factors)
            assert 2 * lrap.methods._norm_bound(x._correction) >= factors.sigma[-1]
        else:
            factors = None
        if case != "price":
            assert lrap.methods._certificate(x, factors, r)[1] is None
        got, want = exact_projection(x, r, factors), cold_projection(x, r)
        for name in ("u", "v", "sigma"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_run_matches_the_cold_path_to_rounding(self, monkeypatch):
        target = gen_uniform(256, 256, 11)
        spec = MethodSpec(method="svd", r=64, s=10)
        with monkeypatch.context() as patch:
            routes = spy_routes(patch)
            _, got = run_method(svd_truncated(target, 64), spec, target)
        assert [route for route, _ in routes] == ["warm"] * 10
        cold_routes(monkeypatch)
        _, want = run_method(svd_truncated(target, 64), spec, target)
        assert_same_trace(got, want)

    def test_lanczos_side_run_matches_the_lanczos_route_to_rounding(self, monkeypatch):
        # 5 r < min(m, n): the cold route is Lanczos.  The first iterate
        # certifies no steps, the second 18, which the price leaves to Lanczos.
        target = np.random.default_rng(0).standard_normal((200, 150)) + 0.5
        spec = MethodSpec(method="svd", r=10, s=12)
        with monkeypatch.context() as patch:
            routes = spy_routes(patch)
            _, got = run_method(svd_truncated(target, 10), spec, target)
        assert routes[:3] == [("lanczos", None), ("lanczos", 18), ("warm", 10)]
        assert all(route == "warm" for route, _ in routes[2:])
        start = svd_truncated(target, 10)
        lanczos = spy_lanczos(monkeypatch)
        cold_routes(monkeypatch)
        _, want = run_method(start, spec, target)
        # The second iterate's c lies between sigma_r / 4 and sigma_r / 2: 18 steps, SciPy's basis.
        assert [call["ncv"] for call in lanczos] == [None, None] + [15] * 10
        assert_same_trace(got, want)

    def test_certificate_is_read_once_per_projection(self, monkeypatch):
        counts = {"_norm_bound": 0, "_orthonormal": 0}

        def counted(name):
            original = getattr(lrap.methods, name)

            def call(*args):
                counts[name] += 1
                return original(*args)

            return call

        for name in counts:
            monkeypatch.setattr(lrap.methods, name, counted(name))
        target = np.random.default_rng(0).standard_normal((200, 150)) + 0.5
        run_method(svd_truncated(target, 10), MethodSpec(method="svd", r=10, s=6), target)
        assert counts == {"_norm_bound": 6, "_orthonormal": 6}


# (shape, r, nnz(C), certified steps, Lanczos width, route) at the three bench
# workloads' shapes, from the range of nnz(C) that their svd runs see; the
# timed crossovers lay at k = 5-6 on image512 and 3 on coag1024, and the
# price keeps uniform256 at the k <= 8 of the rule it replaced (README).
def bench_routes(shape, r, width, nnzs, warmest, cold, steps):
    return [(shape, r, nnz, k, width, "warm" if k <= warmest else cold) for nnz in nnzs for k in steps]


BENCH_ROUTES = [
    *bench_routes((512, 512), 50, 56, (5000, 7000, 9000), 5, "lanczos", (1, 3, 5, 7, 8, 11, 20)),
    *bench_routes((1024, 1024), 10, 15, (60000, 80000, 110000), 3, "lanczos", (1, 2, 3, 4, 5, 9, 21)),
    *bench_routes((256, 256), 64, 72, (400, 650), 8, "dense", (1, 2, 5, 8, 9, 15, 23)),
    ((512, 512), 50, 7000, None, 56, "lanczos"),
    ((512, 512), 50, 7000, 5, None, "warm"),
    ((256, 256), 64, 500, None, None, "dense"),
]


@pytest.mark.parametrize("shape, r, nnz, steps, width, route", BENCH_ROUTES)
def test_route_table_at_the_bench_shapes(shape, r, nnz, steps, width, route):
    assert lrap.methods._cheapest(shape, r, nnz, steps, width) == route


@settings(max_examples=100, deadline=None)
@given(c=sparse_matrices(), columns=st.integers(0, 4), seed=st.integers(0, 2**32))
def test_csc_view_products_are_the_csr_of_the_transposes(c, columns, seed):
    # X.T holds C^T as SciPy's CSC view of C, not a CSR copy: the same sums in the same order.
    b = np.random.default_rng(seed).standard_normal((c.shape[0], columns) if columns else c.shape[0])
    x = ClampedIterate(np.zeros((c.shape[0], 1)), np.zeros((1, c.shape[1])), BOXES[0], c, None, None)
    view = x.T._correction
    assert view.format == "csc" and (c.nnz == 0 or np.shares_memory(view.data, c.data))
    want = c.T.tocsr() @ b
    assert np.array_equal(view @ b, want)
    assert np.array_equal(x.T @ b, want)


def scaled_core(shape, sigma, seed):
    """A core of the given shape with singular values ``sigma`` (padded with
    zeros) on random orthonormal bases."""
    rng = np.random.default_rng(seed)
    width = min(shape)
    u, v = (qr_thin(rng.standard_normal((rows, width)))[0] for rows in shape)
    return (u * np.pad(sigma, (0, width - len(sigma)))) @ v.T


@st.composite
def gram_cores(draw):
    """A tall, wide or square core, a rank r, and sigma_r / sigma_1 at or
    above 2e-3 with sigma_{r+1} <= sigma_r / 2, at a power-of-two scale."""
    small = draw(st.integers(1, 30))
    large = draw(st.integers(small + 1, 60))
    shape = draw(st.sampled_from([(large, small), (small, large), (small, small)]))
    r = draw(st.integers(1, min(shape)))
    ratio = draw(st.sampled_from([2e-3, 1.0]) | st.floats(2e-3, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    head = np.geomspace(1.0, ratio, r)
    tail = np.sort(rng.uniform(0.0, ratio / 2, min(shape) - r))[::-1]
    scale = 2.0 ** draw(st.integers(-30, 30))
    return scaled_core(shape, scale * np.concatenate([head, tail]), rng.integers(2**32)), r


class TestGramTruncation:
    """``_gram_truncated``, the Rayleigh-Ritz step of every engine but ``gn``:
    one ``eigh`` of the core's shorter-side Gram, lifted to the other side,
    or LAPACK's truncation where lambda_r <= _GRAM_FLOOR lambda_1."""

    @settings(max_examples=150, deadline=None)
    @given(case=gram_cores())
    def test_agrees_with_lapack_above_the_floor(self, case):
        core, r = case
        with pytest.MonkeyPatch.context() as patch:
            _, cores, lapack = record_gram_truncations(patch)
            got = lrap.methods._gram_truncated(core, r)
        assert cores == [core.shape] and lapack == []
        want = lapack_truncation(core, r)
        assert np.abs(got.sigma - want.sigma).max() <= 1e-13 * want.sigma[0]
        dense = want.reconstruct()
        assert np.linalg.norm(got.reconstruct() - dense) <= 1e-12 * np.linalg.norm(dense)
        assert (np.diff(got.sigma) <= 0).all()
        # The eigenvectors are orthonormal to rounding; the lift loses
        # (sigma_1 / sigma_r)^2 eps, 2.5e5 eps at sigma_r / sigma_1 = 2e-3.
        eigenvectors, lifted = (got.u, got.v) if core.shape[0] < core.shape[1] else (got.v, got.u)
        assert np.linalg.norm(eigenvectors.T @ eigenvectors - np.eye(r)) <= 1e-13
        assert np.linalg.norm(lifted.T @ lifted - np.eye(r)) <= 1e-10

    @pytest.mark.parametrize("shape", [(40, 12), (12, 40), (20, 20)], ids=["tall", "wide", "square"])
    @pytest.mark.parametrize("case", ["steep", "deficient", "zero"])
    def test_below_the_floor_takes_lapack(self, shape, case, monkeypatch):
        r = 6
        sigma = {
            "steep": np.geomspace(1.0, 5e-4, r),  # lambda_r / lambda_1 = 2.5e-7
            "deficient": np.linspace(1.0, 0.5, r - 2),
            "zero": np.zeros(0),
        }[case]
        core = scaled_core(shape, sigma, seed=sum(shape))
        grams, cores, lapack = record_gram_truncations(monkeypatch)
        got = lrap.methods._gram_truncated(core, r)
        assert (grams, cores, lapack) == ([(min(shape),) * 2], [shape], [shape])
        want = svd_truncated(core, r)
        for name in ("u", "v", "sigma"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


def swapped(factors):
    return LowRankFactors(u=factors.v, v=factors.u, sigma=factors.sigma)


@st.composite
def transpose_cases(draw):
    """A tall, wide or square X, dense or (where it has a shorter side) a
    clamped iterate, its rank-r truncation, and r <= min(m, n) - 2, the
    most ARPACK takes.  The spectrum decays geometrically, by a factor of
    0.3 to 0.8 a step, so it has a gap at every r and crosses the Gram
    floor where r is large."""
    small = draw(st.integers(3, 20))
    large = draw(st.integers(small + 1, 40))
    shape = draw(st.sampled_from([(large, small), (small, large), (small, small)]))
    r = draw(st.integers(1, min(shape) - 2))
    decay = draw(st.floats(0.3, 0.8))
    x = scaled_core(shape, decay ** np.arange(min(shape)), draw(st.integers(0, 2**32 - 1)))
    factors = svd_truncated(x, r)
    if shape[0] != shape[1] and draw(st.booleans()):
        x = clamp_iterate(factors, draw(st.sampled_from(BOXES)))
    return x, factors, r


@settings(max_examples=100, deadline=None)
@given(case=transpose_cases())
def test_truncations_of_the_transpose_swap_u_and_v(case):
    """Each rank-r truncation kernel maps X^T to its result for X with u and v
    swapped: bit for bit where X has a shorter side, as both orientations
    factor that side, and to rounding for a square X, which each factors as
    it comes.  A square X's warm steps start from different bases, so
    ``_warm_truncated`` is compared on tall and wide X only."""
    x, factors, r = case
    square = x.shape[0] == x.shape[1]
    dense = x.toarray() if isinstance(x, ClampedIterate) else x
    kernels = {
        "svd_truncated": (dense, lambda a, f: svd_truncated(a, r)),
        "_gram_truncated": (dense, lambda a, f: lrap.methods._gram_truncated(a, r)),
        "lanczos_truncated": (x, lambda a, f: lanczos_truncated(a, r)),
        "_warm_truncated": (x, lambda a, f: lrap.methods._warm_truncated(a, f, r, 2)),
    }
    for name, (a, kernel) in kernels.items():
        if square and name == "_warm_truncated":
            continue
        got, want = kernel(a.T, swapped(factors)), swapped(kernel(a, factors))
        if square:
            assert np.abs(got.sigma - want.sigma).max() <= 1e-13 * want.sigma[0], name
            reference = want.reconstruct()
            assert np.linalg.norm(got.reconstruct() - reference) <= 1e-12 * np.linalg.norm(reference), name
        else:
            for field in ("u", "v", "sigma"):
                assert np.array_equal(getattr(got, field), getattr(want, field)), (name, field)


@st.composite
def deficient_targets(draw):
    """A nonnegative target of rank q < r, tall, wide or square, and r."""
    small = draw(st.integers(3, 24))
    large = draw(st.integers(small + 1, 40))
    m, n = draw(st.sampled_from([(large, small), (small, large), (small, small)]))
    r = draw(st.integers(2, min(m, n)))
    q = draw(st.integers(1, r - 1))
    return nonnegative_rank_r(m, n, q, seed=draw(st.integers(0, 2**32))), r


@settings(max_examples=60, deadline=None)
@given(case=deficient_targets(), seed=st.integers(0, 2**32))
def test_every_engine_reproduces_a_target_of_rank_below_r(case, seed):
    """Each engine's run from its own start ends at the rank-q target.

    The sketches are Gaussian and oversampled, as the sketch families and
    sizes that fill rank q here are, so the property tests the rank of the
    target, not the conditioning of a small sketch.  ``gn``'s X Psi, and
    ``tropp``'s sketches where k > q, have rank q, so a sketch that
    collapses twice may raise ``SketchCollapseError`` there.
    """
    target, r = case
    m = target.shape[0]
    k = min(r + 2, m)
    sketch = SketchSpec(kind="gaussian", seed=seed)
    specs = (
        MethodSpec(method="svd", r=r, s=3),
        MethodSpec(method="tangent", r=r, s=3),
        MethodSpec(method="hmt", r=r, k=k, s=3, sketch=sketch),
        MethodSpec(method="tropp", r=r, k=k, l=2 * k + 1, s=3, sketch=sketch),
        MethodSpec(method="gn", r=r, l=2 * r + 1, s=3, sketch=sketch),
    )
    for spec in specs:
        try:
            _, trace = run_method(initialize(target, spec), spec, target=target)
        except SketchCollapseError:
            assert spec.method in ("gn", "tropp")
            continue
        assert trace[-1].rel_frobenius <= 1e-12, spec.method


class TestRunMethod:
    def test_zero_iterations_returns_input(self):
        a = gen_uniform(20, 16, 2)
        spec = MethodSpec(method="svd", r=3, s=0)
        y0 = initialize(a, spec)
        final, trace = run_method(y0, spec, target=a)
        assert trace == []
        assert np.array_equal(final.reconstruct(), y0.reconstruct())

    def test_trace_on_nonnegative_fixed_point(self):
        y = nonnegative_rank_r(30, 22, 3, seed=13)
        for spec in (
            MethodSpec(method="svd", r=3, s=4),
            MethodSpec(method="tangent", r=3, s=4),
            MethodSpec(method="hmt", r=3, k=5, s=4, sketch=GAUSS),
        ):
            _, trace = run_method(svd_truncated(y, 3), spec, target=y)
            assert len(trace) == 4
            assert all(rec.neg_frobenius < 1e-12 for rec in trace)

    def test_callback_sees_every_record(self):
        a = gen_uniform(20, 20, 4)
        spec = MethodSpec(method="svd", r=2, s=5)
        seen = []
        _, trace = run_method(initialize(a, spec), spec, target=a, on_iteration=seen.append)
        assert seen == trace
        assert [rec.iteration for rec in trace] == [1, 2, 3, 4, 5]

    def test_initial_rank_above_target_rejected(self):
        a = gen_uniform(12, 12, 5)
        with pytest.raises(ValueError, match="rank"):
            run_method(svd_truncated(a, 5), MethodSpec(method="svd", r=3, s=1), target=a)

    def test_box_bounds_respected_by_projection(self):
        a = gen_uniform(32, 32, 6)
        spec = MethodSpec(
            method="hmt", r=4, k=6, s=6, sketch=SPARSE, box=BoxBounds(0.0, 1.0)
        )
        final, trace = run_method(initialize(a, spec), spec, target=a)
        clipped = project_box(final.reconstruct(), spec.box)
        assert clipped.min() >= 0.0 and clipped.max() <= 1.0
        assert len(trace) == 6


class TestEquivalenceOnExactProjection:
    def test_all_methods_agree_when_projection_is_exact(self):
        # When the clamped iterate has exact rank <= r, every method must
        # return that matrix itself.
        y = nonnegative_rank_r(64, 48, 5, seed=21)
        state = IterateState(svd_truncated(y, 5))
        outputs = {
            "svd": ap_svd_step(state, MethodSpec(method="svd", r=5)),
            "tangent": ap_tangent_step(state, MethodSpec(method="tangent", r=5)),
            "hmt": ap_hmt_step(
                state, MethodSpec(method="hmt", r=5, k=5, sketch=GAUSS), 2
            ),
            "tropp": ap_tropp_step(
                state, MethodSpec(method="tropp", r=5, k=5, l=10, sketch=RAD), 2
            ),
            "gn": ap_gn_step(state, MethodSpec(method="gn", r=5, l=10, sketch=SPARSE), 2),
        }
        for name, out in outputs.items():
            assert rel_err(y, out.factors.reconstruct()) < 1e-8, name


class TestGnIsTroppWithKEqualR:
    """gn(l) is tropp(r, l) in exact arithmetic.  With Q = qr(X Psi), gn's
    X Psi (Phi X Psi)^+ Phi X equals Q (Phi Q)^+ Phi X, tropp's estimate,
    whose rank-r truncation of a rank-r core changes nothing; both engines
    draw Psi and Phi from the same roles of the same seed."""

    SHAPES = {"tall": (60, 40), "wide": (40, 60), "square": (50, 50)}

    @staticmethod
    def specs(sketch, box, s=0):
        return (
            MethodSpec(method="gn", r=5, l=12, s=s, sketch=sketch, box=box),
            MethodSpec(method="tropp", r=5, k=5, l=12, s=s, sketch=sketch, box=box),
        )

    @staticmethod
    def assert_same(gn, tropp):
        want = tropp.reconstruct()
        assert np.linalg.norm(gn.reconstruct() - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("sketch", [SPARSE, GAUSS, RAD], ids=["sparse", "gauss", "rad"])
    @pytest.mark.parametrize("box", BOXES, ids=["nonnegative", "unit"])
    @pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
    def test_steps_starts_and_runs_agree(self, shape, box, sketch):
        # The rank-5 start leaves 2-3 % of the entries on each side of [0, 1].
        target = np.random.default_rng(sum(shape)).uniform(-0.3, 1.3, shape)
        start = svd_truncated(target, 5)
        gn, tropp = self.specs(sketch, box)
        self.assert_same(
            ap_gn_step(IterateState(start), gn, 3).factors,
            ap_tropp_step(IterateState(start), tropp, 3).factors,
        )
        self.assert_same(initialize(target, gn), initialize(target, tropp))
        gn, tropp = self.specs(sketch, box, s=6)
        self.assert_same(
            run_method(start, gn, target=target)[0], run_method(start, tropp, target=target)[0]
        )


def left_applies_through_phi(x, spec, iteration_seed):
    """gn's (Phi X)^T Q and tropp's T^-1 P^T (Phi X), with X multiplied by all
    l rows of Phi: the product order the engines had before they applied X
    to Q^T Phi and P^T Phi."""
    m, n = x.shape
    k = spec.r if spec.method == "gn" else spec.k
    psi = gen_test_matrix(_iteration_sketch(spec, iteration_seed, _PSI), n, k)
    phi = gen_test_matrix(_iteration_sketch(spec, iteration_seed, _PHI), spec.l, m)
    psi, phi = (a.array if isinstance(a, SparseSignMatrix) else a for a in (psi, phi))
    z = x @ psi
    phi_x = phi @ x
    if spec.method == "gn":
        q, r_factor = qr_thin(phi @ z)
        u = solve_triangular(r_factor.T, z.T, lower=True).T
        return LowRankFactors(u=u, v=phi_x.T @ q)
    q, _ = qr_thin(z)
    p_factor, t_factor = qr_thin(phi @ q)
    small = svd_truncated(solve_triangular(t_factor, p_factor.T @ phi_x), spec.r)
    return LowRankFactors(u=q @ small.u, v=small.v, sigma=small.sigma)


class TestLeftAppliesThroughTheNarrowestFactor:
    """gn applies X to Q^T Phi (r rows) and tropp to P^T Phi (k rows), not
    to Phi (l rows); in exact arithmetic the product order is free."""

    SHAPES = {"tall": (60, 40), "wide": (40, 60)}

    @pytest.mark.parametrize("sketch", [SPARSE, GAUSS], ids=["sparse", "gauss"])
    @pytest.mark.parametrize("box", BOXES, ids=["nonnegative", "unit"])
    @pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
    @pytest.mark.parametrize("method", ["gn", "tropp"])
    def test_matches_the_order_through_phi(self, method, shape, box, sketch):
        k = 8 if method == "tropp" else None
        spec = MethodSpec(method=method, r=5, k=k, l=14, sketch=sketch, box=box)
        target = np.random.default_rng(sum(shape)).uniform(-0.3, 1.3, shape)
        x = clamped(shape, 5, box, seed=sum(shape))
        for source in (x, target):
            want = left_applies_through_phi(source, spec, 3).reconstruct()
            got = lrap.methods.ENGINES[method].project(source, None, spec, 3).reconstruct()
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestInitialize:
    def test_deterministic_methods_use_truncated_svd(self):
        a = gen_uniform(30, 30, 14)
        for method in ("svd", "tangent"):
            # 5 r >= min(m, n), the dense path, and 5 r < min(m, n), the Krylov
            # path: each the LAPACK truncation to rounding.
            for r in (6, 5):
                assert_same_truncation(initialize(a, MethodSpec(method=method, r=r)), lapack_truncation(a, r))

    def test_randomized_initialization_reproducible(self):
        a = gen_uniform(30, 30, 15)
        spec = MethodSpec(method="gn", r=4, l=8, sketch=SPARSE)
        one = initialize(a, spec)
        two = initialize(a, spec)
        assert np.array_equal(one.reconstruct(), two.reconstruct())
        assert one.sigma is None
