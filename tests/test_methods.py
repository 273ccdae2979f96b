import numpy as np
import pytest

import lrap.methods
from lrap import (
    BoxBounds,
    IterateState,
    LowRankFactors,
    MethodSpec,
    SketchCollapseError,
    SketchSpec,
    ap_gn_step,
    ap_hmt_step,
    ap_svd_step,
    ap_tangent_step,
    ap_tropp_step,
    initialize,
    project_box,
    run_method,
    svd_truncated,
    tangent_space_apply,
)
from lrap.problems import gen_uniform
from conftest import nonnegative_rank_r

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

    def test_step_requires_svd_form_state(self):
        pair = LowRankFactors(u=np.ones((6, 1)), v=np.ones((5, 1)))
        with pytest.raises(ValueError, match="SVD-form"):
            ap_tangent_step(IterateState(pair), MethodSpec(method="tangent", r=1))

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

    @pytest.mark.parametrize("method, step", [("svd", ap_svd_step), ("tangent", ap_tangent_step)])
    def test_unsketched_linalg_error_propagates_unretried(self, monkeypatch, method, step):
        calls = []

        def fail(*args):
            calls.append(args)
            raise np.linalg.LinAlgError("SVD did not converge")

        state = IterateState(svd_truncated(gen_uniform(12, 10, 3), 2))
        monkeypatch.setattr(lrap.methods, "svd_truncated", fail)
        with pytest.raises(np.linalg.LinAlgError) as info:
            step(state, MethodSpec(method=method, r=2))
        assert type(info.value) is np.linalg.LinAlgError
        assert str(info.value) == "SVD did not converge"
        assert len(calls) == 1


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
            run_method(svd_truncated(a, 5), MethodSpec(method="svd", r=3, s=1))

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


class TestInitialize:
    def test_deterministic_methods_use_truncated_svd(self):
        a = gen_uniform(30, 30, 14)
        f = initialize(a, MethodSpec(method="tangent", r=5))
        g = svd_truncated(a, 5)
        assert np.array_equal(f.reconstruct(), g.reconstruct())

    def test_randomized_initialization_reproducible(self):
        a = gen_uniform(30, 30, 15)
        spec = MethodSpec(method="gn", r=4, l=8, sketch=SPARSE)
        one = initialize(a, spec)
        two = initialize(a, spec)
        assert np.array_equal(one.reconstruct(), two.reconstruct())
        assert one.sigma is None
