"""Non-finite input, and sizes the target cannot hold, are rejected at the public boundary.

The engines validate their input once, where it enters: ``run_method``,
``initialize`` and the ``ap_*_step`` functions.  Inside an engine only the
sketch applies skip the scan (``check_finite=False``); ``qr_thin``,
``svd_truncated``, ``LowRankFactors`` and ``project_box`` scan on every
call.  Each public kernel must reject non-finite input when it is called
directly, and a sparse sign sketch is checked as a dense one is.  A rank
above min(m, n), or a co-range sketch size k above m, is refused by the
entry points before any projection, with the parameter named.
"""

import re
from dataclasses import replace

import numpy as np
import pytest

import lrap.methods
from lrap import (
    BoxBounds,
    IterateState,
    MethodSpec,
    SketchSpec,
    SparseSignMatrix,
    ap_gn_step,
    ap_hmt_step,
    ap_svd_step,
    ap_tangent_step,
    ap_tropp_step,
    apply_sketch_left,
    apply_sketch_right,
    gen_test_matrix,
    initialize,
    iteration_record,
    project_box,
    qr_thin,
    relative_errors,
    run_method,
    svd_truncated,
    violation_stats,
)
from lrap.problems import gen_uniform

SKETCH = SketchSpec(kind="sparse", density=0.4, seed=9)
SPECS = {
    "svd": MethodSpec(method="svd", r=3, s=2),
    "tangent": MethodSpec(method="tangent", r=3, s=2),
    "hmt": MethodSpec(method="hmt", r=3, k=5, s=2, sketch=SKETCH),
    "tropp": MethodSpec(method="tropp", r=3, k=5, l=8, s=2, sketch=SKETCH),
    "gn": MethodSpec(method="gn", r=3, l=8, s=2, sketch=SKETCH),
}
STEPS = {
    "svd": lambda state, spec: ap_svd_step(state, spec),
    "tangent": lambda state, spec: ap_tangent_step(state, spec),
    "hmt": lambda state, spec: ap_hmt_step(state, spec, 1),
    "tropp": lambda state, spec: ap_tropp_step(state, spec, 1),
    "gn": lambda state, spec: ap_gn_step(state, spec, 1),
}
BAD = [np.nan, np.inf, -np.inf]


def target():
    return gen_uniform(14, 11, 3)


def spoiled(value, where="u"):
    """Valid factors whose array is overwritten in place after construction."""
    factors = svd_truncated(target(), 3)
    getattr(factors, where).flat[2] = value
    return factors


@pytest.mark.parametrize("method", sorted(SPECS))
@pytest.mark.parametrize("bad", BAD)
class TestEntryPoints:
    def test_run_method_rejects_target(self, method, bad):
        t = target()
        y0 = initialize(t, SPECS[method])
        t[4, 5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            run_method(y0, SPECS[method], target=t)

    @pytest.mark.parametrize("iterations", [0, 2])
    def test_run_method_rejects_factors(self, method, bad, iterations):
        spec = replace(SPECS[method], s=iterations)
        with pytest.raises(ValueError, match="non-finite"):
            run_method(spoiled(bad), spec, target=target())
        with pytest.raises(ValueError, match="non-finite"):
            run_method(spoiled(bad, "v"), spec, target=target())

    def test_initialize_rejects_target(self, method, bad):
        t = target()
        t[0, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            initialize(t, SPECS[method])

    # The clamp pass forms the iterate from the bad entry before its sums reject it.
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_step_rejects_factors(self, method, bad):
        for where in ("u", "v", "sigma"):
            with pytest.raises(ValueError, match="non-finite"):
                STEPS[method](IterateState(spoiled(bad, where)), SPECS[method])


def with_bad_entry(shape, bad, seed=0):
    a = np.random.default_rng(seed).random(shape)
    a[0, -1] = bad
    return a


SPARSE_PSI = gen_test_matrix(SKETCH, 6, 3)
SPARSE_PHI = gen_test_matrix(SKETCH, 3, 6)
KERNELS = {
    "qr_thin": lambda bad: qr_thin(with_bad_entry((6, 3), bad)),
    "svd_truncated": lambda bad: svd_truncated(with_bad_entry((6, 5), bad), 2),
    "project_box": lambda bad: project_box(with_bad_entry((6, 5), bad), BoxBounds(0.0, 1.0)),
    "relative_errors target": lambda bad: relative_errors(with_bad_entry((6, 5), bad), np.ones((6, 5))),
    "relative_errors approx": lambda bad: relative_errors(np.ones((6, 5)), with_bad_entry((6, 5), bad)),
    "violation_stats": lambda bad: violation_stats(with_bad_entry((6, 5), bad)),
    "iteration_record": lambda bad: iteration_record(1, np.ones((6, 5)), with_bad_entry((6, 5), bad)),
    "apply_sketch_right x": lambda bad: apply_sketch_right(with_bad_entry((4, 6), bad), SPARSE_PSI),
    "apply_sketch_right psi": lambda bad: apply_sketch_right(np.ones((4, 6)), with_bad_entry((6, 3), bad)),
    "apply_sketch_left x": lambda bad: apply_sketch_left(SPARSE_PHI, with_bad_entry((6, 4), bad)),
    "apply_sketch_left phi": lambda bad: apply_sketch_left(with_bad_entry((3, 6), bad), np.ones((6, 4))),
    "apply_sketch_right sparse psi": lambda bad: apply_sketch_right(
        np.ones((4, 6)), SparseSignMatrix(with_bad_entry((6, 3), bad))
    ),
    "apply_sketch_left sparse phi": lambda bad: apply_sketch_left(
        SparseSignMatrix(with_bad_entry((3, 6), bad)), np.ones((6, 4))
    ),
}


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("bad", BAD)
def test_public_kernel_rejects_nonfinite_input(kernel, bad):
    with pytest.raises(ValueError, match="non-finite"):
        KERNELS[kernel](bad)


# A 20 x 30 target holds no rank above 20 and no range sketch X Psi wider than
# 20; a 30 x 20 one no power iteration's (Q^T X)^T wider than 20.
WIDE, TALL = (20, 30), (30, 20)
RANK = "rank {} out of range for the 20x30 target: r must be at most 20"
CO_RANGE = "co-range sketch size 25 out of range for the 20x30 target: k must be at most 20"
POWER = "co-range sketch size 25 out of range for the 30x20 target: k must be at most 20 when p = 1"
UNFIT = {
    "svd r": (MethodSpec(method="svd", r=21, s=2), RANK.format(21), WIDE),
    "tangent r": (MethodSpec(method="tangent", r=21, s=2), RANK.format(21), WIDE),
    "hmt r": (MethodSpec(method="hmt", r=21, k=21, s=2, sketch=SKETCH), RANK.format(21), WIDE),
    "hmt k": (MethodSpec(method="hmt", r=5, k=25, s=2, sketch=SKETCH), CO_RANGE, WIDE),
    "tropp k": (MethodSpec(method="tropp", r=5, k=25, l=40, s=2, sketch=SKETCH), CO_RANGE, WIDE),
    "gn r": (MethodSpec(method="gn", r=25, l=30, s=2, sketch=SKETCH), RANK.format(25), WIDE),
    "hmt power k": (MethodSpec(method="hmt", r=5, k=25, p=1, s=2, sketch=SKETCH), POWER, TALL),
}


@pytest.mark.parametrize("case", sorted(UNFIT))
class TestSizesTheTargetCannotHold:
    @pytest.fixture(autouse=True)
    def no_projection(self, monkeypatch):
        def fail(*args):
            raise AssertionError("projected before the sizes were checked")

        monkeypatch.setattr(lrap.methods, "_advance", fail)

    def test_initialize(self, case):
        spec, message, shape = UNFIT[case]
        with pytest.raises(ValueError, match=re.escape(message)):
            initialize(gen_uniform(*shape, 1), spec)

    def test_run_method(self, case):
        spec, message, shape = UNFIT[case]
        t = gen_uniform(*shape, 1)
        with pytest.raises(ValueError, match=re.escape(message)):
            run_method(svd_truncated(t, 3), spec, target=t)

    def test_step(self, case):
        spec, message, shape = UNFIT[case]
        with pytest.raises(ValueError, match=re.escape(message)):
            STEPS[spec.method](IterateState(svd_truncated(gen_uniform(*shape, 1), 3)), spec)


@pytest.mark.parametrize("method", ["hmt", "tropp"])
def test_co_range_sketch_wider_than_a_tall_target_runs(method):
    # Without power iterations k > n is harmless: X Psi is 30 x 25 and has rank at most 20.
    t = gen_uniform(30, 20, 1)
    spec = MethodSpec(method=method, r=5, k=25, l=40 if method == "tropp" else None, s=2, sketch=SKETCH)
    _, trace = run_method(initialize(t, spec), spec, target=t)
    assert len(trace) == 2
